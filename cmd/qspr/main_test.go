package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/circuits"
	"repro/internal/core"
	"repro/internal/serve"
)

// TestRunReturnsInsteadOfExit: run must report failures through its
// exit code, never os.Exit — otherwise deferred flushes are skipped
// (the -out truncation bug this command shared with cmd/tables).
func TestRunReturnsInsteadOfExit(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-circuit", "nosuch"}, &out, &errb); code != 1 {
		t.Errorf("unknown circuit: code %d, want 1", code)
	}
	if !strings.Contains(errb.String(), "unknown benchmark") {
		t.Errorf("stderr %q", errb.String())
	}
	if code := run([]string{"-definitely-not-a-flag"}, &out, &errb); code != 2 {
		t.Error("bad flag should return 2")
	}
	if code := run([]string{"-circuit", "[[5,1,3]]", "-format", "csv"}, &out, &errb); code != 1 {
		t.Error("-format on a single run should be rejected")
	}
	if code := run([]string{"-circuit", "[[5,1,3]],[[7,1,3]]", "-trace"}, &out, &errb); code != 1 {
		t.Error("-trace on a sweep should be rejected")
	}
}

// TestSweepReportFlushedDespiteFailure is the regression test for
// the os.Exit truncation bug: a sweep where one circuit fails must
// exit non-zero AND still write the complete report (including the
// failing row) to -out.
func TestSweepReportFlushedDespiteFailure(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "report.csv")
	var out, errb bytes.Buffer
	// ghz(q=9999) exceeds the 462 traps of the default fabric, so its
	// run fails after the healthy run has produced partial output.
	code := run([]string{
		"-circuit", "ghz(q=4),ghz(q=9999)",
		"-heuristic", "qspr-center",
		"-format", "csv", "-out", path,
	}, &out, &errb)
	if code != 1 {
		t.Fatalf("code %d, want 1 (stderr: %s)", code, errb.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("report not written: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 3 { // header + 2 runs
		t.Fatalf("report has %d lines, want 3:\n%s", len(lines), data)
	}
	if !strings.Contains(lines[2], "exceed") {
		t.Errorf("failing row not recorded: %q", lines[2])
	}
	if !strings.Contains(errb.String(), "failed") {
		t.Errorf("failure not announced on stderr: %q", errb.String())
	}
}

// TestSingleRunQASMFile: the -qasm path maps an external file
// (written in the OpenQASM dialect) like any built-in circuit.
func TestSingleRunQASMFile(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "fig3.qasm")
	openqasm := `OPENQASM 2.0;
qreg q[5];
h q[0]; h q[1]; h q[2]; h q[4];
cx q[3],q[2]; cz q[4],q[2];
cy q[2],q[1]; cy q[3],q[1]; cx q[4],q[1];
cz q[2],q[0]; cy q[3],q[0]; cz q[4],q[0];
`
	if err := os.WriteFile(path, []byte(openqasm), 0o644); err != nil {
		t.Fatal(err)
	}
	var ext, builtin, errb bytes.Buffer
	if code := run([]string{"-qasm", path, "-heuristic", "qspr-center"}, &ext, &errb); code != 0 {
		t.Fatalf("qasm run failed: %s", errb.String())
	}
	if code := run([]string{"-circuit", "[[5,1,3]]", "-heuristic", "qspr-center"}, &builtin, &errb); code != 0 {
		t.Fatalf("builtin run failed: %s", errb.String())
	}
	latency := func(s string) string {
		for _, line := range strings.Split(s, "\n") {
			if strings.HasPrefix(line, "execution latency:") {
				return line
			}
		}
		return ""
	}
	if l := latency(ext.String()); l == "" || l != latency(builtin.String()) {
		t.Errorf("external copy latency %q != builtin %q", l, latency(builtin.String()))
	}
}

// postServe drives a serve.Server's full handler path with one JSON
// body and returns the recorder.
func postServe(t *testing.T, h http.Handler, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/map", strings.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

// cliReport runs `qspr -report -` and returns the report bytes.
func cliReport(t *testing.T, args ...string) []byte {
	t.Helper()
	var out, errb bytes.Buffer
	if code := run(append(args, "-report", "-"), &out, &errb); code != 0 {
		t.Fatalf("qspr %v: code %d: %s", args, code, errb.String())
	}
	return out.Bytes()
}

// TestReportMatchesService is the service's headline correctness
// pin: for both built-in fabrics × two registry specs and an OpenQASM
// 2.0 program sent inline, the POST /map response bytes equal the
// `qspr -report -` bytes for the same inputs — and a cached hit
// re-serves exactly the cold-miss bytes. The same program named
// through the file-backed qasm() family maps on the CLI, while the
// service refuses that family, which would read a file on its own host.
func TestReportMatchesService(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	qasmPath := filepath.Join(t.TempDir(), "fig3.qasm")
	openqasm := `OPENQASM 2.0;
qreg q[5];
h q[0]; h q[1]; h q[2]; h q[4];
cx q[3],q[2]; cz q[4],q[2];
cy q[2],q[1]; cy q[3],q[1]; cx q[4],q[1];
cz q[2],q[0]; cy q[3],q[0]; cz q[4],q[0];
`
	if err := os.WriteFile(qasmPath, []byte(openqasm), 0o644); err != nil {
		t.Fatal(err)
	}
	// Each case selects its circuit with qspr flags (cli) and with the
	// matching request fields (req).
	cases := []struct {
		name, req, heuristic string
		cli                  []string
		m                    int
	}{
		{"[[5,1,3]]", `"circuit":"[[5,1,3]]"`, "qspr", []string{"-circuit", "[[5,1,3]]"}, 2},
		{"ghz(q=4)", `"circuit":"ghz(q=4)"`, "qspr-center", []string{"-circuit", "ghz(q=4)"}, 25},
		{"inline-qasm", fmt.Sprintf(`"qasm":%q`, openqasm), "mc", []string{"-qasm", qasmPath}, 2},
	}
	srv := serve.New(serve.Config{Workers: 2, QueueDepth: 8})
	h := srv.Handler()
	fileSpec := fmt.Sprintf("qasm(path=%s)", qasmPath)
	cliReport(t, "-circuit", fileSpec, "-fabric", "small", "-heuristic", "mc", "-m", "2")
	if w := postServe(t, h, fmt.Sprintf(`{"circuit":%q,"fabric":"small","heuristic":"mc","m":2}`, fileSpec)); w.Code != http.StatusBadRequest {
		t.Errorf("%s: served status %d, want 400: %s", fileSpec, w.Code, w.Body.String())
	}
	for _, fab := range []string{"quale45x85", "small"} {
		for _, c := range cases {
			name := fab + "/" + c.name
			want := cliReport(t, append(c.cli,
				"-fabric", fab, "-heuristic", c.heuristic, "-m", fmt.Sprint(c.m))...)
			body := fmt.Sprintf(`{%s,"fabric":%q,"heuristic":%q,"m":%d}`,
				c.req, fab, c.heuristic, c.m)
			miss := postServe(t, h, body)
			if miss.Code != http.StatusOK {
				t.Fatalf("%s: served status %d: %s", name, miss.Code, miss.Body.String())
			}
			if !bytes.Equal(miss.Body.Bytes(), want) {
				t.Errorf("%s: served bytes != CLI report:\n got %s\nwant %s",
					name, miss.Body.Bytes(), want)
			}
			hit := postServe(t, h, body)
			if got := hit.Header().Get("X-Cache"); got != "hit" {
				t.Errorf("%s: repeat X-Cache %q, want hit", name, got)
			}
			if !bytes.Equal(hit.Body.Bytes(), miss.Body.Bytes()) {
				t.Errorf("%s: cached hit differs from cold miss", name)
			}
		}
	}
}

// TestReportMatchesServiceInline: an inline program POSTed verbatim
// gets the same content-addressed identity — and the same bytes — as
// `qspr -qasm <file> -report -`, with and without the trace.
func TestReportMatchesServiceInline(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	qasmPath := filepath.Join(t.TempDir(), "inline.qasm")
	src := "OPENQASM 2.0;\nqreg q[3];\nh q[0];\ncx q[0],q[1];\ncx q[1],q[2];\n"
	if err := os.WriteFile(qasmPath, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	srv := serve.New(serve.Config{Workers: 1, QueueDepth: 4})
	h := srv.Handler()

	want := cliReport(t, "-qasm", qasmPath, "-fabric", "small", "-heuristic", "qspr-center")
	got := postServe(t, h, fmt.Sprintf(`{"qasm":%q,"fabric":"small","heuristic":"qspr-center"}`, src))
	if got.Code != http.StatusOK {
		t.Fatalf("inline: %d: %s", got.Code, got.Body.String())
	}
	if !bytes.Equal(got.Body.Bytes(), want) {
		t.Errorf("inline served bytes != CLI -qasm report:\n got %s\nwant %s", got.Body.Bytes(), want)
	}

	wantTr := cliReport(t, "-qasm", qasmPath, "-fabric", "small", "-heuristic", "qspr-center", "-trace")
	gotTr := postServe(t, h, fmt.Sprintf(`{"qasm":%q,"fabric":"small","heuristic":"qspr-center","trace":true}`, src))
	if gotTr.Code != http.StatusOK {
		t.Fatalf("inline trace: %d: %s", gotTr.Code, gotTr.Body.String())
	}
	if !bytes.Equal(gotTr.Body.Bytes(), wantTr) {
		t.Errorf("traced inline served bytes != CLI report")
	}
	if bytes.Equal(gotTr.Body.Bytes(), want) {
		t.Error("traced report unexpectedly equals untraced report")
	}
}

// TestReportFileWritten: -report <path> writes the report file and
// keeps the human-readable output on stdout.
func TestReportFileWritten(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	path := filepath.Join(t.TempDir(), "report.json")
	var out, errb bytes.Buffer
	code := run([]string{"-circuit", "ghz(q=4)", "-fabric", "small",
		"-heuristic", "qspr-center", "-report", path}, &out, &errb)
	if code != 0 {
		t.Fatalf("code %d: %s", code, errb.String())
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("report not written: %v", err)
	}
	want := cliReport(t, "-circuit", "ghz(q=4)", "-fabric", "small", "-heuristic", "qspr-center")
	if !bytes.Equal(data, want) {
		t.Errorf("-report file differs from -report -:\n%s\n%s", data, want)
	}
	if !strings.Contains(out.String(), "execution latency:") {
		t.Error("-report <path> suppressed the human-readable output")
	}
}

func TestListIncludesFamilies(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-list"}, &out, &errb); code != 0 {
		t.Fatalf("-list failed: %s", errb.String())
	}
	for _, b := range circuits.All() {
		if !strings.Contains(out.String(), b.Name) {
			t.Errorf("-list missing %s", b.Name)
		}
	}
	if !strings.Contains(out.String(), "rand(q=") {
		t.Error("-list missing generator families")
	}
}

// TestBackendFlag: the swap backend maps from the CLI, unknown
// backends get the shared diagnostic listing the valid names (the
// same list qsprbench and qsprd print), and -noise scores the run.
func TestBackendFlag(t *testing.T) {
	var out, errb bytes.Buffer
	if code := run([]string{"-circuit", "ghz(q=4)", "-heuristic", "qspr-center", "-backend", "swap"}, &out, &errb); code != 0 {
		t.Fatalf("swap backend run failed: %s", errb.String())
	}
	if !strings.Contains(out.String(), "backend:          swap") {
		t.Errorf("output does not echo the backend:\n%s", out.String())
	}
	out.Reset()
	errb.Reset()
	if code := run([]string{"-circuit", "ghz(q=4)", "-backend", "warp"}, &out, &errb); code != 1 {
		t.Error("unknown backend accepted")
	}
	for _, name := range core.BackendNames() {
		if !strings.Contains(errb.String(), name) {
			t.Errorf("diagnostic %q does not list %q", errb.String(), name)
		}
	}
	out.Reset()
	errb.Reset()
	if code := run([]string{"-circuit", "ghz(q=4)", "-heuristic", "qspr-center", "-noise", "default"}, &out, &errb); code != 0 {
		t.Fatalf("noise-scored run failed: %s", errb.String())
	}
	if !strings.Contains(out.String(), "p_fail:") {
		t.Errorf("noise-scored run prints no p_fail:\n%s", out.String())
	}
	// -pareto is a sweep flag; a noiseless -pareto sweep is rejected
	// with a hint before any mapping runs.
	errb.Reset()
	if code := run([]string{"-circuit", "ghz(q=4),ghz(q=5)", "-heuristic", "qspr-center", "-pareto"}, &out, &errb); code != 1 {
		t.Error("-pareto without -noise accepted")
	}
	if !strings.Contains(errb.String(), "-noise") {
		t.Errorf("pareto hint missing: %q", errb.String())
	}
}

// TestParetoSweep: a noise-scored two-backend sweep emits a Pareto
// report whose bytes are identical across -parallel values.
func TestParetoSweep(t *testing.T) {
	args := func(parallel string) []string {
		return []string{
			"-circuit", "ghz(q=4),ghz(q=6)", "-heuristic", "qspr-center",
			"-backend", "all", "-noise", "default", "-pareto",
			"-format", "json", "-parallel", parallel,
		}
	}
	var out1, out4, errb bytes.Buffer
	if code := run(args("1"), &out1, &errb); code != 0 {
		t.Fatalf("parallel=1: %s", errb.String())
	}
	if code := run(args("4"), &out4, &errb); code != 0 {
		t.Fatalf("parallel=4: %s", errb.String())
	}
	if !bytes.Equal(out1.Bytes(), out4.Bytes()) {
		t.Errorf("Pareto bytes differ across -parallel:\n%s\n%s", out1.String(), out4.String())
	}
	if !strings.Contains(out1.String(), `"pareto"`) || !strings.Contains(out1.String(), `"p_fail"`) {
		t.Errorf("not a Pareto report:\n%s", out1.String())
	}
}
