package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"
)

// bench runs qsprbench in process and returns its exit code, stdout
// and stderr.
func bench(t *testing.T, ctx context.Context, args ...string) (int, string, string) {
	t.Helper()
	var out, errb bytes.Buffer
	code := run(ctx, args, &out, &errb)
	return code, out.String(), errb.String()
}

func readFile(t *testing.T, path string) string {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestShardMergeMatchesUnsharded: two checkpointed shards merged with
// -merge give the unsharded sweep's CSV byte for byte, every circuit
// (generator families included) maps, and a merge missing a shard
// still writes its report but exits 1 naming the first gap.
func TestShardMergeMatchesUnsharded(t *testing.T) {
	dir := t.TempDir()
	common := []string{"-circuits", "ghz(q=4),ring(q=4),rand(q=8,g=60,seed=7)", "-heuristics", "quale", "-compare=false", "-format", "csv"}
	full := filepath.Join(dir, "full.csv")
	if code, _, stderr := bench(t, context.Background(), append(common, "-out", full)...); code != 0 {
		t.Fatalf("unsharded sweep: code %d: %s", code, stderr)
	}
	// Exit code 0 says no run failed.
	want := readFile(t, full)
	if rows := strings.Count(want, "\n"); rows != 4 {
		t.Fatalf("unsharded sweep has %d lines, want header + 3 runs:\n%s", rows, want)
	}
	var ckpts []string
	for i, notice := range []string{"qsprbench: shard 0/2 owns 2 of 3 runs", "qsprbench: shard 1/2 owns 1 of 3 runs"} {
		ckpt := filepath.Join(dir, fmt.Sprintf("s%d.jsonl", i))
		ckpts = append(ckpts, ckpt)
		code, _, stderr := bench(t, context.Background(), append(common, "-shard", fmt.Sprintf("%d/2", i),
			"-checkpoint", ckpt, "-out", filepath.Join(dir, "shard.csv"))...)
		if code != 0 || !strings.Contains(stderr, notice) {
			t.Fatalf("shard %d: code %d, stderr %q; want 0 and %q", i, code, stderr, notice)
		}
	}
	merged := filepath.Join(dir, "merged.csv")
	if code, _, stderr := bench(t, context.Background(), "-merge", strings.Join(ckpts, ","),
		"-compare=false", "-format", "csv", "-out", merged); code != 0 {
		t.Fatalf("merge: code %d: %s", code, stderr)
	}
	if got := readFile(t, merged); got != want {
		t.Errorf("merged shards differ from the unsharded sweep:\n got %s\nwant %s", got, want)
	}

	code, stdout, stderr := bench(t, context.Background(), "-merge", ckpts[0], "-compare=false", "-format", "csv")
	const gap = "qsprbench: merged checkpoints are missing 1 runs (first gap: index 1) — unfinished shard?\n"
	if code != 1 || stderr != gap || strings.Count(stdout, "\n") != 3 {
		t.Errorf("merge of one shard: code %d, stderr %q, report:\n%s\nwant code 1, %q and header + 2 runs", code, stderr, stdout, gap)
	}
}

// TestParetoAcrossParallel: the noise-scored two-backend Pareto pivot
// is byte-identical at -parallel 1 and 4, and carries p_fail and the
// backends.
func TestParetoAcrossParallel(t *testing.T) {
	args := []string{"-circuits", "ghz(q=4),ghz(q=6),[[5,1,3]]", "-heuristics", "qspr-center",
		"-backend", "all", "-noise", "default", "-pareto", "-format", "json", "-compare=false"}
	code, seq, stderr := bench(t, context.Background(), append(args, "-parallel", "1")...)
	if code != 0 {
		t.Fatalf("-parallel 1: code %d: %s", code, stderr)
	}
	code, par, stderr := bench(t, context.Background(), append(args, "-parallel", "4")...)
	if code != 0 {
		t.Fatalf("-parallel 4: code %d: %s", code, stderr)
	}
	if seq != par {
		t.Errorf("Pareto bytes differ across -parallel:\n%s\n%s", seq, par)
	}
	if !strings.Contains(seq, `"p_fail"`) || !strings.Contains(seq, `"backend": "ion"`) && !strings.Contains(seq, `"backend": "swap"`) {
		t.Errorf("Pareto report lacks p_fail or a backend:\n%s", seq)
	}
}

// TestInterruptedSweepReports: a sweep whose context is already
// cancelled maps nothing, says so, still writes its (empty) report to
// -out and exits 1.
func TestInterruptedSweepReports(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out := filepath.Join(t.TempDir(), "partial.csv")
	code, _, stderr := bench(t, ctx, "-circuits", "ghz(q=4),ring(q=4)", "-heuristics", "quale",
		"-compare=false", "-format", "csv", "-out", out)
	const notice = "qsprbench: sweep interrupted (context canceled); reporting 0/2 completed runs\n"
	if code != 1 || stderr != notice {
		t.Errorf("code %d, stderr %q; want 1 and %q", code, stderr, notice)
	}
	if got := readFile(t, out); !strings.HasPrefix(got, "index,") || strings.Count(got, "\n") != 1 {
		t.Errorf("partial report is not a bare CSV header:\n%s", got)
	}
}

// TestDiagnostics: rejected flag mixes and names fail before any
// mapping, with their exact messages and exit codes.
func TestDiagnostics(t *testing.T) {
	cases := []struct {
		args []string
		code int
		msg  string
	}{
		{[]string{"-backend", "warp", "-circuits", "ghz(q=4)"}, 1, `unknown backend "warp" (valid: ion, swap)`},
		{[]string{"-coordinate", "127.0.0.1:0", "-worker", "127.0.0.1:1"}, 1,
			"qsprbench: -coordinate and -worker are different processes: pick one\n"},
		{[]string{"-coordinate", "127.0.0.1:0", "-shard", "0/2", "-parallel", "2"}, 1,
			"qsprbench: -coordinate hands runs to -worker processes and conflicts with -parallel, -shard\n"},
		{[]string{"-coordinate", "127.0.0.1:0", "-pareto"}, 1,
			"qsprbench: -pareto needs a noise-scored sweep: add -noise (e.g. -noise default)\n"},
		{[]string{"-worker", "127.0.0.1:1", "-m", "3", "-circuits", "ghz(q=4)"}, 1,
			"qsprbench: -worker receives the sweep spec from the coordinator and conflicts with -circuits, -m\n"},
		{[]string{"-worker-name", "a", "-chunk", "2"}, 1, "qsprbench: -chunk, -worker-name require -coordinate or -worker\n"},
		{[]string{"-merge", "a.jsonl", "-m", "3", "-checkpoint", "b.jsonl"}, 1,
			"qsprbench: -merge reads only its checkpoint files and conflicts with -checkpoint, -m\n"},
		{[]string{"-pareto", "-circuits", "ghz(q=4)"}, 1,
			"qsprbench: -pareto needs a noise-scored sweep: add -noise (e.g. -noise default)\n"},
		{[]string{"-format", "yaml"}, 1, `qsprbench: experiment: unknown format "yaml" (json, csv, markdown)` + "\n"},
		{[]string{"-not-a-flag"}, 2, "flag provided but not defined: -not-a-flag"},
	}
	for _, tc := range cases {
		code, stdout, stderr := bench(t, context.Background(), tc.args...)
		if code != tc.code || !strings.Contains(stderr, tc.msg) || stdout != "" {
			t.Errorf("qsprbench %v: code %d, stdout %q, stderr %q; want %d and %q", tc.args, code, stdout, stderr, tc.code, tc.msg)
		}
		if strings.HasSuffix(tc.msg, "\n") && stderr != tc.msg {
			t.Errorf("qsprbench %v: stderr %q, want exactly %q", tc.args, stderr, tc.msg)
		}
	}
}

// TestCoordinateInProcess: a coordinator and a worker, both run in
// this process over loopback TCP, produce the unsharded sweep's JSON.
func TestCoordinateInProcess(t *testing.T) {
	spec := []string{"-circuits", "ghz(q=4),ring(q=4)", "-heuristics", "quale,qspr-center", "-compare=false", "-format", "json"}
	code, want, stderr := bench(t, context.Background(), spec...)
	if code != 0 {
		t.Fatalf("unsharded sweep: code %d: %s", code, stderr)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	pr, pw := io.Pipe()
	// Room for every line a 4-run coordinator prints, so it never
	// blocks on stderr once the test stops reading.
	lines := make(chan string, 64)
	go func() {
		sc := bufio.NewScanner(pr)
		for sc.Scan() {
			lines <- sc.Text()
		}
		close(lines)
	}()
	var coordOut bytes.Buffer
	done := make(chan int, 1)
	go func() {
		done <- run(ctx, append([]string{"-coordinate", "127.0.0.1:0", "-chunk", "1"}, spec...), &coordOut, pw)
		pw.Close()
	}()
	var addr string
	select {
	case l := <-lines:
		var ok bool
		if addr, ok = strings.CutPrefix(l, "qsprbench: coordinating 4 runs on "); !ok {
			t.Fatalf("coordinator announced %q", l)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("coordinator never announced its address")
	}
	if code, _, stderr := bench(t, ctx, "-worker", addr, "-worker-name", "w", "-parallel", "1"); code != 0 || stderr != "qsprbench: worker done\n" {
		t.Fatalf("worker: code %d: %s", code, stderr)
	}
	// The coordinator lingers after the last record to tell stragglers
	// the sweep is done; cancelling once it says so ends the linger.
	var log []string
	for !slices.Contains(log, "qsprbench: sweep complete: 4/4 runs") {
		select {
		case l := <-lines:
			log = append(log, l)
		case <-time.After(10 * time.Second):
			t.Fatalf("coordinator never completed:\n%s", strings.Join(log, "\n"))
		}
	}
	cancel()
	if code := <-done; code != 0 {
		t.Fatalf("coordinator exit code %d", code)
	}
	if got := coordOut.String(); got != want {
		t.Errorf("coordinated report differs from the unsharded sweep:\n got %s\nwant %s", got, want)
	}
	if !slices.Contains(log, "qsprbench: worker w joined [0/4]") {
		t.Errorf("coordinator log lacks the join line:\n%s", strings.Join(log, "\n"))
	}
}
