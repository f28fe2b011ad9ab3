package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/circuits"
	"repro/internal/core"
)

// testConfig keeps test servers small and the mapping work cheap.
func testServer() *Server {
	return New(Config{Workers: 2, QueueDepth: 8, CacheEntries: 64})
}

// postMap drives the full handler path (mux, method routing, body
// decoding) the way a real client does.
func postMap(t *testing.T, h http.Handler, body string) *httptest.ResponseRecorder {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, "/map", strings.NewReader(body))
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	return w
}

// cheap is a fast deterministic request: single center placement on
// the small fabric.
const cheap = `{"circuit":"ghz(q=4)","fabric":"small","heuristic":"qspr-center"}`

func TestMapMissThenHit(t *testing.T) {
	s := testServer()
	h := s.Handler()
	w1 := postMap(t, h, cheap)
	if w1.Code != http.StatusOK {
		t.Fatalf("miss: status %d: %s", w1.Code, w1.Body.String())
	}
	if got := w1.Header().Get("X-Cache"); got != "miss" {
		t.Errorf("first request X-Cache %q, want miss", got)
	}
	w2 := postMap(t, h, cheap)
	if got := w2.Header().Get("X-Cache"); got != "hit" {
		t.Errorf("second request X-Cache %q, want hit", got)
	}
	if !bytes.Equal(w1.Body.Bytes(), w2.Body.Bytes()) {
		t.Errorf("cached hit differs from cold miss:\n%s\n%s", w1.Body, w2.Body)
	}
	var rep Report
	if err := json.Unmarshal(w1.Body.Bytes(), &rep); err != nil {
		t.Fatalf("response is not a report: %v", err)
	}
	if rep.Circuit != "ghz(q=4)" || rep.Fabric != "small" || rep.M != 25 || rep.Seed != 1 || rep.Patience != 3 {
		t.Errorf("report echoes wrong identity/defaults: %+v", rep)
	}
	if rep.Metrics == nil || rep.Metrics.LatencyUS <= 0 {
		t.Errorf("report metrics missing: %+v", rep.Metrics)
	}
	if rep.Trace != nil {
		t.Error("trace present without trace:true")
	}
}

// TestCanonicalTierDeduplicates: two spellings of one mapping — the
// defaults omitted vs spelled out, plus whitespace in the spec — have
// different raw keys but one canonical key, so the second is a hit
// with byte-identical body.
func TestCanonicalTierDeduplicates(t *testing.T) {
	s := testServer()
	h := s.Handler()
	w1 := postMap(t, h, cheap)
	if w1.Code != http.StatusOK {
		t.Fatalf("miss: %s", w1.Body.String())
	}
	spelled := `{"circuit":"  ghz(q=4) ","fabric":"SMALL","heuristic":"center","m":25,"seed":1,"patience":3}`
	w2 := postMap(t, h, spelled)
	if w2.Code != http.StatusOK {
		t.Fatalf("respelled: %s", w2.Body.String())
	}
	if got := w2.Header().Get("X-Cache"); got != "hit" {
		t.Errorf("respelled request X-Cache %q, want hit (canonical tier)", got)
	}
	if !bytes.Equal(w1.Body.Bytes(), w2.Body.Bytes()) {
		t.Error("canonical hit bytes differ from original miss")
	}
	// The alias insert makes the new spelling a raw-tier hit too.
	var rq Request
	if err := json.Unmarshal([]byte(spelled), &rq); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.cachedResponse(&rq); !ok {
		t.Error("canonical hit did not alias the raw request shape")
	}
}

// TestInlineQASMContentAddressed: an inline program is served under
// its content-addressed inline name, and reposting the identical body
// hits the cache.
func TestInlineQASMContentAddressed(t *testing.T) {
	src := "OPENQASM 2.0;\nqreg q[3];\nh q[0];\ncx q[0],q[1];\ncx q[1],q[2];\n"
	body, _ := json.Marshal(Request{QASM: src, Fabric: "small", Heuristic: "qspr-center"})
	s := testServer()
	h := s.Handler()
	w1 := postMap(t, h, string(body))
	if w1.Code != http.StatusOK {
		t.Fatalf("inline: %s", w1.Body.String())
	}
	var rep Report
	if err := json.Unmarshal(w1.Body.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if want := InlineName([]byte(src)); rep.Circuit != want {
		t.Errorf("inline circuit name %q, want %q", rep.Circuit, want)
	}
	if !strings.HasPrefix(rep.Circuit, "inline:") || len(rep.Circuit) != len("inline:")+12 {
		t.Errorf("inline name %q is not inline:<12 hex>", rep.Circuit)
	}
	w2 := postMap(t, h, string(body))
	if got := w2.Header().Get("X-Cache"); got != "hit" {
		t.Errorf("identical inline body X-Cache %q, want hit", got)
	}
	if !bytes.Equal(w1.Body.Bytes(), w2.Body.Bytes()) {
		t.Error("inline hit bytes differ")
	}
}

func TestTraceVariantIsDistinct(t *testing.T) {
	s := testServer()
	h := s.Handler()
	plain := postMap(t, h, cheap)
	traced := postMap(t, h, `{"circuit":"ghz(q=4)","fabric":"small","heuristic":"qspr-center","trace":true}`)
	if traced.Code != http.StatusOK {
		t.Fatalf("traced: %s", traced.Body.String())
	}
	if got := traced.Header().Get("X-Cache"); got != "miss" {
		t.Errorf("trace variant X-Cache %q, want miss (distinct cache key)", got)
	}
	var rep Report
	if err := json.Unmarshal(traced.Body.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Trace == nil {
		t.Fatal("trace:true response has no trace")
	}
	if bytes.Equal(plain.Body.Bytes(), traced.Body.Bytes()) {
		t.Error("traced response equals untraced response")
	}
}

func TestBadRequests(t *testing.T) {
	s := testServer()
	h := s.Handler()
	cases := []struct {
		name, body string
		want       int
	}{
		{"empty", `{}`, http.StatusBadRequest},
		{"both sources", `{"circuit":"ghz(q=4)","qasm":"qubit a\nh a\n"}`, http.StatusBadRequest},
		{"unknown circuit", `{"circuit":"nosuch"}`, http.StatusBadRequest},
		{"unknown fabric", `{"circuit":"ghz(q=4)","fabric":"mars"}`, http.StatusBadRequest},
		{"unknown heuristic", `{"circuit":"ghz(q=4)","heuristic":"magic"}`, http.StatusBadRequest},
		{"unknown field", `{"circuit":"ghz(q=4)","bogus":1}`, http.StatusBadRequest},
		{"negative seed", `{"circuit":"ghz(q=4)","fabric":"small","seed":-1}`, http.StatusBadRequest},
		{"syntax", `{`, http.StatusBadRequest},
		{"bad inline", `{"qasm":"OPENQASM 2.0;\nqreg q[2];\nnosuchgate q[0];\n"}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		if w := postMap(t, h, tc.body); w.Code != tc.want {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, w.Code, tc.want, w.Body.String())
		}
	}
	req := httptest.NewRequest(http.MethodGet, "/map", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET /map: status %d, want 405", w.Code)
	}
}

// TestFileBackedSpecRefused: the service never resolves a circuit
// spec that reads a file on its own host, however the family is
// spelled and whether or not the file exists or parses. Each answers
// 400 with the refusal, never the file's contents or an open error.
func TestFileBackedSpecRefused(t *testing.T) {
	dir := t.TempDir()
	const marker = "TOPSECRET-marker-line"
	secret := filepath.Join(dir, "secret.qasm")
	program := filepath.Join(dir, "program.qasm")
	if err := os.WriteFile(secret, []byte(marker+"\nsecond line\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(program, []byte("qubit a\nh a\n"), 0o600); err != nil {
		t.Fatal(err)
	}
	h := testServer().Handler()
	specs := []string{
		"qasm(path=" + secret + ")", "QASM(path=" + secret + ")", " qasm(path=" + secret + ")",
		"qasm(path=" + program + ")", "qasm(path=" + filepath.Join(dir, "missing.qasm") + ")",
	}
	for _, spec := range specs {
		body, err := json.Marshal(Request{Circuit: spec, Fabric: "small", Heuristic: "qspr-center"})
		if err != nil {
			t.Fatal(err)
		}
		w := postMap(t, h, string(body))
		got := w.Body.String()
		if w.Code != http.StatusBadRequest || !strings.Contains(got, `reads files and is not served`) {
			t.Errorf("%q: status %d %q, want 400 refusing the family", spec, w.Code, got)
		}
		if strings.Contains(got, marker) || strings.Contains(got, "open ") || strings.Contains(got, "no such file") {
			t.Errorf("%q: response %q reveals the file", spec, got)
		}
	}
}

// TestOversizedSpecRefused: a generated circuit over the service caps
// answers 400 naming the cap, and is refused from its parameters
// without being built: the request allocates under 1 MB, against the
// ~30 MB that building a 100,000-gate circuit takes.
func TestOversizedSpecRefused(t *testing.T) {
	h := testServer().Handler()
	// A grid side whose square overflows int, whatever its width.
	side := strconv.Itoa(int(math.Sqrt(float64(math.MaxInt))) + 1)
	cases := []struct{ spec, want string }{
		{"rand(q=2,g=100000)", "over the service cap of 65536"},
		{"ghz(q=5000)", "over the service cap of 4096"},
		{"grid(rows=" + side + ",cols=" + side + ",layers=9)", "over the service cap of 4096"},
	}
	for _, tc := range cases {
		body := fmt.Sprintf(`{"circuit":%q,"fabric":"small","heuristic":"qspr-center"}`, tc.spec)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		w := postMap(t, h, body)
		runtime.ReadMemStats(&after)
		if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), tc.want) {
			t.Errorf("%s: status %d %q, want 400 %q", tc.spec, w.Code, w.Body.String(), tc.want)
		}
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 1<<20 {
			t.Errorf("%s: refusing allocated %d bytes, want < 1 MB", tc.spec, alloc)
		}
	}
}

// TestBackpressure: with every admission ticket occupied, a cache
// miss is rejected with 429 + Retry-After — but a cached hit still
// serves, because hits bypass admission entirely.
func TestBackpressure(t *testing.T) {
	s := New(Config{Workers: 1, QueueDepth: 1, CacheEntries: 16})
	h := s.Handler()
	if w := postMap(t, h, cheap); w.Code != http.StatusOK {
		t.Fatalf("warm-up: %s", w.Body.String())
	}
	// Occupy every ticket (Workers + QueueDepth = 2).
	for i := 0; i < cap(s.tickets); i++ {
		s.tickets <- struct{}{}
	}
	defer func() {
		for i := 0; i < cap(s.tickets); i++ {
			<-s.tickets
		}
	}()
	w := postMap(t, h, `{"circuit":"ghz(q=5)","fabric":"small","heuristic":"qspr-center"}`)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("saturated miss: status %d, want 429", w.Code)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if hit := postMap(t, h, cheap); hit.Code != http.StatusOK || hit.Header().Get("X-Cache") != "hit" {
		t.Errorf("cached hit under saturation: status %d cache %q, want 200 hit",
			hit.Code, hit.Header().Get("X-Cache"))
	}
	if got := s.met.rejected.Load(); got != 1 {
		t.Errorf("rejected counter %d, want 1", got)
	}
}

// TestConcurrencyBattery is the service's race battery: goroutines
// hammer /map with a mix of repeated and distinct specs while every
// response must be byte-identical to the single-threaded golden for
// its spec — warm Sims never cross-contaminate and cache entries
// never tear. Run under -race in CI.
func TestConcurrencyBattery(t *testing.T) {
	specs := []string{
		`{"circuit":"ghz(q=4)","fabric":"small","heuristic":"qspr-center"}`,
		`{"circuit":"ghz(q=5)","fabric":"small","heuristic":"qspr-center"}`,
		`{"circuit":"ring(q=4)","fabric":"small","heuristic":"qspr-center"}`,
		`{"circuit":"ghz(q=4)","fabric":"small","heuristic":"mc","m":3}`,
		`{"circuit":"ghz(q=4)","heuristic":"qspr-center"}`,
	}
	// Single-threaded goldens from a throwaway server, one spec at a
	// time, before any concurrency exists.
	golden := make(map[string][]byte, len(specs))
	ref := testServer()
	rh := ref.Handler()
	for _, spec := range specs {
		w := postMap(t, rh, spec)
		if w.Code != http.StatusOK {
			t.Fatalf("golden %s: %s", spec, w.Body.String())
		}
		golden[spec] = w.Body.Bytes()
	}

	s := New(Config{Workers: 4, QueueDepth: 256, CacheEntries: 64})
	h := s.Handler()
	const goroutines, iters = 8, 20
	var wg sync.WaitGroup
	errc := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				spec := specs[(g+i)%len(specs)]
				w := postMap(t, h, spec)
				if w.Code != http.StatusOK {
					errc <- fmt.Errorf("g%d i%d %s: status %d: %s", g, i, spec, w.Code, w.Body.String())
					return
				}
				if !bytes.Equal(w.Body.Bytes(), golden[spec]) {
					errc <- fmt.Errorf("g%d i%d %s: response differs from single-threaded golden:\n got %s\nwant %s",
						g, i, spec, w.Body.Bytes(), golden[spec])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestCachedHitAllocs pins the steady-state cost of a repeated
// request at zero allocations: the raw-tier probe — stack-buffer
// hash, one map lookup — allocates nothing (the serve-side analogue
// of TestSimRunAllocsSteadyState).
func TestCachedHitAllocs(t *testing.T) {
	s := testServer()
	if w := postMap(t, s.Handler(), cheap); w.Code != http.StatusOK {
		t.Fatalf("warm-up: %s", w.Body.String())
	}
	var rq Request
	if err := json.Unmarshal([]byte(cheap), &rq); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.cachedResponse(&rq); !ok {
		t.Fatal("warm-up did not populate the raw tier")
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, ok := s.cachedResponse(&rq); !ok {
			t.Fatal("cache entry vanished")
		}
	})
	if allocs != 0 {
		t.Errorf("cached-hit probe allocates %.1f objects/op, want 0", allocs)
	}
}

func TestCacheEviction(t *testing.T) {
	c := newCache(2)
	k := func(b byte) cacheKey { var k cacheKey; k[0] = b; return k }
	c.put(k(1), []byte("one"))
	c.put(k(2), []byte("two"))
	c.put(k(3), []byte("three"))
	if c.len() != 2 {
		t.Fatalf("cache len %d, want 2", c.len())
	}
	if _, ok := c.get(k(1)); ok {
		t.Error("oldest entry not evicted")
	}
	for b, want := range map[byte]string{2: "two", 3: "three"} {
		got, ok := c.get(k(b))
		if !ok || string(got) != want {
			t.Errorf("entry %d: %q %v, want %q", b, got, ok, want)
		}
	}
	// First write wins on re-insert (renders are deterministic).
	c.put(k(2), []byte("TWO"))
	if got, _ := c.get(k(2)); string(got) != "two" {
		t.Errorf("re-insert replaced entry: %q", got)
	}
}

func TestRawKeyIgnoresInnerParallel(t *testing.T) {
	a := Request{Circuit: "ghz(q=4)", Fabric: "small"}
	b := a
	b.InnerParallel = 8
	if rawKey(&a) != rawKey(&b) {
		t.Error("inner_parallel changed the raw cache key (parallelism never changes bytes)")
	}
	c := a
	c.Trace = true
	if rawKey(&a) == rawKey(&c) {
		t.Error("trace flag did not change the raw cache key")
	}
}

// TestInnerParallelClamp: the per-mapping worker share is
// Budget/Workers, floored at 1.
func TestInnerParallelClamp(t *testing.T) {
	s := New(Config{Workers: 2, Budget: 8})
	for wish, want := range map[int]int{0: 1, 1: 1, 3: 3, 4: 4, 100: 4} {
		if got := s.innerParallel(wish); got != want {
			t.Errorf("innerParallel(%d) = %d, want %d", wish, got, want)
		}
	}
	seq := New(Config{Workers: 4})
	if got := seq.innerParallel(16); got != 1 {
		t.Errorf("default budget: innerParallel(16) = %d, want 1", got)
	}
}

// TestInnerParallelDoesNotChangeBytes: the same request mapped with a
// sequential and a parallel inner budget produces identical response
// bytes on separate cold servers.
func TestInnerParallelDoesNotChangeBytes(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	body := `{"circuit":"ghz(q=4)","fabric":"small","m":4,"inner_parallel":4}`
	seq := New(Config{Workers: 1, Budget: 1})
	par := New(Config{Workers: 1, Budget: 4})
	w1 := postMap(t, seq.Handler(), body)
	w2 := postMap(t, par.Handler(), body)
	if w1.Code != http.StatusOK || w2.Code != http.StatusOK {
		t.Fatalf("status %d / %d: %s %s", w1.Code, w2.Code, w1.Body.String(), w2.Body.String())
	}
	if !bytes.Equal(w1.Body.Bytes(), w2.Body.Bytes()) {
		t.Errorf("inner parallelism changed response bytes:\n%s\n%s", w1.Body, w2.Body)
	}
}

func TestMetricsAndHealthz(t *testing.T) {
	s := testServer()
	h := s.Handler()
	postMap(t, h, cheap)
	postMap(t, h, cheap)
	postMap(t, h, `{"circuit":"nosuch"}`)

	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("/metrics: %d", w.Code)
	}
	out := w.Body.String()
	for _, want := range []string{
		"qsprd_requests_total 3",
		"qsprd_cache_hits_total 1",
		"qsprd_cache_misses_total 1",
		"qsprd_cache_hit_ratio 0.5000",
		"qsprd_errors_total 1",
		"qsprd_rejected_total 0",
		"qsprd_queue_depth 0",
		"qsprd_latency_p50_us ",
		"qsprd_latency_p99_us ",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q:\n%s", want, out)
		}
	}

	req = httptest.NewRequest(http.MethodGet, "/healthz", nil)
	w = httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK || !strings.Contains(w.Body.String(), "ok") {
		t.Errorf("/healthz: %d %q", w.Code, w.Body.String())
	}
}

// TestWarmMapperMatchesColdMap: the service's warm-Mapper result
// rendered as a report equals the package-level cold core.Map result
// rendered the same way — the per-request foundation under the
// CLI byte-identity test.
func TestWarmMapperMatchesColdMap(t *testing.T) {
	s := testServer()
	w := postMap(t, s.Handler(), cheap)
	if w.Code != http.StatusOK {
		t.Fatalf("serve: %s", w.Body.String())
	}
	b, err := circuits.Resolve("ghz(q=4)")
	if err != nil {
		t.Fatal(err)
	}
	fab, ok := s.Fabric("small")
	if !ok {
		t.Fatal("small fabric not interned")
	}
	opts := core.Options{Heuristic: core.QSPRCenter}
	res, err := core.Map(b.Program, fab, opts)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := NewReport(b.Name, "small", opts, res, false, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := rep.MarshalBytes()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(w.Body.Bytes(), want) {
		t.Errorf("served bytes != cold core.Map render:\n got %s\nwant %s", w.Body.Bytes(), want)
	}
}

// TestBackendNoiseRoundTrip: a swap-backend noise-scored request maps,
// echoes its backend and noise params, carries p_fail, and the cached
// hit is byte-identical to the cold miss.
func TestBackendNoiseRoundTrip(t *testing.T) {
	s := testServer()
	h := s.Handler()
	body := `{"circuit":"ghz(q=4)","fabric":"small","heuristic":"qspr-center","backend":"swap","noise":{"two_qubit_gate":1e-3,"decay":1e-6}}`
	w1 := postMap(t, h, body)
	if w1.Code != http.StatusOK {
		t.Fatalf("miss: status %d: %s", w1.Code, w1.Body.String())
	}
	var rep Report
	if err := json.Unmarshal(w1.Body.Bytes(), &rep); err != nil {
		t.Fatal(err)
	}
	if rep.Backend != "swap" {
		t.Errorf("report backend %q, want swap", rep.Backend)
	}
	if rep.Noise == nil || rep.Noise.TwoQubitGate != 1e-3 {
		t.Errorf("report noise echo = %+v", rep.Noise)
	}
	if rep.Metrics == nil || rep.Metrics.PFail == nil || *rep.Metrics.PFail <= 0 {
		t.Errorf("p_fail missing on a noise-scored report: %+v", rep.Metrics)
	}
	w2 := postMap(t, h, body)
	if got := w2.Header().Get("X-Cache"); got != "hit" {
		t.Errorf("repeat X-Cache %q, want hit", got)
	}
	if !bytes.Equal(w1.Body.Bytes(), w2.Body.Bytes()) {
		t.Error("cached hit differs from cold miss")
	}
}

// TestBackendPartOfIdentity: the same circuit on ion and swap must not
// share a cache entry, and the unscored ion response keeps the exact
// pre-backend schema (no backend/noise/p_fail fields).
func TestBackendPartOfIdentity(t *testing.T) {
	s := testServer()
	h := s.Handler()
	ion := postMap(t, h, cheap)
	swap := postMap(t, h, `{"circuit":"ghz(q=4)","fabric":"small","heuristic":"qspr-center","backend":"swap"}`)
	if ion.Code != http.StatusOK || swap.Code != http.StatusOK {
		t.Fatalf("status %d / %d", ion.Code, swap.Code)
	}
	if bytes.Equal(ion.Body.Bytes(), swap.Body.Bytes()) {
		t.Error("ion and swap served identical bytes")
	}
	if got := swap.Header().Get("X-Cache"); got != "miss" {
		t.Errorf("swap request X-Cache %q, want miss (distinct identity)", got)
	}
	for _, field := range []string{`"backend"`, `"noise"`, `"p_fail"`} {
		if bytes.Contains(ion.Body.Bytes(), []byte(field)) {
			t.Errorf("default ion response carries %s — pre-backend schema broken", field)
		}
	}
	// "ion" spelled out is the same identity as the default: a hit.
	spelled := postMap(t, h, `{"circuit":"ghz(q=4)","fabric":"small","heuristic":"qspr-center","backend":"ion"}`)
	if got := spelled.Header().Get("X-Cache"); got != "hit" {
		t.Errorf("explicit ion X-Cache %q, want hit", got)
	}
	if !bytes.Equal(ion.Body.Bytes(), spelled.Body.Bytes()) {
		t.Error("explicit ion bytes differ from default")
	}
}

// TestBadBackendAndNoise: unknown backends and invalid noise params
// are 400s with diagnostics that name the valid choices.
func TestBadBackendAndNoise(t *testing.T) {
	s := testServer()
	h := s.Handler()
	w := postMap(t, h, `{"circuit":"ghz(q=4)","fabric":"small","backend":"warp"}`)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("unknown backend: status %d", w.Code)
	}
	for _, name := range core.BackendNames() {
		if !strings.Contains(w.Body.String(), name) {
			t.Errorf("diagnostic %q does not list %q", w.Body.String(), name)
		}
	}
	w = postMap(t, h, `{"circuit":"ghz(q=4)","fabric":"small","noise":{"two_qubit_gate":1.5}}`)
	if w.Code != http.StatusBadRequest {
		t.Fatalf("bad noise params: status %d: %s", w.Code, w.Body.String())
	}
	if !strings.Contains(w.Body.String(), "TwoQubitGate") {
		t.Errorf("noise diagnostic does not name the bad field: %s", w.Body.String())
	}
}
