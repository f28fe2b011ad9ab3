// Package serve implements qsprd, the long-running mapping service:
// an HTTP facade over internal/core with per-worker warm Sim state
// and a content-addressed result cache.
//
// Determinism is the design anchor. A /map response is a pure
// function of (canonical circuit, fabric, normalized options, trace
// flag) — the exact bytes `qspr -report` writes for the same inputs —
// so caching is sound by construction and correctness is testable
// byte-for-byte against the CLI.
//
// Request lifecycle:
//
//	decode → raw-tier cache probe → admission (429 on overflow)
//	       → resolve (canonical circuit, fabric, options)
//	       → canonical-tier cache probe → warm Mapper → render
//	       → insert both tiers → respond
//
// The raw tier keys on the unparsed request shape and makes repeated
// requests allocation-free; the canonical tier keys on resolved
// content identity and deduplicates across spellings. Mappers (one
// warm engine.Sim each, per docs/CONCURRENCY.md single-goroutine
// ownership) live in a channel pool: a request owns at most one
// Mapper from resolve to render, so Sims never migrate mid-run.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"time"

	"repro/internal/circuits"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/fabric"
	"repro/internal/noise"
	"repro/internal/qasm"
)

// maxRequestBytes bounds a /map body; inline programs beyond this are
// rejected with 400 before any parsing.
const maxRequestBytes = 4 << 20

// maxSpecQubits and maxSpecGates bound a circuit named by registry
// spec. A spec is a few bytes however much it builds (the 19-byte
// "rand(q=2,g=1000000)" allocates ~300 MB), and up to
// Workers+QueueDepth requests resolve at once, so specs are bounded
// from their parameters before they are built. The served fabrics
// hold at most 462 traps.
const (
	maxSpecQubits = 4096
	maxSpecGates  = 65536
)

// Config sizes the service.
type Config struct {
	// Workers is the warm Mapper pool size — the number of mappings
	// that run concurrently. Default 2.
	Workers int
	// QueueDepth is how many requests may wait for a Mapper beyond
	// the ones holding one; the next request gets 429. Default 64.
	QueueDepth int
	// CacheEntries bounds each cache tier (FIFO eviction).
	// Default 1024.
	CacheEntries int
	// Budget is the total CPU budget shared by all workers, the way
	// experiment.Spec splits across-run × inner parallelism: each
	// mapping's InnerParallel is clamped to max(1, Budget/Workers).
	// Default Workers (inner stays sequential).
	Budget int
	// MapTimeout bounds one mapping's wall-clock time; a mapping past
	// the deadline answers 504 and its Mapper rejoins the pool when it
	// eventually finishes. 0 disables the deadline.
	MapTimeout time.Duration
}

func (c Config) normalized() Config {
	if c.Workers < 1 {
		c.Workers = 2
	}
	if c.QueueDepth < 1 {
		c.QueueDepth = 64
	}
	if c.CacheEntries < 1 {
		c.CacheEntries = 1024
	}
	if c.Budget < 1 {
		c.Budget = c.Workers
	}
	return c
}

// Server is the qsprd mapping service. Construct with New, mount
// Handler on an http.Server.
type Server struct {
	cfg Config
	// fabrics interns the built-in fabrics once: Sims reuse a warm
	// route graph only when the *fabric.Fabric pointer is stable
	// across runs, and fabric.Quale4585()/Small() build fresh ones
	// per call.
	fabrics map[string]experiment.FabricChoice
	pool    chan *core.Mapper
	// tickets is the admission semaphore: capacity Workers+QueueDepth.
	// A request holds a ticket from admission to response, so at most
	// QueueDepth requests ever block on the Mapper pool and the rest
	// are rejected with 429 + Retry-After.
	tickets chan struct{}
	raw     *cache
	canon   *cache
	met     metrics
	// mapFn performs one mapping on a pooled Mapper. Production is
	// Mapper.Map; tests inject panics and hangs here.
	mapFn func(*core.Mapper, *qasm.Program, *fabric.Fabric, core.Options) (*core.Result, error)
}

// New builds a Server: interns the built-in fabrics and fills the
// warm Mapper pool.
func New(cfg Config) *Server {
	cfg = cfg.normalized()
	s := &Server{
		cfg:     cfg,
		fabrics: make(map[string]experiment.FabricChoice, 2),
		pool:    make(chan *core.Mapper, cfg.Workers),
		tickets: make(chan struct{}, cfg.Workers+cfg.QueueDepth),
		raw:     newCache(cfg.CacheEntries),
		canon:   newCache(cfg.CacheEntries),
	}
	s.mapFn = func(mp *core.Mapper, prog *qasm.Program, fab *fabric.Fabric, opts core.Options) (*core.Result, error) {
		return mp.Map(prog, fab, opts)
	}
	for _, name := range []string{"quale45x85", "small"} {
		fc, err := experiment.LoadFabric(name)
		if err != nil {
			// Built-in names cannot fail to load.
			panic(fmt.Sprintf("serve: built-in fabric %s: %v", name, err))
		}
		s.fabrics[name] = fc
	}
	for i := 0; i < cfg.Workers; i++ {
		s.pool <- core.NewMapper()
	}
	return s
}

// Handler returns the service's route table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/map", s.handleMap)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/healthz", s.handleHealthz)
	return mux
}

// cachedResponse is the raw-tier probe: the steady-state path for a
// repeated request. Zero allocations (pinned by TestCachedHitAllocs).
func (s *Server) cachedResponse(rq *Request) ([]byte, bool) {
	return s.raw.get(rawKey(rq))
}

// resolved is a request after canonicalization: everything the
// mapping and the report need.
type resolved struct {
	circuit string // canonical content-addressed circuit name
	prog    *qasm.Program
	fab     experiment.FabricChoice
	opts    core.Options
	noise   *noise.Params // nil when the mapping is not noise-scored
	key     cacheKey      // canonical-tier cache key
}

// errBadRequest marks resolution failures that are the client's
// fault (unknown spec, bad options) rather than the server's.
var errBadRequest = errors.New("bad request")

// resolve canonicalizes a request. All failures here are 400s: the
// inputs, not the service, are wrong.
func (s *Server) resolve(rq *Request) (*resolved, error) {
	var r resolved
	switch {
	case rq.Circuit != "" && rq.QASM != "":
		return nil, fmt.Errorf("%w: circuit and qasm are mutually exclusive", errBadRequest)
	case rq.Circuit != "":
		if err := checkSpec(rq.Circuit); err != nil {
			return nil, fmt.Errorf("%w: %v", errBadRequest, err)
		}
		b, err := circuits.Resolve(rq.Circuit)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", errBadRequest, err)
		}
		r.circuit, r.prog = b.Name, b.Program
	case rq.QASM != "":
		prog, err := qasm.ParseString(rq.QASM)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", errBadRequest, err)
		}
		r.circuit, r.prog = InlineName([]byte(rq.QASM)), prog
	default:
		return nil, fmt.Errorf("%w: one of circuit or qasm is required", errBadRequest)
	}

	fname := strings.ToLower(strings.TrimSpace(rq.Fabric))
	if fname == "" {
		fname = "quale45x85"
	}
	fc, ok := s.fabrics[fname]
	if !ok {
		return nil, fmt.Errorf("%w: unknown fabric %q (quale45x85, small)", errBadRequest, rq.Fabric)
	}
	r.fab = fc

	h := core.QSPR
	if rq.Heuristic != "" {
		var err error
		h, err = experiment.ParseHeuristic(rq.Heuristic)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", errBadRequest, err)
		}
	}
	backend, err := core.CanonicalBackend(rq.Backend)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errBadRequest, err)
	}
	if rq.Noise != nil {
		if err := rq.Noise.Validate(); err != nil {
			return nil, fmt.Errorf("%w: %v", errBadRequest, err)
		}
		r.noise = rq.Noise
	}
	r.opts = core.Options{
		Heuristic: h, Seeds: rq.M, Seed: rq.Seed, Patience: rq.Patience,
		AnnealMoves: rq.AnnealMoves, AnnealRestarts: rq.AnnealRestarts,
		AnnealCooling: rq.AnnealCooling, Backend: backend,
	}
	resultKey, err := r.opts.ResultKey()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", errBadRequest, err)
	}
	noiseKey := ""
	if r.noise != nil {
		noiseKey = r.noise.Key()
	}
	r.key = canonicalKey(r.circuit, r.fab.Name, resultKey, noiseKey, rq.Trace)
	return &r, nil
}

// checkSpec refuses, before anything is built or read, a circuit
// spec the service does not resolve: a family that reads a file on
// this host (its contents or its absence would leak into the error),
// or a circuit over the size caps.
func checkSpec(spec string) error {
	b, err := circuits.SpecBound(spec)
	switch {
	case err != nil:
		return err
	case b.ReadsFile:
		return fmt.Errorf("circuit family %q reads files and is not served; send the program inline in \"qasm\"", b.Family)
	case b.Qubits > maxSpecQubits:
		return fmt.Errorf("circuit spec %q has up to %d qubits, over the service cap of %d", spec, b.Qubits, maxSpecQubits)
	case b.Gates > maxSpecGates:
		return fmt.Errorf("circuit spec %q has up to %d gates, over the service cap of %d", spec, b.Gates, maxSpecGates)
	}
	return nil
}

// innerParallel clamps a request's worker wish to the per-mapping
// share of the server's CPU budget. Parallelism never changes
// response bytes, so the clamp is invisible in results.
func (s *Server) innerParallel(wish int) int {
	share := s.cfg.Budget / s.cfg.Workers
	if share < 1 {
		share = 1
	}
	if wish < 1 {
		wish = 1
	}
	if wish > share {
		wish = share
	}
	return wish
}

func (s *Server) handleMap(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		http.Error(w, "POST only", http.StatusMethodNotAllowed)
		return
	}
	start := time.Now()
	s.met.requests.Add(1)

	var rq Request
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&rq); err != nil {
		s.fail(w, http.StatusBadRequest, fmt.Sprintf("decode request: %v", err))
		return
	}

	// Tier 1: raw request shape. Repeats of an exact request never
	// touch admission, resolution or a Mapper.
	if body, ok := s.cachedResponse(&rq); ok {
		s.respond(w, body, true, start)
		return
	}

	// Admission: the ticket is held until the response is written, so
	// at most Workers+QueueDepth requests are in flight past here.
	select {
	case s.tickets <- struct{}{}:
		defer func() { <-s.tickets }()
	default:
		w.Header().Set("Retry-After", "1")
		s.met.rejected.Add(1)
		http.Error(w, "queue full", http.StatusTooManyRequests)
		return
	}

	rs, err := s.resolve(&rq)
	if err != nil {
		s.fail(w, http.StatusBadRequest, err.Error())
		return
	}

	// Tier 2: canonical content identity. A hit here is a different
	// spelling of a mapping already served — alias the raw shape so
	// its repeats hit tier 1.
	if body, ok := s.canon.get(rs.key); ok {
		s.raw.put(rawKey(&rq), body)
		s.respond(w, body, true, start)
		return
	}

	opts := rs.opts
	opts.InnerParallel = s.innerParallel(rq.InnerParallel)
	res, err := s.runMapping(r.Context(), rs.prog, rs.fab.Fabric, opts)
	if err != nil {
		if errors.Is(err, errMapTimeout) {
			s.fail(w, http.StatusGatewayTimeout, fmt.Sprintf("map: deadline of %v exceeded", s.cfg.MapTimeout))
		} else {
			s.fail(w, http.StatusInternalServerError, fmt.Sprintf("map: %v", err))
		}
		return
	}

	rep, err := NewReport(rs.circuit, rs.fab.Name, rs.opts, res, rq.Trace, rs.noise)
	if err != nil {
		s.fail(w, http.StatusInternalServerError, fmt.Sprintf("report: %v", err))
		return
	}
	body, err := rep.MarshalBytes()
	if err != nil {
		s.fail(w, http.StatusInternalServerError, fmt.Sprintf("encode report: %v", err))
		return
	}
	s.canon.put(rs.key, body)
	s.raw.put(rawKey(&rq), body)
	s.respond(w, body, false, start)
}

// errMapTimeout marks a mapping abandoned at its deadline — the one
// mapping failure that is 504, not 500.
var errMapTimeout = errors.New("mapping deadline exceeded")

// runMapping executes one mapping on a pooled Mapper with the
// server's two robustness guarantees:
//
//   - A panicking mapping never takes the service down or leaks pool
//     capacity: the panic is recovered in the mapping goroutine, the
//     (possibly corrupted) Mapper is discarded and a fresh one takes
//     its pool slot, and the request answers 500.
//   - A mapping past Config.MapTimeout (or whose client went away)
//     is abandoned, answering 504 without blocking the handler; the
//     Mapper is not lost — it rejoins the pool when the mapping
//     eventually finishes. Until then the pool is one Mapper short,
//     which is exactly the capacity that runaway mapping is consuming.
func (s *Server) runMapping(ctx context.Context, prog *qasm.Program, fab *fabric.Fabric, opts core.Options) (*core.Result, error) {
	if s.cfg.MapTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.MapTimeout)
		defer cancel()
	}
	mp := <-s.pool
	type outcome struct {
		res *core.Result
		err error
	}
	ch := make(chan outcome, 1)
	go func() {
		defer func() {
			if p := recover(); p != nil {
				// The Mapper's warm Sim may be mid-mutation: poisoned.
				// Replace it so the pool keeps its full capacity.
				s.met.panics.Add(1)
				s.pool <- core.NewMapper()
				ch <- outcome{nil, fmt.Errorf("mapping panicked: %v", p)}
			}
		}()
		res, err := s.mapFn(mp, prog, fab, opts)
		s.pool <- mp
		ch <- outcome{res, err}
	}()
	select {
	case o := <-ch:
		return o.res, o.err
	case <-ctx.Done():
		if errors.Is(ctx.Err(), context.DeadlineExceeded) {
			s.met.timeouts.Add(1)
			return nil, errMapTimeout
		}
		return nil, fmt.Errorf("mapping abandoned: %w", ctx.Err())
	}
}

// respond writes a report body with cache disposition and records
// the request in the metrics.
func (s *Server) respond(w http.ResponseWriter, body []byte, hit bool, start time.Time) {
	if hit {
		s.met.hits.Add(1)
		w.Header().Set("X-Cache", "hit")
	} else {
		s.met.misses.Add(1)
		w.Header().Set("X-Cache", "miss")
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", fmt.Sprint(len(body)))
	w.Write(body)
	s.met.observe(time.Since(start).Nanoseconds())
}

func (s *Server) fail(w http.ResponseWriter, code int, msg string) {
	s.met.errors.Add(1)
	http.Error(w, msg, code)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	inflight := len(s.tickets)
	queued := inflight - s.cfg.Workers
	if queued < 0 {
		queued = 0
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	s.met.write(w, inflight, queued)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// Fabric returns an interned built-in fabric, for tests that need
// the exact *fabric.Fabric the service maps on.
func (s *Server) Fabric(name string) (*fabric.Fabric, bool) {
	fc, ok := s.fabrics[strings.ToLower(name)]
	return fc.Fabric, ok
}
