// Package core is the public facade of the QSPR reproduction: one
// call maps a QASM program onto an ion-trap fabric with a chosen
// heuristic and returns the execution latency, the micro-command
// trace and the mapping statistics.
//
// The heuristics correspond to the rows of the paper's Table 2 (the
// ideal Baseline, QUALE and QSPR) plus the Monte-Carlo placer of
// Table 1 and the QPOS baselines surveyed in §I.
//
//	prog, _ := qasm.ParseFile("bench.qasm")
//	fab := fabric.Quale4585()
//	res, _ := core.Map(prog, fab, core.Options{Heuristic: core.QSPR, Seeds: 100})
//	fmt.Println(res.Latency, res.Ideal, res.Runtime)
package core

import (
	"fmt"
	"time"

	"repro/internal/engine"
	"repro/internal/fabric"
	"repro/internal/gates"
	"repro/internal/place"
	"repro/internal/qasm"
	"repro/internal/qidg"
	"repro/internal/sched"
)

// Heuristic selects a mapping flow.
type Heuristic uint8

// Available mapping heuristics.
const (
	// QSPR is the paper's tool: priority scheduling, MVFB placement,
	// turn-aware simultaneous two-operand routing, channel capacity 2.
	QSPR Heuristic = iota
	// QSPRCenter is QSPR with a single deterministic center
	// placement instead of the MVFB search (isolates the placer).
	QSPRCenter
	// MonteCarlo is QSPR's engine under the Table 1 MC placer:
	// random center permutations, best of Seeds runs.
	MonteCarlo
	// QUALE is the prior-art baseline of Table 2.
	QUALE
	// QPOS is the Metodi et al. baseline (ref [4]).
	QPOS
	// QPOSDelay is the Whitney et al. tweak of QPOS (ref [5]).
	QPOSDelay
	// Portfolio races heterogeneous placers — MVFB, Monte-Carlo and
	// Center — concurrently under the QSPR engine and keeps the best
	// mapping by (latency, placer rank). Inspired by portfolio-style
	// parallel search (cf. DateSAT); not a row of the paper's tables.
	Portfolio
	// Anneal is QSPR's engine under a simulated-annealing placer:
	// seeded restart chains of single-qubit relocations and pair
	// swaps, each candidate evaluated by a full engine run. Not a row
	// of the paper's tables.
	Anneal
)

// String names the heuristic as used in the paper's tables.
func (h Heuristic) String() string {
	switch h {
	case QSPR:
		return "QSPR"
	case QSPRCenter:
		return "QSPR-center"
	case MonteCarlo:
		return "MC"
	case QUALE:
		return "QUALE"
	case QPOS:
		return "QPOS"
	case QPOSDelay:
		return "QPOS-delay"
	case Portfolio:
		return "Portfolio"
	case Anneal:
		return "Anneal"
	}
	return "?"
}

// Options configures Map.
type Options struct {
	// Heuristic selects the mapping flow; default QSPR.
	Heuristic Heuristic
	// Tech overrides the technology parameters (nil = paper §V.A).
	Tech *gates.Tech
	// Seeds is m, the number of random starts for QSPR's MVFB placer
	// or the number of runs for the MonteCarlo placer. 0 means the
	// paper default of 25; negative values are rejected.
	Seeds int
	// Seed feeds the random permutations. 0 is deliberately coerced
	// to 1 by Normalize so that the zero value of Options reproduces
	// the documented deterministic defaults (every seed in this repo
	// — goldens, reports, docs — is pinned against seed 1). To sweep
	// seeds, use values >= 1; negative seeds are rejected so a typo'd
	// sign cannot silently select an undocumented stream.
	Seed int64
	// Patience is MVFB's non-improving-run stop count. 0 means the
	// paper default of 3; negative values are rejected.
	Patience int
	// InnerParallel is the worker count *within* one mapping: MVFB
	// starts, Monte-Carlo trials and the portfolio's racing placers
	// are fanned across this many workers. The mapping result is
	// bit-identical for any value (see docs/CONCURRENCY.md); 0 or 1
	// is sequential. Sweeps (internal/experiment) share one CPU
	// budget between this level and across-run parallelism.
	InnerParallel int
	// AnnealMoves is the annealing placer's proposed moves per restart
	// chain. For the Anneal heuristic 0 means the default of 400;
	// negative values are rejected. For the Portfolio heuristic a
	// non-zero value enters the annealer in the race (0 keeps the
	// original three-entrant race and its exact results).
	AnnealMoves int
	// AnnealRestarts is the annealing placer's independent chain
	// count. 0 means the default of 4; negative values are rejected.
	AnnealRestarts int
	// AnnealCooling is the annealer's per-move temperature multiplier,
	// which must lie strictly between 0 and 1. 0 means the default of
	// 0.97; values outside (0, 1) are rejected.
	AnnealCooling float64
	// Backend selects the target architecture: "ion" (the paper's
	// shuttling architecture; the default) or "swap" (nearest-neighbor
	// coupling with SWAP insertion, internal/swapmap). Normalize
	// canonicalizes "ion" to the empty string so the zero Options —
	// and every pre-backend ResultKey, fingerprint and cache entry —
	// keeps its exact identity; unknown names are rejected with the
	// valid list.
	Backend string
}

// Normalize validates o and resolves its documented defaults: Seeds 0
// → 25, Seed 0 → 1, Patience 0 → 3 and InnerParallel 0 → 1. Negative
// values are errors rather than silent coercions. Map normalizes
// internally; callers only need Normalize to inspect the resolved
// options.
func (o Options) Normalize() (Options, error) {
	switch {
	case o.Seeds < 0:
		return o, fmt.Errorf("core: Seeds %d < 0 (0 means the default of 25)", o.Seeds)
	case o.Seed < 0:
		return o, fmt.Errorf("core: Seed %d < 0 (seeds are positive; 0 means the default of 1)", o.Seed)
	case o.Patience < 0:
		return o, fmt.Errorf("core: Patience %d < 0 (0 means the default of 3)", o.Patience)
	case o.InnerParallel < 0:
		return o, fmt.Errorf("core: InnerParallel %d < 0 (0 or 1 means sequential)", o.InnerParallel)
	case o.AnnealMoves < 0:
		return o, fmt.Errorf("core: AnnealMoves %d < 0 (0 means the default of 400)", o.AnnealMoves)
	case o.AnnealRestarts < 0:
		return o, fmt.Errorf("core: AnnealRestarts %d < 0 (0 means the default of 4)", o.AnnealRestarts)
	case o.AnnealCooling != 0 && (o.AnnealCooling <= 0 || o.AnnealCooling >= 1):
		return o, fmt.Errorf("core: AnnealCooling %g outside (0, 1) (0 means the default of 0.97)", o.AnnealCooling)
	}
	backend, err := CanonicalBackend(o.Backend)
	if err != nil {
		return o, fmt.Errorf("core: %w", err)
	}
	o.Backend = backend
	if o.Seeds == 0 {
		o.Seeds = 25
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Patience == 0 {
		o.Patience = 3
	}
	if o.InnerParallel == 0 {
		o.InnerParallel = 1
	}
	// Anneal knobs resolve only where they matter — for the Anneal
	// heuristic and for a Portfolio that opted the annealer in — so
	// every other heuristic's normalized options (and ResultKey) stay
	// byte-identical to the pre-anneal layout.
	if o.Heuristic == Anneal || (o.Heuristic == Portfolio && o.AnnealMoves > 0) {
		if o.AnnealMoves == 0 {
			o.AnnealMoves = 400
		}
		if o.AnnealRestarts == 0 {
			o.AnnealRestarts = 4
		}
		if o.AnnealCooling == 0 {
			o.AnnealCooling = 0.97
		}
	}
	return o, nil
}

// Result is the outcome of one mapping.
type Result struct {
	// Heuristic that produced the mapping.
	Heuristic Heuristic
	// Latency is the execution latency of the mapped circuit.
	Latency gates.Time
	// Ideal is the paper's baseline lower bound: the gate-delay
	// critical path with T_routing = T_congestion = 0.
	Ideal gates.Time
	// Mapping is the winning engine run (trace, placements, stats).
	Mapping *engine.Result
	// Runs is the number of placement runs performed.
	Runs int
	// BackwardWinner records whether MVFB's best run was an
	// uncompute (backward) computation.
	BackwardWinner bool
	// PortfolioWinner names the placer that won a Portfolio race
	// ("MVFB", "MC", "Center" or "Anneal"); empty for every other
	// heuristic.
	PortfolioWinner string
	// Runtime is the wall-clock CPU time of the mapping (the paper's
	// Table 1 "CPU Runtime" column).
	Runtime time.Duration
}

// Overhead returns Latency - Ideal, the realized routing+congestion
// cost (the "Difference wrt Baseline" column of Table 2).
func (r *Result) Overhead() gates.Time { return r.Latency - r.Ideal }

// ResultKey renders the result-relevant normalized options as a
// canonical string: two Options with equal keys are guaranteed to
// produce bit-identical mapping results for the same (program,
// fabric) — the property the qsprd result cache is keyed on.
// InnerParallel is deliberately absent: parallelism never changes
// result bytes (docs/CONCURRENCY.md). A Tech
// override is rejected — it changes results but has no canonical
// rendering, so it must not silently collapse into one key.
func (o Options) ResultKey() (string, error) {
	n, err := o.Normalize()
	if err != nil {
		return "", err
	}
	if n.Tech != nil {
		return "", fmt.Errorf("core: ResultKey does not cover Tech overrides")
	}
	key := fmt.Sprintf("h=%s;m=%d;seed=%d;patience=%d", n.Heuristic, n.Seeds, n.Seed, n.Patience)
	// Anneal knobs shape results only for the Anneal heuristic and an
	// anneal-entered Portfolio; appending them only then keeps every
	// pre-existing key byte-identical (the qsprd cache stays warm
	// across the upgrade).
	if n.AnnealMoves > 0 {
		key += fmt.Sprintf(";amoves=%d;arestarts=%d;acooling=%g", n.AnnealMoves, n.AnnealRestarts, n.AnnealCooling)
	}
	// The backend joins the key only when it is not the ion default,
	// for the same reason: pre-backend keys stay byte-identical.
	if n.Backend != "" {
		key += ";backend=" + n.Backend
	}
	return key, nil
}

// Mapper owns warm, reusable mapping state: one engine.Sim whose
// event queue, simulator pools and routing graph (CSR arrays plus the
// uncongested route cache, rebuilt transparently when the fabric or
// routing options change) persist across Map calls. A Mapper is
// single-threaded mutable state under the Sim ownership rules of
// docs/CONCURRENCY.md — one goroutine at a time; long-lived callers
// (the qsprd service) keep one Mapper per worker. Results are
// bit-identical to the package-level Map.
//
// The warm Sim serves the QSPR-engine placers: the first worker of
// the MVFB, Monte-Carlo and annealing searches and their winner
// replay, and the QSPR-center single run. Further search workers
// (InnerParallel > 1) and the portfolio's racing entrants own private
// Sims, and the QUALE/QPOS baselines run on fresh ones.
type Mapper struct {
	sim *engine.Sim
}

// NewMapper returns a Mapper with a cold Sim; the first Map call
// warms it.
func NewMapper() *Mapper { return &Mapper{sim: engine.NewSim()} }

// Map is the warm-state equivalent of the package-level Map; results
// are bit-identical. It normalizes opts once, then dispatches to the
// selected Backend with the Mapper's Sim.
func (mp *Mapper) Map(prog *qasm.Program, fab *fabric.Fabric, opts Options) (*Result, error) {
	opts, err := opts.Normalize()
	if err != nil {
		return nil, err
	}
	return backends[opts.Backend].Map(prog, fab, opts, mp.sim)
}

// Map schedules, places and routes prog onto fab on a fresh Mapper.
func Map(prog *qasm.Program, fab *fabric.Fabric, opts Options) (*Result, error) {
	return NewMapper().Map(prog, fab, opts)
}

// MonteCarloRuns maps with the MC placer using an explicit run count
// (the Table 1 protocol sets it to twice MVFB's realized runs).
func MonteCarloRuns(prog *qasm.Program, fab *fabric.Fabric, runs int, seed int64, tech *gates.Tech) (*Result, error) {
	g, err := qidg.Build(prog)
	if err != nil {
		return nil, err
	}
	tc := gates.Default()
	if tech != nil {
		tc = *tech
	}
	start := time.Now()
	sol, err := place.MonteCarlo(g, qsprConfig(fab, tc), runs, seed, 1, nil)
	if err != nil {
		return nil, err
	}
	return &Result{
		Heuristic: MonteCarlo,
		Latency:   sol.Result.Latency,
		Ideal:     g.CriticalPathLatency(tc),
		Mapping:   sol.Result,
		Runs:      sol.Runs,
		Runtime:   time.Since(start),
	}, nil
}

// IdealLatency returns the baseline lower bound of Table 2: the
// circuit's gate-delay critical path, with routing and congestion
// delays set to zero.
func IdealLatency(prog *qasm.Program, tech gates.Tech) (gates.Time, error) {
	g, err := qidg.Build(prog)
	if err != nil {
		return 0, err
	}
	return g.CriticalPathLatency(tech), nil
}

// qsprConfig is the engine configuration of the QSPR tool proper.
func qsprConfig(fab *fabric.Fabric, tech gates.Tech) engine.Config {
	return engine.Config{
		Fabric:       fab,
		Tech:         tech,
		Policy:       sched.QSPR,
		Weights:      sched.DefaultWeights(),
		TurnAware:    true,
		BothMove:     true,
		MedianTarget: true,
	}
}
