// Package place implements the qubit placers of the QSPR paper:
//
//   - Center placement (QUALE's placer, §I): qubits go to the free
//     traps closest to the center of the fabric.
//   - Monte-Carlo placement (§V.A): m' random permutations of the
//     center placement; route the scheduled instructions for each and
//     keep the lowest-latency result.
//   - MVFB, Multi-start Variable-length Forward/Backward (§IV.A):
//     QSPR's placer. It exploits the reversibility of quantum
//     computation: a forward run of the QIDG from placement P yields
//     a trace, a latency and an end placement P'; a backward run of
//     the uncompute graph (UIDG) in reverse issue order from P'
//     yields another latency and a new placement; iterating
//     forward/backward walks the placement space. Each random seed's
//     neighborhood search stops after three consecutive
//     non-improving runs; the best run over m seeds wins.
//   - Portfolio (portfolio.go): MVFB, Monte-Carlo and Center raced
//     concurrently on one mapping, best by (latency, placer rank) —
//     portfolio-style parallel search in the spirit of DateSAT.
//
// MVFB's starts, Monte-Carlo's trials and the portfolio's placers
// all fan across bounded worker pools (MVFBOptions.Workers,
// MonteCarloParallel, PortfolioOptions.Workers) with results
// bit-identical to the sequential search at any worker count; the
// determinism model is documented in docs/CONCURRENCY.md.
package place

import (
	"fmt"
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/engine"
	"repro/internal/fabric"
	"repro/internal/gates"
	"repro/internal/qidg"
	"repro/internal/trace"
)

// Center returns the deterministic center placement: qubit i rests in
// the i-th closest trap to the fabric center, one qubit per trap.
func Center(f *fabric.Fabric, numQubits int) (engine.Placement, error) {
	if numQubits > len(f.Traps) {
		return nil, fmt.Errorf("place: %d qubits exceed %d traps", numQubits, len(f.Traps))
	}
	order := f.TrapsByDistance(f.Center())
	p := make(engine.Placement, numQubits)
	copy(p, order[:numQubits])
	return p, nil
}

// CenterPermutation places the qubits onto the numQubits
// closest-to-center traps in a randomly permuted assignment.
func CenterPermutation(f *fabric.Fabric, numQubits int, rng *rand.Rand) (engine.Placement, error) {
	base, err := Center(f, numQubits)
	if err != nil {
		return nil, err
	}
	perm := rng.Perm(numQubits)
	p := make(engine.Placement, numQubits)
	for i, j := range perm {
		p[i] = base[j]
	}
	return p, nil
}

// Solution is a placed-and-routed mapping result with provenance.
type Solution struct {
	// Result is the winning engine run. For a backward winner the
	// trace has been reversed and the reported initial placement is
	// the backward run's final placement, per §IV.A.
	Result *engine.Result
	// Backward records whether the winning run was an uncompute
	// (backward) computation.
	Backward bool
	// Runs is the total number of placement runs (engine
	// executions) performed to find the solution.
	Runs int
	// Seed identifies which random start produced the winner.
	Seed int
	// Iteration is the run index within the winning seed.
	Iteration int
}

// MonteCarlo routes the program from `runs` random center-placement
// permutations and returns the best solution (§V.A's MC placer).
// It is MonteCarloParallel with a single worker.
func MonteCarlo(g *qidg.Graph, cfg engine.Config, runs int, seed int64) (*Solution, error) {
	return MonteCarloParallel(g, cfg, runs, seed, 1)
}

// MonteCarloParallel is MonteCarlo with the trials fanned across a
// bounded worker pool. Every trial's placement is drawn up front from
// one stream — trial i's randomness is a pure function of (seed, i) —
// and the winner is reduced by (latency, trial index), so the result
// is bit-identical to the sequential placer for any worker count.
//
// Each worker owns one reusable engine.Sim (event queue, search
// state, routing graph and trace storage warm across its trials) and
// runs every trial traceless; only the winning trial is re-run with
// capture on, which determinism makes byte-identical to a trace
// recorded during the sweep.
func MonteCarloParallel(g *qidg.Graph, cfg engine.Config, runs int, seed int64, workers int) (*Solution, error) {
	return MonteCarloWarm(g, cfg, runs, seed, workers, nil)
}

// MonteCarloWarm is MonteCarloParallel with a caller-owned warm
// simulator serving the sequential trial loop (workers <= 1) and the
// winner replay, so long-lived callers (core.Mapper, the qsprd
// service workers) keep one Sim — route graph included — warm across
// whole mappings. The Sim ownership rules of docs/CONCURRENCY.md
// apply; results are bit-identical to a fresh Sim. A nil sim is
// exactly MonteCarloParallel.
func MonteCarloWarm(g *qidg.Graph, cfg engine.Config, runs int, seed int64, workers int, sim *engine.Sim) (*Solution, error) {
	out, err := monteCarloSearch(g, cfg, runs, seed, workers, sim)
	if err != nil {
		return nil, err
	}
	if err := captureWinner(g, out.rev, cfg, out.sol, out.forced, out.sim); err != nil {
		return nil, err
	}
	return out.sol, nil
}

// searchOutcome is a traceless search result awaiting deferred
// capture: the solution, the forced order its winning run was issued
// with (nil for policy-scheduled runs), the reversed graph a backward
// winner must replay on, and — for sequential searches — the warm Sim
// to replay with.
type searchOutcome struct {
	sol    *Solution
	forced []int
	rev    *qidg.Graph
	sim    *engine.Sim
}

// monteCarloSearch runs the Monte-Carlo trials traceless and returns
// the winner WITHOUT its trace; MonteCarloParallel (and the portfolio,
// which captures only the race winner) finish it with captureWinner.
func monteCarloSearch(g *qidg.Graph, cfg engine.Config, runs int, seed int64, workers int, warm *engine.Sim) (searchOutcome, error) {
	var out searchOutcome
	if runs <= 0 {
		return out, fmt.Errorf("place: MonteCarlo needs at least 1 run, got %d", runs)
	}
	rng := rand.New(rand.NewSource(seed))
	placements := make([]engine.Placement, runs)
	for i := range placements {
		p, err := CenterPermutation(cfg.Fabric, g.NumQubits, rng)
		if err != nil {
			return out, err
		}
		placements[i] = p
	}
	scfg := cfg
	scfg.CollectTrace = false
	type candidate struct {
		result *engine.Result
		trial  int
	}
	better := func(a candidate, b candidate) bool {
		return b.result == nil || a.result.Latency < b.result.Latency ||
			(a.result.Latency == b.result.Latency && a.trial < b.trial)
	}
	best := candidate{trial: -1}
	var seqSim *engine.Sim // sequential path's warm Sim, reused for the winner replay
	if workers <= 1 || runs == 1 {
		// One Sim for the whole sweep: its routing graph (CSR arrays,
		// search state, uncongested route cache) and simulator pools
		// stay warm across trials. A caller-owned warm Sim extends
		// that reuse across whole mappings.
		sim := warm
		if sim == nil {
			sim = engine.NewSim()
		}
		seqSim = sim
		for i, p := range placements {
			res, err := sim.Run(g, scfg, p)
			if err != nil {
				return out, err
			}
			if c := (candidate{result: res, trial: i}); better(c, best) {
				best = c
			}
		}
	} else {
		if workers > runs {
			workers = runs
		}
		// Each worker keeps only its own (latency, trial index)-minimal
		// candidate; the final reduce across workers applies the same
		// order, reproducing the sequential first-strict-minimum winner.
		cands := make([]candidate, workers)
		errs := make([]error, workers)
		work := make(chan int)
		var failed atomic.Bool
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(self int) {
				defer wg.Done()
				// The Sim (and its routing graph) is mutable, so each
				// worker owns one, reused across its trials.
				wcfg := scfg
				wcfg.RouteGraph = nil
				sim := engine.NewSim()
				wbest := candidate{trial: -1}
				for i := range work {
					// Once any worker failed the call returns an error;
					// drain the channel without doing the doomed work.
					if failed.Load() {
						continue
					}
					res, err := sim.Run(g, wcfg, placements[i])
					if err != nil {
						errs[self] = err
						failed.Store(true)
						continue
					}
					if c := (candidate{result: res, trial: i}); better(c, wbest) {
						wbest = c
					}
				}
				cands[self] = wbest
			}(w)
		}
		for i := range placements {
			work <- i
		}
		close(work)
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return out, err
			}
		}
		for _, c := range cands {
			if c.result != nil && better(c, best) {
				best = c
			}
		}
	}
	out.sol = &Solution{Result: best.result, Runs: runs, Seed: best.trial}
	// The trials ran under the caller's scheduling knobs, so the
	// winner replays under exactly the caller's ForcedOrder (if any).
	out.forced = cfg.ForcedOrder
	out.sim = seqSim
	if out.sim == nil {
		out.sim = warm
	}
	return out, nil
}

// PatienceScope selects what a "non-improving run" is measured
// against when deciding to stop a seed's neighborhood search.
type PatienceScope uint8

const (
	// ScopeGlobal stops a seed after Patience consecutive runs that
	// fail to improve the best solution found by ANY seed so far.
	// This reproduces the paper's realized placement-run counts
	// (~3.5 runs per seed at patience 3) and is the default.
	ScopeGlobal PatienceScope = iota
	// ScopeSeed stops a seed after Patience consecutive runs that
	// fail to improve that seed's own best. Seeds become fully
	// independent, enabling parallel search.
	ScopeSeed
)

// MVFBOptions configures the MVFB placer.
type MVFBOptions struct {
	// Seeds is m, the number of random center placements to start
	// neighborhood searches from.
	Seeds int
	// Patience is the number of consecutive non-improving placement
	// runs after which a seed's search stops. The paper uses 3.
	Patience int
	// PatienceScope selects the improvement reference (see the
	// constants). ScopeGlobal matches the paper's protocol.
	PatienceScope PatienceScope
	// MaxRunsPerSeed bounds one seed's search (0 = 50 runs).
	MaxRunsPerSeed int
	// Seed seeds the random permutations.
	Seed int64
	// Workers runs that many start searches concurrently (0 or 1 =
	// sequential). Valid under either PatienceScope: the winner is
	// reduced by the (latency, start index) order of the sequential
	// protocol, so the result — including the realized run count — is
	// bit-identical to Workers == 1 for any worker count. See
	// docs/CONCURRENCY.md for the speculative-trajectory mechanism
	// that makes this true even for ScopeGlobal.
	Workers int
	// Sim optionally supplies a caller-owned warm simulator for the
	// sequential search path (Workers <= 1) and the winner replay, so
	// long-lived callers (core.Mapper, the qsprd service workers) keep
	// one Sim — and its route graph, rebuilt transparently on
	// routing-config change — warm across whole mappings. Per the Sim
	// ownership rules in docs/CONCURRENCY.md it must not be touched by
	// anything else while the search runs; results are bit-identical
	// to a fresh Sim. With Workers > 1 the search workers own private
	// Sims as always and this one serves only the winner replay.
	Sim *engine.Sim
}

// DefaultMVFBOptions mirrors the paper's setup with m seeds.
func DefaultMVFBOptions(m int) MVFBOptions {
	return MVFBOptions{Seeds: m, Patience: 3, MaxRunsPerSeed: 50, Seed: 1}
}

// MVFB runs the Multi-start Variable-length Forward/Backward placer.
//
// Parallel model (opts.Workers > 1): a start's forward/backward
// trajectory — the sequence of placements visited and latencies
// realized — is a pure function of its start placement; the patience
// rule only decides where the trajectory is truncated. Workers
// therefore search every start independently (speculatively running
// each to its own local-patience stop, which can only overshoot the
// sequential stopping point), and a sequential replay then applies
// the exact paper protocol — shared global best, patience counted
// against it, (latency, start index) tie-break — over the recorded
// trajectories. The winning placement, its latency and the reported
// run count are bit-identical to the sequential search for every
// worker count; speculative runs past the replayed stopping point are
// discarded and never reported.
func MVFB(g *qidg.Graph, cfg engine.Config, opts MVFBOptions) (*Solution, error) {
	out, err := mvfbSearch(g, cfg, opts)
	if err != nil {
		return nil, err
	}
	if err := captureWinner(g, out.rev, cfg, out.sol, out.forced, out.sim); err != nil {
		return nil, err
	}
	return out.sol, nil
}

// mvfbSearch runs the whole MVFB search traceless and returns the
// winner WITHOUT its trace; MVFB (and the portfolio, which captures
// only the race winner) finish it with captureWinner.
func mvfbSearch(g *qidg.Graph, cfg engine.Config, opts MVFBOptions) (searchOutcome, error) {
	var out searchOutcome
	if opts.Seeds <= 0 {
		return out, fmt.Errorf("place: MVFB needs at least 1 seed")
	}
	if opts.Patience <= 0 {
		opts.Patience = 3
	}
	if opts.MaxRunsPerSeed <= 0 {
		opts.MaxRunsPerSeed = 50
	}
	if opts.Workers <= 0 {
		opts.Workers = 1
	}
	if opts.Workers > opts.Seeds {
		opts.Workers = opts.Seeds
	}
	// All random start placements are drawn up front from one stream:
	// start i's randomness is a pure function of (opts.Seed, i), so
	// neither the worker count nor the work distribution can change
	// which placements are searched.
	rng := rand.New(rand.NewSource(opts.Seed))
	starts := make([]engine.Placement, opts.Seeds)
	for i := range starts {
		p, err := CenterPermutation(cfg.Fabric, g.NumQubits, rng)
		if err != nil {
			return out, err
		}
		starts[i] = p
	}
	rev := g.Reverse()

	trajs := make([][]runRecord, opts.Seeds)
	var seqSim *engine.Sim // sequential path's warm Sim, reused for the winner replay
	if opts.Workers == 1 {
		// One reusable Sim serves the whole sequential search: its
		// routing graph (CSR arrays, uncongested route cache), event
		// queue and simulator pools stay warm across every run. A
		// caller-owned warm Sim (opts.Sim) extends that reuse across
		// whole mappings.
		sim := opts.Sim
		if sim == nil {
			sim = engine.NewSim()
		}
		seqSim = sim
		// Under ScopeGlobal the prior starts' best is threaded into
		// each search as its improvement bound, so the sequential path
		// runs exactly the paper protocol with no speculative runs.
		rb := &replayBound{patience: opts.Patience}
		var hint boundFunc
		if opts.PatienceScope == ScopeGlobal {
			hint = rb.get
		}
		for seed := range starts {
			t, err := searchTrajectory(g, rev, cfg, starts[seed], opts, hint, sim)
			if err != nil {
				return out, err
			}
			rb.record(seed, t, trajs)
		}
	} else {
		// Speculative search with an incremental-replay hint: as
		// trajectories complete in start order, the replay front
		// advances and publishes the bound the sequential protocol
		// would have observed; starts still in flight read it (at
		// every run) to truncate early. The published bound covers a
		// prefix of the starts before the one searching, so it is
		// always ≥ the sequential bound — trajectories can only
		// overshoot the replayed stopping point, never undershoot it.
		// The final replay stays bit-identical while the wasted
		// speculative work shrinks.
		rb := &replayBound{patience: opts.Patience}
		var hint boundFunc
		if opts.PatienceScope == ScopeGlobal {
			hint = rb.get
		}
		errs := make([]error, opts.Seeds)
		work := make(chan int)
		var failed atomic.Bool
		var wg sync.WaitGroup
		for w := 0; w < opts.Workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				// The Sim (and its routing graph) is mutable, so each
				// worker owns one, reused across its starts.
				wcfg := cfg
				wcfg.RouteGraph = nil
				sim := engine.NewSim()
				for seed := range work {
					// Once any start failed the call returns an error;
					// drain the channel without searching the rest.
					if failed.Load() {
						continue
					}
					t, err := searchTrajectory(g, rev, wcfg, starts[seed], opts, hint, sim)
					if err != nil {
						errs[seed] = err
						failed.Store(true)
						continue
					}
					rb.record(seed, t, trajs)
				}
			}()
		}
		for seed := range starts {
			work <- seed
		}
		close(work)
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return out, err
			}
		}
	}
	var err error
	if opts.PatienceScope == ScopeGlobal {
		out.sol, out.forced, err = replayGlobal(trajs, opts.Patience)
	} else {
		out.sol, out.forced, err = reduceSeedScope(trajs)
	}
	if err != nil {
		return out, err
	}
	out.rev = rev
	out.sim = seqSim
	if out.sim == nil {
		// Parallel search: the workers' Sims are gone, but a caller's
		// warm Sim can still serve the winner replay.
		out.sim = opts.Sim
	}
	return out, nil
}

// captureWinner replaces a solution's traceless winning result with a
// capture-enabled replay of the same run: forward from the winning
// initial placement, or — for a backward (uncompute) winner — the
// backward run from its recorded start placement, converted by
// backwardSolution as the search would have. forced is the exact
// ForcedOrder the winning run was issued with (nil for a policy-
// scheduled run); sim, when non-nil, is a caller's warm simulator —
// the sequential paths pass theirs so the replay reuses the built
// route graph. Engine runs are deterministic, so the replay is
// bit-identical to the discarded search run; the cross-check below
// turns any violation of that contract into an error rather than a
// silently wrong trace. No-op when the result already has a trace.
func captureWinner(g, rev *qidg.Graph, cfg engine.Config, sol *Solution, forced []int, sim *engine.Sim) error {
	if sol.Result == nil || sol.Result.Trace != nil {
		return nil
	}
	ccfg := cfg
	ccfg.CollectTrace = true
	ccfg.ForcedOrder = forced
	if sim == nil {
		sim = engine.NewSim()
	}
	var res *engine.Result
	var err error
	if sol.Backward {
		// The reported (converted) solution swapped Initial/Final, so
		// the backward run started from the reported Final.
		res, err = sim.Run(rev, ccfg, sol.Result.Final)
		if err == nil {
			res = backwardSolution(res)
		}
	} else {
		res, err = sim.Run(g, ccfg, sol.Result.Initial)
	}
	if err != nil {
		return err
	}
	if res.Latency != sol.Result.Latency || res.Stats != sol.Result.Stats ||
		!slices.Equal(res.IssueOrder, sol.Result.IssueOrder) ||
		!slices.Equal(res.Final, sol.Result.Final) {
		return fmt.Errorf("place: internal: winner replay diverged from search run (latency %v vs %v)",
			res.Latency, sol.Result.Latency)
	}
	sol.Result = res
	return nil
}

// boundFunc supplies the current global improvement bound to a
// trajectory search; ok == false means no bound yet.
type boundFunc func() (bound gates.Time, ok bool)

// replayBound incrementally replays the global-patience protocol over
// consecutively-completed trajectories and publishes the best latency
// the sequential search would have observed so far. A start reading
// the bound mid-search always gets a value derived from a prefix of
// the starts before it (the replay front cannot pass an unfinished
// start), hence ≥ the exact sequential bound — safe to truncate on.
type replayBound struct {
	mu       sync.Mutex
	patience int
	pos      int // next start index to replay
	have     bool
	best     gates.Time
}

func (rb *replayBound) get() (gates.Time, bool) {
	rb.mu.Lock()
	defer rb.mu.Unlock()
	return rb.best, rb.have
}

// record stores one start's finished trajectory (the trajs slots are
// shared with concurrently-searching workers, so the assignment must
// happen under the bound's mutex) and advances the replay front over
// every consecutively-recorded trajectory, applying the same
// patience-truncated walk as replayGlobal (latencies only).
func (rb *replayBound) record(seed int, traj []runRecord, trajs [][]runRecord) {
	rb.mu.Lock()
	defer rb.mu.Unlock()
	trajs[seed] = traj
	for rb.pos < len(trajs) && trajs[rb.pos] != nil {
		sinceImprove := 0
		for _, rec := range trajs[rb.pos] {
			if !rb.have || rec.latency < rb.best {
				rb.best, rb.have = rec.latency, true
				sinceImprove = 0
			} else if sinceImprove++; sinceImprove >= rb.patience {
				break
			}
		}
		rb.pos++
	}
}

// runRecord is one placement run in a start's recorded trajectory.
// result is retained only for runs that improved the search's own
// best at the time they ran — the only runs a replay can ever crown —
// so a trajectory holds O(improvements) engine results, not O(runs).
// Results are traceless (the search runs with CollectTrace off);
// forced keeps a backward run's issue order so captureWinner can
// replay it with capture on if it is crowned.
type runRecord struct {
	latency  gates.Time
	backward bool
	iter     int
	result   *engine.Result
	forced   []int
}

// searchTrajectory performs one start's variable-length
// forward/backward neighborhood search and records every run. The
// search's improvement reference is min(hint(), own stored-prefix
// best): under the sequential ScopeGlobal protocol the hint is the
// exact earlier-starts bound and the trajectory is truncated at
// exactly the paper protocol's stopping point; under a speculative
// (parallel) or nil hint the reference is only ever ≥ the sequential
// one, so the trajectory stops at-or-after the replayed stopping
// point and retains a result for every run the replay could crown.
//
// Forward and backward runs share sim and are plain cold runs: each
// backward run moves most qubits, so a forward baseline recorded for
// suffix replay (runIncremental) would almost never be forked from.
func searchTrajectory(g, rev *qidg.Graph, cfg engine.Config, p engine.Placement,
	opts MVFBOptions, hint boundFunc, sim *engine.Sim) ([]runRecord, error) {

	var localBest gates.Time
	haveLocal := false
	improves := func(latency gates.Time) bool {
		if haveLocal && latency >= localBest {
			return false
		}
		if hint != nil {
			if b, ok := hint(); ok && latency >= b {
				return false
			}
		}
		return true
	}
	var traj []runRecord
	sinceImprove := 0
	record := func(rec runRecord) bool {
		if rec.result != nil {
			localBest, haveLocal = rec.latency, true
			sinceImprove = 0
		} else {
			sinceImprove++
		}
		traj = append(traj, rec)
		return rec.result == nil && sinceImprove >= opts.Patience
	}
	// Candidate runs are traceless: trace writes are side-effect-free,
	// so skipping capture changes no result bit, and captureWinner
	// re-runs whichever run is eventually crowned with capture on.
	fwdCfg := cfg
	fwdCfg.ForcedOrder = nil
	fwdCfg.CollectTrace = false
	bwdCfg := cfg
	bwdCfg.CollectTrace = false
	for iter := 0; iter < opts.MaxRunsPerSeed; iter++ {
		// Forward computation on the QIDG.
		fres, err := sim.Run(g, fwdCfg, p)
		if err != nil {
			return nil, err
		}
		rec := runRecord{latency: fres.Latency, iter: iter}
		if improves(fres.Latency) {
			rec.result = fres
		}
		if record(rec) {
			break
		}
		// Backward computation on the UIDG in reverse issue order,
		// starting from the forward run's final placement.
		bwdCfg.ForcedOrder = reverseOrder(fres.IssueOrder)
		bres, err := sim.Run(rev, bwdCfg, fres.Final)
		if err != nil {
			return nil, err
		}
		rec = runRecord{latency: bres.Latency, backward: true, iter: iter}
		if improves(bres.Latency) {
			rec.result = backwardSolution(bres)
			rec.forced = bwdCfg.ForcedOrder
		}
		if record(rec) {
			break
		}
		// The backward run's end placement seeds the next forward
		// computation (P_{k+1}).
		p = bres.Final
	}
	return traj, nil
}

// replayGlobal merges the recorded trajectories under the sequential
// ScopeGlobal protocol: starts are replayed in index order against a
// shared global best, patience counts runs that fail to improve it,
// and runs past a start's replayed stopping point are discarded. A
// replayed improvement always has its result retained (improving the
// global best implies improving the start's own prefix best, which is
// what searchTrajectory records), so the winner — and the realized
// run count — match the sequential search exactly.
func replayGlobal(trajs [][]runRecord, patience int) (*Solution, []int, error) {
	best := &Solution{}
	var forced []int
	totalRuns := 0
	for seed, traj := range trajs {
		sinceImprove := 0
		for i := range traj {
			rec := &traj[i]
			totalRuns++
			if best.Result == nil || rec.latency < best.Result.Latency {
				best.Result = rec.result
				best.Backward = rec.backward
				best.Seed = seed
				best.Iteration = rec.iter
				forced = rec.forced
				sinceImprove = 0
			} else if sinceImprove++; sinceImprove >= patience {
				break
			}
		}
	}
	best.Runs = totalRuns
	if best.Result == nil {
		return nil, nil, fmt.Errorf("place: MVFB produced no solution")
	}
	return best, forced, nil
}

// reduceSeedScope merges fully independent (ScopeSeed) trajectories:
// every recorded run counts, each start's best is its last retained
// improvement, and the winner is reduced by (latency, start index).
func reduceSeedScope(trajs [][]runRecord) (*Solution, []int, error) {
	best := &Solution{}
	var forced []int
	totalRuns := 0
	for seed, traj := range trajs {
		totalRuns += len(traj)
		var sb *runRecord
		for i := range traj {
			if traj[i].result != nil {
				sb = &traj[i]
			}
		}
		if sb == nil {
			continue
		}
		if best.Result == nil || sb.latency < best.Result.Latency {
			best.Result = sb.result
			best.Backward = sb.backward
			best.Seed = seed
			best.Iteration = sb.iter
			forced = sb.forced
		}
	}
	best.Runs = totalRuns
	if best.Result == nil {
		return nil, nil, fmt.Errorf("place: MVFB produced no solution")
	}
	return best, forced, nil
}

func reverseOrder(order []int) []int {
	out := make([]int, len(order))
	for i, n := range order {
		out[len(order)-1-i] = n
	}
	return out
}

// backwardSolution converts a winning backward (UIDG) run into the
// reported forward solution: per §IV.A the initial placement is the
// backward run's final placement P_{k+1}, the control trace is the
// reverse of T'_k, and the latency is L'_k. A traceless backward run
// (CollectTrace off during the search) converts with a nil trace;
// captureWinner fills it in if the run is crowned.
func backwardSolution(bres *engine.Result) *engine.Result {
	var rt *trace.Trace
	if bres.Trace != nil {
		rt = bres.Trace.Reverse()
	}
	return &engine.Result{
		Latency:    bres.Latency,
		Trace:      rt,
		Initial:    bres.Final.Clone(),
		Final:      bres.Initial.Clone(),
		IssueOrder: reverseOrder(bres.IssueOrder),
		Stats:      bres.Stats,
	}
}
