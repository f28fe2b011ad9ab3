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
// MVFB's starts, Monte-Carlo's trials, the annealer's restarts and the
// portfolio's placers all run through one worker fan-out (fanOut)
// with results bit-identical to the sequential search at any worker
// count; the determinism model is documented in docs/CONCURRENCY.md.
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

// CenterRun maps g once from the Center placement on sim, with trace
// capture on. It is the whole placement flow of the one-shot mappers
// whose trace is the deliverable: QUALE, QPOS, QSPR-center and the
// portfolio's Center entrant.
func CenterRun(g *qidg.Graph, cfg engine.Config, sim *engine.Sim) (*engine.Result, error) {
	p, err := Center(cfg.Fabric, g.NumQubits)
	if err != nil {
		return nil, err
	}
	cfg.CollectTrace = true
	return sim.Run(g, cfg, p)
}

// drawStarts draws n center permutations up front from one stream:
// start i's randomness is a pure function of (seed, i), so neither the
// worker count nor the work distribution can change what is searched.
func drawStarts(f *fabric.Fabric, numQubits, n int, seed int64) ([]engine.Placement, error) {
	rng := rand.New(rand.NewSource(seed))
	starts := make([]engine.Placement, n)
	for i := range starts {
		p, err := CenterPermutation(f, numQubits, rng)
		if err != nil {
			return nil, err
		}
		starts[i] = p
	}
	return starts, nil
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

// fanOut runs job(w, sim, cfg, i) for every index i in [0, n) on
// min(workers, n) workers that pull the indices in increasing order.
// Worker 0 runs on the calling goroutine with warm — a fresh Sim when
// warm is nil — and cfg as given. Every other worker runs on its own
// goroutine with a fresh Sim and cfg.RouteGraph = nil, since a Sim or
// a route graph must never serve two runs at once.
//
// After job fails at some index, the indices above the lowest failing
// index are skipped and the indices below it still run, so the error
// returned is that lowest index's: the error a sequential loop stops
// at, for any worker count. fanOut returns worker 0's Sim, which is
// free again for the caller's winner replay.
func fanOut(n, workers int, cfg engine.Config, warm *engine.Sim,
	job func(w int, sim *engine.Sim, cfg engine.Config, i int) error) (*engine.Sim, error) {

	if warm == nil {
		warm = engine.NewSim()
	}
	var next atomic.Int64
	var mu sync.Mutex
	failAt, failErr := n, error(nil)
	work := func(w int, sim *engine.Sim, cfg engine.Config) {
		for {
			i := int(next.Add(1) - 1)
			mu.Lock()
			skip := i >= n || i > failAt
			mu.Unlock()
			if skip {
				return
			}
			if err := job(w, sim, cfg, i); err != nil {
				mu.Lock()
				if i < failAt {
					failAt, failErr = i, err
				}
				mu.Unlock()
			}
		}
	}
	wcfg := cfg
	wcfg.RouteGraph = nil
	var wg sync.WaitGroup
	for w := 1; w < min(workers, n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work(w, engine.NewSim(), wcfg)
		}()
	}
	work(0, warm, cfg)
	wg.Wait()
	return warm, failErr
}

// MonteCarlo routes the program from `runs` random center-placement
// permutations and returns the best solution (§V.A's MC placer).
//
// The trials fan across `workers` workers (0 or 1 = sequential). The
// winner is reduced by (latency, trial index), so the result is
// bit-identical to the sequential placer for any worker count. Every
// trial runs traceless; only the winning trial is re-run with capture
// on, which determinism makes byte-identical to a trace recorded
// during the sweep.
//
// sim optionally supplies a caller-owned warm simulator for worker 0
// and the winner replay, so long-lived callers (core.Mapper, the qsprd
// service workers) keep one Sim — route graph included — warm across
// whole mappings. The Sim ownership rules of docs/CONCURRENCY.md
// apply; results are bit-identical to a fresh Sim.
func MonteCarlo(g *qidg.Graph, cfg engine.Config, runs int, seed int64, workers int, sim *engine.Sim) (*Solution, error) {
	out, err := monteCarloSearch(g, cfg, runs, seed, workers, sim)
	if err != nil {
		return nil, err
	}
	return captureWinner(g, cfg, out)
}

// searchOutcome is a traceless search result awaiting deferred
// capture: the solution, the forced order its winning run was issued
// with (nil for policy-scheduled runs), the reversed graph a backward
// winner must replay on, and the Sim to replay with.
type searchOutcome struct {
	sol    *Solution
	forced []int
	rev    *qidg.Graph
	sim    *engine.Sim
}

// monteCarloSearch runs the Monte-Carlo trials traceless and returns
// the winner WITHOUT its trace; MonteCarlo (and the portfolio, which
// captures only the race winner) finish it with captureWinner.
func monteCarloSearch(g *qidg.Graph, cfg engine.Config, runs int, seed int64, workers int, warm *engine.Sim) (searchOutcome, error) {
	if runs <= 0 {
		return searchOutcome{}, fmt.Errorf("place: MonteCarlo needs at least 1 run, got %d", runs)
	}
	placements, err := drawStarts(cfg.Fabric, g.NumQubits, runs, seed)
	if err != nil {
		return searchOutcome{}, err
	}
	scfg := cfg
	scfg.CollectTrace = false
	type candidate struct {
		result *engine.Result
		trial  int
	}
	// Each worker pulls its trials in increasing order, so its first
	// strict minimum is its (latency, trial)-minimal candidate; the
	// reduce across workers applies the same order.
	bests := make([]candidate, max(min(workers, runs), 1))
	sim, err := fanOut(runs, workers, scfg, warm, func(w int, sim *engine.Sim, cfg engine.Config, i int) error {
		res, err := sim.Run(g, cfg, placements[i])
		if err != nil {
			return err
		}
		if b := &bests[w]; b.result == nil || res.Latency < b.result.Latency {
			*b = candidate{result: res, trial: i}
		}
		return nil
	})
	if err != nil {
		return searchOutcome{}, err
	}
	var best candidate
	for _, c := range bests {
		if c.result != nil && (best.result == nil || c.result.Latency < best.result.Latency ||
			c.result.Latency == best.result.Latency && c.trial < best.trial) {
			best = c
		}
	}
	// The trials ran under the caller's scheduling knobs, so the
	// winner replays under exactly the caller's ForcedOrder (if any).
	return searchOutcome{
		sol:    &Solution{Result: best.result, Runs: runs, Seed: best.trial},
		forced: cfg.ForcedOrder,
		sim:    sim,
	}, nil
}

// MVFBOptions configures the MVFB placer.
type MVFBOptions struct {
	// Seeds is m, the number of random center placements to start
	// neighborhood searches from.
	Seeds int
	// Patience is the number of consecutive runs that fail to improve
	// the best solution found by any seed so far, after which a seed's
	// search stops. The paper uses 3.
	Patience int
	// MaxRunsPerSeed bounds one seed's search (0 = 50 runs).
	MaxRunsPerSeed int
	// Seed seeds the random permutations.
	Seed int64
	// Workers runs that many start searches concurrently (0 or 1 =
	// sequential). The winner is reduced by the (latency, start index)
	// order of the sequential protocol, so the result — including the
	// realized run count — is bit-identical to Workers == 1 for any
	// worker count. See docs/CONCURRENCY.md for the
	// speculative-trajectory mechanism that makes this true.
	Workers int
	// Sim optionally supplies a caller-owned warm simulator for the
	// first search worker and the winner replay, so long-lived callers
	// (core.Mapper, the qsprd service workers) keep one Sim — and its
	// route graph, rebuilt transparently on routing-config change —
	// warm across whole mappings. Per the Sim ownership rules in
	// docs/CONCURRENCY.md it must not be touched by anything else while
	// the search runs; results are bit-identical to a fresh Sim. Any
	// further workers own private Sims.
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
	return captureWinner(g, cfg, out)
}

// mvfbSearch runs the whole MVFB search traceless and returns the
// winner WITHOUT its trace; MVFB (and the portfolio, which captures
// only the race winner) finish it with captureWinner.
func mvfbSearch(g *qidg.Graph, cfg engine.Config, opts MVFBOptions) (searchOutcome, error) {
	if opts.Seeds <= 0 {
		return searchOutcome{}, fmt.Errorf("place: MVFB needs at least 1 seed")
	}
	if opts.Patience <= 0 {
		opts.Patience = 3
	}
	if opts.MaxRunsPerSeed <= 0 {
		opts.MaxRunsPerSeed = 50
	}
	starts, err := drawStarts(cfg.Fabric, g.NumQubits, opts.Seeds, opts.Seed)
	if err != nil {
		return searchOutcome{}, err
	}
	rev := g.Reverse()
	// Every start searches against the replay's published bound. On a
	// single worker the replay front is always at the start searching,
	// so the bound is exact and the search runs exactly the paper
	// protocol with no speculative runs.
	rb := &replayBound{patience: opts.Patience, trajs: make([][]runRecord, opts.Seeds)}
	sim, err := fanOut(opts.Seeds, opts.Workers, cfg, opts.Sim, func(_ int, sim *engine.Sim, cfg engine.Config, i int) error {
		return rb.record(i, searchTrajectory(g, rev, cfg, starts[i], opts, rb, sim))
	})
	if err != nil {
		return searchOutcome{}, err
	}
	best := rb.best
	return searchOutcome{
		sol: &Solution{Result: best.result, Backward: best.backward,
			Runs: rb.runs, Seed: rb.bestStart, Iteration: best.iter},
		forced: best.forced,
		rev:    rev,
		sim:    sim,
	}, nil
}

// captureWinner finishes a traceless search: it replaces the
// solution's winning result with a capture-enabled replay of the same
// run on out.sim — forward from the winning initial placement, or, for
// a backward (uncompute) winner, the backward run from its recorded
// start placement, converted by backwardSolution as the search would
// have. out.forced is the exact ForcedOrder the winning run was issued
// with (nil for a policy-scheduled run). Engine runs are
// deterministic, so the replay is bit-identical to the discarded
// search run; the cross-check below turns any violation of that
// contract into an error rather than a silently wrong trace.
func captureWinner(g *qidg.Graph, cfg engine.Config, out searchOutcome) (*Solution, error) {
	sol := out.sol
	ccfg := cfg
	ccfg.CollectTrace = true
	ccfg.ForcedOrder = out.forced
	var res *engine.Result
	var err error
	if sol.Backward {
		// The reported (converted) solution swapped Initial/Final, so
		// the backward run started from the reported Final.
		res, err = out.sim.Run(out.rev, ccfg, sol.Result.Final)
		if err == nil {
			res = backwardSolution(res)
		}
	} else {
		res, err = out.sim.Run(g, ccfg, sol.Result.Initial)
	}
	if err != nil {
		return nil, err
	}
	if res.Latency != sol.Result.Latency || res.Stats != sol.Result.Stats ||
		!slices.Equal(res.IssueOrder, sol.Result.IssueOrder) ||
		!slices.Equal(res.Final, sol.Result.Final) {
		return nil, fmt.Errorf("place: internal: winner replay diverged from search run (latency %v vs %v)",
			res.Latency, sol.Result.Latency)
	}
	sol.Result = res
	return sol, nil
}

// replayBound replays the paper's global-patience protocol over the
// start trajectories as they complete: starts in index order against
// a shared global best, patience counting the runs that fail to
// improve it, and runs past a start's replayed stopping point
// discarded. The replay front advances over every consecutively
// recorded trajectory, so a start reading the bound mid-search gets
// the best of a prefix of the starts before it: never below the exact
// sequential bound, hence safe to truncate on. Once every trajectory
// is recorded, best, bestStart and runs are the sequential search's
// winner and realized run count. A replayed improvement always has
// its result retained: improving the global best implies improving
// the start's own prefix best, which is what searchTrajectory records.
type replayBound struct {
	mu        sync.Mutex
	patience  int
	trajs     [][]runRecord // by start index; nil until recorded
	pos       int           // next start index to replay
	runs      int           // runs replayed so far
	best      *runRecord    // replayed global best; nil before the first run
	bestStart int           // start index of best
	err       error         // the first run error the replay reached
}

func (rb *replayBound) get() (gates.Time, bool) {
	rb.mu.Lock()
	defer rb.mu.Unlock()
	if rb.best == nil {
		return 0, false
	}
	return rb.best.latency, true
}

// record stores one start's finished trajectory and advances the
// replay front. It returns the first run error the replay has reached,
// which is the error the sequential search stops at: a speculative
// run past a start's replayed stopping point is never reached, just as
// the sequential search never runs it.
func (rb *replayBound) record(start int, traj []runRecord) error {
	rb.mu.Lock()
	defer rb.mu.Unlock()
	rb.trajs[start] = traj
	for rb.err == nil && rb.pos < len(rb.trajs) && rb.trajs[rb.pos] != nil {
		sinceImprove := 0
		for i := range rb.trajs[rb.pos] {
			rec := &rb.trajs[rb.pos][i]
			if rec.err != nil {
				rb.err = rec.err
				break
			}
			rb.runs++
			if rb.best == nil || rec.latency < rb.best.latency {
				rb.best, rb.bestStart, sinceImprove = rec, rb.pos, 0
			} else if sinceImprove++; sinceImprove >= rb.patience {
				break
			}
		}
		rb.pos++
	}
	return rb.err
}

// runRecord is one placement run in a start's recorded trajectory.
// result is retained only for runs that improved the search's own
// best at the time they ran — the only runs a replay can ever crown —
// so a trajectory holds O(improvements) engine results, not O(runs).
// Results are traceless (the search runs with CollectTrace off);
// forced keeps a backward run's issue order so captureWinner can
// replay it with capture on if it is crowned. A run that failed ends
// its trajectory as a record holding only err.
type runRecord struct {
	latency  gates.Time
	backward bool
	iter     int
	result   *engine.Result
	forced   []int
	err      error
}

// searchTrajectory performs one start's variable-length
// forward/backward neighborhood search and records every run. The
// search's improvement reference is min(rb's bound, own stored-prefix
// best). With the replay front at this start the bound is the exact
// earlier-starts best and the trajectory is truncated at exactly the
// paper protocol's stopping point; with the front behind it (a
// speculative parallel search) the reference is only ever ≥ the
// sequential one, so the trajectory stops at-or-after the replayed
// stopping point and retains a result for every run the replay could
// crown.
//
// Forward and backward runs share sim and are plain cold runs.
func searchTrajectory(g, rev *qidg.Graph, cfg engine.Config, p engine.Placement,
	opts MVFBOptions, rb *replayBound, sim *engine.Sim) []runRecord {

	var localBest gates.Time
	haveLocal := false
	improves := func(latency gates.Time) bool {
		if haveLocal && latency >= localBest {
			return false
		}
		b, ok := rb.get()
		return !ok || latency < b
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
			return append(traj, runRecord{err: err})
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
			return append(traj, runRecord{err: err})
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
	return traj
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
