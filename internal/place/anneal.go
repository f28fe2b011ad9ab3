package place

// Simulated-annealing placer built on incremental re-simulation
// (engine.Sim checkpoint/fork). Where MVFB explores placements along
// forward/backward trajectories — large placement jumps, every run
// paying a full simulation — the annealer walks the placement space in
// single-qubit relocations and pair swaps, exactly the perturbation
// shapes suffix replay is cheapest for: each candidate differs from
// the recorded baseline by at most two moved qubits, so evaluations
// replay only the event suffix past the moved qubits' dependency
// frontier. Swaps matter twice over: with the center region packed to
// TrapCapacity they are the only moves that explore permutations of
// the good traps (a relocation needs a free slot, which near the
// center there rarely is), and their trap load shifts cancel, so their
// frontier is bounded only by the two qubits' first gate — the deep
// end of the frontier distribution.
//
// Determinism: a chain (restart) is a pure function of (Seed, restart
// index) — its start permutation, move proposals and Metropolis coin
// flips all come from a private rng, and the engine evaluations are
// deterministic whether forked or cold (the fork property). Chains
// are reduced by (latency, restart index, move index), so the result
// is bit-identical for any Workers value, and identical with
// NoIncremental set. captureWinner's cross-checked cold replay of the
// crowned run doubles as an online fork-correctness audit.

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"sync/atomic"

	"repro/internal/engine"
	"repro/internal/qidg"
)

// AnnealOptions configures the annealing placer.
type AnnealOptions struct {
	// Moves is the number of proposed placement perturbations —
	// single-qubit relocations and pair swaps — per restart chain
	// (0 = 400).
	Moves int
	// Restarts is the number of independent chains (0 = 4). Chain 0
	// starts from the deterministic center placement; later chains
	// start from seeded center permutations.
	Restarts int
	// Seed seeds the chains' private rngs.
	Seed int64
	// Cooling is the per-move temperature multiplier, in (0, 1)
	// (0 = 0.97).
	Cooling float64
	// InitialTemp sets the starting temperature as a fraction of the
	// start placement's latency (0 = 0.04).
	InitialTemp float64
	// Workers fans the restarts across that many goroutines (0 or 1 =
	// sequential); the result is bit-identical for any value.
	Workers int
	// Sim optionally supplies a caller-owned warm simulator for the
	// sequential path (Workers <= 1) and the winner replay, under the
	// usual docs/CONCURRENCY.md ownership rules.
	Sim *engine.Sim
	// NoIncremental disables checkpoint/fork suffix replay (every
	// candidate cold-simulated); results are bit-identical, only
	// slower. For benchmarking and bisection.
	NoIncremental bool
}

// DefaultAnnealOptions returns the benchmarked default knobs.
func DefaultAnnealOptions() AnnealOptions {
	return AnnealOptions{Moves: 400, Restarts: 4, Seed: 1, Cooling: 0.97, InitialTemp: 0.04}
}

// normalize fills defaults; Validate-style errors live in
// core.Options.Normalize (the CLI/service surface).
func (o *AnnealOptions) normalize() {
	if o.Moves <= 0 {
		o.Moves = 400
	}
	if o.Restarts <= 0 {
		o.Restarts = 4
	}
	if o.Cooling <= 0 || o.Cooling >= 1 {
		o.Cooling = 0.97
	}
	if o.InitialTemp <= 0 {
		o.InitialTemp = 0.04
	}
	if o.Workers <= 0 {
		o.Workers = 1
	}
}

// Anneal runs the simulated-annealing placer and returns the best
// solution over all restart chains. Solution.Seed is the winning
// restart, Solution.Iteration the winning move index within it, and
// Solution.Runs the total number of engine evaluations (including
// each chain's start evaluation).
func Anneal(g *qidg.Graph, cfg engine.Config, opts AnnealOptions) (*Solution, error) {
	out, err := annealSearch(g, cfg, opts)
	if err != nil {
		return nil, err
	}
	if err := captureWinner(g, nil, cfg, out.sol, out.forced, out.sim); err != nil {
		return nil, err
	}
	return out.sol, nil
}

// annealCandidate is a chain's best visited placement.
type annealCandidate struct {
	result  *engine.Result
	restart int
	move    int
	runs    int
}

// betterAnneal is the deterministic reduction order: lowest latency,
// ties to the earlier restart, then the earlier move.
func betterAnneal(a, b annealCandidate) bool {
	if b.result == nil {
		return true
	}
	if a.result.Latency != b.result.Latency {
		return a.result.Latency < b.result.Latency
	}
	if a.restart != b.restart {
		return a.restart < b.restart
	}
	return a.move < b.move
}

// annealSearch runs the chains traceless; Anneal (and the portfolio)
// finish the winner with captureWinner.
func annealSearch(g *qidg.Graph, cfg engine.Config, opts AnnealOptions) (searchOutcome, error) {
	var out searchOutcome
	opts.normalize()
	if opts.Workers > opts.Restarts {
		opts.Workers = opts.Restarts
	}
	scfg := cfg
	scfg.CollectTrace = false

	best := annealCandidate{restart: -1}
	totalRuns := 0
	if opts.Workers == 1 {
		sim := opts.Sim
		if sim == nil {
			sim = engine.NewSim()
		}
		out.sim = sim
		log := &engine.CheckpointLog{}
		for r := 0; r < opts.Restarts; r++ {
			c, err := annealChain(g, scfg, opts, r, sim, log)
			if err != nil {
				return out, err
			}
			totalRuns += c.runs
			if betterAnneal(c, best) {
				best = c
			}
		}
	} else {
		cands := make([]annealCandidate, opts.Restarts)
		errs := make([]error, opts.Restarts)
		work := make(chan int)
		var failed atomic.Bool
		var wg sync.WaitGroup
		for w := 0; w < opts.Workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				wcfg := scfg
				wcfg.RouteGraph = nil
				sim := engine.NewSim()
				log := &engine.CheckpointLog{}
				for r := range work {
					if failed.Load() {
						continue
					}
					c, err := annealChain(g, wcfg, opts, r, sim, log)
					if err != nil {
						errs[r] = err
						failed.Store(true)
						continue
					}
					cands[r] = c
				}
			}()
		}
		for r := 0; r < opts.Restarts; r++ {
			work <- r
		}
		close(work)
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return out, err
			}
		}
		for _, c := range cands {
			if c.result != nil {
				totalRuns += c.runs
				if betterAnneal(c, best) {
					best = c
				}
			}
		}
		out.sim = opts.Sim // workers' Sims are gone; a caller's warm Sim may serve the replay
	}
	if best.result == nil {
		return out, fmt.Errorf("place: anneal produced no solution")
	}
	out.sol = &Solution{Result: best.result, Runs: totalRuns, Seed: best.restart, Iteration: best.move}
	out.forced = cfg.ForcedOrder
	return out, nil
}

// annealChain runs one restart: a seeded cooling walk of single-qubit
// relocations over the near-center trap region and pair swaps, every
// candidate evaluated incrementally against the chain's rolling
// recorded baseline.
func annealChain(g *qidg.Graph, scfg engine.Config, opts AnnealOptions, restart int,
	sim *engine.Sim, log *engine.CheckpointLog) (annealCandidate, error) {

	c := annealCandidate{restart: restart}
	rng := rand.New(rand.NewSource(opts.Seed + 7919*int64(restart)))
	nq := g.NumQubits
	f := scfg.Fabric

	// Start placement: the deterministic center placement for chain 0
	// (so the annealer never does worse than Center), seeded center
	// permutations for the rest.
	var cur engine.Placement
	var err error
	if restart == 0 {
		cur, err = Center(f, nq)
	} else {
		cur, err = CenterPermutation(f, nq, rng)
	}
	if err != nil {
		return c, err
	}

	// Move targets: the traps nearest the fabric center, a region
	// roughly twice the qubit count so the walk can spread out without
	// proposing hopeless cross-fabric exiles.
	region := f.TrapsByDistance(f.Center())
	if n := 2*nq + 2; len(region) > n {
		region = region[:n]
	}

	capacity := scfg.Tech.TrapCapacity
	load := make([]int, len(f.Traps))
	for _, t := range cur {
		load[t]++
	}

	var scratch engine.Delta
	var inc *engine.CheckpointLog
	if !opts.NoIncremental {
		inc = log
	}
	evaluate := func(p engine.Placement) (*engine.Result, error) {
		c.runs++
		if inc != nil {
			return runIncremental(sim, inc, g, scfg, p, &scratch)
		}
		return sim.Run(g, scfg, p)
	}

	curRes, err := evaluate(cur)
	if err != nil {
		return c, err
	}
	c.result, c.move = curRes, 0
	temp := opts.InitialTemp * float64(curRes.Latency)
	cand := cur.Clone()

	for move := 1; move <= opts.Moves; move, temp = move+1, temp*opts.Cooling {
		// Propose: alternate by coin flip between relocating one qubit
		// to a region trap and swapping two qubits' traps. The rng
		// draws happen unconditionally and in a fixed order so the
		// proposal stream never depends on which proposals were
		// evaluable.
		swap := rng.Intn(2) == 1
		q1 := rng.Intn(nq)
		var q2, t int
		if swap {
			q2 = rng.Intn(nq)
			if q1 == q2 || cur[q1] == cur[q2] {
				continue
			}
			copy(cand, cur)
			cand[q1], cand[q2] = cur[q2], cur[q1]
		} else {
			t = region[rng.Intn(len(region))]
			if t == cur[q1] || load[t] >= capacity {
				continue
			}
			copy(cand, cur)
			cand[q1] = t
		}
		res, err := evaluate(cand)
		if err != nil {
			return c, err
		}
		dl := float64(res.Latency - curRes.Latency)
		accept := dl < 0
		if !accept && temp > 0 {
			accept = rng.Float64() < math.Exp(-dl/temp)
		}
		if !accept {
			continue
		}
		if !swap {
			load[cur[q1]]--
			load[t]++
		}
		copy(cur, cand)
		curRes = res
		if res.Latency < c.result.Latency {
			c.result, c.move = res, move
		}
	}
	return c, nil
}

// forkProfitNum/forkProfitDen gate suffix replay on expected profit: a
// fork from checkpoint index i of an E-event baseline replays E-i
// events, so it is taken only when i/E >= 1/4 — shallower frontiers
// re-record instead, re-baselining the log on the new placement so the
// next evaluations diff against it. 1/4 keeps borderline forks ahead
// of a plain run even after restore overhead.
const (
	forkProfitNum = 4
	forkProfitDen = 1
	// checkpointTarget is the number of checkpoints a re-record aims
	// for (see runIncremental's stride tuning).
	checkpointTarget = 16
)

// runIncremental evaluates placement p on sim, byte-identically to
// sim.Run(g, cfg, p), choosing between a suffix replay forked from
// log's recorded baseline and a re-baselining re-record. The scratch
// delta is caller-pooled so steady-state evaluations allocate only
// the engine Result.
func runIncremental(sim *engine.Sim, log *engine.CheckpointLog, g *qidg.Graph,
	cfg engine.Config, p engine.Placement, scratch *engine.Delta) (*engine.Result, error) {
	if log.CanFork() && len(log.Initial()) == len(p) {
		delta := diffPlacement((*scratch)[:0], log.Initial(), p)
		*scratch = delta
		if cp := log.Before(delta); cp != nil && forkProfitNum*cp.Index() >= forkProfitDen*log.Events() {
			res, err := sim.RunFrom(cp, delta)
			if err == nil {
				return res, nil
			}
			// Any fork refusal (e.g. an inadmissible delta) falls back
			// to the full re-record below; RunFrom rejects before
			// mutating, so the Sim is unharmed.
		}
	}
	// Checkpoint stride self-tunes to the last run's event count: a
	// stride-1 log copies the complete simulator state at every event
	// boundary, which costs more than the replay it enables on these
	// event-stream lengths. Sampling ~checkpointTarget boundaries keeps
	// recording near-free and costs a fork at most one stride of extra
	// replayed suffix. The stride is a pure function of the previous
	// deterministic run, so results stay bit-identical.
	if ev := log.Events(); ev > checkpointTarget {
		log.Stride = ev / checkpointTarget
	}
	return sim.RunRecorded(g, cfg, p, log)
}

// diffPlacement appends the moves that turn base into p onto d.
func diffPlacement(d engine.Delta, base, p engine.Placement) engine.Delta {
	for q, t := range p {
		if base[q] != t {
			d = append(d, engine.Move{Qubit: q, To: t})
		}
	}
	return d
}
