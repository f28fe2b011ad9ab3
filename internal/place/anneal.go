package place

// Simulated-annealing placer. Where MVFB explores placements along
// forward/backward trajectories — large placement jumps — the
// annealer walks the placement space in single-qubit relocations and
// pair swaps, every candidate evaluated by a plain traceless engine
// run on the chain's Sim. Swaps matter: with the center region packed
// to TrapCapacity they are the only moves that explore permutations
// of the good traps (a relocation needs a free slot, which near the
// center there rarely is).
//
// Determinism: a chain (restart) is a pure function of (Seed, restart
// index) — its start permutation, move proposals and Metropolis coin
// flips all come from a private rng, and the engine evaluations are
// deterministic. Chains are reduced by (latency, restart index), and a
// chain keeps its earliest best move, so the result is bit-identical
// for any Workers value.

import (
	"math"
	"math/rand"

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
	// Workers fans the restarts across that many workers (0 or 1 =
	// sequential); the result is bit-identical for any value.
	Workers int
	// Sim optionally supplies a caller-owned warm simulator for the
	// first worker and the winner replay, under the usual
	// docs/CONCURRENCY.md ownership rules.
	Sim *engine.Sim
}

// annealInitialTemp is the starting temperature as a fraction of a
// chain's start-placement latency.
const annealInitialTemp = 0.04

// DefaultAnnealOptions returns the benchmarked default knobs.
func DefaultAnnealOptions() AnnealOptions {
	return AnnealOptions{Moves: 400, Restarts: 4, Seed: 1, Cooling: 0.97}
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
	return captureWinner(g, cfg, out)
}

// annealCandidate is a chain's best visited placement.
type annealCandidate struct {
	result *engine.Result
	move   int
	runs   int
}

// annealSearch runs the chains traceless; Anneal (and the portfolio)
// finish the winner with captureWinner.
func annealSearch(g *qidg.Graph, cfg engine.Config, opts AnnealOptions) (searchOutcome, error) {
	opts.normalize()
	scfg := cfg
	scfg.CollectTrace = false
	chains := make([]annealCandidate, opts.Restarts)
	sim, err := fanOut(opts.Restarts, opts.Workers, scfg, opts.Sim, func(_ int, sim *engine.Sim, cfg engine.Config, r int) error {
		var err error
		chains[r], err = annealChain(g, cfg, opts, r, sim)
		return err
	})
	if err != nil {
		return searchOutcome{}, err
	}
	// In restart order, a strict improvement keeps ties on the earlier
	// restart.
	best, runs := 0, 0
	for r, c := range chains {
		runs += c.runs
		if c.result.Latency < chains[best].result.Latency {
			best = r
		}
	}
	return searchOutcome{
		sol: &Solution{Result: chains[best].result, Runs: runs,
			Seed: best, Iteration: chains[best].move},
		forced: cfg.ForcedOrder,
		sim:    sim,
	}, nil
}

// annealChain runs one restart: a seeded cooling walk of single-qubit
// relocations over the near-center trap region and pair swaps, every
// candidate evaluated by a traceless run on sim.
func annealChain(g *qidg.Graph, scfg engine.Config, opts AnnealOptions, restart int,
	sim *engine.Sim) (annealCandidate, error) {

	var c annealCandidate
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

	evaluate := func(p engine.Placement) (*engine.Result, error) {
		c.runs++
		return sim.Run(g, scfg, p)
	}

	curRes, err := evaluate(cur)
	if err != nil {
		return c, err
	}
	c.result, c.move = curRes, 0
	temp := annealInitialTemp * float64(curRes.Latency)
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
