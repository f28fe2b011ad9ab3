package place

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/qidg"
)

// Portfolio placer ranks: the index of each placer in the race is its
// tie-break rank — on equal latency the lower rank wins, so a
// portfolio result is reproducible regardless of completion order.
const (
	RankMVFB = iota
	RankMonteCarlo
	RankCenter
	// RankAnneal is the opt-in annealing entrant; appended after the
	// original ranks so enabling it can never change an existing
	// portfolio tie-break.
	RankAnneal

	numPortfolioRanks
)

// PlacerName names a portfolio rank as reported in results.
func PlacerName(rank int) string {
	switch rank {
	case RankMVFB:
		return "MVFB"
	case RankMonteCarlo:
		return "MC"
	case RankCenter:
		return "Center"
	case RankAnneal:
		return "Anneal"
	}
	return "?"
}

// PortfolioOptions configures the placer portfolio race.
type PortfolioOptions struct {
	// MVFB configures the MVFB entrant (its Workers and Sim fields
	// are overridden by the portfolio's budget split). The Monte-Carlo
	// entrant runs 2 × MVFB.Seeds trials — the Table 1 protocol's
	// budget ratio, with the realized MVFB run count unknowable before
	// the race ends — seeded by MVFB.Seed.
	MVFB MVFBOptions
	// Workers is the total CPU budget shared by the raced placers:
	// MVFB and Monte-Carlo split it, Center's single run rides along.
	// <= 1 runs the placers sequentially. The result is identical for
	// any value.
	Workers int
	// Anneal, when non-nil, enters the annealing placer in the race
	// (its Workers and Sim fields are overridden by the portfolio's
	// budget split). Nil keeps the original three-entrant race and its
	// exact outputs.
	Anneal *AnnealOptions
}

// PortfolioSolution is the outcome of a portfolio race.
type PortfolioSolution struct {
	// Solution is the winning placer's solution; Runs is the total
	// number of placement runs performed by ALL entrants (the race's
	// realized cost), while Seed/Iteration/Backward describe the
	// winner.
	Solution
	// Rank is the winning placer's rank (RankMVFB, RankMonteCarlo,
	// RankCenter); Placer is its name.
	Rank   int
	Placer string
}

// Portfolio races heterogeneous placers — MVFB, Monte-Carlo and the
// deterministic Center placement — concurrently on one mapping and
// returns the best solution by (latency, placer rank). Each entrant
// is internally deterministic for any worker count and the reduction
// is a barrier, so the portfolio result is bit-identical for any
// Workers value, including the fully sequential one.
func Portfolio(g *qidg.Graph, cfg engine.Config, opts PortfolioOptions) (*PortfolioSolution, error) {
	if opts.MVFB.Seeds <= 0 {
		return nil, fmt.Errorf("place: portfolio needs at least 1 MVFB seed")
	}
	// The race runs on two lanes through fanOut: MVFB on lane 0, then
	// Monte-Carlo, Center and the annealer on lane 1, which splits the
	// budget between the two search placers while Center's single
	// cheap run rides along. Each entrant runs on its lane's Sim, so a
	// sequential race keeps one Sim warm across every entrant. Both
	// search entrants run traceless (their searchOutcomes await
	// deferred capture); Center's single run captures directly. Only
	// the race winner is replayed with capture on, so a portfolio
	// mapping pays for exactly one captured trace.
	workers := max(opts.Workers, 1)
	mvfbW := (workers + 1) / 2
	mcW := max(workers-mvfbW, 1)
	sols := make([]*Solution, numPortfolioRanks)
	outs := make([]searchOutcome, numPortfolioRanks)
	_, err := fanOut(2, workers, cfg, nil, func(_ int, sim *engine.Sim, cfg engine.Config, lane int) error {
		var err error
		if lane == 0 {
			mvfbOpts := opts.MVFB
			mvfbOpts.Workers, mvfbOpts.Sim = mvfbW, sim
			outs[RankMVFB], err = mvfbSearch(g, cfg, mvfbOpts)
			return err
		}
		if outs[RankMonteCarlo], err = monteCarloSearch(g, cfg, 2*opts.MVFB.Seeds, opts.MVFB.Seed, mcW, sim); err != nil {
			return err
		}
		if sols[RankCenter], err = centerSolution(g, cfg, sim); err != nil {
			return err
		}
		// The annealer is bit-identical for any worker count, so
		// reusing the Monte-Carlo lane's budget cannot change its
		// output.
		if opts.Anneal != nil {
			annealOpts := *opts.Anneal
			annealOpts.Workers, annealOpts.Sim = mcW, sim
			outs[RankAnneal], err = annealSearch(g, cfg, annealOpts)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	sols[RankMVFB] = outs[RankMVFB].sol
	sols[RankMonteCarlo] = outs[RankMonteCarlo].sol
	if opts.Anneal != nil {
		sols[RankAnneal] = outs[RankAnneal].sol
	}
	win := pickPortfolioWinner(sols)
	if win < 0 {
		return nil, fmt.Errorf("place: portfolio produced no solution")
	}
	// Deferred capture for the single winner; Center's result already
	// carries its trace. The race above is a barrier, so the winning
	// entrant's Sim is free for the replay.
	if win != RankCenter {
		if _, err := captureWinner(g, cfg, outs[win]); err != nil {
			return nil, err
		}
	}
	out := &PortfolioSolution{Solution: *sols[win], Rank: win, Placer: PlacerName(win)}
	out.Runs = 0
	for _, s := range sols {
		if s != nil {
			out.Runs += s.Runs
		}
	}
	return out, nil
}

// centerSolution is the portfolio's Center entrant: QUALE's placer
// under the caller's engine configuration, one captured run on sim.
func centerSolution(g *qidg.Graph, cfg engine.Config, sim *engine.Sim) (*Solution, error) {
	res, err := CenterRun(g, cfg, sim)
	if err != nil {
		return nil, err
	}
	return &Solution{Result: res, Runs: 1}, nil
}

// pickPortfolioWinner reduces a rank-ordered entrant slice to the
// winning index: lowest latency, ties to the lowest rank. Returns -1
// when no entrant produced a result.
func pickPortfolioWinner(sols []*Solution) int {
	best := -1
	for i, s := range sols {
		if s == nil || s.Result == nil {
			continue
		}
		if best < 0 || s.Result.Latency < sols[best].Result.Latency {
			best = i
		}
	}
	return best
}
