package place

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/engine"
	"repro/internal/fabric"
	"repro/internal/qidg"
)

// TestAnnealDeterministic pins the annealer's determinism contract:
// the complete solution — result, provenance, serialized trace bytes —
// is identical for any Workers value AND with incremental re-simulation
// disabled, on two circuits × both fabrics.
func TestAnnealDeterministic(t *testing.T) {
	for _, tc := range innerParallelCases(t) {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			base := AnnealOptions{Moves: 60, Restarts: 3, Seed: 7}
			seq, err := Anneal(tc.g, tc.cfg, base)
			if err != nil {
				t.Fatal(err)
			}
			seqTrace := traceBytes(t, seq.Result)
			variants := []struct {
				name string
				opts AnnealOptions
			}{
				{"workers=2", AnnealOptions{Moves: 60, Restarts: 3, Seed: 7, Workers: 2}},
				{"workers=4", AnnealOptions{Moves: 60, Restarts: 3, Seed: 7, Workers: 4}},
				{"no-incremental", AnnealOptions{Moves: 60, Restarts: 3, Seed: 7, NoIncremental: true}},
				{"no-incremental/workers=4", AnnealOptions{Moves: 60, Restarts: 3, Seed: 7, Workers: 4, NoIncremental: true}},
			}
			for _, v := range variants {
				got, err := Anneal(tc.g, tc.cfg, v.opts)
				if err != nil {
					t.Fatal(err)
				}
				if got.Runs != seq.Runs || got.Seed != seq.Seed || got.Iteration != seq.Iteration {
					t.Errorf("%s provenance diverges: runs %d/%d restart %d/%d move %d/%d",
						v.name, got.Runs, seq.Runs, got.Seed, seq.Seed, got.Iteration, seq.Iteration)
				}
				if !reflect.DeepEqual(got.Result, seq.Result) {
					t.Errorf("%s result diverges: latency %v vs %v",
						v.name, got.Result.Latency, seq.Result.Latency)
				}
				if !bytes.Equal(traceBytes(t, got.Result), seqTrace) {
					t.Errorf("%s trace bytes diverge", v.name)
				}
			}
		})
	}
}

// TestAnnealNeverWorseThanCenter: chain 0 starts from the Center
// placement and only replaces the incumbent on improvement, so the
// annealer can never lose to the portfolio's Center entrant.
func TestAnnealNeverWorseThanCenter(t *testing.T) {
	for _, tc := range innerParallelCases(t) {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			center, err := centerSolution(tc.g, tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			sol, err := Anneal(tc.g, tc.cfg, AnnealOptions{Moves: 60, Restarts: 2, Seed: 1})
			if err != nil {
				t.Fatal(err)
			}
			if sol.Result.Latency > center.Result.Latency {
				t.Errorf("anneal latency %v worse than Center %v",
					sol.Result.Latency, center.Result.Latency)
			}
		})
	}
}

// TestAnnealBeatsCenterOnQuale is the ISSUE acceptance evidence in
// test form: on the paper fabric the annealer strictly beats the
// Center portfolio entrant on fig. 3.
func TestAnnealBeatsCenterOnQuale(t *testing.T) {
	g := fig3Graph(t)
	cfg := qsprConfig(fabric.Quale4585())
	center, err := centerSolution(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	sol, err := Anneal(g, cfg, DefaultAnnealOptions())
	if err != nil {
		t.Fatal(err)
	}
	if sol.Result.Latency >= center.Result.Latency {
		t.Errorf("anneal latency %v does not beat Center %v",
			sol.Result.Latency, center.Result.Latency)
	}
}

// TestMVFBIncrementalByteIdentical: the sequential MVFB search runs
// every forward and backward run on one Sim, reusing its warm state
// run after run (and, through MVFBOptions.Sim, mapping after mapping).
// That reuse must be invisible: the solution is byte-identical to the
// paper protocol re-simulated cold, one fresh Sim per engine run, for
// sequential, warm-Sim and fanned searches.
func TestMVFBIncrementalByteIdentical(t *testing.T) {
	for _, tc := range innerParallelCases(t) {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			base := MVFBOptions{Seeds: 4, Patience: 3, MaxRunsPerSeed: 12, Seed: 3}
			want := coldMVFB(t, tc.g, tc.cfg, base)
			wantTrace := traceBytes(t, want.Result)

			warm := engine.NewSim()
			prior := base
			prior.Seed, prior.Sim = 11, warm
			if _, err := MVFB(tc.g, tc.cfg, prior); err != nil {
				t.Fatal(err)
			}
			variants := []struct {
				name    string
				workers int
				sim     *engine.Sim
			}{
				{"workers=1", 1, nil},
				{"workers=1/warm-sim", 1, warm},
				{"workers=4", 4, nil},
			}
			for _, v := range variants {
				opts := base
				opts.Workers, opts.Sim = v.workers, v.sim
				got, err := MVFB(tc.g, tc.cfg, opts)
				if err != nil {
					t.Fatal(err)
				}
				if got.Runs != want.Runs || got.Seed != want.Seed ||
					got.Iteration != want.Iteration || got.Backward != want.Backward {
					t.Errorf("%s provenance diverges from cold path: runs %d/%d seed %d/%d iter %d/%d bwd %v/%v",
						v.name, got.Runs, want.Runs, got.Seed, want.Seed,
						got.Iteration, want.Iteration, got.Backward, want.Backward)
				}
				if !reflect.DeepEqual(got.Result, want.Result) {
					t.Errorf("%s result diverges from cold path: latency %v vs %v",
						v.name, got.Result.Latency, want.Result.Latency)
				}
				if !bytes.Equal(traceBytes(t, got.Result), wantTrace) {
					t.Errorf("%s trace bytes diverge from cold path", v.name)
				}
			}
		})
	}
}

// coldMVFB is the reference for TestMVFBIncrementalByteIdentical: the
// sequential ScopeGlobal protocol of §IV.A written out directly, with
// every forward and backward run on a fresh Sim and its trace
// captured as it runs.
func coldMVFB(t *testing.T, g *qidg.Graph, cfg engine.Config, opts MVFBOptions) *Solution {
	t.Helper()
	rng := rand.New(rand.NewSource(opts.Seed))
	starts := make([]engine.Placement, opts.Seeds)
	for i := range starts {
		p, err := CenterPermutation(cfg.Fabric, g.NumQubits, rng)
		if err != nil {
			t.Fatal(err)
		}
		starts[i] = p
	}
	run := func(g *qidg.Graph, cfg engine.Config, p engine.Placement) *engine.Result {
		cfg.CollectTrace = true
		res, err := engine.NewSim().Run(g, cfg, p)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	rev := g.Reverse()
	best := &Solution{}
	for seed, p := range starts {
		sinceImprove := 0
		// step counts one run against the global best and reports
		// whether the start's search stops after it.
		step := func(res *engine.Result, backward bool, iter int) bool {
			best.Runs++
			if best.Result == nil || res.Latency < best.Result.Latency {
				best.Result, best.Backward, best.Seed, best.Iteration = res, backward, seed, iter
				sinceImprove = 0
				return false
			}
			sinceImprove++
			return sinceImprove >= opts.Patience
		}
		for iter := 0; iter < opts.MaxRunsPerSeed; iter++ {
			fcfg := cfg
			fcfg.ForcedOrder = nil
			fres := run(g, fcfg, p)
			if step(fres, false, iter) {
				break
			}
			bcfg := cfg
			bcfg.ForcedOrder = reverseOrder(fres.IssueOrder)
			bres := run(rev, bcfg, fres.Final)
			if step(backwardSolution(bres), true, iter) {
				break
			}
			p = bres.Final
		}
	}
	return best
}

// TestPortfolioWithAnnealEntrant: entering the annealer must reproduce
// the best of all four standalone entrants with the right provenance,
// for any worker budget — and never degrade the three-entrant result.
func TestPortfolioWithAnnealEntrant(t *testing.T) {
	g := fig3Graph(t)
	cfg := qsprConfig(fabric.Quale4585())
	mvfbOpts := MVFBOptions{Seeds: 3, Patience: 3, MaxRunsPerSeed: 12, Seed: 5}
	annealOpts := AnnealOptions{Moves: 60, Restarts: 2, Seed: 9}

	mvfb, err := MVFB(g, cfg, mvfbOpts)
	if err != nil {
		t.Fatal(err)
	}
	mc, err := MonteCarlo(g, cfg, 2*mvfbOpts.Seeds, mvfbOpts.Seed)
	if err != nil {
		t.Fatal(err)
	}
	center, err := centerSolution(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	anneal, err := Anneal(g, cfg, annealOpts)
	if err != nil {
		t.Fatal(err)
	}
	standalone := []*Solution{mvfb, mc, center, anneal}
	wantWin := pickPortfolioWinner(standalone)
	wantLatency := standalone[wantWin].Result.Latency
	wantRuns := mvfb.Runs + mc.Runs + center.Runs + anneal.Runs

	for _, workers := range []int{1, 2, 8} {
		p, err := Portfolio(g, cfg, PortfolioOptions{MVFB: mvfbOpts, Workers: workers, Anneal: &annealOpts})
		if err != nil {
			t.Fatal(err)
		}
		if p.Result.Latency != wantLatency || p.Rank != wantWin || p.Placer != PlacerName(wantWin) {
			t.Errorf("workers=%d: winner %s latency %v, want rank %d latency %v",
				workers, p.Placer, p.Result.Latency, wantWin, wantLatency)
		}
		if p.Runs != wantRuns {
			t.Errorf("workers=%d: total runs %d, want %d", workers, p.Runs, wantRuns)
		}
		if p.Result.Trace == nil {
			t.Errorf("workers=%d: winner missing its trace", workers)
		}
	}

	// Three-entrant race unchanged by merely compiling the new rank in.
	without, err := Portfolio(g, cfg, PortfolioOptions{MVFB: mvfbOpts})
	if err != nil {
		t.Fatal(err)
	}
	wantWin3 := pickPortfolioWinner([]*Solution{mvfb, mc, center})
	if without.Rank != wantWin3 {
		t.Errorf("anneal-off portfolio winner rank %d, want %d", without.Rank, wantWin3)
	}
}

// TestAnnealWarmSim: a caller-supplied warm simulator is used for the
// sequential search and winner replay without changing the result.
func TestAnnealWarmSim(t *testing.T) {
	g := fig3Graph(t)
	cfg := qsprConfig(fabric.Small())
	want, err := Anneal(g, cfg, AnnealOptions{Moves: 40, Restarts: 2, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	sim := engine.NewSim()
	got, err := Anneal(g, cfg, AnnealOptions{Moves: 40, Restarts: 2, Seed: 3, Sim: sim})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Result, want.Result) {
		t.Error("warm-Sim anneal diverges")
	}
}
