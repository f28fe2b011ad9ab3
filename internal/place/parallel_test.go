package place

import (
	"bytes"
	"reflect"
	"testing"

	"repro/internal/circuits"
	"repro/internal/engine"
	"repro/internal/fabric"
	"repro/internal/gates"
	"repro/internal/qidg"
)

// innerParallelCases: two circuits × both fabrics, the satellite
// matrix of the determinism contract. [[7,1,3]] (7 qubits) still fits
// the 8-trap Small fabric.
func innerParallelCases(t *testing.T) []struct {
	name string
	g    *qidg.Graph
	cfg  engine.Config
} {
	t.Helper()
	g713, err := circuits.ByName("[[7,1,3]]")
	if err != nil {
		t.Fatal(err)
	}
	g2, err := qidg.Build(g713.Program)
	if err != nil {
		t.Fatal(err)
	}
	return []struct {
		name string
		g    *qidg.Graph
		cfg  engine.Config
	}{
		{"fig3/small", fig3Graph(t), qsprConfig(fabric.Small())},
		{"fig3/quale45x85", fig3Graph(t), qsprConfig(fabric.Quale4585())},
		{"[[7,1,3]]/small", g2, qsprConfig(fabric.Small())},
		{"[[7,1,3]]/quale45x85", g2, qsprConfig(fabric.Quale4585())},
	}
}

// traceBytes serializes a result's trace; byte equality here is the
// report-bytes half of the determinism contract.
func traceBytes(t *testing.T, res *engine.Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := res.Trace.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestMVFBInnerParallelByteIdentical pins the tentpole contract: the
// complete MVFB solution — winning placement, latency, run count,
// provenance, and the serialized trace bytes — is identical for inner
// worker counts 1, 2 and 8, on two circuits × both fabrics. The
// /scope=0 subtest suffix names the global-patience protocol, the
// only patience scope MVFB has.
func TestMVFBInnerParallelByteIdentical(t *testing.T) {
	for _, tc := range innerParallelCases(t) {
		tc := tc
		t.Run(tc.name+"/scope=0", func(t *testing.T) {
			base := MVFBOptions{Seeds: 4, Patience: 3, MaxRunsPerSeed: 12, Seed: 3}
			seq, err := MVFB(tc.g, tc.cfg, base)
			if err != nil {
				t.Fatal(err)
			}
			seqTrace := traceBytes(t, seq.Result)
			for _, workers := range []int{2, 8} {
				opts := base
				opts.Workers = workers
				par, err := MVFB(tc.g, tc.cfg, opts)
				if err != nil {
					t.Fatal(err)
				}
				if par.Runs != seq.Runs || par.Seed != seq.Seed ||
					par.Iteration != seq.Iteration || par.Backward != seq.Backward {
					t.Errorf("workers=%d provenance diverges: runs %d/%d seed %d/%d iter %d/%d bwd %v/%v",
						workers, par.Runs, seq.Runs, par.Seed, seq.Seed,
						par.Iteration, seq.Iteration, par.Backward, seq.Backward)
				}
				if !reflect.DeepEqual(par.Result, seq.Result) {
					t.Errorf("workers=%d result diverges: latency %v vs %v, placement %v vs %v",
						workers, par.Result.Latency, seq.Result.Latency,
						par.Result.Initial, seq.Result.Initial)
				}
				if !bytes.Equal(traceBytes(t, par.Result), seqTrace) {
					t.Errorf("workers=%d trace bytes diverge", workers)
				}
			}
		})
	}
}

// TestMonteCarloInnerParallelByteIdentical: MC trials are fanned the
// same way; the (latency, trial index) reduction must reproduce the
// sequential first-minimum winner exactly, also when a caller's warm
// Sim serves the first worker and the winner replay.
func TestMonteCarloInnerParallelByteIdentical(t *testing.T) {
	for _, tc := range innerParallelCases(t) {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			seq, err := MonteCarlo(tc.g, tc.cfg, 9, 11, 1, nil)
			if err != nil {
				t.Fatal(err)
			}
			seqTrace := traceBytes(t, seq.Result)
			warm := engine.NewSim()
			if _, err := MonteCarlo(tc.g, tc.cfg, 5, 2, 1, warm); err != nil {
				t.Fatal(err)
			}
			variants := []struct {
				name    string
				workers int
				sim     *engine.Sim
			}{
				{"workers=2", 2, nil},
				{"workers=8", 8, nil},
				{"workers=1/warm-sim", 1, warm},
				{"workers=4/warm-sim", 4, warm},
			}
			for _, v := range variants {
				par, err := MonteCarlo(tc.g, tc.cfg, 9, 11, v.workers, v.sim)
				if err != nil {
					t.Fatal(err)
				}
				if par.Runs != seq.Runs || par.Seed != seq.Seed {
					t.Errorf("%s provenance diverges: runs %d/%d trial %d/%d",
						v.name, par.Runs, seq.Runs, par.Seed, seq.Seed)
				}
				if !reflect.DeepEqual(par.Result, seq.Result) {
					t.Errorf("%s result diverges: latency %v vs %v",
						v.name, par.Result.Latency, seq.Result.Latency)
				}
				if !bytes.Equal(traceBytes(t, par.Result), seqTrace) {
					t.Errorf("%s trace bytes diverge", v.name)
				}
			}
		})
	}
}

// TestParallelSearchErrorMatchesSequential: a search that fails
// returns the sequential search's error at any worker count — the
// error of the lowest failing start, trial or restart — however the
// workers interleave. The event guard makes the engine runs fail, each
// with an error that names its own pending-event count.
func TestParallelSearchErrorMatchesSequential(t *testing.T) {
	c, err := circuits.ByName("[[14,8,3]]")
	if err != nil {
		t.Fatal(err)
	}
	g, err := qidg.Build(c.Program)
	if err != nil {
		t.Fatal(err)
	}
	searches := []struct {
		name string
		run  func(cfg engine.Config, workers int) error
	}{
		{"MVFB", func(cfg engine.Config, workers int) error {
			_, err := MVFB(g, cfg, MVFBOptions{Seeds: 16, Patience: 3, MaxRunsPerSeed: 12, Seed: 3, Workers: workers})
			return err
		}},
		{"MC", func(cfg engine.Config, workers int) error {
			_, err := MonteCarlo(g, cfg, 16, 3, workers, nil)
			return err
		}},
		{"Anneal", func(cfg engine.Config, workers int) error {
			_, err := Anneal(g, cfg, AnnealOptions{Moves: 10, Restarts: 16, Seed: 3, Workers: workers})
			return err
		}},
	}
	for _, maxEvents := range []int{40, 80, 120} {
		cfg := qsprConfig(fabric.Quale4585())
		cfg.MaxEvents = maxEvents
		for _, s := range searches {
			want := s.run(cfg, 1)
			if want == nil {
				t.Fatalf("%s at MaxEvents %d: no error", s.name, maxEvents)
			}
			for _, workers := range []int{2, 4} {
				for rep := 0; rep < 30; rep++ {
					if got := s.run(cfg, workers); got == nil || got.Error() != want.Error() {
						t.Fatalf("%s at MaxEvents %d, workers=%d: error %v, want %q",
							s.name, maxEvents, workers, got, want)
					}
				}
			}
		}
	}
}

// TestPortfolioTieBreak: on equal latency the lower rank wins — the
// order MVFB, Monte-Carlo, Center is the portfolio's fixed priority.
func TestPortfolioTieBreak(t *testing.T) {
	sol := func(latency int) *Solution {
		return &Solution{Result: &engine.Result{Latency: gates.Time(latency)}}
	}
	cases := []struct {
		name string
		sols []*Solution
		want int
	}{
		{"strictly-best-wins", []*Solution{sol(300), sol(200), sol(100)}, RankCenter},
		{"tie-goes-to-mvfb", []*Solution{sol(100), sol(100), sol(100)}, RankMVFB},
		{"tie-goes-to-mc-over-center", []*Solution{sol(200), sol(100), sol(100)}, RankMonteCarlo},
		{"missing-entrant-skipped", []*Solution{nil, sol(100), sol(100)}, RankMonteCarlo},
		{"all-missing", []*Solution{nil, nil, nil}, -1},
	}
	for _, tc := range cases {
		if got := pickPortfolioWinner(tc.sols); got != tc.want {
			t.Errorf("%s: winner %d, want %d", tc.name, got, tc.want)
		}
	}
}

// TestPortfolioMatchesStandalone: the portfolio must return exactly
// the best of its entrants run standalone, with the right provenance,
// for any worker budget.
func TestPortfolioMatchesStandalone(t *testing.T) {
	g := fig3Graph(t)
	cfg := qsprConfig(fabric.Quale4585())
	mvfbOpts := MVFBOptions{Seeds: 3, Patience: 3, MaxRunsPerSeed: 12, Seed: 5}
	mvfb, err := MVFB(g, cfg, mvfbOpts)
	if err != nil {
		t.Fatal(err)
	}
	mc, err := MonteCarlo(g, cfg, 2*mvfbOpts.Seeds, mvfbOpts.Seed, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	center, err := centerSolution(g, cfg, engine.NewSim())
	if err != nil {
		t.Fatal(err)
	}
	wantWin := pickPortfolioWinner([]*Solution{mvfb, mc, center})
	wantLatency := []*Solution{mvfb, mc, center}[wantWin].Result.Latency
	wantRuns := mvfb.Runs + mc.Runs + center.Runs
	for _, workers := range []int{1, 2, 8} {
		p, err := Portfolio(g, cfg, PortfolioOptions{MVFB: mvfbOpts, Workers: workers})
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
	}
}
