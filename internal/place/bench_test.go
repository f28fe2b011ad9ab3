package place

import (
	"fmt"
	"testing"

	"repro/internal/circuits"
	"repro/internal/engine"
	"repro/internal/fabric"
	"repro/internal/qidg"
)

// benchPlaceConfig is the placers' search configuration: traceless,
// like annealSearch and searchTrajectory run their candidates.
func benchPlaceConfig(f *fabric.Fabric) engine.Config {
	cfg := qsprConfig(f)
	cfg.CollectTrace = false
	return cfg
}

// benchGraph builds a benchmark circuit's QIDG once per bench.
func benchGraph(b *testing.B, name string) *qidg.Graph {
	b.Helper()
	c, err := circuits.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	g, err := qidg.Build(c.Program)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// BenchmarkAnnealChain measures one annealing restart chain with and
// without suffix replay (bit-identical results either way — the
// latency metric must not move between the two modes). The replayed
// and total event metrics come from the chain log's replay profile:
// their ratio is the fraction of simulated work the incremental mode
// actually paid, aggregated over the whole proposal stream — accepted
// rebaselines, shallow-frontier fallbacks and all.
func BenchmarkAnnealChain(b *testing.B) {
	f := fabric.Quale4585()
	for _, name := range []string{"[[9,1,3]]", "[[14,8,3]]", "[[19,1,7]]"} {
		g := benchGraph(b, name)
		cfg := benchPlaceConfig(f)
		for _, mode := range []struct {
			label string
			noInc bool
		}{{"incremental", false}, {"cold", true}} {
			b.Run(fmt.Sprintf("%s/%s", name, mode.label), func(b *testing.B) {
				opts := AnnealOptions{Moves: 100, Restarts: 1, Seed: 1, NoIncremental: mode.noInc}
				opts.normalize()
				sim := engine.NewSim()
				log := &engine.CheckpointLog{}
				var c annealCandidate
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					var err error
					c, err = annealChain(g, cfg, opts, 0, sim, log)
					if err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(c.result.Latency), "latency_µs")
				replayed, total := log.Profile()
				if total > 0 {
					b.ReportMetric(float64(replayed)/float64(b.N), "replayed_events")
					b.ReportMetric(float64(total)/float64(b.N), "total_events")
				}
			})
		}
	}
}

// BenchmarkAnneal measures the full annealing placer (all restarts)
// against the center baseline it must beat, reporting time-to-best:
// the move index at which the winning chain found its final answer.
func BenchmarkAnneal(b *testing.B) {
	f := fabric.Quale4585()
	for _, name := range []string{"[[9,1,3]]", "[[19,1,7]]"} {
		g := benchGraph(b, name)
		cfg := benchPlaceConfig(f)
		b.Run(name, func(b *testing.B) {
			var sol *Solution
			for i := 0; i < b.N; i++ {
				var err error
				sol, err = Anneal(g, cfg, DefaultAnnealOptions())
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(sol.Result.Latency), "latency_µs")
			b.ReportMetric(float64(sol.Runs), "runs")
			b.ReportMetric(float64(sol.Iteration), "best_at_move")
		})
	}
}
