package place

import (
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
