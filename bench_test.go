// Package repro holds the top-level benchmark harness: one benchmark
// family per table/figure of the QSPR paper (DATE 2012). Each bench
// reports the reproduced execution latency as a custom metric
// (latency_µs) next to the usual ns/op, so `go test -bench .`
// regenerates the paper's numbers; `cmd/tables` prints the same data
// as formatted tables with the published values alongside.
//
// Benchmarks use modest MVFB seed counts to keep `go test -bench .`
// minutes-scale; run `cmd/tables` (m=25/100) for the full protocol.
package repro

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/circuits"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fabric"
	"repro/internal/gates"
	"repro/internal/place"
	"repro/internal/qasm"
	"repro/internal/qasmgen"
	"repro/internal/qidg"
	"repro/internal/routegraph"
	"repro/internal/sched"
)

var benchFabric = fabric.Quale4585()

// benchSeeds keeps the per-circuit MVFB effort bounded in benches.
func benchSeeds(name string) int {
	switch name {
	case "[[5,1,3]]", "[[7,1,3]]", "[[9,1,3]]":
		return 10
	default:
		return 3
	}
}

// BenchmarkTable2_Baseline reproduces Table 2's ideal lower bound:
// the gate-delay critical path of each benchmark circuit.
func BenchmarkTable2_Baseline(b *testing.B) {
	for _, bench := range circuits.All() {
		b.Run(bench.Name, func(b *testing.B) {
			var latency gates.Time
			for i := 0; i < b.N; i++ {
				l, err := core.IdealLatency(bench.Program, gates.Default())
				if err != nil {
					b.Fatal(err)
				}
				latency = l
			}
			b.ReportMetric(float64(latency), "latency_µs")
		})
	}
}

// BenchmarkTable2_QUALE reproduces Table 2's QUALE column.
func BenchmarkTable2_QUALE(b *testing.B) {
	for _, bench := range circuits.All() {
		b.Run(bench.Name, func(b *testing.B) {
			var latency gates.Time
			for i := 0; i < b.N; i++ {
				res, err := core.Map(bench.Program, benchFabric, core.Options{Heuristic: core.QUALE})
				if err != nil {
					b.Fatal(err)
				}
				latency = res.Latency
			}
			b.ReportMetric(float64(latency), "latency_µs")
		})
	}
}

// BenchmarkTable2_QSPR reproduces Table 2's QSPR column.
func BenchmarkTable2_QSPR(b *testing.B) {
	for _, bench := range circuits.All() {
		b.Run(bench.Name, func(b *testing.B) {
			var latency gates.Time
			for i := 0; i < b.N; i++ {
				res, err := core.Map(bench.Program, benchFabric,
					core.Options{Heuristic: core.QSPR, Seeds: benchSeeds(bench.Name)})
				if err != nil {
					b.Fatal(err)
				}
				latency = res.Latency
			}
			b.ReportMetric(float64(latency), "latency_µs")
		})
	}
}

// BenchmarkTable1_MVFB reproduces Table 1's MVFB rows (latency and
// CPU runtime per circuit); runs_total reports the realized number
// of placement runs.
func BenchmarkTable1_MVFB(b *testing.B) {
	for _, bench := range circuits.All() {
		b.Run(bench.Name, func(b *testing.B) {
			var latency gates.Time
			runs := 0
			for i := 0; i < b.N; i++ {
				res, err := core.Map(bench.Program, benchFabric,
					core.Options{Heuristic: core.QSPR, Seeds: benchSeeds(bench.Name)})
				if err != nil {
					b.Fatal(err)
				}
				latency = res.Latency
				runs = res.Runs
			}
			b.ReportMetric(float64(latency), "latency_µs")
			b.ReportMetric(float64(runs), "runs")
		})
	}
}

// BenchmarkTable1_MC reproduces Table 1's Monte-Carlo rows under the
// paper's protocol: MC receives twice the number of MVFB iterations
// (forward+backward pairs), i.e. the same number of placement runs
// the MVFB search performed on the same circuit.
func BenchmarkTable1_MC(b *testing.B) {
	for _, bench := range circuits.All() {
		// Fix the run budget once per circuit, outside timing.
		mvfb, err := core.Map(bench.Program, benchFabric,
			core.Options{Heuristic: core.QSPR, Seeds: benchSeeds(bench.Name)})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(bench.Name, func(b *testing.B) {
			var latency gates.Time
			for i := 0; i < b.N; i++ {
				res, err := core.MonteCarloRuns(bench.Program, benchFabric, mvfb.Runs, 1, nil)
				if err != nil {
					b.Fatal(err)
				}
				latency = res.Latency
			}
			b.ReportMetric(float64(latency), "latency_µs")
			b.ReportMetric(float64(mvfb.Runs), "runs")
		})
	}
}

// BenchmarkMVFB_InnerParallel measures intra-mapping scaling: one
// QSPR mapping with the MVFB starts fanned across 1, 2 and 4 workers.
// The latency and runs metrics must not move with the worker count —
// only ns/op may (tracked in BENCH_placement.json; on an N-core
// machine the speedup is bounded by min(N, m) and by the speculative
// runs the global-patience replay discards).
func BenchmarkMVFB_InnerParallel(b *testing.B) {
	for _, bench := range []string{"[[5,1,3]]", "[[7,1,3]]"} {
		c, err := circuits.ByName(bench)
		if err != nil {
			b.Fatal(err)
		}
		for _, workers := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("%s/workers=%d", bench, workers), func(b *testing.B) {
				var latency gates.Time
				runs := 0
				for i := 0; i < b.N; i++ {
					res, err := core.Map(c.Program, benchFabric, core.Options{
						Heuristic: core.QSPR, Seeds: 10, InnerParallel: workers,
					})
					if err != nil {
						b.Fatal(err)
					}
					latency = res.Latency
					runs = res.Runs
				}
				b.ReportMetric(float64(latency), "latency_µs")
				b.ReportMetric(float64(runs), "runs")
			})
		}
	}
}

// BenchmarkPortfolio races MVFB, Monte-Carlo and Center concurrently
// on one mapping (heuristic "portfolio") at the full CPU budget.
func BenchmarkPortfolio(b *testing.B) {
	c, err := circuits.ByName("[[9,1,3]]")
	if err != nil {
		b.Fatal(err)
	}
	b.Run("[[9,1,3]]", func(b *testing.B) {
		var latency gates.Time
		for i := 0; i < b.N; i++ {
			res, err := core.Map(c.Program, benchFabric, core.Options{
				Heuristic: core.Portfolio, Seeds: 5, InnerParallel: 4,
			})
			if err != nil {
				b.Fatal(err)
			}
			latency = res.Latency
		}
		b.ReportMetric(float64(latency), "latency_µs")
	})
}

// BenchmarkMSweep reproduces the §IV.A sensitivity analysis: MVFB
// solution quality as a function of the number of random seeds m.
func BenchmarkMSweep(b *testing.B) {
	bench, err := circuits.ByName("[[9,1,3]]")
	if err != nil {
		b.Fatal(err)
	}
	for _, m := range []int{1, 2, 5, 10, 25} {
		b.Run(fmt.Sprintf("m=%d", m), func(b *testing.B) {
			var latency gates.Time
			for i := 0; i < b.N; i++ {
				res, err := core.Map(bench.Program, benchFabric,
					core.Options{Heuristic: core.QSPR, Seeds: m})
				if err != nil {
					b.Fatal(err)
				}
				latency = res.Latency
			}
			b.ReportMetric(float64(latency), "latency_µs")
		})
	}
}

// BenchmarkFig5_Routing reproduces the Fig. 5 comparison as a router
// microbenchmark: shortest-path queries on the turn-aware vs
// turn-blind graph, reporting the realized travel time.
func BenchmarkFig5_Routing(b *testing.B) {
	tech := gates.Default()
	for _, mode := range []struct {
		name  string
		aware bool
	}{{"turn-aware", true}, {"turn-blind", false}} {
		b.Run(mode.name, func(b *testing.B) {
			g := routegraph.New(benchFabric, tech, routegraph.Options{TurnAware: mode.aware})
			a := benchFabric.TrapsByDistance(fabric.Pos{Row: 0, Col: 0})[0]
			z := benchFabric.TrapsByDistance(fabric.Pos{Row: 44, Col: 84})[0]
			var travel gates.Time
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				r, ok := g.FindRoute(a, z)
				if !ok {
					b.Fatal("no route")
				}
				travel = r.Delay
			}
			b.ReportMetric(float64(travel), "travel_µs")
		})
	}
}

// BenchmarkFig5_RoutingCold is BenchmarkFig5_Routing with the route
// cache defeated: one junction group is kept occupied, so every
// iteration runs a full congested Dijkstra on the reusable search
// state. This isolates the raw search-core speed from cache replay.
func BenchmarkFig5_RoutingCold(b *testing.B) {
	tech := gates.Default()
	g := routegraph.New(benchFabric, tech, routegraph.Options{TurnAware: true})
	g.Occupy(g.JunctionGroupID(0))
	a := benchFabric.TrapsByDistance(fabric.Pos{Row: 0, Col: 0})[0]
	z := benchFabric.TrapsByDistance(fabric.Pos{Row: 44, Col: 84})[0]
	var travel gates.Time
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, ok := g.FindRoute(a, z)
		if !ok {
			b.Fatal("no route")
		}
		travel = r.Delay
	}
	b.ReportMetric(float64(travel), "travel_µs")
}

// BenchmarkFig4_FabricGeneration measures building the 45×85 fabric
// of Fig. 4 (grid synthesis plus topology derivation).
func BenchmarkFig4_FabricGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		f, err := fabric.Generate(fabric.GenSpec{Rows: 45, Cols: 85, Pitch: 4})
		if err != nil {
			b.Fatal(err)
		}
		if len(f.Traps) != 462 {
			b.Fatal("unexpected trap count")
		}
	}
}

// ablationConfig builds QSPR's engine config with one design choice
// reverted (DESIGN.md §5).
func ablationConfig(mod func(*engine.Config)) engine.Config {
	cfg := engine.Config{
		Fabric: benchFabric, Tech: gates.Default(),
		Policy: sched.QSPR, Weights: sched.DefaultWeights(),
		TurnAware: true, BothMove: true, MedianTarget: true,
	}
	mod(&cfg)
	return cfg
}

func runAblation(b *testing.B, circuit string, mod func(*engine.Config)) {
	b.Helper()
	bench, err := circuits.ByName(circuit)
	if err != nil {
		b.Fatal(err)
	}
	g, err := qidg.Build(bench.Program)
	if err != nil {
		b.Fatal(err)
	}
	cfg := ablationConfig(mod)
	var latency gates.Time
	for i := 0; i < b.N; i++ {
		sol, err := place.MVFB(g, cfg, place.DefaultMVFBOptions(3))
		if err != nil {
			b.Fatal(err)
		}
		latency = sol.Result.Latency
	}
	b.ReportMetric(float64(latency), "latency_µs")
}

// BenchmarkAblationTurnAware quantifies the Fig. 5c turn-aware metric.
func BenchmarkAblationTurnAware(b *testing.B) {
	b.Run("on", func(b *testing.B) { runAblation(b, "[[23,1,7]]", func(*engine.Config) {}) })
	b.Run("off", func(b *testing.B) {
		runAblation(b, "[[23,1,7]]", func(c *engine.Config) { c.TurnAware = false })
	})
}

// BenchmarkAblationCapacity quantifies ion multiplexing (channel
// capacity 2 vs 1).
func BenchmarkAblationCapacity(b *testing.B) {
	b.Run("cap2", func(b *testing.B) { runAblation(b, "[[23,1,7]]", func(*engine.Config) {}) })
	b.Run("cap1", func(b *testing.B) {
		runAblation(b, "[[23,1,7]]", func(c *engine.Config) { c.Tech.ChannelCapacity = 1 })
	})
}

// BenchmarkAblationBothMove quantifies moving both operands toward
// the median trap vs moving only the source.
func BenchmarkAblationBothMove(b *testing.B) {
	b.Run("both", func(b *testing.B) { runAblation(b, "[[23,1,7]]", func(*engine.Config) {}) })
	b.Run("single", func(b *testing.B) {
		runAblation(b, "[[23,1,7]]", func(c *engine.Config) { c.BothMove = false; c.MedianTarget = false })
	})
}

// BenchmarkAblationMedian quantifies median trap selection vs always
// gating in the destination qubit's trap.
func BenchmarkAblationMedian(b *testing.B) {
	b.Run("median", func(b *testing.B) { runAblation(b, "[[23,1,7]]", func(*engine.Config) {}) })
	b.Run("destination", func(b *testing.B) {
		runAblation(b, "[[23,1,7]]", func(c *engine.Config) { c.MedianTarget = false })
	})
}

// BenchmarkAblationPriority compares the combined QSPR scheduling
// priority against its two components alone.
func BenchmarkAblationPriority(b *testing.B) {
	b.Run("combined", func(b *testing.B) { runAblation(b, "[[23,1,7]]", func(*engine.Config) {}) })
	b.Run("dependents-only", func(b *testing.B) {
		runAblation(b, "[[23,1,7]]", func(c *engine.Config) { c.Weights = sched.Weights{Dependents: 1} })
	})
	b.Run("pathdelay-only", func(b *testing.B) {
		runAblation(b, "[[23,1,7]]", func(c *engine.Config) { c.Weights = sched.Weights{PathDelay: 1} })
	})
}

// BenchmarkEncoderSynthesis measures stabilizer encoder synthesis
// plus exact verification for the largest benchmark code.
func BenchmarkEncoderSynthesis(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := circuits.Synthesized513(); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Extension experiments beyond the paper's tables ----

// BenchmarkExtFabricSizeSweep maps one fixed workload onto fabrics of
// growing size: larger fabrics reduce congestion but lengthen routes.
func BenchmarkExtFabricSizeSweep(b *testing.B) {
	prog, err := qasmgen.RandomClifford(12, 60, 0.25, 7)
	if err != nil {
		b.Fatal(err)
	}
	for _, size := range []struct{ r, c int }{{13, 25}, {21, 41}, {45, 85}, {61, 121}} {
		b.Run(fmt.Sprintf("%dx%d", size.r, size.c), func(b *testing.B) {
			f, err := fabric.Generate(fabric.GenSpec{Rows: size.r, Cols: size.c, Pitch: 4})
			if err != nil {
				b.Fatal(err)
			}
			var latency gates.Time
			for i := 0; i < b.N; i++ {
				res, err := core.Map(prog, f, core.Options{Heuristic: core.QSPR, Seeds: 5})
				if err != nil {
					b.Fatal(err)
				}
				latency = res.Latency
			}
			b.ReportMetric(float64(latency), "latency_µs")
		})
	}
}

// BenchmarkExtCapacitySweep varies the channel capacity (the ion
// multiplexing degree the paper credits refs [8][9][10] for) on a
// congestion-heavy brickwork workload.
func BenchmarkExtCapacitySweep(b *testing.B) {
	prog, err := qasmgen.BrickworkLayers(16, 8)
	if err != nil {
		b.Fatal(err)
	}
	for _, cap := range []int{1, 2, 3, 4} {
		b.Run(fmt.Sprintf("cap%d", cap), func(b *testing.B) {
			tech := gates.Default()
			tech.ChannelCapacity = cap
			var latency gates.Time
			for i := 0; i < b.N; i++ {
				res, err := core.Map(prog, benchFabric, core.Options{
					Heuristic: core.QSPR, Seeds: 5, Tech: &tech,
				})
				if err != nil {
					b.Fatal(err)
				}
				latency = res.Latency
			}
			b.ReportMetric(float64(latency), "latency_µs")
		})
	}
}

// BenchmarkExtWorkloadShapes compares the mapper across circuit
// families with opposite dependency structure: serial GHZ chains,
// maximally parallel brickwork, random Clifford circuits, and a
// Steane syndrome-extraction round.
func BenchmarkExtWorkloadShapes(b *testing.B) {
	ghz, err := qasmgen.GHZ(16)
	if err != nil {
		b.Fatal(err)
	}
	brick, err := qasmgen.BrickworkLayers(16, 6)
	if err != nil {
		b.Fatal(err)
	}
	rnd, err := qasmgen.RandomClifford(16, 90, 0.3, 3)
	if err != nil {
		b.Fatal(err)
	}
	syn, err := qasmgen.SteaneSyndrome()
	if err != nil {
		b.Fatal(err)
	}
	workloads := []struct {
		name string
		prog *qasm.Program
	}{
		{"ghz-chain", ghz}, {"brickwork", brick}, {"random-clifford", rnd}, {"steane-syndrome", syn},
	}
	for _, w := range workloads {
		b.Run(w.name, func(b *testing.B) {
			var latency, ideal gates.Time
			for i := 0; i < b.N; i++ {
				res, err := core.Map(w.prog, benchFabric, core.Options{Heuristic: core.QSPR, Seeds: 5})
				if err != nil {
					b.Fatal(err)
				}
				latency, ideal = res.Latency, res.Ideal
			}
			b.ReportMetric(float64(latency), "latency_µs")
			b.ReportMetric(float64(latency-ideal), "overhead_µs")
		})
	}
}

// BenchmarkExtMVFBWorkers measures the parallel MVFB speedup under
// the paper's global-patience protocol (the solution is bit-identical
// for any worker count).
func BenchmarkExtMVFBWorkers(b *testing.B) {
	bench, err := circuits.ByName("[[23,1,7]]")
	if err != nil {
		b.Fatal(err)
	}
	g, err := qidg.Build(bench.Program)
	if err != nil {
		b.Fatal(err)
	}
	cfg := ablationConfig(func(*engine.Config) {})
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			opts := place.MVFBOptions{
				Seeds: 8, Patience: 3, MaxRunsPerSeed: 50, Seed: 1, Workers: workers,
			}
			for i := 0; i < b.N; i++ {
				if _, err := place.MVFB(g, cfg, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkExtDefectSweep maps the [[9,1,3]] encoder on fabrics with
// growing channel yield loss (defective channels chosen pseudo-
// randomly among trapless channels so every trap stays reachable).
func BenchmarkExtDefectSweep(b *testing.B) {
	bench, err := circuits.ByName("[[9,1,3]]")
	if err != nil {
		b.Fatal(err)
	}
	g, err := qidg.Build(bench.Program)
	if err != nil {
		b.Fatal(err)
	}
	f := benchFabric
	access := map[int]bool{}
	for _, tr := range f.Traps {
		access[tr.Channel] = true
	}
	var pool []int
	for _, ch := range f.Channels {
		if !access[ch.ID] {
			pool = append(pool, ch.ID)
		}
	}
	for _, pct := range []int{0, 5, 10, 20, 40} {
		b.Run(fmt.Sprintf("defects=%d%%", pct), func(b *testing.B) {
			rng := rand.New(rand.NewSource(99))
			var defects []int
			for _, ch := range pool {
				if rng.Intn(100) < pct {
					defects = append(defects, ch)
				}
			}
			cfg := ablationConfig(func(c *engine.Config) { c.DefectiveChannels = defects })
			var latency gates.Time
			for i := 0; i < b.N; i++ {
				sol, err := place.MVFB(g, cfg, place.DefaultMVFBOptions(5))
				if err != nil {
					b.Fatal(err)
				}
				latency = sol.Result.Latency
			}
			b.ReportMetric(float64(latency), "latency_µs")
			b.ReportMetric(float64(len(defects)), "dead_channels")
		})
	}
}
