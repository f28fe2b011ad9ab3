package engine

import (
	"testing"

	"repro/internal/circuits"
	"repro/internal/fabric"
	"repro/internal/qidg"
)

func benchGraph(b *testing.B, name string) *qidg.Graph {
	b.Helper()
	bench, err := circuits.ByName(name)
	if err != nil {
		b.Fatal(err)
	}
	g, err := qidg.Build(bench.Program)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// BenchmarkEngineRun measures a one-shot run: a fresh simulator and
// captured trace per call, what every caller paid before the reusable
// Sim core (the "before" column of BENCH_engine.json).
func BenchmarkEngineRun(b *testing.B) {
	for _, name := range []string{"[[5,1,3]]", "[[7,1,3]]"} {
		b.Run(name, func(b *testing.B) {
			g := benchGraph(b, name)
			f := fabric.Quale4585()
			cfg := qsprConfig(f)
			p := centerPlacement(f, g.NumQubits)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := run(g, cfg, p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkSimRun measures the reusable core: one warm Sim per
// sub-benchmark, traceless (the search configuration — the "after"
// column of BENCH_engine.json) and with capture on (the winner-replay
// configuration).
func BenchmarkSimRun(b *testing.B) {
	for _, name := range []string{"[[5,1,3]]", "[[7,1,3]]"} {
		for _, collect := range []bool{false, true} {
			label := name + "/traceless"
			if collect {
				label = name + "/capture"
			}
			b.Run(label, func(b *testing.B) {
				g := benchGraph(b, name)
				f := fabric.Quale4585()
				cfg := qsprConfig(f)
				cfg.CollectTrace = collect
				p := centerPlacement(f, g.NumQubits)
				sim := NewSim()
				if _, err := sim.Run(g, cfg, p); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := sim.Run(g, cfg, p); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}

// BenchmarkSimRun_MVFBShape measures the placer's inner-loop shape on
// one Sim: forward on the QIDG, backward on the UIDG under a forced
// order, alternating — the workload whose steady-state allocation
// profile the reusable core exists to flatten.
func BenchmarkSimRun_MVFBShape(b *testing.B) {
	g := benchGraph(b, "[[5,1,3]]")
	rev := g.Reverse()
	f := fabric.Quale4585()
	cfg := qsprConfig(f)
	cfg.CollectTrace = false
	p := centerPlacement(f, g.NumQubits)
	sim := NewSim()
	fwd, err := sim.Run(g, cfg, p)
	if err != nil {
		b.Fatal(err)
	}
	order := make([]int, len(fwd.IssueOrder))
	for i, n := range fwd.IssueOrder {
		order[len(order)-1-i] = n
	}
	bcfg := cfg
	bcfg.ForcedOrder = order
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fres, err := sim.Run(g, cfg, p)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sim.Run(rev, bcfg, fres.Final); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimFork is the incremental re-simulation headline number:
// a cold full Run of a perturbed placement vs RunFrom at the deepest
// checkpoint at or before the delta's dependency frontier, for the two
// refinement-step shapes the annealer proposes:
//
//   - move: one qubit relocated to an empty trap. Its trap load shifts
//     are marginal at the packed center, so the first congestion probe
//     clamps the frontier near event zero — replay degenerates to a
//     full run. The honest control row.
//   - swap: the two qubits' trap load shifts cancel, so the frontier
//     is the earlier of their first gates. Measured on the deepest
//     result-relevant swap (late-first-use qubits, e.g. the logical
//     qubits of the larger codes), the class suffix replay rewards.
//
// replayed_events vs total_events is the simulated-instruction
// reduction for that refinement step.
func BenchmarkSimFork(b *testing.B) {
	for _, name := range []string{"[[7,1,3]]", "[[14,8,3]]", "[[19,1,7]]", "[[23,1,7]]"} {
		g := benchGraph(b, name)
		f := fabric.Quale4585()
		cfg := qsprConfig(f)
		cfg.CollectTrace = false
		p := centerPlacement(f, g.NumQubits)

		sim := NewSim()
		log := &CheckpointLog{}
		if _, err := sim.RunRecorded(g, cfg, p, log); err != nil {
			b.Fatal(err)
		}
		for _, shape := range []string{"move", "swap"} {
			var delta Delta
			if shape == "move" {
				delta = benchForkDelta(b, f, p, g.NumQubits/2)
			} else {
				delta = benchSwapDelta(b, g, p, log)
			}
			cp := log.Before(delta)
			if cp == nil {
				b.Fatal("no fork point")
			}
			perturbed := p.Clone()
			for _, m := range delta {
				perturbed[m.Qubit] = m.To
			}

			b.Run(name+"/"+shape+"/full-run", func(b *testing.B) {
				cold := NewSim()
				if _, err := cold.Run(g, cfg, perturbed); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := cold.Run(g, cfg, perturbed); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(log.Events()), "total_events")
			})
			b.Run(name+"/"+shape+"/suffix-replay", func(b *testing.B) {
				if _, err := sim.RunFrom(cp, delta); err != nil {
					b.Fatal(err)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := sim.RunFrom(cp, delta); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(log.Events()-cp.Index()), "replayed_events")
				b.ReportMetric(float64(log.Events()), "total_events")
			})
		}
	}
}

// firstUse is the event index of q's first position read in the
// recorded run (the run length if it was never read).
func firstUse(log *CheckpointLog, q int) int {
	if log.qStamp[q] == log.stamp {
		return int(log.qAt[q])
	}
	return log.Events()
}

// benchSwapDelta picks the deepest-frontier result-relevant swap: the
// pair of differently-trapped qubits maximizing the earlier of their
// first gates, at least one of which the run actually reads (a swap
// of two never-read qubits would be a no-op).
func benchSwapDelta(b *testing.B, g *qidg.Graph, base Placement, log *CheckpointLog) Delta {
	b.Helper()
	best, bq1, bq2 := -1, -1, -1
	for q1 := 0; q1 < g.NumQubits; q1++ {
		for q2 := q1 + 1; q2 < g.NumQubits; q2++ {
			if base[q1] == base[q2] {
				continue
			}
			u1, u2 := firstUse(log, q1), firstUse(log, q2)
			if u1 == log.Events() && u2 == log.Events() {
				continue
			}
			if fr := min(u1, u2); fr > best {
				best, bq1, bq2 = fr, q1, q2
			}
		}
	}
	if bq1 < 0 {
		b.Fatal("no result-relevant swap pair")
	}
	return Delta{{Qubit: bq1, To: base[bq2]}, {Qubit: bq2, To: base[bq1]}}
}

// benchForkDelta mirrors the test helper: move q to the first empty
// trap scanning from a q-dependent offset.
func benchForkDelta(b *testing.B, f *fabric.Fabric, base Placement, q int) Delta {
	b.Helper()
	used := make(map[int]bool, len(base))
	for _, tr := range base {
		used[tr] = true
	}
	nt := len(f.Traps)
	for i := 0; i < nt; i++ {
		cand := (q*31 + 7 + i) % nt
		if !used[cand] {
			return Delta{{Qubit: q, To: cand}}
		}
	}
	b.Fatalf("no empty trap on a %d-trap fabric", nt)
	return nil
}
