package engine

import (
	"bytes"
	"testing"

	"repro/internal/circuits"
	"repro/internal/fabric"
	"repro/internal/qidg"
)

// The fork-equivalence property: for EVERY checkpoint boundary at or
// before the dependency frontier, RunFrom with a real single-qubit
// delta must be byte-identical — latency, final placement, issue
// order, full stats and serialized trace — to a cold Run of the
// perturbed placement. Exercised on three circuits × both paper
// fabrics, plus one circuit on a generated grid with ALT routing, ×
// forward and backward (forced-order) runs; -short (the -race CI
// lane) subsamples qubits and boundaries but still crosses every case.

func forkPropertyCases(t *testing.T) []struct {
	name string
	g    *qidg.Graph
	f    *fabric.Fabric
} {
	t.Helper()
	synth, err := circuits.Synthesized513()
	if err != nil {
		t.Fatal(err)
	}
	g513s, err := qidg.Build(synth)
	if err != nil {
		t.Fatal(err)
	}
	b713, err := circuits.ByName("[[7,1,3]]")
	if err != nil {
		t.Fatal(err)
	}
	g713, err := qidg.Build(b713.Program)
	if err != nil {
		t.Fatal(err)
	}
	// A generated grid large enough for ALT routing, where
	// NearestTrap's row walk leaves most traps unprobed, so a fork's
	// frontier depends on which traps the walk did probe.
	grid, _, err := fabric.Resolve("grid(rows=97,cols=97,pitch=4)")
	if err != nil {
		t.Fatal(err)
	}
	return []struct {
		name string
		g    *qidg.Graph
		f    *fabric.Fabric
	}{
		{"fig3/small", graphOf(t, fig3), fabric.Small()},
		{"fig3/quale45x85", graphOf(t, fig3), fabric.Quale4585()},
		{"[[5,1,3]]synth/small", g513s, fabric.Small()},
		{"[[5,1,3]]synth/quale45x85", g513s, fabric.Quale4585()},
		{"[[7,1,3]]/small", g713, fabric.Small()},
		{"[[7,1,3]]/quale45x85", g713, fabric.Quale4585()},
		{"[[7,1,3]]/grid97", g713, grid},
	}
}

func TestForkEquivalenceProperty(t *testing.T) {
	qubitStep, boundaryStep := 1, 1
	if testing.Short() {
		qubitStep, boundaryStep = 3, 5
	}
	for _, tc := range forkPropertyCases(t) {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			cfg := qsprConfig(tc.f)
			cfg.CollectTrace = true
			p := centerPlacement(tc.f, tc.g.NumQubits)

			// Forward run: record, then fork against a cold reference.
			checkForkCase(t, tc.g, cfg, p, qubitStep, boundaryStep)

			// Traceless recording — the placers' search configuration.
			// With no trace op to record, a one-qubit issue does not
			// read its operand's resting trap, so frontiers reach past
			// the leading single-qubit layers: this is the deep-replay
			// path the searches actually exercise, and it must be just
			// as byte-identical (sans the absent trace).
			ncfg := cfg
			ncfg.CollectTrace = false
			checkForkCase(t, tc.g, ncfg, p, qubitStep, boundaryStep)

			// Backward run (the MVFB uncompute protocol): reversed
			// graph, forced reverse issue order, starting from the
			// forward final placement.
			fwd, err := NewSim().Run(tc.g, cfg, p)
			if err != nil {
				t.Fatal(err)
			}
			rev := tc.g.Reverse()
			order := make([]int, len(fwd.IssueOrder))
			for i, n := range fwd.IssueOrder {
				order[len(order)-1-i] = n
			}
			bcfg := cfg
			bcfg.ForcedOrder = order
			checkForkCase(t, rev, bcfg, fwd.Final, qubitStep, boundaryStep)

			nbcfg := bcfg
			nbcfg.CollectTrace = false
			checkForkCase(t, rev, nbcfg, fwd.Final, qubitStep, boundaryStep)
		})
	}
}

// checkForkCase records one run and verifies fork equivalence for a
// per-qubit single-move delta and a pair-swap delta (the annealer's
// two proposal shapes — swaps have net-zero trap shifts and therefore
// the deepest frontiers) across the sampled checkpoint boundaries,
// asserting that at least one real (non-end) boundary was exercised
// overall.
func checkForkCase(t *testing.T, g *qidg.Graph, cfg Config, p Placement, qubitStep, boundaryStep int) {
	t.Helper()
	recorder := NewSim()
	log := &CheckpointLog{}
	base, err := recorder.RunRecorded(g, cfg, p, log)
	if err != nil {
		t.Fatal(err)
	}
	baseFP := fingerprint(t, base)
	cold := NewSim()

	forked := 0
	for q := 0; q < g.NumQubits; q += qubitStep {
		deltas := []Delta{forkDelta(t, cfg.Fabric, p, q)}
		if q2 := (q + g.NumQubits/2 + 1) % g.NumQubits; q2 != q && p[q2] != p[q] {
			deltas = append(deltas, Delta{{Qubit: q, To: p[q2]}, {Qubit: q2, To: p[q]}})
		}
		for _, delta := range deltas {
			want, err := cold.Run(g, cfg, applyDelta(p, delta))
			if err != nil {
				t.Fatal(err)
			}
			wantFP := fingerprint(t, want)
			frontier := log.Frontier(delta)
			for i := 0; i < log.Checkpoints(); i += boundaryStep {
				cp := log.At(i)
				if cp.Index() > frontier {
					break
				}
				got, err := recorder.RunFrom(cp, delta)
				if err != nil {
					t.Fatalf("q%d boundary %d: %v", q, cp.Index(), err)
				}
				forked++
				if gotFP := fingerprint(t, got); gotFP != wantFP {
					t.Fatalf("q%d fork from boundary %d/%d diverged from cold run:\n got %s\nwant %s",
						q, cp.Index(), log.Events(), gotFP, wantFP)
				}
				if !bytes.Equal(traceJSON(t, got.Trace), traceJSON(t, want.Trace)) {
					t.Fatalf("q%d fork from boundary %d: trace bytes diverge", q, cp.Index())
				}
				for i, v := range applyDelta(p, delta) {
					if got.Initial[i] != v {
						t.Fatalf("q%d fork: Result.Initial is not the perturbed placement", q)
					}
				}
			}
		}
		// The empty delta forks from the end state and must reproduce
		// the baseline run itself.
		if q == 0 {
			end := log.At(log.Checkpoints() - 1)
			got, err := recorder.RunFrom(end, Delta{})
			if err != nil {
				t.Fatalf("empty-delta fork: %v", err)
			}
			if fingerprint(t, got) != baseFP {
				t.Error("empty-delta fork from the end state differs from the baseline")
			}
		}
	}
	if forked == 0 {
		t.Error("property exercised zero forks — frontier or sampling is degenerate")
	}
}
