package engine

import (
	"testing"

	"repro/internal/fabric"
)

// TestRouteGraphReuseBitIdentical: supplying a pre-built routing
// graph (reset and reused across runs, cache kept warm) must change
// nothing observable — latency, issue order, stats and the full
// micro-command trace stay bit-identical to per-run fresh graphs.
func TestRouteGraphReuseBitIdentical(t *testing.T) {
	f := fabric.Quale4585()
	g := graphOf(t, fig3)
	p := centerPlacement(f, g.NumQubits)

	fresh := qsprConfig(f)
	shared := qsprConfig(f)
	shared.RouteGraph = shared.BuildRouteGraph()

	for round := 0; round < 3; round++ {
		a, err := run(g, fresh, p)
		if err != nil {
			t.Fatal(err)
		}
		b, err := run(g, shared, p)
		if err != nil {
			t.Fatal(err)
		}
		if a.Latency != b.Latency || a.Stats != b.Stats {
			t.Fatalf("round %d: latency/stats diverge: %v %+v vs %v %+v",
				round, a.Latency, a.Stats, b.Latency, b.Stats)
		}
		if len(a.IssueOrder) != len(b.IssueOrder) {
			t.Fatalf("round %d: issue order length differs", round)
		}
		for i := range a.IssueOrder {
			if a.IssueOrder[i] != b.IssueOrder[i] {
				t.Fatalf("round %d: issue order diverges at %d", round, i)
			}
		}
		if len(a.Trace.Ops) != len(b.Trace.Ops) {
			t.Fatalf("round %d: trace length differs", round)
		}
		for i := range a.Trace.Ops {
			// Ops hold their qubits inline, so one value comparison
			// covers every field including the operand list.
			if oa, ob := a.Trace.Ops[i], b.Trace.Ops[i]; oa != ob {
				t.Fatalf("round %d: trace op %d diverges: %+v vs %+v", round, i, oa, ob)
			}
		}
		// Vary the start placement so later rounds hit the warm cache
		// with different query streams.
		p = a.Final
	}
}

// TestRouteGraphMismatchRejected: a graph built for different
// technology or routing options must be refused, not silently used.
func TestRouteGraphMismatchRejected(t *testing.T) {
	f := fabric.Quale4585()
	g := graphOf(t, fig3)
	p := centerPlacement(f, g.NumQubits)

	cfg := qsprConfig(f)
	wrong := qsprConfig(f)
	wrong.Tech.ChannelCapacity = 1
	cfg.RouteGraph = wrong.BuildRouteGraph()
	if _, err := run(g, cfg, p); err == nil {
		t.Error("mismatched Tech accepted")
	}

	cfg = qsprConfig(f)
	blind := qsprConfig(f)
	blind.TurnAware = false
	cfg.RouteGraph = blind.BuildRouteGraph()
	if _, err := run(g, cfg, p); err == nil {
		t.Error("mismatched TurnAware accepted")
	}
}
