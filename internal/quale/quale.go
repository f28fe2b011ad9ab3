// Package quale re-implements the QUALE mapper (Balensiefer,
// Kreger-Stickles, Oskin — refs [1][2] of the QSPR paper) as the
// comparison baseline of Table 2.
//
// QUALE, per the paper's §I survey, differs from QSPR in four ways:
//
//  1. Scheduling: instructions are extracted from the QIDG backward,
//     as late as possible (ALAP), instead of QSPR's combined
//     dependents/longest-path priority.
//  2. Placement: deterministic center placement — qubits sit in the
//     free traps closest to the fabric center, ignoring the QIDG
//     structure (no MVFB search).
//  3. Routing: a PathFinder-style congestion-negotiated router over
//     the plain fabric graph of Fig. 5.b, which is blind to turn
//     delays; only one operand moves (toward the other's trap).
//  4. Technology: no ion multiplexing — channel capacity 1.
//
// The congestion negotiation of PathFinder (rip-up and re-route with
// history costs) is approximated by the same present-congestion
// weighting of Eq. 2 that QSPR uses; with channel capacity 1 the
// weight degenerates to "free or infinite", which matches
// PathFinder's feasibility-driven behaviour on this fabric. This
// substitution is recorded in DESIGN.md.
//
// Entry point: Map runs the whole QUALE flow (ALAP scheduling,
// center placement, capacity-1 turn-blind routing) on a dependency
// graph and fabric, returning the engine.Result that core.Map
// surfaces for the QUALE heuristic.
package quale

import (
	"repro/internal/engine"
	"repro/internal/fabric"
	"repro/internal/gates"
	"repro/internal/place"
	"repro/internal/qidg"
	"repro/internal/sched"
)

// Config returns the engine configuration reproducing QUALE's mapper
// on the given fabric.
func Config(f *fabric.Fabric) engine.Config {
	tech := gates.Default()
	tech.ChannelCapacity = 1 // pre-multiplexing ion traps
	tech.JunctionCapacity = 1
	return engine.Config{
		Fabric:       f,
		Tech:         tech,
		Policy:       sched.QUALEALAP,
		TurnAware:    false,
		BothMove:     false,
		MedianTarget: false,
	}
}

// Map schedules, places and routes the program with the QUALE flow:
// center placement plus one captured mapping run (place.CenterRun).
// It runs on a fresh Sim: a caller's warm QSPR Sim would have to
// rebuild its route graph for QUALE's capacity-1 technology and again
// for the next QSPR run.
func Map(g *qidg.Graph, f *fabric.Fabric) (*engine.Result, error) {
	return place.CenterRun(g, Config(f), engine.NewSim())
}
