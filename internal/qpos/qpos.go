// Package qpos re-implements the QPOS mapper (Metodi, Thaker, Cross,
// Chong, Chuang — ref [4] of the QSPR paper) and its ref [5] tweak as
// additional related-work baselines.
//
// Per the paper's §I survey, QPOS:
//
//   - extracts instructions from the QIDG as soon as possible (ASAP)
//     driven by a priority function whose initial value is the number
//     of instructions that depend on the candidate;
//   - distinguishes source and destination operands of a two-qubit
//     instruction: the destination qubit stays fixed in its trap
//     while the source qubit moves to it;
//   - resolves path overlaps by priority, congestion and path length
//     (approximated here by the Eq. 2 congestion weighting plus the
//     busy queue), and prevents deadlock (our staggered dispatch and
//     full-journey reservations make qubit blocking impossible by
//     construction).
//
// Reference [5] (Whitney, Isailovic, Patel, Kubiatowicz) tweaks the
// initial priority to the total delay of dependent instructions; use
// VariantDelay for that flavour.
//
// Entry point: Map runs the flow on a dependency graph and fabric
// under a Variant (VariantDependents for ref [4], VariantDelay for
// ref [5]), returning the engine.Result that core.Map surfaces for
// the QPOS and QPOS-delay heuristics.
package qpos

import (
	"repro/internal/engine"
	"repro/internal/fabric"
	"repro/internal/gates"
	"repro/internal/place"
	"repro/internal/qidg"
	"repro/internal/sched"
)

// Variant selects the priority flavour.
type Variant uint8

// QPOS priority variants.
const (
	// VariantDependents is QPOS's original initial priority: the
	// number of instructions that depend on the candidate (ref [4]).
	VariantDependents Variant = iota
	// VariantDelay is the ref [5] tweak: the total delay of
	// dependent instructions.
	VariantDelay
)

// Config returns the engine configuration reproducing QPOS on the
// given fabric.
func Config(f *fabric.Fabric, v Variant) engine.Config {
	tech := gates.Default()
	tech.ChannelCapacity = 1 // same technology generation as QUALE
	tech.JunctionCapacity = 1
	policy := sched.QPOSDependents
	if v == VariantDelay {
		policy = sched.QPOSDelay
	}
	return engine.Config{
		Fabric:       f,
		Tech:         tech,
		Policy:       policy,
		TurnAware:    false,
		BothMove:     false,
		MedianTarget: false,
	}
}

// Map schedules, places and routes the program with the QPOS flow:
// center placement plus one captured mapping run (place.CenterRun),
// on a fresh Sim for the same reason as quale.Map: its capacity-1
// technology would make a caller's warm QSPR Sim rebuild its route
// graph twice.
func Map(g *qidg.Graph, f *fabric.Fabric, v Variant) (*engine.Result, error) {
	return place.CenterRun(g, Config(f, v), engine.NewSim())
}
