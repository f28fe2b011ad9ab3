package main

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fabric"
	"repro/internal/gates"
	"repro/internal/sched"
)

// pin is a mapping output fixed at the commit that defined this
// benchmark: the mapped latency and the realized placement-run count.
type pin struct {
	circuit string
	latency gates.Time
	runs    int
}

// table2Pins are the Table-2 encoders on quale45x85 under QSPR/MVFB
// m=25, seed 1, patience 3, in the paper's table order.
var table2Pins = []pin{
	{"[[5,1,3]]", 764, 79},
	{"[[7,1,3]]", 766, 80},
	{"[[9,1,3]]", 716, 88},
	{"[[14,8,3]]", 2798, 81},
	{"[[19,1,7]]", 7972, 88},
	{"[[23,1,7]]", 2932, 80},
}

// giantPin is [[23,1,7]] under QSPR-center on the 99,458-trap grid.
var giantPin = pin{"[[23,1,7]]", 3221, 1}

// table2Options is the paper's protocol on one warm, sequential Mapper.
var table2Options = core.Options{Heuristic: core.QSPR, Seeds: 25, Seed: 1, Patience: 3, InnerParallel: 1}

// checkPin compares a result with its pinned latency and run count.
func checkPin(res *core.Result, p pin) error {
	if res.Latency != p.latency || res.Runs != p.runs {
		return fmt.Errorf("%s: latency %v runs %d, pinned %v runs %d", p.circuit, res.Latency, res.Runs, p.latency, p.runs)
	}
	return nil
}

// checkMapping runs the checks that need no pinned value: the trace is
// present and valid, the latency equals the end of the last trace op,
// and it is no lower than the circuit's ideal (gate-delay critical
// path) latency.
func checkMapping(name string, res *core.Result, ideal gates.Time) error {
	if res.Mapping == nil || res.Mapping.Trace == nil {
		return fmt.Errorf("%s: result carries no trace", name)
	}
	tr := res.Mapping.Trace
	if err := tr.Validate(); err != nil {
		return fmt.Errorf("%s: %w", name, err)
	}
	var last gates.Time
	for i := range tr.Ops {
		if tr.Ops[i].End > last {
			last = tr.Ops[i].End
		}
	}
	if res.Latency != last || tr.Latency != last {
		return fmt.Errorf("%s: latency %v, trace latency %v, last op ends at %v", name, res.Latency, tr.Latency, last)
	}
	if res.Latency < ideal {
		return fmt.Errorf("%s: latency %v below the ideal %v", name, res.Latency, ideal)
	}
	return nil
}

// qsprConfig is the engine configuration core uses for the QSPR tool
// (ion backend). The traced runs rebuild core.Mapper's flows from the
// layer calls with it; every rebuilt result is checked against the
// same pins as the untraced runs.
func qsprConfig(fab *fabric.Fabric) engine.Config {
	return engine.Config{
		Fabric:       fab,
		Tech:         gates.Default(),
		Policy:       sched.QSPR,
		Weights:      sched.DefaultWeights(),
		TurnAware:    true,
		BothMove:     true,
		MedianTarget: true,
	}
}
