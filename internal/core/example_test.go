package core_test

import (
	"fmt"

	"repro/internal/circuits"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/qasm"
)

// Map places and routes a QASM program on a fabric. Here the paper's
// Fig. 3 circuit, the [[5,1,3]] encoder, goes onto the 45×85 fabric of
// Fig. 4 with QSPR and then with the QUALE baseline: Table 2 of the
// paper is exactly this comparison. Any program in this QASM dialect
// maps the same way (internal/qasm has the grammar).
func ExampleMap() {
	prog, err := qasm.ParseString(circuits.Fig3QASM)
	if err != nil {
		panic(err)
	}
	fab := fabric.Quale4585()

	res, err := core.Map(prog, fab, core.Options{
		Heuristic: core.QSPR,
		Seeds:     25, // m random starts for the MVFB placer
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("circuit:           [[5,1,3]] encoder, %d qubits, %d gates\n",
		prog.NumQubits(), len(prog.Gates()))
	fmt.Printf("ideal baseline:    %v (gate-delay critical path)\n", res.Ideal)
	fmt.Printf("mapped latency:    %v after %d placement runs\n", res.Latency, res.Runs)
	fmt.Printf("routing overhead:  %v (T_routing + T_congestion)\n", res.Overhead())
	fmt.Printf("micro-commands:    %d ops, %d moves / %d turns\n",
		len(res.Mapping.Trace.Ops), res.Mapping.Stats.Moves, res.Mapping.Stats.Turns)

	quale, err := core.Map(prog, fab, core.Options{Heuristic: core.QUALE})
	if err != nil {
		panic(err)
	}
	imp := 100 * float64(quale.Latency-res.Latency) / float64(quale.Latency)
	fmt.Printf("QUALE latency:     %v  (QSPR improves %.1f%%)\n", quale.Latency, imp)
	// Output:
	// circuit:           [[5,1,3]] encoder, 5 qubits, 12 gates
	// ideal baseline:    610µs (gate-delay critical path)
	// mapped latency:    764µs after 79 placement runs
	// routing overhead:  154µs (T_routing + T_congestion)
	// micro-commands:    44 ops, 48 moves / 16 turns
	// QUALE latency:     1028µs  (QSPR improves 25.7%)
}
