package experiment_test

import (
	"context"
	"fmt"
	"os"

	"repro/internal/circuits"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/fabric"
	"repro/internal/noise"
	"repro/internal/qasm"
)

// Execute fans a declarative sweep — circuits × heuristics × fabrics
// × seed counts — across a work-stealing worker pool and returns a
// report whose serialized bytes are identical for any worker count.
// Here the paper's Fig. 3 circuit is mapped by both the QUALE
// baseline and QSPR on the small test fabric.
func ExampleExecute() {
	prog, err := qasm.ParseString(circuits.Fig3QASM)
	if err != nil {
		panic(err)
	}
	spec := experiment.Spec{
		Circuits:   []circuits.Benchmark{{Name: "fig3", Program: prog, Source: "paper-fig3"}},
		Fabrics:    []experiment.FabricChoice{{Name: "small9x9", Fabric: fabric.Small()}},
		Heuristics: []core.Heuristic{core.QUALE, core.QSPR},
		SeedCounts: []int{3},
	}
	rep, err := experiment.Execute(context.Background(), spec, experiment.Options{Workers: 4})
	if err != nil {
		panic(err)
	}
	for _, rr := range rep.Results {
		fmt.Printf("%s %s: latency %dµs (ideal %dµs)\n",
			rr.Circuit.Name, rr.Heuristic, rr.Metrics.LatencyUS, rr.Metrics.IdealUS)
	}
	rep.WriteComparison(os.Stdout)
	// Output:
	// fig3 QUALE: latency 1066µs (ideal 610µs)
	// fig3 QSPR: latency 788µs (ideal 610µs)
	// circuit  fabric    m  baseline(µs)  QUALE(µs)  QSPR(µs)  improve%
	// fig3     small9x9  3  610           1066       788       26.1
}

// ScoreNoise is the error-analysis stage of the paper's Fig. 1 CAD
// flow: synthesis → mapping → error analysis, iterated. The
// synthesizer cannot know a circuit's error before mapping, because
// mapping sets the latency; so the flow maps the encoder of each
// candidate code, scores the mapped trace with the noise model, and
// goes back to synthesis while the failure estimate misses the
// target. The p_fail here is the number a noise-scored sweep report
// or a qsprd "noise" request carries for the same mapping. The same
// circuit mapped with QUALE misses the threshold QSPR meets: lower
// latency is lower error.
func ExampleMetrics_ScoreNoise() {
	fab := fabric.Quale4585()
	params := noise.DefaultParams()
	threshold := 0.0145
	// score is the map → analyze stage of the flow.
	score := func(b circuits.Benchmark, h core.Heuristic) (*core.Result, float64) {
		res, err := core.Map(b.Program, fab, core.Options{Heuristic: h, Seeds: 10})
		if err != nil {
			panic(err)
		}
		m := experiment.MetricsFrom(res)
		if err := m.ScoreNoise(res, b.Program.NumQubits(), params); err != nil {
			panic(err)
		}
		return res, *m.PFail
	}

	fmt.Printf("target failure threshold: %.4f\n\n", threshold)
	fmt.Println("iterating the Fig. 1 flow over candidate codes:")
	var chosen circuits.Benchmark
	for _, name := range []string{"[[5,1,3]]", "[[7,1,3]]", "[[9,1,3]]", "[[23,1,7]]"} {
		b, err := circuits.ByName(name)
		if err != nil {
			panic(err)
		}
		res, pf := score(b, core.QSPR)
		verdict := "REJECT (re-synthesize)"
		if pf <= threshold {
			verdict = "ACCEPT"
		}
		fmt.Printf("  %-12s latency %6v  error %.5f  -> %s\n", name, res.Latency, pf, verdict)
		if pf <= threshold && chosen.Name == "" {
			chosen = b
		}
	}
	fmt.Printf("\nselected code: %s\n\n", chosen.Name)

	for _, h := range []core.Heuristic{core.QSPR, core.QUALE} {
		res, pf := score(chosen, h)
		meets := "meets threshold"
		if pf > threshold {
			meets = "VIOLATES threshold"
		}
		fmt.Printf("  %-6s latency %6v  error %.5f  (%s)\n", h, res.Latency, pf, meets)
	}
	// Output:
	// target failure threshold: 0.0145
	//
	// iterating the Fig. 1 flow over candidate codes:
	//   [[5,1,3]]    latency  764µs  error 0.01341  -> ACCEPT
	//   [[7,1,3]]    latency  766µs  error 0.01867  -> REJECT (re-synthesize)
	//   [[9,1,3]]    latency  788µs  error 0.02125  -> REJECT (re-synthesize)
	//   [[23,1,7]]   latency 2932µs  error 0.16441  -> REJECT (re-synthesize)
	//
	// selected code: [[5,1,3]]
	//
	//   QSPR   latency  764µs  error 0.01341  (meets threshold)
	//   QUALE  latency 1028µs  error 0.01629  (VIOLATES threshold)
}
