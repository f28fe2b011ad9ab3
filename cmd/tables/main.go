// Command tables regenerates the experimental tables of the QSPR
// paper (DATE 2012) on this reproduction's substrate:
//
//	tables -table 2            # Table 2: Baseline vs QUALE vs QSPR
//	tables -table 1            # Table 1: MVFB vs Monte-Carlo placers
//	tables -table m            # §IV.A sensitivity sweep over m
//	tables -table ablation     # DESIGN.md §5 design-choice ablations
//	tables -table all
//
// Paper values are printed alongside for comparison. Use -m to
// change the placement-seed counts and -quick for a fast pass.
//
// Tables 2 and m are batch sweeps driven by internal/experiment: they
// fan out across all CPU cores (-parallel) and can emit the raw
// per-run report as JSON/CSV/markdown (-format, -out) with bytes
// independent of the worker count.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"text/tabwriter"

	"repro/internal/circuits"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/experiment"
	"repro/internal/fabric"
	"repro/internal/gates"
	"repro/internal/place"
	"repro/internal/qidg"
	"repro/internal/sched"
)

// paperTable2 holds the published Table 2 numbers (µs).
var paperTable2 = map[string][3]int{
	"[[5,1,3]]":  {510, 832, 634},
	"[[7,1,3]]":  {510, 798, 610},
	"[[9,1,3]]":  {910, 2216, 1159},
	"[[14,8,3]]": {2500, 7511, 3390},
	"[[19,1,7]]": {2510, 6838, 3393},
	"[[23,1,7]]": {1410, 3738, 2066},
}

// paperTable1MVFB holds published MVFB latencies for m=25 and m=100.
var paperTable1MVFB = map[string][2]int{
	"[[5,1,3]]":  {634, 634},
	"[[7,1,3]]":  {610, 603},
	"[[9,1,3]]":  {1159, 1138},
	"[[14,8,3]]": {3390, 3342},
	"[[19,1,7]]": {3393, 3350},
	"[[23,1,7]]": {2066, 2061},
}

// main is the only os.Exit in this command: run returns an exit code
// so that writers opened for -out are always flushed and closed even
// when a later table fails (a bare os.Exit would skip the deferred
// cleanup and truncate the report).
func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tables", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		table    = fs.String("table", "2", "which table to regenerate: 1, 2, m, ablation, all")
		mList    = fs.String("m", "25,100", "comma-separated seed counts for Table 1")
		seeds    = fs.Int("seeds", 100, "MVFB seeds (m) for QSPR in Table 2")
		quick    = fs.Bool("quick", false, "fast pass with small m")
		parallel = fs.Int("parallel", 0, "worker-pool size for the table 2 / m sweeps (0 = all CPU cores)")
		format   = fs.String("format", "table", "output format, only with -table 2 or m: table, json, csv, markdown")
		out      = fs.String("out", "", "write the report to this file instead of stdout (only with -table 2 or m)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if err := runTables(stdout, *table, *mList, *seeds, *quick, *parallel, *format, *out); err != nil {
		fmt.Fprintln(stderr, "tables:", err)
		return 1
	}
	return 0
}

func runTables(stdout io.Writer, table, mList string, seeds int, quick bool, parallel int, format, out string) error {
	if quick {
		mList = "5,10"
		seeds = 5
	}
	if format != "table" && format != "" {
		if err := experiment.ValidateFormat(format); err != nil {
			return err
		}
		// Raw reports are per-sweep; tables 1/ablation (and "all",
		// which would overwrite one report with the next) only render
		// the human tables.
		if table != "2" && table != "m" {
			return fmt.Errorf("-format %s requires -table 2 or -table m", format)
		}
	} else if out != "" {
		// The human "table" format always prints to stdout; reject
		// -out rather than silently never writing the file.
		return fmt.Errorf("-out requires -format json, csv or markdown")
	}
	ms, err := experiment.ParseSeedCounts(mList)
	if err != nil {
		return err
	}
	fab := fabric.Quale4585()
	switch table {
	case "1":
		return table1(stdout, fab, ms)
	case "2":
		return table2(stdout, fab, seeds, parallel, format, out)
	case "m":
		return mSweep(stdout, fab, parallel, format, out)
	case "ablation":
		return ablation(stdout, fab)
	case "all":
		if err := table2(stdout, fab, seeds, parallel, format, out); err != nil {
			return err
		}
		if err := table1(stdout, fab, ms); err != nil {
			return err
		}
		if err := mSweep(stdout, fab, parallel, format, out); err != nil {
			return err
		}
		return ablation(stdout, fab)
	default:
		return fmt.Errorf("unknown table %q", table)
	}
}

// sweep runs a spec through the experiment worker pool and aborts on
// any per-run failure (the paper tables need every cell).
func sweep(spec experiment.Spec, workers int) (*experiment.Report, error) {
	rep, err := experiment.Execute(context.Background(), spec, experiment.Options{Workers: workers})
	if err != nil {
		return nil, err
	}
	for _, rr := range rep.Results {
		if rr.Err != "" {
			return nil, fmt.Errorf("%s × %s m=%d: %s", rr.Circuit.Name, rr.Heuristic, rr.Seeds, rr.Err)
		}
	}
	return rep, nil
}

// emit writes the raw per-run report in the requested format, either
// to stdout or to -out. Returns false for the human "table" format,
// which the caller renders itself.
func emit(stdout io.Writer, rep *experiment.Report, format, out string) (bool, error) {
	if format == "table" || format == "" {
		return false, nil
	}
	return true, rep.Emit(stdout, format, out, false)
}

func table2(stdout io.Writer, fab *fabric.Fabric, seeds, workers int, format, out string) error {
	rep, err := sweep(experiment.Spec{
		Circuits:   circuits.All(),
		Fabrics:    []experiment.FabricChoice{{Name: "quale45x85", Fabric: fab}},
		Heuristics: []core.Heuristic{core.QUALE, core.QSPR},
		SeedCounts: []int{seeds},
	}, workers)
	if err != nil {
		return err
	}
	if done, err := emit(stdout, rep, format, out); done || err != nil {
		return err
	}
	fmt.Fprintf(stdout, "Table 2: execution latency of mapped QECC circuits (QSPR m=%d)\n", seeds)
	w := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "circuit\tbaseline\tQUALE\tQSPR\timprove%\tpaper-baseline\tpaper-QUALE\tpaper-QSPR\tpaper-improve%")
	for _, r := range rep.Comparison() {
		p := paperTable2[r.Circuit]
		pImp := 100 * float64(p[1]-p[2]) / float64(p[1])
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%.1f\t%d\t%d\t%d\t%.1f\n",
			r.Circuit, r.IdealUS, r.QualeUS, r.QsprUS, r.ImprovePct, p[0], p[1], p[2], pImp)
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(stdout)
	return nil
}

func table1(stdout io.Writer, fab *fabric.Fabric, ms []int) error {
	for mi, m := range ms {
		fmt.Fprintf(stdout, "Table 1 (m=%d): MVFB vs Monte-Carlo placer\n", m)
		w := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
		fmt.Fprintln(w, "circuit\tplacer\tlatency(µs)\truntime(ms)\truns\tpaper-latency(µs)")
		for _, b := range circuits.All() {
			mvfb, err := core.Map(b.Program, fab, core.Options{Heuristic: core.QSPR, Seeds: m})
			if err != nil {
				return err
			}
			// Table 1 protocol: the MC placer gets exactly twice the
			// number of MVFB *iterations* (forward+backward pairs),
			// i.e. the same number of placement runs MVFB performed,
			// which is why the paper reports near-equal CPU runtimes.
			mc, err := core.MonteCarloRuns(b.Program, fab, mvfb.Runs, 1, nil)
			if err != nil {
				return err
			}
			paper := ""
			if mi < 2 {
				paper = strconv.Itoa(paperTable1MVFB[b.Name][mi])
			}
			fmt.Fprintf(w, "%s\tMVFB\t%d\t%d\t%d\t%s\n",
				b.Name, mvfb.Latency, mvfb.Runtime.Milliseconds(), mvfb.Runs, paper)
			fmt.Fprintf(w, "\tMC\t%d\t%d\t%d\t\n",
				mc.Latency, mc.Runtime.Milliseconds(), mc.Runs)
		}
		if err := w.Flush(); err != nil {
			return err
		}
		fmt.Fprintln(stdout)
	}
	return nil
}

func mSweep(stdout io.Writer, fab *fabric.Fabric, workers int, format, out string) error {
	b, err := circuits.ByName("[[9,1,3]]")
	if err != nil {
		return err
	}
	rep, err := sweep(experiment.Spec{
		Circuits:   []circuits.Benchmark{b},
		Fabrics:    []experiment.FabricChoice{{Name: "quale45x85", Fabric: fab}},
		Heuristics: []core.Heuristic{core.QSPR},
		SeedCounts: []int{1, 5, 10, 25, 50, 100},
	}, workers)
	if err != nil {
		return err
	}
	if done, err := emit(stdout, rep, format, out); done || err != nil {
		return err
	}
	fmt.Fprintln(stdout, "Sensitivity to m (§IV.A): MVFB best latency on [[9,1,3]]")
	w := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "m\tlatency(µs)\truns\twall(ms)")
	for _, rr := range rep.Results {
		fmt.Fprintf(w, "%d\t%d\t%d\t%d\n",
			rr.Seeds, rr.Metrics.LatencyUS, rr.Metrics.PlacementRuns, rr.Wall.Milliseconds())
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if workers != 1 {
		fmt.Fprintln(stdout, "(wall time per run is measured under concurrent execution; use -parallel 1 for the paper's uncontended CPU-runtime scaling)")
	}
	fmt.Fprintln(stdout)
	return nil
}

// ablation measures each QSPR design choice in isolation on two
// circuits (see DESIGN.md §5).
func ablation(stdout io.Writer, fab *fabric.Fabric) error {
	fmt.Fprintln(stdout, "Ablations: QSPR with single design choices reverted (MVFB m=10)")
	configs := []struct {
		name string
		mod  func(*engine.Config)
	}{
		{"full QSPR", func(*engine.Config) {}},
		{"turn-blind router", func(c *engine.Config) { c.TurnAware = false }},
		{"channel capacity 1", func(c *engine.Config) { c.Tech.ChannelCapacity = 1 }},
		{"single moving operand", func(c *engine.Config) { c.BothMove = false; c.MedianTarget = false }},
		{"destination-trap target", func(c *engine.Config) { c.MedianTarget = false }},
		{"priority: dependents only", func(c *engine.Config) { c.Weights = sched.Weights{Dependents: 1} }},
		{"priority: path delay only", func(c *engine.Config) { c.Weights = sched.Weights{PathDelay: 1} }},
	}
	w := tabwriter.NewWriter(stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "variant\t[[9,1,3]](µs)\t[[23,1,7]](µs)")
	for _, cfgDesc := range configs {
		var cells []string
		for _, name := range []string{"[[9,1,3]]", "[[23,1,7]]"} {
			b, err := circuits.ByName(name)
			if err != nil {
				return err
			}
			g, err := qidg.Build(b.Program)
			if err != nil {
				return err
			}
			cfg := engine.Config{
				Fabric: fab, Tech: gates.Default(),
				Policy: sched.QSPR, Weights: sched.DefaultWeights(),
				TurnAware: true, BothMove: true, MedianTarget: true,
			}
			cfgDesc.mod(&cfg)
			sol, err := place.MVFB(g, cfg, place.DefaultMVFBOptions(10))
			if err != nil {
				return err
			}
			cells = append(cells, strconv.FormatInt(int64(sol.Result.Latency), 10))
		}
		fmt.Fprintf(w, "%s\t%s\t%s\n", cfgDesc.name, cells[0], cells[1])
	}
	if err := w.Flush(); err != nil {
		return err
	}
	fmt.Fprintln(stdout)
	return nil
}
