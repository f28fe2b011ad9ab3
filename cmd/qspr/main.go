// Command qspr maps a QASM program onto an ion-trap circuit fabric
// and reports the execution latency, reproducing the QSPR tool of
// Dousti & Pedram (DATE 2012).
//
// Usage:
//
//	qspr -circuit '[[5,1,3]]'                 # built-in benchmark
//	qspr -qasm prog.qasm -heuristic quale     # map a file with QUALE
//	qspr -qasm prog.qasm -fabric fab.txt -m 100 -trace
//	qspr -circuit 'rand(q=20,g=400,seed=7)'   # generator-backed family
//	qspr -circuit '[[7,1,3]]' -inner-parallel 8     # parallel MVFB, same result
//	qspr -circuit '[[9,1,3]]' -heuristic portfolio  # race MVFB vs MC vs Center
//	qspr -circuit all -parallel 8 -format csv -out runs.csv
//
// Without -fabric the 45×85 fabric of Fig. 4 is used. -qasm accepts
// both the paper's QUALE-style dialect and OpenQASM 2.0
// (auto-detected). -circuit also accepts generator families
// (-list shows them), a comma-separated list of sources, or 'all';
// multiple circuits are swept concurrently by internal/experiment and
// reported with -format/-out. Reports and single-run results are
// byte-identical for any -parallel / -inner-parallel values
// (docs/CONCURRENCY.md).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"repro/internal/circuits"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/gates"
	"repro/internal/noise"
	"repro/internal/qasm"
	"repro/internal/routegraph"
	"repro/internal/serve"
	"repro/internal/viz"
)

// main is the only os.Exit in this command: run returns instead of
// exiting so deferred flushes/closes of -out and -json writers always
// execute (bare os.Exit would skip them and truncate the files).
func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("qspr", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		qasmPath  = fs.String("qasm", "", "QASM program file to map (QUALE dialect or OpenQASM 2.0)")
		circuitN  = fs.String("circuit", "", "circuit source: built-in name, generator family, or a comma-separated list (see -list)")
		list      = fs.Bool("list", false, "list built-in benchmark circuits and generator families, then exit")
		fabPath   = fs.String("fabric", "", "fabric description file (default: the 45x85 Fig. 4 fabric)")
		heuristic = fs.String("heuristic", "qspr", "mapping heuristic: "+strings.Join(experiment.HeuristicNames(), ", "))
		backend   = fs.String("backend", "ion", "mapping backend: "+strings.Join(core.BackendNames(), ", ")+"; a sweep also accepts a comma-separated list or 'all'")
		noiseSpec = fs.String("noise", "", "score mappings with the noise model and report p_fail: 'default' or comma-separated overrides (1q=, 2q=, move=, turn=, decay=)")
		pareto    = fs.Bool("pareto", false, "report only the per-circuit×fabric Pareto front over (latency, p_fail); needs a sweep with -noise")
		m         = fs.Int("m", 25, "random seeds for the MVFB placer / runs for the MC placer")
		seed      = fs.Int64("seed", 1, "random seed")
		annMoves  = fs.Int("anneal-moves", 0, "annealing placer: proposed moves per restart chain (0 = 400); >0 also enters the annealer in -heuristic portfolio")
		annRest   = fs.Int("anneal-restarts", 0, "annealing placer: independent restart chains (0 = 4)")
		annCool   = fs.Float64("anneal-cooling", 0, "annealing placer: per-move temperature multiplier in (0,1) (0 = 0.97)")
		showTrace = fs.Bool("trace", false, "print the micro-command trace")
		showStats = fs.Bool("stats", true, "print mapping statistics")
		gantt     = fs.Bool("gantt", false, "print a per-qubit timeline of the trace")
		heatmap   = fs.Bool("heatmap", false, "print a channel-utilization heatmap of the fabric")
		jsonOut   = fs.String("json", "", "write the micro-command trace as JSON to this file ('-' = stdout)")
		report    = fs.String("report", "", "write the deterministic mapping report (the qsprd /map response bytes) to this file; '-' writes it to stdout instead of the human-readable output")
		parallel  = fs.Int("parallel", 0, "CPU budget for a multi-circuit sweep (0 = all CPU cores); shared with -inner-parallel")
		innerPar  = fs.Int("inner-parallel", 0, "workers within one mapping (MVFB starts / MC trials / portfolio placers); results are byte-identical for any value")
		format    = fs.String("format", "markdown", "sweep report format: json, csv, markdown")
		out       = fs.String("out", "", "write the sweep report to this file instead of stdout")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *list {
		for _, b := range circuits.All() {
			fmt.Fprintf(stdout, "%-12s %2d qubits, %3d gates (%s)\n",
				b.Name, b.Program.NumQubits(), len(b.Program.Gates()), b.Source)
		}
		fmt.Fprintln(stdout, "\ngenerator families (usable anywhere a circuit name is):")
		for _, f := range circuits.Families() {
			fmt.Fprintf(stdout, "  %s\n", f)
		}
		return 0
	}
	fail := func(err error) int {
		fmt.Fprintln(stderr, "qspr:", err)
		return 1
	}
	setFlags := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { setFlags[f.Name] = true })
	h, err := experiment.ParseHeuristic(*heuristic)
	if err != nil {
		return fail(err)
	}
	fc, err := experiment.LoadFabric(*fabPath)
	if err != nil {
		return fail(err)
	}
	fab := fc.Fabric
	var np *noise.Params
	if *noiseSpec != "" {
		p, err := noise.Parse(*noiseSpec)
		if err != nil {
			return fail(err)
		}
		np = &p
	}
	benches, isSweep, err := sweepCircuits(*qasmPath, *circuitN)
	if err != nil {
		return fail(err)
	}
	if isSweep {
		// Single-run inspection flags have no meaning for a sweep;
		// reject them rather than silently drop the requested output.
		for _, name := range []string{"trace", "gantt", "heatmap", "json", "report"} {
			if setFlags[name] {
				return fail(fmt.Errorf("-%s applies to a single run, not a multi-circuit sweep", name))
			}
		}
		if err := experiment.ValidateFormat(*format); err != nil {
			return fail(err)
		}
		backends, err := experiment.ParseBackends(*backend)
		if err != nil {
			return fail(err)
		}
		if *pareto && np == nil {
			return fail(fmt.Errorf("-pareto needs a noise-scored sweep: add -noise (e.g. -noise default)"))
		}
		return runSweep(stdout, stderr, fail, benches, fc, h, backends, np, *pareto, *m, *seed, *parallel, *innerPar, *format, *out,
			*annMoves, *annRest, *annCool)
	}
	// Conversely, the sweep report flags are never consulted on the
	// single-run path.
	for _, name := range []string{"format", "out", "pareto"} {
		if setFlags[name] {
			return fail(fmt.Errorf("-%s applies to a multi-circuit sweep (-circuit all or a comma-separated list)", name))
		}
	}
	be, err := core.CanonicalBackend(*backend)
	if err != nil {
		return fail(err)
	}
	prog, circuit, err := loadProgram(*qasmPath, *circuitN)
	if err != nil {
		return fail(err)
	}
	// On a single run -parallel doubles as the inner worker count (it
	// was this command's only parallelism knob before -inner-parallel
	// existed); either way the result is bit-identical to sequential.
	inner := *innerPar
	if inner == 0 {
		inner = *parallel
	}
	opts := core.Options{
		Heuristic: h, Seeds: *m, Seed: *seed, InnerParallel: inner,
		AnnealMoves: *annMoves, AnnealRestarts: *annRest, AnnealCooling: *annCool,
		Backend: be,
	}
	res, err := core.Map(prog, fab, opts)
	if err != nil {
		return fail(err)
	}
	if *report != "" {
		// The deterministic report: byte-identical to the qsprd /map
		// response for the same circuit × fabric × options. With
		// '-report -' it IS the output — the human-readable lines
		// below (which include wall-clock runtime) are suppressed so
		// stdout can be diffed against the service.
		if err := writeReport(res, circuit, fc.Name, opts, *showTrace, *report, stdout, np); err != nil {
			return fail(err)
		}
		if *report == "-" {
			return 0
		}
	}
	fmt.Fprintf(stdout, "heuristic:        %s\n", res.Heuristic)
	fmt.Fprintf(stdout, "backend:          %s\n", core.BackendDisplayName(be))
	fmt.Fprintf(stdout, "fabric:           %s\n", fab.Stats())
	fmt.Fprintf(stdout, "circuit:          %d qubits, %d gates\n", prog.NumQubits(), len(prog.Gates()))
	fmt.Fprintf(stdout, "ideal baseline:   %v\n", res.Ideal)
	fmt.Fprintf(stdout, "execution latency:%v\n", res.Latency)
	fmt.Fprintf(stdout, "overhead:         %v (T_routing + T_congestion)\n", res.Overhead())
	fmt.Fprintf(stdout, "placement runs:   %d\n", res.Runs)
	if np != nil {
		pf, err := noise.PFail(res.Mapping.Trace, prog.NumQubits(), *np)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "p_fail:           %g\n", pf)
	}
	if res.PortfolioWinner != "" {
		fmt.Fprintf(stdout, "portfolio winner: %s\n", res.PortfolioWinner)
	}
	fmt.Fprintf(stdout, "cpu runtime:      %v\n", res.Runtime)
	if *showStats {
		s := res.Mapping.Stats
		fmt.Fprintf(stdout, "moves/turns:      %d / %d\n", s.Moves, s.Turns)
		fmt.Fprintf(stdout, "qubit trips:      %d (blocked issues: %d)\n", s.RoutedQubitTrips, s.Blocked)
		fmt.Fprintf(stdout, "delay split:      gate %v, routing %v, congestion-wait %v\n",
			s.GateDelay, s.RoutingDelay, s.CongestionDelay)
	}
	if *gantt {
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, viz.Gantt(res.Mapping.Trace, prog.NumQubits(), 100))
	}
	if *heatmap {
		rg := routegraph.New(fab, gates.Default(), routegraph.Options{TurnAware: true})
		fmt.Fprintln(stdout)
		fmt.Fprint(stdout, viz.Heatmap(res.Mapping.Trace, rg))
		fmt.Fprintln(stdout, "busiest channels:")
		for _, tc := range viz.TopChannels(res.Mapping.Trace, rg, 5) {
			ch := fab.Channels[tc.Channel]
			fmt.Fprintf(stdout, "  channel %d (%s at %v): %v\n", tc.Channel, ch.Orientation, ch.Cells[0], tc.Time)
		}
	}
	if *showTrace {
		fmt.Fprint(stdout, res.Mapping.Trace.String())
	}
	if *jsonOut != "" {
		if err := writeTraceJSON(res, *jsonOut, stdout); err != nil {
			return fail(err)
		}
	}
	return 0
}

// writeTraceJSON writes the trace to path ('-' = stdout), flushing
// and closing on every path — including write errors — so a failure
// can never truncate the file silently.
func writeTraceJSON(res *core.Result, path string, stdout io.Writer) error {
	if path == "-" {
		return res.Mapping.Trace.WriteJSON(stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := res.Mapping.Trace.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// loadProgram resolves the single-run program plus its canonical
// report name: the registry's canonical spec for -circuit, the
// content-addressed inline name for -qasm — the same identity the
// qsprd service derives, so CLI and served reports agree on the
// circuit field (and on cache keys) for identical inputs.
func loadProgram(path, name string) (*qasm.Program, string, error) {
	switch {
	case path != "" && name != "":
		return nil, "", fmt.Errorf("use either -qasm or -circuit, not both")
	case path != "":
		src, err := os.ReadFile(path)
		if err != nil {
			return nil, "", err
		}
		prog, err := qasm.ParseString(string(src))
		if err != nil {
			return nil, "", fmt.Errorf("%s: %w", path, err)
		}
		return prog, serve.InlineName(src), nil
	case name != "":
		b, err := circuits.Resolve(name)
		if err != nil {
			return nil, "", err
		}
		return b.Program, b.Name, nil
	default:
		return nil, "", fmt.Errorf("one of -qasm or -circuit is required (try -list)")
	}
}

// writeReport renders the deterministic serve.Report to path ('-' =
// stdout), mirroring writeTraceJSON's no-silent-truncation rules.
func writeReport(res *core.Result, circuit, fabricName string, opts core.Options, withTrace bool, path string, stdout io.Writer, np *noise.Params) error {
	rep, err := serve.NewReport(circuit, fabricName, opts, res, withTrace, np)
	if err != nil {
		return err
	}
	if path == "-" {
		return rep.Encode(stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rep.Encode(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// sweepCircuits reports whether -circuit names more than one
// benchmark ("all" or a comma-separated list) and resolves them.
// Commas inside brackets or parentheses are part of a single source
// spec like "[[5,1,3]]" or "rand(q=8,g=40)", so a lone spec is not a
// sweep.
func sweepCircuits(qasmPath, name string) ([]circuits.Benchmark, bool, error) {
	if qasmPath != "" || name == "" {
		return nil, false, nil
	}
	if !strings.EqualFold(strings.TrimSpace(name), "all") {
		parts, err := experiment.SplitCircuitList(name)
		if err != nil {
			return nil, false, err
		}
		if len(parts) < 2 {
			return nil, false, nil
		}
	}
	benches, err := experiment.SelectCircuits(name)
	return benches, true, err
}

// runSweep maps every named benchmark concurrently via
// internal/experiment and writes the deterministic report. fail is
// run's error reporter (one definition of the exit protocol).
func runSweep(stdout, stderr io.Writer, fail func(error) int, benches []circuits.Benchmark, fc experiment.FabricChoice, h core.Heuristic, backends []string, np *noise.Params, pareto bool, m int, seed int64, workers, inner int, format, out string, annMoves, annRestarts int, annCooling float64) int {
	rep, err := experiment.Execute(context.Background(), experiment.Spec{
		Circuits:       benches,
		Fabrics:        []experiment.FabricChoice{fc},
		Heuristics:     []core.Heuristic{h},
		Backends:       backends,
		Noise:          np,
		SeedCounts:     []int{m},
		Seed:           seed,
		InnerParallel:  inner,
		AnnealMoves:    annMoves,
		AnnealRestarts: annRestarts,
		AnnealCooling:  annCooling,
	}, experiment.Options{Workers: workers})
	if err != nil {
		return fail(err)
	}
	if err := rep.Emit(stdout, format, out, pareto); err != nil {
		return fail(err)
	}
	code := 0
	for _, rr := range rep.Results {
		if rr.Err != "" {
			fmt.Fprintf(stderr, "qspr: %s × %s m=%d failed: %s\n",
				rr.Circuit.Name, rr.Heuristic, rr.Seeds, rr.Err)
			code = 1
		}
	}
	return code
}
