// Command qsprbench sweeps the QSPR-vs-QUALE comparison (or any
// heuristic mix) over benchmark circuits, fabrics and knob settings
// in parallel, and emits a deterministic report.
//
//	qsprbench                                  # paper headline: all circuits, QUALE vs QSPR
//	qsprbench -m 100 -format markdown          # Table 2 protocol, markdown output
//	qsprbench -circuits '[[5,1,3]],[[9,1,3]]' -heuristics all -m 5,25
//	qsprbench -circuits 'rand(q=20,g=400,seed=7),ghz(q=16)'   # generator families
//	qsprbench -parallel 8 -format csv -out results.csv
//	qsprbench -parallel 8 -inner-parallel 4 -m 100    # 2 runs × 4 MVFB workers
//	qsprbench -fabric fab.txt -compare=false -format json
//	qsprbench -shard 0/4 -checkpoint s0.jsonl  # one of four shard processes
//	qsprbench -merge 's0.jsonl,s1.jsonl,s2.jsonl,s3.jsonl' -format csv
//	qsprbench -coordinate :9650 -checkpoint-dir sweep/   # hand out dynamic shards
//	qsprbench -worker coord-host:9650                    # execute leases from there
//
// A sweep can be split across processes or machines with -shard i/n
// and checkpointed per-run with -checkpoint (JSONL; re-running the
// same invocation resumes, mapping only what is missing). -merge
// combines shard checkpoints into one report whose bytes are
// identical to a single unsharded run.
//
// -coordinate replaces static shards with dynamic ones: the
// coordinator listens on TCP, leases small run-index chunks to
// -worker processes (which need no spec flags — the spec travels over
// the wire and is fingerprint-checked), streams their records into
// <checkpoint-dir>/coord.jsonl, reassigns the leases of workers that
// die or go silent past -lease-ttl, and splits straggler tails for
// idle workers. The final report is byte-identical to the unsharded
// run (see docs/ARCHITECTURE.md, "Distributed sweeps").
//
// The emitted JSON/CSV/markdown bytes are identical for any -parallel
// and -inner-parallel values: each run is mapped by a seeded,
// deterministically-parallel core.Map call, results are aggregated in
// declaration order, and wall-clock time is excluded from the report.
// -parallel is the sweep's CPU budget; when -inner-parallel asks for
// workers inside each mapping the across-run pool shrinks so the two
// levels never oversubscribe it (see docs/CONCURRENCY.md).
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/coord"
	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/noise"
)

// main owns the process: Ctrl-C cancels run's context, which stops a
// sweep, coordinator or worker between runs with completed runs still
// reported.
func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	code := run(ctx, os.Args[1:], os.Stdout, os.Stderr)
	stop()
	os.Exit(code)
}

// run is main with an exit code: keeping the profile-flushing defers
// on a normal return path (os.Exit would skip them and truncate the
// CPU profile). The named result lets the deferred heap-profile
// writer flip a successful sweep to a failing exit.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("qsprbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		circuitsF  = fs.String("circuits", "all", "comma-separated circuit sources (built-in names, generator families like 'rand(q=20,g=400,seed=7)', 'qasm(path=f.qasm)'), or 'all'")
		heuristics = fs.String("heuristics", "quale,qspr", "comma-separated heuristics ("+strings.Join(experiment.HeuristicNames(), ", ")+") or 'all'")
		backendsF  = fs.String("backend", "ion", "comma-separated mapping backends ("+strings.Join(core.BackendNames(), ", ")+") or 'all'")
		noiseSpec  = fs.String("noise", "", "score every run with the noise model and report p_fail: 'default' or comma-separated overrides (1q=, 2q=, move=, turn=, decay=)")
		paretoF    = fs.Bool("pareto", false, "report only the per-circuit×fabric Pareto front over (latency, p_fail); needs -noise, or noise-scored checkpoints with -merge")
		mList      = fs.String("m", "25", "comma-separated MVFB seed counts to sweep")
		seed       = fs.Int64("seed", 1, "random seed")
		annMoves   = fs.Int("anneal-moves", 0, "annealing placer: proposed moves per restart chain (0 = 400); >0 also enters the annealer in portfolio runs")
		annRest    = fs.Int("anneal-restarts", 0, "annealing placer: independent restart chains (0 = 4)")
		annCool    = fs.Float64("anneal-cooling", 0, "annealing placer: per-move temperature multiplier in (0,1) (0 = 0.97)")
		fabPath    = fs.String("fabric", "", "fabric description file (default: the 45x85 Fig. 4 fabric)")
		parallel   = fs.Int("parallel", 0, "CPU budget for the sweep (0 = all CPU cores); shared between across-run workers and -inner-parallel; output is identical for any value")
		innerPar   = fs.Int("inner-parallel", 0, "workers within each mapping (MVFB starts / MC trials / portfolio placers); output is identical for any value")
		format     = fs.String("format", "markdown", "report format: json, csv, markdown")
		out        = fs.String("out", "", "write the report to this file instead of stdout")
		compare    = fs.Bool("compare", true, "also print the QSPR-vs-QUALE comparison table to stderr")
		progress   = fs.Bool("progress", false, "print per-run progress to stderr")
		cpuProfile = fs.String("cpuprofile", "", "write a CPU profile of the sweep to this file")
		memProfile = fs.String("memprofile", "", "write a heap profile (after the sweep) to this file")
		shardF     = fs.String("shard", "", "run only shard i of n ('i/n') of the expanded sweep; merge the shards with -merge")
		checkpoint = fs.String("checkpoint", "", "append completed runs to this JSONL file and resume from it (failed runs are retried)")
		merge      = fs.String("merge", "", "merge comma-separated checkpoint JSONL files into one report and exit (no mapping)")
		coordinate = fs.String("coordinate", "", "coordinate a distributed sweep: listen on this host:port and lease dynamic shards to -worker processes")
		workerAddr = fs.String("worker", "", "run as a worker for the coordinator at this host:port (the sweep spec comes from the coordinator)")
		chunkSize  = fs.Int("chunk", 0, "runs per dynamic shard lease (with -coordinate; default 16)")
		leaseTTL   = fs.Duration("lease-ttl", 0, "worker silence tolerated before its leases are reassigned (with -coordinate; default 10s)")
		ckptDir    = fs.String("checkpoint-dir", "", "coordinator checkpoint directory: records append to <dir>/coord.jsonl and a restarted coordinator resumes from it (with -coordinate)")
		workerName = fs.String("worker-name", "", "name reported to the coordinator (with -worker; default <hostname>:<pid>)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	set := map[string]bool{}
	fs.Visit(func(f *flag.Flag) { set[f.Name] = true })
	c := &cli{stdout: stdout, stderr: stderr, format: *format, out: *out, compare: *compare, pareto: *paretoF}

	if *coordinate != "" && *workerAddr != "" {
		return c.fail(fmt.Errorf("-coordinate and -worker are different processes: pick one"))
	}
	if *coordinate != "" {
		// The coordinator never maps runs itself, so the single-process
		// execution flags would be silently dead weight next to it.
		if conflict := setAmong(set, true, "shard", "checkpoint", "merge", "parallel", "worker-name", "cpuprofile", "memprofile"); conflict != "" {
			return c.fail(fmt.Errorf("-coordinate hands runs to -worker processes and conflicts with %s", conflict))
		}
		desc := coord.SpecDesc{
			Circuits: *circuitsF, Heuristics: *heuristics, M: *mList,
			Seed: *seed, Fabric: *fabPath, InnerParallel: *innerPar,
			AnnealMoves: *annMoves, AnnealRestarts: *annRest, AnnealCooling: *annCool,
			Backends: *backendsF, Noise: *noiseSpec,
		}
		if *paretoF && *noiseSpec == "" {
			return c.fail(fmt.Errorf("-pareto needs a noise-scored sweep: add -noise (e.g. -noise default)"))
		}
		return c.coordinate(ctx, *coordinate, desc, *chunkSize, *leaseTTL, *ckptDir, *progress)
	}
	if *workerAddr != "" {
		// A worker takes its spec from the coordinator; spec flags here
		// would describe a sweep that is never consulted.
		if conflict := setAmong(set, true, "circuits", "heuristics", "backend", "noise", "pareto", "m", "seed", "fabric", "inner-parallel",
			"anneal-moves", "anneal-restarts", "anneal-cooling",
			"shard", "checkpoint", "merge", "format", "out", "compare", "chunk", "lease-ttl", "checkpoint-dir"); conflict != "" {
			return c.fail(fmt.Errorf("-worker receives the sweep spec from the coordinator and conflicts with %s", conflict))
		}
		return c.work(ctx, *workerAddr, *workerName, *parallel, *progress)
	}
	// The coordinator-family flags mean nothing on the single-process
	// paths; silently ignoring them would hide a typo'd deployment.
	if coordOnly := setAmong(set, true, "chunk", "lease-ttl", "checkpoint-dir", "worker-name"); coordOnly != "" {
		return c.fail(fmt.Errorf("%s require -coordinate or -worker", coordOnly))
	}

	if *merge != "" {
		// -merge only reads its checkpoint files: a sweep flag next to
		// it (-checkpoint especially, which looks like another input
		// file) would be silently ignored, so the mix is rejected.
		if conflict := setAmong(set, false, "merge", "format", "out", "compare", "pareto"); conflict != "" {
			return c.fail(fmt.Errorf("-merge reads only its checkpoint files and conflicts with %s", conflict))
		}
		if err := experiment.ValidateFormat(*format); err != nil {
			return c.fail(err)
		}
		rep, err := experiment.LoadCheckpoints(strings.Split(*merge, ",")...)
		if err != nil {
			return c.fail(err)
		}
		// Failed cells in the merged report flip the exit code, same
		// as on the sweep path — a CI gate must not pass silently.
		// So does a provably incomplete merge (an unfinished shard's
		// runs interleave round-robin, so they show up as index gaps);
		// the report is still written for inspection.
		gaps := ""
		if missing := rep.MissingRuns(); len(missing) > 0 {
			gaps = fmt.Sprintf("merged checkpoints are missing %d runs (first gap: index %d) — unfinished shard?",
				len(missing), missing[0])
		}
		return c.report(rep, "", gaps)
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return c.fail(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return c.fail(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				code = c.fail(err)
				return
			}
			defer f.Close()
			runtime.GC() // settle allocations so the profile shows live heap
			if err := pprof.WriteHeapProfile(f); err != nil {
				code = c.fail(err)
			}
		}()
	}

	if err := experiment.ValidateFormat(*format); err != nil {
		return c.fail(err)
	}
	spec := experiment.Spec{
		Seed: *seed, InnerParallel: *innerPar,
		AnnealMoves: *annMoves, AnnealRestarts: *annRest, AnnealCooling: *annCool,
	}
	var err error
	if spec.Circuits, err = experiment.SelectCircuits(*circuitsF); err != nil {
		return c.fail(err)
	}
	if spec.Heuristics, err = experiment.ParseHeuristics(*heuristics); err != nil {
		return c.fail(err)
	}
	if spec.Backends, err = experiment.ParseBackends(*backendsF); err != nil {
		return c.fail(err)
	}
	if *noiseSpec != "" {
		p, err := noise.Parse(*noiseSpec)
		if err != nil {
			return c.fail(err)
		}
		spec.Noise = &p
	}
	if *paretoF && spec.Noise == nil {
		return c.fail(fmt.Errorf("-pareto needs a noise-scored sweep: add -noise (e.g. -noise default)"))
	}
	if spec.SeedCounts, err = experiment.ParseSeedCounts(*mList); err != nil {
		return c.fail(err)
	}
	fc, err := experiment.LoadFabric(*fabPath)
	if err != nil {
		return c.fail(err)
	}
	spec.Fabrics = []experiment.FabricChoice{fc}

	shard, err := experiment.ParseShard(*shardF)
	if err != nil {
		return c.fail(err)
	}
	opts := experiment.Options{Workers: *parallel, Shard: shard, Checkpoint: *checkpoint}
	runs, err := spec.Runs()
	if err != nil {
		return c.fail(err)
	}
	// owned is the number of runs this invocation reports (its shard's
	// slice) — the denominator for -progress and the interrupt notice.
	owned := len(runs)
	if shard.Count > 1 {
		owned = 0
		for _, r := range runs {
			if shard.Owns(r.Index) {
				owned++
			}
		}
		fmt.Fprintf(stderr, "qsprbench: shard %s owns %d of %d runs\n", shard, owned, len(runs))
	}
	if *progress {
		n := 0
		opts.OnResult = func(rr experiment.RunResult) {
			n++
			status := "ok"
			if rr.Err != "" {
				status = "FAILED: " + rr.Err
			}
			fmt.Fprintf(stderr, "[%d/%d] %s × %s m=%d (%v) %s\n",
				n, owned, rr.Circuit.Name, rr.Heuristic, rr.Seeds, rr.Wall.Round(1e6), status)
		}
	}

	rep, err := experiment.Execute(ctx, spec, opts)
	if rep == nil {
		// Nothing ran: an invalid option (bad shard, mismatched or
		// unreadable checkpoint) was rejected before the sweep began.
		return c.fail(err)
	}
	stopped := ""
	if err != nil {
		// Execute errors for exactly two reasons: cancellation, or a
		// checkpoint write failure — name the right one so a disk-full
		// sweep does not read like a Ctrl-C.
		kind := "sweep interrupted"
		if ctx.Err() == nil {
			kind = "checkpoint error"
		}
		stopped = fmt.Sprintf("%s (%v); reporting %d/%d completed runs", kind, err, len(rep.Results), owned)
	}
	return c.report(rep, stopped, "")
}

// setAmong lists the flags in set that are among names, or with among
// false the ones that are not, as "-a, -b" in flag.Visit's lexical
// order.
func setAmong(set map[string]bool, among bool, names ...string) string {
	var hit []string
	for name := range set {
		if slices.Contains(names, name) == among {
			hit = append(hit, "-"+name)
		}
	}
	sort.Strings(hit)
	return strings.Join(hit, ", ")
}

// cli holds the output streams and the report flags every path writes
// its report with.
type cli struct {
	stdout, stderr  io.Writer
	format, out     string
	compare, pareto bool
}

func (c *cli) fail(err error) int {
	fmt.Fprintln(c.stderr, "qsprbench:", err)
	return 1
}

// report is the tail of the sweep, -merge and -coordinate paths. It
// prints pre, writes the report or its Pareto pivot, prints the
// -compare table, every failed run and then post. A non-empty pre or
// post says the report is incomplete; either, or a failed run, makes
// the exit code 1, so a CI gate never passes silently.
func (c *cli) report(rep *experiment.Report, pre, post string) int {
	code := 0
	if pre != "" {
		fmt.Fprintln(c.stderr, "qsprbench:", pre)
		code = 1
	}
	if err := rep.Emit(c.stdout, c.format, c.out, c.pareto); err != nil {
		return c.fail(err)
	}
	if c.compare {
		fmt.Fprintln(c.stderr)
		fmt.Fprintln(c.stderr, "QSPR vs QUALE:")
		if err := rep.WriteComparison(c.stderr); err != nil {
			return c.fail(err)
		}
	}
	for _, rr := range rep.Results {
		if rr.Err != "" {
			fmt.Fprintf(c.stderr, "qsprbench: %s × %s m=%d failed: %s\n",
				rr.Circuit.Name, rr.Heuristic, rr.Seeds, rr.Err)
			code = 1
		}
	}
	if post != "" {
		fmt.Fprintln(c.stderr, "qsprbench:", post)
		code = 1
	}
	return code
}

// coordinate serves a distributed sweep: it owns the spec, leases
// dynamic shards to workers, ingests their records, and writes the
// final report exactly like a single-process sweep would.
func (c *cli) coordinate(ctx context.Context, addr string, desc coord.SpecDesc, chunk int, ttl time.Duration, dir string, progress bool) int {
	if err := experiment.ValidateFormat(c.format); err != nil {
		return c.fail(err)
	}
	ckpt := ""
	if dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return c.fail(err)
		}
		ckpt = filepath.Join(dir, "coord.jsonl")
	}
	co, err := coord.New(coord.Config{
		Addr: addr, Desc: desc, ChunkSize: chunk, LeaseTTL: ttl,
		Checkpoint: ckpt, OnEvent: coordProgress(c.stderr, progress),
	})
	if err != nil {
		return c.fail(err)
	}
	fmt.Fprintf(c.stderr, "qsprbench: coordinating %d runs on %s\n", co.Runs(), co.Addr())
	rep, err := co.Run(ctx)
	stopped := ""
	if err != nil {
		stopped = fmt.Sprintf("coordinated sweep stopped (%v); reporting %d/%d recorded runs", err, len(rep.Results), co.Runs())
	}
	return c.report(rep, stopped, "")
}

// coordProgress renders coordinator events on w: membership and
// recovery events always (they are rare and are the operator's only
// view of fleet health), per-record lines only with -progress, and an
// aggregate done/total line at most once a second otherwise.
func coordProgress(w io.Writer, verbose bool) func(coord.Event) {
	var mu sync.Mutex
	var lastAggregate time.Time
	return func(ev coord.Event) {
		mu.Lock()
		defer mu.Unlock()
		switch ev.Kind {
		case coord.EventResume:
			if ev.Done > 0 {
				fmt.Fprintf(w, "qsprbench: resumed %d/%d runs from checkpoint\n", ev.Done, ev.Total)
			}
		case coord.EventWorkerJoin:
			fmt.Fprintf(w, "qsprbench: worker %s joined [%d/%d]\n", ev.Worker, ev.Done, ev.Total)
		case coord.EventWorkerLeave:
			fmt.Fprintf(w, "qsprbench: worker %s left (%s) [%d/%d]\n", ev.Worker, ev.Detail, ev.Done, ev.Total)
		case coord.EventLeaseSteal:
			fmt.Fprintf(w, "qsprbench: %s took %d runs, %s [%d/%d]\n",
				ev.Worker, len(ev.Indices), ev.Detail, ev.Done, ev.Total)
		case coord.EventRequeue:
			fmt.Fprintf(w, "qsprbench: requeued %d runs from %s (%s) [%d/%d]\n",
				len(ev.Indices), ev.Worker, ev.Detail, ev.Done, ev.Total)
		case coord.EventLeaseGrant:
			if verbose {
				fmt.Fprintf(w, "qsprbench: leased %d runs to %s [%d/%d]\n",
					len(ev.Indices), ev.Worker, ev.Done, ev.Total)
			}
		case coord.EventRecord:
			if verbose {
				fmt.Fprintf(w, "[%d/%d] run %d done (%s)\n", ev.Done, ev.Total, ev.Index, ev.Worker)
			} else if time.Since(lastAggregate) >= time.Second || ev.Done == ev.Total {
				lastAggregate = time.Now()
				fmt.Fprintf(w, "qsprbench: %d/%d runs recorded\n", ev.Done, ev.Total)
			}
		case coord.EventDone:
			fmt.Fprintf(w, "qsprbench: sweep complete: %d/%d runs\n", ev.Done, ev.Total)
		}
	}
}

// work executes leases for a coordinator until the sweep is done.
func (c *cli) work(ctx context.Context, addr, name string, parallel int, progress bool) int {
	w := &coord.Worker{Addr: addr, Name: name, Parallel: parallel}
	if progress {
		w.Logf = func(format string, args ...any) {
			fmt.Fprintf(c.stderr, "qsprbench: "+format+"\n", args...)
		}
	}
	if err := w.Run(ctx); err != nil {
		return c.fail(err)
	}
	fmt.Fprintln(c.stderr, "qsprbench: worker done")
	return 0
}
