// Command perfbench is the repository's end-to-end benchmark: one
// command that runs a named workload against the public entry points
// (core.Mapper, serve.Server, coord.Coordinator/coord.Worker), checks
// every output, and prints the end-to-end metrics (untraced run) or the
// per-layer metrics (traced run, --trace 1).
//
//	go run . --workload table2 --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics; the lines before it are a
// human-readable table (median, high percentile and sample count per
// metric) and the stamp that ties the numbers to a source tree and a
// machine. The process exits 1 when any output check fails. See
// README.md for the workloads, the metric definitions and the
// layer-to-end-to-end attribution map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

// procStart approximates process start: package initialization runs
// before main, after the Go runtime has started.
var procStart = time.Now()

// workload is one named input set of the benchmark.
type workload struct {
	name string
	// run sets up, measures, checks and fills rc's metrics.
	run func(rc *runCtx) error
}

var workloads = []workload{
	{name: "table2", run: runTable2},
	{name: "giant", run: runGiant},
	{name: "serve-mix", run: runServeMix},
	{name: "sweep", run: runSweep},
}

// endToEnd and perLayer are the metric names every untraced and traced
// run prints, in order, with their units (BENCHMARK.json mirrors them).
var endToEnd = []metricDef{
	{"setup_s", "s"}, {"pass_s", "s"}, {"cpu_s", "s"}, {"allocs", "count"},
	{"peak_heap_mb", "MB"}, {"req_per_s", "1/s"},
	{"hit_us_p50", "us"}, {"hit_us_p99", "us"},
	{"miss_ms_p50", "ms"}, {"miss_ms_p99", "ms"},
}

var perLayer = []metricDef{
	{"circuits.resolve_ms", "ms"},
	{"qidg.build_us", "us"},
	{"fabric.resolve_ms", "ms"},
	{"routegraph.build_ms", "ms"},
	{"routegraph.route_cold_us", "us"},
	{"routegraph.route_hit_us", "us"},
	{"routegraph.alt", "bool"},
	{"engine.run_us", "us"},
	{"engine.capture_us", "us"},
	{"engine.trips", "count"},
	{"engine.blocked", "count"},
	{"engine.evictions", "count"},
	{"engine.fork_us", "us"},
	{"engine.replay_frac", "ratio"},
	{"place.mvfb_ms", "ms"},
	{"place.runs", "count"},
	{"place.self_ms", "ms"},
	{"place.anneal_ms", "ms"},
	{"place.mc_ms", "ms"},
	{"core.map_ms", "ms"},
	{"core.self_us", "us"},
	{"swapmap.couple_ms", "ms"},
	{"swapmap.map_ms", "ms"},
	{"noise.pfail_us", "us"},
	{"serve.report_us", "us"},
	{"serve.handler_hit_us", "us"},
	{"serve.net_us", "us"},
	{"serve.hits", "count"},
	{"serve.misses", "count"},
	{"serve.rejected", "count"},
	{"serve.hit_ratio", "ratio"},
	{"experiment.execute_s", "s"},
	{"coord.leases", "count"},
	{"coord.steals", "count"},
	{"coord.requeues", "count"},
	{"coord.overhead_s", "s"},
	{"trace.pass_s", "s"},
	{"trace.overhead_s", "s"},
	{"trace.unattributed_frac", "ratio"},
}

type metricDef struct{ name, unit string }

func main() { os.Exit(mainErr(os.Args[1:], os.Stdout, os.Stderr)) }

func mainErr(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: table2, giant, serve-mix or sweep")
	seed := fs.Int64("seed", 1, "workload seed (orders inputs, generates the request stream and probe pairs)")
	seconds := fs.Float64("seconds", 10, "measurement budget in seconds")
	traceFlag := fs.Int("trace", 0, "1 prints the per-layer metrics of a traced run instead of the end-to-end metrics")
	short := fs.Bool("short", false, "run the workload at minimum size (smoke mode; pinned sizes are not used)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var w *workload
	for i := range workloads {
		if workloads[i].name == *name {
			w = &workloads[i]
		}
	}
	if w == nil || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: need --workload {table2,giant,serve-mix,sweep}, --seconds > 0 and --trace 0|1\n")
		return 2
	}
	rc := newRunCtx(*name, *seed, time.Duration(*seconds*float64(time.Second)), *traceFlag == 1, *short, stdout)
	if err := w.run(rc); err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	if err := rc.emit(); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if rc.failed > 0 {
		for _, msg := range rc.failures {
			fmt.Fprintf(stderr, "perfbench: check failed: %s\n", msg)
		}
		return 1
	}
	return 0
}

// runCtx carries one run's settings, its check tally and its metrics.
type runCtx struct {
	workload string
	seed     int64
	budget   time.Duration
	traced   bool
	short    bool
	out      io.Writer

	attempted, failed int
	failures          []string

	metrics map[string]metric
	// notes are extra stamp lines (the serve-mix stream record, the
	// reconciliation tolerance) printed before the metric table.
	notes []string
}

// metric is one reported value: Value goes into the result line,
// Samples (when present) back the printed median, high percentile and
// count.
type metric struct {
	Value   float64
	Samples []float64
}

func newRunCtx(name string, seed int64, budget time.Duration, traced, short bool, out io.Writer) *runCtx {
	return &runCtx{workload: name, seed: seed, budget: budget, traced: traced, short: short,
		out: out, metrics: map[string]metric{}}
}

// check records one checked operation: ok false counts it as failed.
func (rc *runCtx) check(ok bool, format string, args ...any) {
	rc.attempted++
	if !ok {
		rc.failed++
		if len(rc.failures) < 20 {
			rc.failures = append(rc.failures, fmt.Sprintf(format, args...))
		}
	}
}

// checkMany records n checked operations of which failed failed; the
// message is kept when failed > 0.
func (rc *runCtx) checkMany(n, failed int, format string, args ...any) {
	rc.attempted += n
	if failed > 0 {
		rc.failed += failed
		if len(rc.failures) < 20 {
			rc.failures = append(rc.failures, fmt.Sprintf(format, args...))
		}
	}
}

// checkErr records one operation whose failure is an error.
func (rc *runCtx) checkErr(err error, what string) {
	if err != nil {
		rc.check(false, "%s: %v", what, err)
		return
	}
	rc.check(true, "")
}

// setMedian reports the median of samples.
func (rc *runCtx) setMedian(name string, samples []float64) {
	rc.metrics[name] = metric{Value: median(samples), Samples: samples}
}

// setMean reports the mean of samples.
func (rc *runCtx) setMean(name string, samples []float64) {
	rc.metrics[name] = metric{Value: mean(samples), Samples: samples}
}

// setQuantile reports quantile q of samples.
func (rc *runCtx) setQuantile(name string, samples []float64, q float64) {
	rc.metrics[name] = metric{Value: quantile(samples, q), Samples: samples}
}

// ready marks the workload set up: setup_s is the time since process
// start.
func (rc *runCtx) ready() { rc.set("setup_s", time.Since(procStart).Seconds()) }

// set reports a single measured value.
func (rc *runCtx) set(name string, v float64) { rc.metrics[name] = metric{Value: v} }

// reportLatencies sets the hit and miss latency percentiles.
func (rc *runCtx) reportLatencies(hitUS, missMS []float64) {
	rc.setQuantile("hit_us_p50", hitUS, 0.5)
	rc.setQuantile("hit_us_p99", hitUS, 0.99)
	rc.setQuantile("miss_ms_p50", missMS, 0.5)
	rc.setQuantile("miss_ms_p99", missMS, 0.99)
}

func (rc *runCtx) note(format string, args ...any) {
	rc.notes = append(rc.notes, fmt.Sprintf(format, args...))
}

// emit prints the stamp, the metric table and the result line. Metrics
// a workload does not exercise are reported as 0 (per-layer) — every
// run prints every metric of its kind.
func (rc *runCtx) emit() error {
	defs := endToEnd
	kind := "end-to-end"
	if rc.traced {
		defs, kind = perLayer, "per-layer"
	}
	for _, line := range stamp(rc) {
		fmt.Fprintf(rc.out, "# %s\n", line)
	}
	for _, n := range rc.notes {
		fmt.Fprintf(rc.out, "# %s\n", n)
	}
	frac := 0.0
	if rc.attempted > 0 {
		frac = float64(rc.failed) / float64(rc.attempted)
	}
	fmt.Fprintf(rc.out, "# checks: attempted=%d failed=%d failed_frac=%g\n", rc.attempted, rc.failed, frac)
	fmt.Fprintf(rc.out, "# %s metrics: name unit value | samples: median high-percentile (label) count\n", kind)
	res := result{Correct: rc.failed == 0 && rc.attempted > 0, Attempted: rc.attempted, Failed: rc.failed,
		Metrics: map[string]resultMetric{}}
	if res.Attempted == 0 {
		res.Attempted = 1
		res.Failed = 1
	}
	for _, d := range defs {
		m, ok := rc.metrics[d.name]
		if !ok && !rc.traced {
			return fmt.Errorf("workload %s did not measure end-to-end metric %s", rc.workload, d.name)
		}
		med, hi, label, n := m.Value, m.Value, "-", 1
		if len(m.Samples) > 0 {
			med = median(m.Samples)
			label, hi = highPercentile(m.Samples)
			n = len(m.Samples)
		} else if !ok {
			n = 0
		}
		fmt.Fprintf(rc.out, "%-26s %-6s %14.6g | %14.6g %14.6g %-5s %d\n", d.name, d.unit, m.Value, med, hi, label, n)
		res.Metrics[d.name] = resultMetric{Value: m.Value, Unit: d.unit}
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintf(rc.out, "%s\n", b)
	return nil
}

type result struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]resultMetric `json:"metrics"`
}

type resultMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// measure runs pass repeatedly until budget is spent, at least
// minPasses times.
func (rc *runCtx) measure(budget time.Duration, minPasses int, pass func() error) error {
	start := time.Now()
	for n := 0; n < minPasses || time.Since(start) < budget; n++ {
		if err := pass(); err != nil {
			return err
		}
	}
	return nil
}
