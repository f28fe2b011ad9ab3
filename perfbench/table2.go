package main

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"repro/internal/circuits"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fabric"
	"repro/internal/gates"
	"repro/internal/place"
	"repro/internal/qidg"
	"repro/internal/serve"
)

// table2: the six Table-2 encoders on quale45x85 under the paper's
// QSPR/MVFB protocol, mapped by one warm core.Mapper. One pass maps
// every circuit once, in an order drawn from the seed.

type table2State struct {
	pins  []pin
	progs []circuits.Benchmark
	ideal []gates.Time
	fab   *fabric.Fabric
	mp    *core.Mapper
}

func setupTable2(rc *runCtx) (*table2State, error) {
	st := &table2State{pins: table2Pins}
	if rc.short {
		st.pins = table2Pins[:1]
	}
	start := time.Now()
	for _, p := range st.pins {
		b, err := circuits.Resolve(p.circuit)
		if err != nil {
			return nil, err
		}
		st.progs = append(st.progs, b)
	}
	rc.set("circuits.resolve_ms", ms(time.Since(start)))
	start = time.Now()
	st.fab = fabric.Quale4585()
	rc.set("fabric.resolve_ms", ms(time.Since(start)))
	for _, b := range st.progs {
		ideal, err := core.IdealLatency(b.Program, gates.Default())
		if err != nil {
			return nil, err
		}
		st.ideal = append(st.ideal, ideal)
	}
	st.mp = core.NewMapper()
	// Warm-up: one checked pass fills the Mapper's Sim and route cache.
	results, _, err := st.mapPass(identity(len(st.progs)), nil)
	if err != nil {
		return nil, err
	}
	st.check(rc, results)
	rc.ready()
	return st, nil
}

// mapPass maps every circuit once in the given order on the warm
// Mapper, appending each map's time in ms to miss[circuit] when miss
// is non-nil.
func (st *table2State) mapPass(order []int, miss map[int][]float64) ([]*core.Result, time.Duration, error) {
	results := make([]*core.Result, len(st.progs))
	start := time.Now()
	for _, i := range order {
		t := time.Now()
		res, err := st.mp.Map(st.progs[i].Program, st.fab, table2Options)
		if err != nil {
			return nil, 0, fmt.Errorf("%s: %w", st.pins[i].circuit, err)
		}
		if miss != nil {
			miss[i] = append(miss[i], ms(time.Since(t)))
		}
		results[i] = res
	}
	return results, time.Since(start), nil
}

func (st *table2State) check(rc *runCtx, results []*core.Result) {
	for i, res := range results {
		p := st.pins[i]
		rc.checkErr(errors.Join(checkPin(res, p), checkMapping(p.circuit, res, st.ideal[i])), p.circuit)
	}
}

// renderBatch is how many calls one hit sample averages: a single
// render takes microseconds, too short to time alone on a shared
// machine.
const renderBatch = 20

// timeBatches times batches batches of renderBatch calls of fn and
// appends each batch's mean per call in µs to samples.
func timeBatches(samples []float64, batches int, fn func() error) ([]float64, error) {
	for b := 0; b < batches; b++ {
		start := time.Now()
		for r := 0; r < renderBatch; r++ {
			if err := fn(); err != nil {
				return nil, err
			}
		}
		samples = append(samples, us(time.Since(start))/renderBatch)
	}
	return samples, nil
}

// render times producing the report bytes of already computed results,
// trace included (serve.NewReport plus MarshalBytes, the bytes a qsprd
// hit for a trace request returns), on a collected heap, appending to
// hit[result index]. With the trace a render takes tens to hundreds of
// µs; without it, about 2 µs, which varied by up to 2× between
// processes.
func render(hit map[int][]float64, circuit []string, fabricName string, opts core.Options, results []*core.Result, batches int) error {
	runtime.GC()
	for i, res := range results {
		var err error
		hit[i], err = timeBatches(hit[i], batches, func() error {
			rep, err := serve.NewReport(circuit[i], fabricName, opts, res, true, nil)
			if err != nil {
				return err
			}
			_, err = rep.MarshalBytes()
			return err
		})
		if err != nil {
			return err
		}
	}
	return nil
}

func (st *table2State) names() []string {
	names := make([]string, len(st.pins))
	for i, p := range st.pins {
		names[i] = p.circuit
	}
	return names
}

func runTable2(rc *runCtx) error {
	st, err := setupTable2(rc)
	if err != nil {
		return err
	}
	if rc.traced {
		return st.traced(rc)
	}
	rng := rand.New(rand.NewSource(rc.seed))
	ps := passStats{peak: startHeapPeak()}
	hit, miss := map[int][]float64{}, map[int][]float64{}
	err = rc.measure(rc.budget, minPasses(rc), func() error {
		order := rng.Perm(len(st.progs))
		var results []*core.Result
		err := ps.timePass(func() (d time.Duration, err error) {
			results, d, err = st.mapPass(order, miss)
			return d, err
		})
		if err != nil {
			return err
		}
		st.check(rc, results)
		return render(hit, st.names(), "quale45x85", table2Options, results, 10)
	})
	if err != nil {
		return err
	}
	rc.setMean("peak_heap_mb", ps.peak.finish())
	ps.report(rc)
	rc.set("req_per_s", float64(len(st.progs)*len(ps.wall))/sum(ps.wall))
	rc.reportLatencies(perInputMedians(hit), perInputMedians(miss))
	return nil
}

// traced is the table2 traced run. Untraced passes on the Mapper
// alternate with traced passes that rebuild Mapper.Map's QSPR flow
// from the layer calls — qidg.Build, then place.MVFB on a warm Sim —
// with a span around each; alternating keeps a drift in machine speed
// from landing on one kind only. The layer self times of a traced pass
// must reconcile with the untraced Mapper pass time, which also catches
// the rebuilt flow drifting from core's. The engine's share inside
// MVFB is estimated as runs × a warm traceless Sim.Run of each
// circuit's winning placement.
func (st *table2State) traced(rc *runCtx) error {
	cfg := qsprConfig(st.fab)
	rg := buildRouteGraph(rc, cfg)
	if err := probeRoutes(rc, rg, st.fab, 200, rc.budget/10); err != nil {
		return err
	}
	sim := engine.NewSim()
	var tr tracer
	graphs := make([]*qidg.Graph, len(st.progs))
	sols := make([]*place.Solution, len(st.progs))
	tracedPass := func(order []int) (time.Duration, error) {
		runtime.GC()
		tr.reset()
		start := time.Now()
		for _, i := range order {
			root := tr.begin("core.map")
			s := tr.begin("qidg.build")
			g, err := qidg.Build(st.progs[i].Program)
			tr.end(s)
			if err != nil {
				return 0, err
			}
			g.CriticalPathLatency(cfg.Tech)
			s = tr.begin("place.mvfb")
			sol, err := place.MVFB(g, cfg, place.MVFBOptions{
				Seeds: table2Options.Seeds, Patience: table2Options.Patience,
				MaxRunsPerSeed: 50, Seed: table2Options.Seed, Workers: 1, Sim: sim,
			})
			tr.end(s)
			tr.end(root)
			if err != nil {
				return 0, err
			}
			graphs[i], sols[i] = g, sol
		}
		return time.Since(start), nil
	}
	if _, err := tracedPass(identity(len(st.progs))); err != nil { // warm the rebuilt flow's Sim
		return err
	}
	rng := rand.New(rand.NewSource(rc.seed))
	var ps passStats
	var walls, selfSums, mapMS, selfUS, qidgUS, mvfbMS, runs []float64
	if err := rc.measure(rc.budget*8/10, minPasses(rc), func() error {
		order := rng.Perm(len(st.progs))
		if err := ps.timePass(func() (time.Duration, error) {
			_, d, err := st.mapPass(order, nil)
			return d, err
		}); err != nil {
			return err
		}
		d, err := tracedPass(order)
		if err != nil {
			return err
		}
		for i, sol := range sols {
			res := &core.Result{Latency: sol.Result.Latency, Mapping: sol.Result, Runs: sol.Runs}
			p := st.pins[i]
			rc.checkErr(checkPin(res, p), p.circuit+" (traced)")
		}
		self := tr.selfByName()
		n := float64(len(st.progs))
		walls = append(walls, d.Seconds())
		selfSums = append(selfSums, tr.selfSum().Seconds())
		mapMS = append(mapMS, ms(tr.total("core.map"))/n)
		selfUS = append(selfUS, us(self["core.map"])/n)
		qidgUS = append(qidgUS, us(self["qidg.build"]))
		mvfbMS = append(mvfbMS, ms(self["place.mvfb"]))
		total := 0
		for _, sol := range sols {
			total += sol.Runs
		}
		runs = append(runs, float64(total))
		return nil
	}); err != nil {
		return err
	}

	// Engine probes on each circuit's winning placement.
	cfg.CollectTrace = false
	var engineMS, weighted, captureUS []float64
	var stats engine.Stats
	for i, sol := range sols {
		run, capt, _, err := engineProbe(sim, graphs[i], cfg, sol.Result.Initial, 5)
		if err != nil {
			return err
		}
		engineMS = append(engineMS, ms(run)*float64(sol.Runs))
		weighted = append(weighted, us(run)*float64(sol.Runs))
		captureUS = append(captureUS, us(capt-run))
		s := sol.Result.Stats
		stats.RoutedQubitTrips += s.RoutedQubitTrips
		stats.Blocked += s.Blocked
		stats.Evictions += s.Evictions
	}
	mvfb := median(mvfbMS)
	totalRuns := median(runs)
	rc.setMedian("core.map_ms", mapMS)
	rc.setMedian("core.self_us", selfUS)
	rc.setMedian("qidg.build_us", qidgUS)
	rc.setMedian("place.mvfb_ms", mvfbMS)
	rc.set("place.runs", totalRuns)
	rc.set("engine.run_us", sum(weighted)/totalRuns)
	rc.set("place.self_ms", mvfb-sum(engineMS))
	rc.set("engine.capture_us", mean(captureUS))
	rc.set("engine.trips", float64(stats.RoutedQubitTrips))
	rc.set("engine.blocked", float64(stats.Blocked))
	rc.set("engine.evictions", float64(stats.Evictions))
	tracedPassS := median(walls)
	rc.setMedian("trace.pass_s", walls)
	rc.set("trace.overhead_s", tracedPassS-median(ps.wall))
	rc.note("attribution per traced pass (%.4fs): core.self %.2f%% qidg %.2f%% place.self %.2f%% engine %.2f%%",
		tracedPassS, share(median(selfUS)*float64(len(st.progs))/1e6, tracedPassS),
		share(median(qidgUS)/1e6, tracedPassS), share((mvfb-sum(engineMS))/1e3, tracedPassS),
		share(sum(engineMS)/1e3, tracedPassS))
	rc.reconcile(median(selfSums), median(ps.wall), "untraced core.Mapper pass_s")
	return nil
}

func share(part, whole float64) float64 { return 100 * part / whole }

func identity(n int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	return order
}

// perInputMedians returns the median of each input's samples. A
// workload with a fixed, heterogeneous input set takes its latency
// percentiles over these, so a percentile names an input's typical
// latency instead of falling between two inputs' clusters.
func perInputMedians(byInput map[int][]float64) []float64 {
	var out []float64
	for _, xs := range byInput {
		out = append(out, median(xs))
	}
	return out
}

// minPasses is the fewest passes a run measures.
func minPasses(rc *runCtx) int {
	if rc.short {
		return 1
	}
	return 3
}
