package main

import (
	"errors"
	"runtime"
	"time"

	"repro/internal/circuits"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fabric"
	"repro/internal/gates"
	"repro/internal/place"
	"repro/internal/qidg"
)

// giant: [[23,1,7]] under QSPR-center on a 99,458-trap grid, where
// route search runs in ALT mode. One pass is one map on a warm
// core.Mapper.

const (
	giantFabric      = "grid(rows=893,cols=893,pitch=4)"
	giantShortFabric = "grid(rows=93,cols=93,pitch=4)"
)

var giantOptions = core.Options{Heuristic: core.QSPRCenter, InnerParallel: 1}

type giantState struct {
	prog  circuits.Benchmark
	ideal gates.Time
	fab   *fabric.Fabric
	mp    *core.Mapper
}

func setupGiant(rc *runCtx) (*giantState, error) {
	st := &giantState{}
	start := time.Now()
	b, err := circuits.Resolve(giantPin.circuit)
	if err != nil {
		return nil, err
	}
	st.prog = b
	rc.set("circuits.resolve_ms", ms(time.Since(start)))
	spec := giantFabric
	if rc.short {
		spec = giantShortFabric
	}
	start = time.Now()
	if st.fab, _, err = fabric.Resolve(spec); err != nil {
		return nil, err
	}
	rc.set("fabric.resolve_ms", ms(time.Since(start)))
	if st.ideal, err = core.IdealLatency(b.Program, gates.Default()); err != nil {
		return nil, err
	}
	st.mp = core.NewMapper()
	// Warm-up: the first map builds the Mapper's route graph and ALT
	// tables.
	res, err := st.mp.Map(b.Program, st.fab, giantOptions)
	if err != nil {
		return nil, err
	}
	st.check(rc, res)
	rc.ready()
	return st, nil
}

func (st *giantState) check(rc *runCtx, res *core.Result) {
	err := checkMapping(giantPin.circuit, res, st.ideal)
	if !rc.short {
		err = errors.Join(err, checkPin(res, giantPin))
	}
	rc.checkErr(err, "giant")
}

func runGiant(rc *runCtx) error {
	st, err := setupGiant(rc)
	if err != nil {
		return err
	}
	if rc.traced {
		return st.traced(rc)
	}
	ps := passStats{peak: startHeapPeak()}
	var miss []float64
	hit := map[int][]float64{}
	err = rc.measure(rc.budget, minPasses(rc), func() error {
		var res *core.Result
		var d time.Duration
		err := ps.timePass(func() (time.Duration, error) {
			start := time.Now()
			var err error
			res, err = st.mp.Map(st.prog.Program, st.fab, giantOptions)
			d = time.Since(start)
			return d, err
		})
		if err != nil {
			return err
		}
		miss = append(miss, ms(d))
		st.check(rc, res)
		return render(hit, []string{st.prog.Name}, giantFabric, giantOptions, []*core.Result{res}, 20)
	})
	if err != nil {
		return err
	}
	rc.setMean("peak_heap_mb", ps.peak.finish())
	ps.report(rc)
	rc.set("req_per_s", float64(len(miss))/sum(ps.wall))
	rc.reportLatencies(perInputMedians(hit), miss)
	return nil
}

// traced is the giant traced run: untraced Mapper passes alternate
// with passes that rebuild Mapper.Map's QSPR-center flow — qidg.Build,
// place.Center, a captured Sim.Run — with a span around each layer
// call. The layer self times must reconcile with the untraced Mapper
// pass time. The rebuilt flow's Sim shares the probe route graph.
func (st *giantState) traced(rc *runCtx) error {
	cfg := qsprConfig(st.fab)
	rg := buildRouteGraph(rc, cfg)
	if err := probeRoutes(rc, rg, st.fab, 50, rc.budget/10); err != nil {
		return err
	}
	cfg.RouteGraph = rg
	sim := engine.NewSim()
	var tr tracer
	var g *qidg.Graph
	var initial engine.Placement
	var res *core.Result
	tracedPass := func() (time.Duration, error) {
		runtime.GC()
		tr.reset()
		start := time.Now()
		root := tr.begin("core.map")
		s := tr.begin("qidg.build")
		var err error
		g, err = qidg.Build(st.prog.Program)
		tr.end(s)
		if err != nil {
			return 0, err
		}
		g.CriticalPathLatency(cfg.Tech)
		s = tr.begin("place.center")
		initial, err = place.Center(st.fab, g.NumQubits)
		tr.end(s)
		if err != nil {
			return 0, err
		}
		ccfg := cfg
		ccfg.CollectTrace = true
		s = tr.begin("engine.run")
		r, err := sim.Run(g, ccfg, initial)
		tr.end(s)
		tr.end(root)
		if err != nil {
			return 0, err
		}
		res = &core.Result{Heuristic: core.QSPRCenter, Latency: r.Latency, Ideal: st.ideal, Mapping: r, Runs: 1}
		return time.Since(start), nil
	}
	if _, err := tracedPass(); err != nil { // warm the rebuilt flow's Sim
		return err
	}
	var ps passStats
	var walls, selfSums, mapMS, selfUS, qidgUS, placeMS, engMS []float64
	if err := rc.measure(rc.budget*8/10, 2, func() error {
		if err := ps.timePass(func() (time.Duration, error) {
			start := time.Now()
			_, err := st.mp.Map(st.prog.Program, st.fab, giantOptions)
			return time.Since(start), err
		}); err != nil {
			return err
		}
		d, err := tracedPass()
		if err != nil {
			return err
		}
		st.check(rc, res)
		self := tr.selfByName()
		walls = append(walls, d.Seconds())
		selfSums = append(selfSums, tr.selfSum().Seconds())
		mapMS = append(mapMS, ms(tr.total("core.map")))
		selfUS = append(selfUS, us(self["core.map"]))
		qidgUS = append(qidgUS, us(self["qidg.build"]))
		placeMS = append(placeMS, ms(self["place.center"]))
		engMS = append(engMS, ms(self["engine.run"]))
		return nil
	}); err != nil {
		return err
	}
	cfg.CollectTrace = false
	run, capt, _, err := engineProbe(sim, g, cfg, initial, 1)
	if err != nil {
		return err
	}
	s := res.Mapping.Stats
	rc.setMedian("core.map_ms", mapMS)
	rc.setMedian("core.self_us", selfUS)
	rc.setMedian("qidg.build_us", qidgUS)
	rc.setMedian("place.self_ms", placeMS)
	rc.set("place.runs", 1)
	rc.set("engine.run_us", us(run))
	rc.set("engine.capture_us", us(capt-run))
	rc.set("engine.trips", float64(s.RoutedQubitTrips))
	rc.set("engine.blocked", float64(s.Blocked))
	rc.set("engine.evictions", float64(s.Evictions))
	tracedPassS := median(walls)
	rc.setMedian("trace.pass_s", walls)
	rc.set("trace.overhead_s", tracedPassS-median(ps.wall))
	rc.note("attribution per traced pass (%.4fs): core.self %.2f%% qidg %.2f%% place.center %.2f%% engine.run (captured) %.2f%%",
		tracedPassS, share(median(selfUS)/1e6, tracedPassS), share(median(qidgUS)/1e6, tracedPassS),
		share(median(placeMS)/1e3, tracedPassS), share(median(engMS)/1e3, tracedPassS))
	rc.reconcile(median(selfSums), median(ps.wall), "untraced core.Mapper pass_s")
	return nil
}
