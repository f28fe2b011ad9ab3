package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"repro/internal/circuits"
	"repro/internal/coord"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/experiment"
	"repro/internal/fabric"
	"repro/internal/noise"
	"repro/internal/qidg"
)

// sweep: a coordinated sweep in one process — coord.New on a loopback
// listener plus two coord.Worker{Parallel: 1} — of four encoders ×
// quale45x85 × {QSPR, MC, Anneal(moves 100)} × m=25 with default noise
// scoring, one run per lease. A pass is one whole coordinated sweep,
// timed from before coord.New to the coordinator's EventDone.

const (
	sweepCircuits      = "[[5,1,3]],[[7,1,3]],[[9,1,3]],[[14,8,3]]"
	sweepShortCircuits = "[[5,1,3]]"
	sweepWorkers       = 2
	// sweepLinger keeps answering "done" after completion just long
	// enough for a worker in its 250ms wait poll to hear it.
	sweepLinger = 300 * time.Millisecond
)

func sweepDesc(short bool) coord.SpecDesc {
	d := coord.SpecDesc{Circuits: sweepCircuits, Heuristics: "qspr,mc,anneal", M: "25", Seed: 1,
		Fabric: "quale45x85", AnnealMoves: 100, Noise: "default"}
	if short {
		d.Circuits = sweepShortCircuits
	}
	return d
}

type sweepState struct {
	desc coord.SpecDesc
	spec experiment.Spec
	runs []experiment.Run
}

func setupSweep(rc *runCtx) (*sweepState, error) {
	st := &sweepState{desc: sweepDesc(rc.short)}
	start := time.Now()
	names, err := experiment.SplitCircuitList(st.desc.Circuits)
	if err != nil {
		return nil, err
	}
	for _, n := range names {
		if _, err := circuits.Resolve(n); err != nil {
			return nil, err
		}
	}
	rc.set("circuits.resolve_ms", ms(time.Since(start)))
	start = time.Now()
	fabric.Quale4585()
	rc.set("fabric.resolve_ms", ms(time.Since(start)))
	if st.spec, err = st.desc.Spec(); err != nil {
		return nil, err
	}
	if st.runs, err = st.spec.Runs(); err != nil {
		return nil, err
	}
	// Warm-up: the coordinator handshake and a first map, through a
	// one-run coordinated sweep.
	warm := st.desc
	warm.Circuits, warm.Heuristics = names[0], "qspr"
	p, err := coordinatedPass(warm)
	if err != nil {
		return nil, err
	}
	rc.checkErr(p.err(), "warm-up sweep")
	rc.ready()
	return st, nil
}

// sweepPass is one coordinated sweep's outcome and its event timeline.
type sweepPass struct {
	wall      time.Duration
	rep       *experiment.Report
	runErr    error
	workerErr []error
	// Per-run lease-grant and record times (chunk 1: one run per lease).
	grant, record map[int]time.Time
	start, done   time.Time
	leases        int
	steals        int
	requeues      int
}

func (p *sweepPass) err() error {
	errs := []error{p.runErr}
	for _, e := range p.workerErr {
		if e != nil && !errors.Is(e, context.Canceled) {
			errs = append(errs, e)
		}
	}
	if p.rep != nil {
		for _, rr := range p.rep.Results {
			if rr.Err != "" {
				errs = append(errs, fmt.Errorf("run %d: %s", rr.Index, rr.Err))
			}
		}
	}
	return errors.Join(errs...)
}

// coordinatedPass runs one sweep through coord.New plus sweepWorkers
// workers and waits until the coordinator and every worker have
// stopped. The wall time ends at EventDone: Run itself returns only
// after lingering.
func coordinatedPass(desc coord.SpecDesc) (*sweepPass, error) {
	p := &sweepPass{grant: map[int]time.Time{}, record: map[int]time.Time{}}
	var mu sync.Mutex
	onEvent := func(ev coord.Event) {
		now := time.Now()
		mu.Lock()
		defer mu.Unlock()
		switch ev.Kind {
		case coord.EventLeaseGrant, coord.EventLeaseSteal:
			p.leases++
			if ev.Kind == coord.EventLeaseSteal {
				p.steals++
			}
			for _, i := range ev.Indices {
				p.grant[i] = now
			}
		case coord.EventRecord:
			p.record[ev.Index] = now
		case coord.EventRequeue:
			p.requeues++
		case coord.EventDone:
			p.done = now
		}
	}
	p.start = time.Now()
	c, err := coord.New(coord.Config{Addr: "127.0.0.1:0", Desc: desc, ChunkSize: 1, Linger: sweepLinger, OnEvent: onEvent})
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	p.workerErr = make([]error, sweepWorkers)
	for i := 0; i < sweepWorkers; i++ {
		w := &coord.Worker{Addr: c.Addr(), Name: fmt.Sprintf("w%d", i), Parallel: 1}
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.workerErr[i] = w.Run(ctx)
		}()
	}
	p.rep, p.runErr = c.Run(context.Background())
	cancel()
	wg.Wait()
	if p.done.IsZero() {
		p.done = time.Now()
	}
	p.wall = p.done.Sub(p.start)
	return p, nil
}

func reportBytes(rep *experiment.Report) ([]byte, error) {
	var buf bytes.Buffer
	if err := rep.WriteJSON(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// reference runs the sweep single-process with experiment.Execute on
// two workers; the coordinated reports must be byte-identical to it.
// It returns the report's digest, the wall time of Execute and the sum
// of its runs' wall times.
func (st *sweepState) reference() (sum [sha256.Size]byte, execute, runs time.Duration, err error) {
	start := time.Now()
	rep, err := experiment.Execute(context.Background(), st.spec, experiment.Options{Workers: sweepWorkers})
	execute = time.Since(start)
	if err != nil {
		return sum, execute, 0, err
	}
	for _, rr := range rep.Results {
		runs += rr.Wall
	}
	b, err := reportBytes(rep)
	return sha256.Sum256(b), execute, runs, err
}

// checkPasses compares every coordinated report with the reference.
func (st *sweepState) checkPasses(rc *runCtx, passes []*sweepPass, ref [sha256.Size]byte) {
	for i, p := range passes {
		if err := p.err(); err != nil {
			rc.check(false, "sweep pass %d: %v", i, err)
			continue
		}
		b, err := reportBytes(p.rep)
		if err != nil {
			rc.check(false, "sweep pass %d: %v", i, err)
			continue
		}
		rc.check(sha256.Sum256(b) == ref, "sweep pass %d: coordinated report differs from experiment.Execute", i)
	}
}

// runTimes returns each run's lease-grant-to-record time by index.
func (p *sweepPass) runTimes() map[int]time.Duration {
	out := map[int]time.Duration{}
	for i, g := range p.grant {
		if r, ok := p.record[i]; ok {
			out[i] = r.Sub(g)
		}
	}
	return out
}

func runSweep(rc *runCtx) error {
	st, err := setupSweep(rc)
	if err != nil {
		return err
	}
	if rc.traced {
		return st.traced(rc)
	}
	ps := passStats{peak: startHeapPeak()}
	var passes []*sweepPass
	hit, miss := map[int][]float64{}, map[int][]float64{}
	runs := 0
	err = rc.measure(rc.budget, minPasses(rc), func() error {
		var p *sweepPass
		err := ps.timePass(func() (time.Duration, error) {
			var err error
			p, err = coordinatedPass(st.desc)
			if err != nil {
				return 0, err
			}
			return p.wall, nil
		})
		if err != nil {
			return err
		}
		passes = append(passes, p)
		for i, d := range p.runTimes() {
			miss[i] = append(miss[i], ms(d))
		}
		runs += len(st.runs)
		if p.rep != nil {
			if err := renderReport(hit, p.rep); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	rc.setMean("peak_heap_mb", ps.peak.finish())
	ref, _, _, err := st.reference()
	if err != nil {
		return err
	}
	st.checkPasses(rc, passes, ref)
	ps.report(rc)
	rc.set("req_per_s", float64(runs)/sum(ps.wall))
	rc.reportLatencies(perInputMedians(hit), perInputMedians(miss))
	return nil
}

// renderReport times rewriting a finished sweep's whole report
// (experiment.Report.WriteJSON, as a merge of saved results does) on a
// collected heap, appending to hit[0]. A one-run record renders in
// about 7 µs, which varied by a third between processes; the whole
// report takes about ten times as long.
func renderReport(hit map[int][]float64, rep *experiment.Report) error {
	runtime.GC()
	var buf bytes.Buffer
	var err error
	hit[0], err = timeBatches(hit[0], 5, func() error {
		buf.Reset()
		return rep.WriteJSON(&buf)
	})
	return err
}

// traced is the sweep traced run. Each round runs an untraced
// coordinated pass, a traced one and a single-process
// experiment.Execute of the same spec, so a drift in machine speed
// lands on all three alike. A traced pass splits each worker's lane
// into run spans, from lease grant to record, named after the run's
// placer; the rest of the lane is the coordinator's. The run spans must
// reconcile with the sum of the same runs' wall times under Execute.
// The layer probes run on each circuit's QSPR winner.
func (st *sweepState) traced(rc *runCtx) error {
	fab := st.spec.Fabrics[0].Fabric
	cfg := qsprConfig(fab)
	rg := buildRouteGraph(rc, cfg)
	if err := probeRoutes(rc, rg, fab, 200, rc.budget/20); err != nil {
		return err
	}
	var ps passStats
	var passes []*sweepPass
	var walls, leases, steals, requeues, coordS, runMS, spanS, executeS, executeRunS []float64
	placerMS := map[string][]float64{}
	var ref [sha256.Size]byte
	if err := rc.measure(rc.budget*8/10, minPasses(rc), func() error {
		if err := ps.timePass(func() (time.Duration, error) {
			p, err := coordinatedPass(st.desc)
			if err != nil {
				return 0, err
			}
			passes = append(passes, p)
			return p.wall, nil
		}); err != nil {
			return err
		}
		runtime.GC()
		p, err := coordinatedPass(st.desc)
		if err != nil {
			return err
		}
		passes = append(passes, p)
		perPlacer := map[string]time.Duration{}
		var spans time.Duration
		for i, g := range p.grant {
			r, ok := p.record[i]
			if !ok {
				continue
			}
			name := placerSpan(st.runs[i].Heuristic)
			perPlacer[name] += r.Sub(g)
			spans += r.Sub(g)
			runMS = append(runMS, ms(r.Sub(g)))
		}
		for _, name := range []string{"place.mvfb", "place.mc", "place.anneal"} {
			placerMS[name] = append(placerMS[name], ms(perPlacer[name]))
		}
		lanes := p.wall * sweepWorkers
		spanS = append(spanS, spans.Seconds())
		coordS = append(coordS, (lanes - spans).Seconds())
		walls = append(walls, p.wall.Seconds())
		leases = append(leases, float64(p.leases))
		steals = append(steals, float64(p.steals))
		requeues = append(requeues, float64(p.requeues))

		runtime.GC()
		sum, execute, runs, err := st.reference()
		if err != nil {
			return err
		}
		ref = sum
		executeS = append(executeS, execute.Seconds())
		executeRunS = append(executeRunS, runs.Seconds())
		return nil
	}); err != nil {
		return err
	}
	st.checkPasses(rc, passes, ref)

	if err := st.probes(rc, passes[len(passes)-1].rep); err != nil {
		return err
	}
	rc.set("core.map_ms", mean(runMS))
	rc.setMedian("trace.pass_s", walls)
	rc.set("trace.overhead_s", median(walls)-median(ps.wall))
	rc.setMedian("experiment.execute_s", executeS)
	rc.set("coord.overhead_s", median(ps.wall)-median(executeS))
	rc.setMedian("coord.leases", leases)
	rc.setMedian("coord.steals", steals)
	rc.setMedian("coord.requeues", requeues)
	rc.setMedian("place.mvfb_ms", placerMS["place.mvfb"])
	rc.setMedian("place.mc_ms", placerMS["place.mc"])
	rc.setMedian("place.anneal_ms", placerMS["place.anneal"])
	lt := median(walls) * sweepWorkers
	rc.note("attribution per traced pass (%.4fs × %d worker lanes): place.mvfb runs %.2f%% place.mc runs %.2f%% place.anneal runs %.2f%% coord (lane time outside runs) %.2f%%",
		median(walls), sweepWorkers, share(median(placerMS["place.mvfb"])/1e3, lt), share(median(placerMS["place.mc"])/1e3, lt),
		share(median(placerMS["place.anneal"])/1e3, lt), share(median(coordS), lt))
	rc.reconcile(median(spanS), median(executeRunS), "summed run wall times under experiment.Execute")
	return nil
}

// placerSpan names a sweep run's span after the placer doing its work.
func placerSpan(h core.Heuristic) string {
	switch h {
	case core.MonteCarlo:
		return "place.mc"
	case core.Anneal:
		return "place.anneal"
	}
	return "place.mvfb"
}

// probes measures the engine, fork, noise and qidg layers on each
// circuit's QSPR winner from a finished sweep report.
func (st *sweepState) probes(rc *runCtx, rep *experiment.Report) error {
	fab := st.spec.Fabrics[0].Fabric
	cfg := qsprConfig(fab)
	cfg.CollectTrace = false
	sim := engine.NewSim()
	rng := rand.New(rand.NewSource(rc.seed))
	var runUS, captureUS, forkUS, pfailUS []float64
	var replay []float64
	var qidgT time.Duration
	var stats engine.Stats
	placementRuns := 0
	for _, rr := range rep.Results {
		placementRuns += rr.Metrics.PlacementRuns
		start := time.Now()
		g, err := qidg.Build(rr.Circuit.Program)
		qidgT += time.Since(start)
		if err != nil {
			return err
		}
		if rr.Heuristic != core.QSPR {
			continue
		}
		p := engine.Placement(rr.Metrics.Placement)
		run, capt, res, err := engineProbe(sim, g, cfg, p, 5)
		if err != nil {
			return err
		}
		runUS = append(runUS, us(run))
		captureUS = append(captureUS, us(capt-run))
		stats.RoutedQubitTrips += res.Stats.RoutedQubitTrips
		stats.Blocked += res.Stats.Blocked
		stats.Evictions += res.Stats.Evictions
		forks, frac, err := forkProbe(rc, g, cfg, p, 20, rng)
		if err != nil {
			return err
		}
		forkUS = append(forkUS, forks...)
		replay = append(replay, frac)
		ccfg := cfg
		ccfg.CollectTrace = true
		traced, err := sim.Run(g, ccfg, p)
		if err != nil {
			return err
		}
		for i := 0; i < 20; i++ {
			start := time.Now()
			if _, err := noise.PFail(traced.Trace, g.NumQubits, *st.spec.Noise); err != nil {
				return err
			}
			pfailUS = append(pfailUS, us(time.Since(start)))
		}
	}
	rc.set("qidg.build_us", us(qidgT))
	rc.set("place.runs", float64(placementRuns))
	rc.set("engine.run_us", mean(runUS))
	rc.set("engine.capture_us", mean(captureUS))
	rc.set("engine.trips", float64(stats.RoutedQubitTrips))
	rc.set("engine.blocked", float64(stats.Blocked))
	rc.set("engine.evictions", float64(stats.Evictions))
	rc.setMedian("engine.fork_us", forkUS)
	rc.set("engine.replay_frac", mean(replay))
	rc.setMedian("noise.pfail_us", pfailUS)
	return nil
}
