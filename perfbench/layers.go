package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/engine"
	"repro/internal/fabric"
	"repro/internal/qidg"
	"repro/internal/routegraph"
)

// Probes time single layers directly, outside any pass, where a pass
// cannot be split from the benchmark's side: route search under a
// standing occupancy and from the route cache, a warm engine run with
// and without trace capture, and a checkpoint fork.

// buildRouteGraph times engine.Config.BuildRouteGraph (CSR adjacency
// plus, past the size threshold, the ALT landmark tables).
func buildRouteGraph(rc *runCtx, cfg engine.Config) *routegraph.Graph {
	start := time.Now()
	rg := cfg.BuildRouteGraph()
	rc.set("routegraph.build_ms", ms(time.Since(start)))
	alt := 0.0
	if rg.ALTEnabled() {
		alt = 1
	}
	rc.set("routegraph.alt", alt)
	return rg
}

// probeRoutes times FindRoute over seeded reachable trap pairs: cold,
// with one channel group occupied so the route cache is bypassed, and
// hit, on the idle graph after one warming query per pair. Each sample
// is the mean over all pairs of one timed round; budget bounds the
// cold rounds.
func probeRoutes(rc *runCtx, rg *routegraph.Graph, fab *fabric.Fabric, pairs int, budget time.Duration) error {
	rng := rand.New(rand.NewSource(rc.seed))
	var from, to []int
	for tries := 0; len(from) < pairs && tries < 100*pairs; tries++ {
		a, b := rng.Intn(len(fab.Traps)), rng.Intn(len(fab.Traps))
		if a != b && rg.TrapReachable(a) && rg.TrapReachable(b) {
			from, to = append(from, a), append(to, b)
		}
	}
	if len(from) == 0 {
		return fmt.Errorf("route probe: no reachable trap pairs")
	}
	round := func() (time.Duration, error) {
		start := time.Now()
		for i := range from {
			if _, ok := rg.FindRoute(from[i], to[i]); !ok {
				return 0, fmt.Errorf("route probe: no route %d→%d", from[i], to[i])
			}
		}
		return time.Since(start) / time.Duration(len(from)), nil
	}
	rg.Reset()
	if _, err := round(); err != nil { // warm the route cache
		return err
	}
	var hit []float64
	for r := 0; r < 20; r++ {
		d, err := round()
		if err != nil {
			return err
		}
		hit = append(hit, us(d))
	}
	rg.Occupy(rg.ChannelGroupID(0))
	var cold []float64
	start := time.Now()
	for len(cold) < 3 || (time.Since(start) < budget && len(cold) < 20) {
		d, err := round()
		if err != nil {
			return err
		}
		cold = append(cold, us(d))
	}
	rg.Reset()
	rc.setMedian("routegraph.route_hit_us", hit)
	rc.setMedian("routegraph.route_cold_us", cold)
	return nil
}

// engineProbe times warm engine runs of one placement: traceless, and
// with trace capture. It returns the median of each and the traceless
// run's result.
func engineProbe(sim *engine.Sim, g *qidg.Graph, cfg engine.Config, p engine.Placement, reps int) (run, captured time.Duration, res *engine.Result, err error) {
	var plain, capt []float64
	for i := 0; i < reps; i++ {
		cfg.CollectTrace = false
		start := time.Now()
		res, err = sim.Run(g, cfg, p)
		plain = append(plain, float64(time.Since(start)))
		if err != nil {
			return 0, 0, nil, err
		}
		cfg.CollectTrace = true
		start = time.Now()
		_, err = sim.Run(g, cfg, p)
		capt = append(capt, float64(time.Since(start)))
		if err != nil {
			return 0, 0, nil, err
		}
	}
	return time.Duration(median(plain)), time.Duration(median(capt)), res, nil
}

// forkProbe records one traceless run of placement p, then forks it
// with seeded two-qubit swap deltas through Sim.RunFrom. Every fork is
// checked against a cold run of the swapped placement on a second
// Sim. It returns the fork times and the replayed share of events
// (CheckpointLog.Profile) over the forks.
func forkProbe(rc *runCtx, g *qidg.Graph, cfg engine.Config, p engine.Placement, forks int, rng *rand.Rand) (times []float64, replayFrac float64, err error) {
	cfg.CollectTrace = false
	rec, cold := engine.NewSim(), engine.NewSim()
	var log engine.CheckpointLog
	if _, err := rec.RunRecorded(g, cfg, p, &log); err != nil {
		return nil, 0, err
	}
	log.ResetProfile()
	for i := 0; i < forks; i++ {
		a, b := rng.Intn(len(p)), rng.Intn(len(p))
		if a == b || p[a] == p[b] {
			continue
		}
		delta := engine.Delta{{Qubit: a, To: p[b]}, {Qubit: b, To: p[a]}}
		cp := log.Before(delta)
		if cp == nil {
			return nil, 0, fmt.Errorf("fork probe: no checkpoint for delta %v", delta)
		}
		start := time.Now()
		fork, err := rec.RunFrom(cp, delta)
		times = append(times, us(time.Since(start)))
		if err != nil {
			return nil, 0, err
		}
		swapped := p.Clone()
		swapped[a], swapped[b] = p[b], p[a]
		want, err := cold.Run(g, cfg, swapped)
		if err != nil {
			return nil, 0, err
		}
		rc.check(fork.Latency == want.Latency && fork.Stats == want.Stats,
			"fork probe: fork latency %v, cold run %v", fork.Latency, want.Latency)
	}
	replayed, total := log.Profile()
	if total > 0 {
		replayFrac = float64(replayed) / float64(total)
	}
	return times, replayFrac, nil
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }
func us(d time.Duration) float64 { return d.Seconds() * 1e6 }
