package core

import (
	"testing"

	"repro/internal/circuits"
	"repro/internal/fabric"
	"repro/internal/gates"
	"repro/internal/place"
	"repro/internal/qidg"
)

func TestIdealLatencyFig3(t *testing.T) {
	got, err := IdealLatency(circuits.Fig3(), gates.Default())
	if err != nil {
		t.Fatal(err)
	}
	if got != 610 {
		t.Errorf("ideal latency = %v, want 610", got)
	}
}

func TestMapAllHeuristicsOnFig3(t *testing.T) {
	fab := fabric.Quale4585()
	prog := circuits.Fig3()
	for _, h := range []Heuristic{QSPR, QSPRCenter, MonteCarlo, QUALE, QPOS, QPOSDelay} {
		h := h
		t.Run(h.String(), func(t *testing.T) {
			res, err := Map(prog, fab, Options{Heuristic: h, Seeds: 3})
			if err != nil {
				t.Fatal(err)
			}
			if res.Latency < res.Ideal {
				t.Errorf("latency %v below ideal %v", res.Latency, res.Ideal)
			}
			if res.Overhead() != res.Latency-res.Ideal {
				t.Error("Overhead inconsistent")
			}
			if err := res.Mapping.Trace.Validate(); err != nil {
				t.Errorf("trace: %v", err)
			}
			if res.Runtime <= 0 {
				t.Error("runtime not measured")
			}
			if res.Heuristic != h {
				t.Error("heuristic not recorded")
			}
		})
	}
}

func TestQSPRBeatsQUALEOnAllBenchmarks(t *testing.T) {
	// The Table 2 headline: QSPR's latency is below QUALE's on every
	// benchmark circuit.
	if testing.Short() {
		t.Skip("short mode")
	}
	fab := fabric.Quale4585()
	for _, b := range circuits.All() {
		quale, err := Map(b.Program, fab, Options{Heuristic: QUALE})
		if err != nil {
			t.Fatalf("%s QUALE: %v", b.Name, err)
		}
		qspr, err := Map(b.Program, fab, Options{Heuristic: QSPR, Seeds: 5})
		if err != nil {
			t.Fatalf("%s QSPR: %v", b.Name, err)
		}
		if qspr.Latency >= quale.Latency {
			t.Errorf("%s: QSPR %v not better than QUALE %v", b.Name, qspr.Latency, quale.Latency)
		}
		if quale.Latency <= quale.Ideal || qspr.Latency <= qspr.Ideal {
			t.Errorf("%s: latencies at or below the ideal bound look wrong", b.Name)
		}
	}
}

func TestMonteCarloRunsProtocol(t *testing.T) {
	fab := fabric.Quale4585()
	prog := circuits.Fig3()
	res, err := MonteCarloRuns(prog, fab, 7, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Runs != 7 {
		t.Errorf("runs = %d, want 7", res.Runs)
	}
	if res.Heuristic != MonteCarlo {
		t.Error("heuristic mislabeled")
	}
}

func TestHeuristicStrings(t *testing.T) {
	want := map[Heuristic]string{
		QSPR: "QSPR", QSPRCenter: "QSPR-center", MonteCarlo: "MC",
		QUALE: "QUALE", QPOS: "QPOS", QPOSDelay: "QPOS-delay",
		Portfolio: "Portfolio", Anneal: "Anneal",
		Heuristic(99): "?",
	}
	for h, s := range want {
		if h.String() != s {
			t.Errorf("%d.String() = %q, want %q", h, h.String(), s)
		}
	}
}

func TestCustomTech(t *testing.T) {
	fab := fabric.Quale4585()
	prog := circuits.Fig3()
	tech := gates.Default()
	tech.TwoQubitGate = 200
	res, err := Map(prog, fab, Options{Heuristic: QSPRCenter, Tech: &tech})
	if err != nil {
		t.Fatal(err)
	}
	// Ideal doubles in its two-qubit component: 6*200 + 10 = 1210.
	if res.Ideal != 1210 {
		t.Errorf("ideal with slow 2q gates = %v, want 1210", res.Ideal)
	}
}

func TestUnknownHeuristic(t *testing.T) {
	if _, err := Map(circuits.Fig3(), fabric.Quale4585(), Options{Heuristic: Heuristic(42)}); err == nil {
		t.Error("unknown heuristic accepted")
	}
}

func TestDefaultsApplied(t *testing.T) {
	o, err := Options{}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	// Seed 0 → 1 is the documented coercion: the zero Options value
	// must reproduce the pinned deterministic defaults.
	if o.Seeds != 25 || o.Seed != 1 || o.Patience != 3 || o.InnerParallel != 1 {
		t.Errorf("defaults = %+v", o)
	}
}

// TestNormalizeRejectsNegatives: negative knobs fail loudly instead
// of being silently coerced.
func TestNormalizeRejectsNegatives(t *testing.T) {
	cases := []Options{
		{Seeds: -1},
		{Seed: -1},
		{Patience: -2},
		{InnerParallel: -1},
		{AnnealMoves: -1},
		{AnnealRestarts: -4},
		{AnnealCooling: -0.5},
		{AnnealCooling: 1},
		{AnnealCooling: 1.5},
	}
	for _, o := range cases {
		if _, err := o.Normalize(); err == nil {
			t.Errorf("Normalize(%+v): expected error", o)
		}
		if _, err := Map(circuits.Fig3(), fabric.Quale4585(), o); err == nil {
			t.Errorf("Map with %+v: expected error", o)
		}
	}
}

// TestAnnealKnobDefaults: anneal knobs resolve only where they shape
// results — other heuristics' normalized options (hence ResultKeys and
// the qsprd cache) keep the pre-anneal layout.
func TestAnnealKnobDefaults(t *testing.T) {
	o, err := Options{Heuristic: Anneal}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if o.AnnealMoves != 400 || o.AnnealRestarts != 4 || o.AnnealCooling != 0.97 {
		t.Errorf("anneal defaults = moves %d restarts %d cooling %g", o.AnnealMoves, o.AnnealRestarts, o.AnnealCooling)
	}
	o, err = Options{Heuristic: QSPR, AnnealMoves: 100}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if o.AnnealRestarts != 0 || o.AnnealCooling != 0 {
		t.Errorf("QSPR run resolved anneal knobs it never uses: %+v", o)
	}

	key, err := Options{Heuristic: QSPR}.ResultKey()
	if err != nil {
		t.Fatal(err)
	}
	if want := "h=QSPR;m=25;seed=1;patience=3"; key != want {
		t.Errorf("pre-anneal ResultKey changed: %q, want %q", key, want)
	}
	key, err = Options{Heuristic: Anneal}.ResultKey()
	if err != nil {
		t.Fatal(err)
	}
	if want := "h=Anneal;m=25;seed=1;patience=3;amoves=400;arestarts=4;acooling=0.97"; key != want {
		t.Errorf("anneal ResultKey = %q, want %q", key, want)
	}
	k1, err := Options{Heuristic: Anneal, AnnealMoves: 100}.ResultKey()
	if err != nil {
		t.Fatal(err)
	}
	k2, err := Options{Heuristic: Anneal, AnnealMoves: 200}.ResultKey()
	if err != nil {
		t.Fatal(err)
	}
	if k1 == k2 {
		t.Error("ResultKey ignores AnnealMoves")
	}
}

// TestMapAnneal: the Anneal heuristic maps end to end, is
// deterministic across repeated and parallel calls, and reports the
// Anneal label.
func TestMapAnneal(t *testing.T) {
	fab := fabric.Quale4585()
	prog := circuits.Fig3()
	opts := Options{Heuristic: Anneal, AnnealMoves: 60, AnnealRestarts: 2}
	a, err := Map(prog, fab, opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.Heuristic != Anneal || a.Mapping == nil || a.Runs == 0 {
		t.Fatalf("anneal result malformed: %+v", a)
	}
	popts := opts
	popts.InnerParallel = 4
	b, err := Map(prog, fab, popts)
	if err != nil {
		t.Fatal(err)
	}
	if a.Latency != b.Latency || a.Runs != b.Runs {
		t.Errorf("anneal not parallel-deterministic: latency %v/%v runs %d/%d",
			a.Latency, b.Latency, a.Runs, b.Runs)
	}
	// Warm-Mapper path is bit-identical too.
	c, err := NewMapper().Map(prog, fab, opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.Latency != c.Latency || a.Runs != c.Runs {
		t.Errorf("warm Mapper anneal diverges: latency %v/%v", a.Latency, c.Latency)
	}
}

// TestMapPortfolioWithAnneal: opting the annealer into the portfolio
// never worsens the race and labels an anneal win.
func TestMapPortfolioWithAnneal(t *testing.T) {
	fab := fabric.Quale4585()
	prog := circuits.Fig3()
	base, err := Map(prog, fab, Options{Heuristic: Portfolio, Seeds: 3})
	if err != nil {
		t.Fatal(err)
	}
	with, err := Map(prog, fab, Options{Heuristic: Portfolio, Seeds: 3, AnnealMoves: 60, AnnealRestarts: 2})
	if err != nil {
		t.Fatal(err)
	}
	if with.Latency > base.Latency {
		t.Errorf("anneal entrant worsened the portfolio: %v > %v", with.Latency, base.Latency)
	}
	if with.PortfolioWinner == "" {
		t.Error("portfolio winner label missing")
	}
}

// TestMapperQSPRAllocBudget gates the paper protocol's allocations: a
// warm Mapper's QSPR map of [[5,1,3]] on quale45x85 (MVFB, m=25, seed
// 1) allocates at most 1,000 objects. Recording checkpoints for
// suffix replay during MVFB's forward runs costs thousands more, so
// the gate fails if that comes back.
func TestMapperQSPRAllocBudget(t *testing.T) {
	const budget = 1000
	bench, err := circuits.ByName("[[5,1,3]]")
	if err != nil {
		t.Fatal(err)
	}
	fab := fabric.Quale4585()
	opts := Options{Heuristic: QSPR, Seeds: 25, Seed: 1}
	mp := NewMapper()
	if _, err := mp.Map(bench.Program, fab, opts); err != nil { // warm the Sim and its route cache
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(5, func() {
		if _, err := mp.Map(bench.Program, fab, opts); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("warm QSPR map allocates %.0f objects", avg)
	if avg > budget {
		t.Errorf("warm QSPR map allocates %.0f objects, budget %d", avg, budget)
	}
}

// TestQSPRSearchWorkBudget gates the paper protocol's route-search
// work the way TestMapperQSPRAllocBudget gates its allocations: heap
// pops are as deterministic as allocations, so the gate needs no
// timer. QSPR's MVFB search (m=25, seed 1) maps [[23,1,7]] on
// quale45x85 over one caller-supplied route graph. It pops 1,427,997
// heap entries and counts 3,670 sealed-destination floods in the ring
// (2 fall back); with every flood on the heap it popped 3,063,802. The
// gate fails if pops exceed the measured count by more than 10%, or if
// no flood is counted in the ring.
func TestQSPRSearchWorkBudget(t *testing.T) {
	const pops = 1_427_997
	bench, err := circuits.ByName("[[23,1,7]]")
	if err != nil {
		t.Fatal(err)
	}
	g, err := qidg.Build(bench.Program)
	if err != nil {
		t.Fatal(err)
	}
	opts, err := Options{Heuristic: QSPR, Seeds: 25, Seed: 1}.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	cfg := qsprConfig(fabric.Quale4585(), gates.Default())
	cfg.RouteGraph = cfg.BuildRouteGraph()
	sol, err := place.MVFB(g, cfg, place.MVFBOptions{
		Seeds: opts.Seeds, Patience: opts.Patience, MaxRunsPerSeed: 50, Seed: opts.Seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sol.Result.Latency != 2932 {
		t.Fatalf("latency %v, want Table 2's pinned 2932µs", sol.Result.Latency)
	}
	w := cfg.RouteGraph.SearchWork()
	t.Logf("search work %+v", w)
	if w.HeapPops > pops+pops/10 {
		t.Errorf("%d heap pops, budget %d (measured %d + 10%%)", w.HeapPops, pops+pops/10, pops)
	}
	if w.RingFloods == 0 {
		t.Error("no sealed-destination flood was counted in the ring")
	}
}
