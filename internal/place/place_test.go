package place

import (
	"math/rand"
	"testing"

	"repro/internal/engine"
	"repro/internal/fabric"
	"repro/internal/gates"
	"repro/internal/qasm"
	"repro/internal/qidg"
	"repro/internal/sched"
)

const fig3 = `
QUBIT q0,0
QUBIT q1,0
QUBIT q2,0
QUBIT q3
QUBIT q4,0
H q0
H q1
H q2
H q4
C-X q3,q2
C-Z q4,q2
C-Y q2,q1
C-Y q3,q1
C-X q4,q1
C-Z q2,q0
C-Y q3,q0
C-Z q4,q0
`

func fig3Graph(t *testing.T) *qidg.Graph {
	t.Helper()
	p, err := qasm.ParseString(fig3)
	if err != nil {
		t.Fatal(err)
	}
	g, err := qidg.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func qsprConfig(f *fabric.Fabric) engine.Config {
	return engine.Config{
		Fabric:       f,
		Tech:         gates.Default(),
		Policy:       sched.QSPR,
		Weights:      sched.DefaultWeights(),
		TurnAware:    true,
		BothMove:     true,
		MedianTarget: true,
	}
}

func TestCenterPlacementDeterministic(t *testing.T) {
	f := fabric.Quale4585()
	a, err := Center(f, 5)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Center(f, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("center placement nondeterministic")
		}
	}
	// The traps must be the 5 closest to center, one qubit each.
	order := f.TrapsByDistance(f.Center())
	for i, tr := range a {
		if tr != order[i] {
			t.Errorf("qubit %d at trap %d, want %d", i, tr, order[i])
		}
	}
}

func TestCenterTooManyQubits(t *testing.T) {
	f := fabric.Small()
	if _, err := Center(f, len(f.Traps)+1); err == nil {
		t.Error("accepted more qubits than traps")
	}
}

func TestCenterPermutationIsPermutation(t *testing.T) {
	f := fabric.Quale4585()
	rng := rand.New(rand.NewSource(3))
	base, _ := Center(f, 8)
	perm, err := CenterPermutation(f, 8, rng)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	baseSet := map[int]bool{}
	for i := range base {
		baseSet[base[i]] = true
	}
	for _, tr := range perm {
		if seen[tr] {
			t.Fatalf("trap %d assigned twice", tr)
		}
		seen[tr] = true
		if !baseSet[tr] {
			t.Fatalf("trap %d not among the center traps", tr)
		}
	}
}

func TestMonteCarloImprovesWithRuns(t *testing.T) {
	g := fig3Graph(t)
	cfg := qsprConfig(fabric.Quale4585())
	one, err := MonteCarlo(g, cfg, 1, 7, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	many, err := MonteCarlo(g, cfg, 12, 7, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if many.Result.Latency > one.Result.Latency {
		t.Errorf("MC with 12 runs (%v) worse than 1 run (%v)", many.Result.Latency, one.Result.Latency)
	}
	if many.Runs != 12 {
		t.Errorf("runs = %d", many.Runs)
	}
}

func TestMonteCarloRejectsZeroRuns(t *testing.T) {
	g := fig3Graph(t)
	if _, err := MonteCarlo(g, qsprConfig(fabric.Quale4585()), 0, 1, 1, nil); err == nil {
		t.Error("accepted 0 runs")
	}
}

func TestMVFBProducesValidSolution(t *testing.T) {
	g := fig3Graph(t)
	cfg := qsprConfig(fabric.Quale4585())
	sol, err := MVFB(g, cfg, DefaultMVFBOptions(3))
	if err != nil {
		t.Fatal(err)
	}
	if sol.Result == nil {
		t.Fatal("no result")
	}
	ideal := g.CriticalPathLatency(cfg.Tech)
	if sol.Result.Latency < ideal {
		t.Errorf("latency %v below ideal %v", sol.Result.Latency, ideal)
	}
	if err := sol.Result.Trace.Validate(); err != nil {
		t.Errorf("trace invalid: %v", err)
	}
	if sol.Runs < 2*3 {
		t.Errorf("MVFB with 3 seeds ran only %d placement runs", sol.Runs)
	}
	// Gate ops count must match (reversal preserves ops).
	_, _, gateOps := sol.Result.Trace.Counts()
	if gateOps != g.Len() {
		t.Errorf("%d gate ops, want %d", gateOps, g.Len())
	}
}

func TestMVFBBeatsOrMatchesMCAtSameRuns(t *testing.T) {
	// The paper's Table 1 protocol: MC gets twice the number of MVFB
	// iterations, i.e. the same number of placement runs; MVFB
	// should still win (or come close).
	g := fig3Graph(t)
	cfg := qsprConfig(fabric.Quale4585())
	mvfb, err := MVFB(g, cfg, DefaultMVFBOptions(4))
	if err != nil {
		t.Fatal(err)
	}
	mc, err := MonteCarlo(g, cfg, mvfb.Runs, 99, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Allow a small tolerance: on the tiny Fig. 3 circuit the two
	// placers can land very close; the Table 1 bench asserts the
	// aggregate trend across all six codes.
	if float64(mvfb.Result.Latency) > 1.10*float64(mc.Result.Latency) {
		t.Errorf("MVFB %v much worse than MC %v at equal runs", mvfb.Result.Latency, mc.Result.Latency)
	}
}

func TestMVFBDeterministic(t *testing.T) {
	g := fig3Graph(t)
	cfg := qsprConfig(fabric.Quale4585())
	opts := DefaultMVFBOptions(2)
	a, err := MVFB(g, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := MVFB(g, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.Result.Latency != b.Result.Latency || a.Runs != b.Runs || a.Backward != b.Backward {
		t.Errorf("MVFB nondeterministic: %v/%d/%v vs %v/%d/%v",
			a.Result.Latency, a.Runs, a.Backward, b.Result.Latency, b.Runs, b.Backward)
	}
}

func TestMVFBRejectsZeroSeeds(t *testing.T) {
	g := fig3Graph(t)
	if _, err := MVFB(g, qsprConfig(fabric.Quale4585()), MVFBOptions{Seeds: 0}); err == nil {
		t.Error("accepted 0 seeds")
	}
}

func TestBackwardSolutionShape(t *testing.T) {
	g := fig3Graph(t)
	cfg := qsprConfig(fabric.Quale4585())
	// Force many iterations so backward wins sometimes; then check
	// invariants of whichever solution came out.
	sol, err := MVFB(g, cfg, MVFBOptions{Seeds: 5, Patience: 3, MaxRunsPerSeed: 10, Seed: 123})
	if err != nil {
		t.Fatal(err)
	}
	res := sol.Result
	if err := res.Trace.Validate(); err != nil {
		t.Fatalf("trace invalid: %v", err)
	}
	if res.Trace.Latency != res.Latency {
		t.Errorf("trace latency %v != reported %v", res.Trace.Latency, res.Latency)
	}
	if len(res.IssueOrder) != g.Len() {
		t.Errorf("issue order len %d", len(res.IssueOrder))
	}
	if err := res.Initial.Validate(cfg.Fabric, cfg.Tech.TrapCapacity); err != nil {
		t.Errorf("initial placement: %v", err)
	}
	if err := res.Final.Validate(cfg.Fabric, cfg.Tech.TrapCapacity); err != nil {
		t.Errorf("final placement: %v", err)
	}
	// When the winner is a backward run, its trace must replay the
	// *forward* gates: first gate op should be an initial-layer gate
	// of the forward graph (an H in Fig. 3).
	gops := res.Trace.GateOps()
	if len(gops) == 0 {
		t.Fatal("no gate ops")
	}
	first := gops[0]
	if len(g.Preds[first.Node]) != 0 {
		t.Errorf("first executed gate (node %d) has unsatisfied dependencies", first.Node)
	}
}

func TestMVFBSeedsIndependent(t *testing.T) {
	g := fig3Graph(t)
	cfg := qsprConfig(fabric.Quale4585())
	a, err := MVFB(g, cfg, MVFBOptions{Seeds: 1, Patience: 3, MaxRunsPerSeed: 50, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	b, err := MVFB(g, cfg, MVFBOptions{Seeds: 6, Patience: 3, MaxRunsPerSeed: 50, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if b.Result.Latency > a.Result.Latency {
		t.Errorf("more seeds made result worse: %v vs %v", b.Result.Latency, a.Result.Latency)
	}
	if b.Runs <= a.Runs {
		t.Errorf("more seeds did not add runs: %d vs %d", b.Runs, a.Runs)
	}
}

// TestMVFBParallelGlobalScope: the paper's global-patience protocol
// is parallelized by speculative trajectories + deterministic replay;
// every field of the solution — including the realized run count,
// which the replay truncates to the sequential stopping point — must
// match the sequential search.
func TestMVFBParallelGlobalScope(t *testing.T) {
	g := fig3Graph(t)
	cfg := qsprConfig(fabric.Quale4585())
	base := MVFBOptions{Seeds: 5, Patience: 3, MaxRunsPerSeed: 20, Seed: 7}
	seq, err := MVFB(g, cfg, base)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 4, 8} {
		opts := base
		opts.Workers = workers
		par, err := MVFB(g, cfg, opts)
		if err != nil {
			t.Fatal(err)
		}
		if par.Result.Latency != seq.Result.Latency ||
			par.Runs != seq.Runs ||
			par.Seed != seq.Seed ||
			par.Backward != seq.Backward ||
			par.Iteration != seq.Iteration {
			t.Errorf("workers=%d diverges: %v/%d/%d/%v vs %v/%d/%d/%v",
				workers, par.Result.Latency, par.Runs, par.Seed, par.Backward,
				seq.Result.Latency, seq.Runs, seq.Seed, seq.Backward)
		}
	}
}

// TestMonteCarloForcedOrderCaptures: deferred capture must replay the
// Monte-Carlo winner under the caller's scheduling knobs — including
// an explicit ForcedOrder — or the replay cross-check would reject a
// perfectly valid sweep (regression: captureWinner once cleared the
// forced order for forward winners unconditionally).
func TestMonteCarloForcedOrderCaptures(t *testing.T) {
	g := fig3Graph(t)
	cfg := qsprConfig(fabric.Quale4585())
	base, err := CenterRun(g, cfg, engine.NewSim())
	if err != nil {
		t.Fatal(err)
	}
	// Reverse the realized order so the forced schedule genuinely
	// differs from what the policy would produce — a replay that
	// dropped ForcedOrder diverges instead of coincidentally matching.
	forced := make([]int, len(base.IssueOrder))
	for i, n := range base.IssueOrder {
		forced[len(forced)-1-i] = n
	}
	cfg.ForcedOrder = forced
	sol, err := MonteCarlo(g, cfg, 4, 7, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if sol.Result.Trace == nil {
		t.Fatal("winner trace not captured")
	}
	if err := sol.Result.Trace.Validate(); err != nil {
		t.Error(err)
	}
}
