package engine

import (
	"testing"

	"repro/internal/fabric"
	"repro/internal/gates"
	"repro/internal/qasm"
	"repro/internal/qidg"
	"repro/internal/sched"
	"repro/internal/trace"
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

func graphOf(t *testing.T, src string) *qidg.Graph {
	t.Helper()
	p, err := qasm.ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	g, err := qidg.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func qsprConfig(f *fabric.Fabric) Config {
	return Config{
		Fabric:       f,
		Tech:         gates.Default(),
		Policy:       sched.QSPR,
		Weights:      sched.DefaultWeights(),
		TurnAware:    true,
		BothMove:     true,
		MedianTarget: true,
	}
}

// run maps g once on a fresh Sim with trace capture on: the cold
// reference the reuse, fork and fingerprint tests compare against.
func run(g *qidg.Graph, cfg Config, initial Placement) (*Result, error) {
	cfg.CollectTrace = true
	return NewSim().Run(g, cfg, initial)
}

func centerPlacement(f *fabric.Fabric, n int) Placement {
	order := f.TrapsByDistance(f.Center())
	p := make(Placement, n)
	copy(p, order[:n])
	return p
}

func TestRunFig3OnQuale(t *testing.T) {
	g := graphOf(t, fig3)
	f := fabric.Quale4585()
	cfg := qsprConfig(f)
	res, err := run(g, cfg, centerPlacement(f, g.NumQubits))
	if err != nil {
		t.Fatal(err)
	}
	ideal := g.CriticalPathLatency(cfg.Tech)
	if res.Latency < ideal {
		t.Errorf("latency %v below ideal lower bound %v", res.Latency, ideal)
	}
	if err := res.Trace.Validate(); err != nil {
		t.Errorf("trace invalid: %v", err)
	}
	if len(res.IssueOrder) != g.Len() {
		t.Errorf("issue order covers %d of %d instructions", len(res.IssueOrder), g.Len())
	}
	_, _, gateOps := res.Trace.Counts()
	if gateOps != g.Len() {
		t.Errorf("trace has %d gate ops, want %d", gateOps, g.Len())
	}
	if err := res.Final.Validate(f, cfg.Tech.TrapCapacity); err != nil {
		t.Errorf("final placement invalid: %v", err)
	}
}

func TestIssueOrderTopological(t *testing.T) {
	g := graphOf(t, fig3)
	f := fabric.Quale4585()
	res, err := run(g, qsprConfig(f), centerPlacement(f, g.NumQubits))
	if err != nil {
		t.Fatal(err)
	}
	pos := make(map[int]int, len(res.IssueOrder))
	for i, n := range res.IssueOrder {
		pos[n] = i
	}
	for u, ss := range g.Succs {
		for _, v := range ss {
			if pos[u] >= pos[v] {
				t.Errorf("issue order violates dependency %d->%d", u, v)
			}
		}
	}
}

func TestDeterminism(t *testing.T) {
	g := graphOf(t, fig3)
	f := fabric.Quale4585()
	cfg := qsprConfig(f)
	cfg.TieSeed = 42
	p := centerPlacement(f, g.NumQubits)
	a, err := run(g, cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := run(g, cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	if a.Latency != b.Latency {
		t.Errorf("nondeterministic latency: %v vs %v", a.Latency, b.Latency)
	}
	if len(a.Trace.Ops) != len(b.Trace.Ops) {
		t.Errorf("nondeterministic trace length")
	}
	for i := range a.IssueOrder {
		if a.IssueOrder[i] != b.IssueOrder[i] {
			t.Fatalf("nondeterministic issue order at %d", i)
		}
	}
}

func TestOneQubitChainNoRouting(t *testing.T) {
	g := graphOf(t, "QUBIT a,0\nH a\nX a\nS a\n")
	f := fabric.Small()
	res, err := run(g, qsprConfig(f), centerPlacement(f, 1))
	if err != nil {
		t.Fatal(err)
	}
	if res.Latency != 30 {
		t.Errorf("latency = %v, want 30 (three chained 1q gates)", res.Latency)
	}
	if res.Stats.Moves != 0 || res.Stats.Turns != 0 {
		t.Errorf("one-qubit chain should not move: %+v", res.Stats)
	}
	if res.Final[0] != res.Initial[0] {
		t.Error("qubit moved during 1q chain")
	}
}

func TestTwoQubitSameTrapNoRouting(t *testing.T) {
	g := graphOf(t, "QUBIT a,0\nQUBIT b,0\nC-X a,b\n")
	f := fabric.Small()
	p := Placement{3, 3} // both in trap 3
	res, err := run(g, qsprConfig(f), p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Latency != 100 {
		t.Errorf("latency = %v, want exactly T_2q=100", res.Latency)
	}
	if res.Stats.Moves != 0 {
		t.Errorf("no movement expected, got %d moves", res.Stats.Moves)
	}
}

func TestTwoQubitNeighborTraps(t *testing.T) {
	// Find two traps sharing an attachment cell in Small: routing
	// one qubit across costs exactly 2 moves = 2µs, so latency is
	// 2 + 100 when the median target is one of the two traps.
	f := fabric.Small()
	var a, b = -1, -1
	for _, ch := range f.Channels {
		for i := 0; i < len(ch.Traps); i++ {
			for k := i + 1; k < len(ch.Traps); k++ {
				if f.Traps[ch.Traps[i]].Offset == f.Traps[ch.Traps[k]].Offset {
					a, b = ch.Traps[i], ch.Traps[k]
				}
			}
		}
	}
	if a < 0 {
		t.Skip("no neighbor trap pair")
	}
	g := graphOf(t, "QUBIT a,0\nQUBIT b,0\nC-X a,b\n")
	res, err := run(g, qsprConfig(f), Placement{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if res.Latency != 102 {
		t.Errorf("latency = %v, want 102 (2 moves + gate)", res.Latency)
	}
}

func TestBothOperandsEndInTargetTrap(t *testing.T) {
	g := graphOf(t, "QUBIT a,0\nQUBIT b,0\nC-Z a,b\n")
	f := fabric.Quale4585()
	// Far-apart initial placement.
	ta := f.TrapsByDistance(fabric.Pos{Row: 0, Col: 0})[0]
	tb := f.TrapsByDistance(fabric.Pos{Row: 44, Col: 84})[0]
	res, err := run(g, qsprConfig(f), Placement{ta, tb})
	if err != nil {
		t.Fatal(err)
	}
	if res.Final[0] != res.Final[1] {
		t.Errorf("operands in different traps after gate: %v", res.Final)
	}
	if res.Stats.RoutedQubitTrips != 2 {
		t.Errorf("both-move should route 2 trips, got %d", res.Stats.RoutedQubitTrips)
	}
	// The median target roughly halves each operand's journey
	// compared to one operand traveling the full distance.
	full := fabric.ManhattanDist(f.Traps[ta].Pos, f.Traps[tb].Pos)
	if res.Stats.Moves > full+30 {
		t.Errorf("moves %d far exceed Manhattan %d; median targeting broken?", res.Stats.Moves, full)
	}
}

func TestSingleMoveModeUsesDestinationTrap(t *testing.T) {
	g := graphOf(t, "QUBIT a,0\nQUBIT b,0\nC-Z a,b\n")
	f := fabric.Quale4585()
	ta := f.TrapsByDistance(fabric.Pos{Row: 0, Col: 0})[0]
	tb := f.TrapsByDistance(fabric.Pos{Row: 44, Col: 84})[0]
	cfg := qsprConfig(f)
	cfg.BothMove = false
	cfg.MedianTarget = false
	res, err := run(g, cfg, Placement{ta, tb})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.RoutedQubitTrips != 1 {
		t.Errorf("single-move should route 1 trip, got %d", res.Stats.RoutedQubitTrips)
	}
	if res.Final[0] != tb || res.Final[1] != tb {
		t.Errorf("gate should execute in destination trap %d: %v", tb, res.Final)
	}
}

func TestBothMoveBeatsSingleMoveOnFarPair(t *testing.T) {
	g := graphOf(t, "QUBIT a,0\nQUBIT b,0\nC-Z a,b\n")
	f := fabric.Quale4585()
	ta := f.TrapsByDistance(fabric.Pos{Row: 0, Col: 0})[0]
	tb := f.TrapsByDistance(fabric.Pos{Row: 44, Col: 84})[0]
	both, err := run(g, qsprConfig(f), Placement{ta, tb})
	if err != nil {
		t.Fatal(err)
	}
	cfg := qsprConfig(f)
	cfg.BothMove = false
	cfg.MedianTarget = false
	single, err := run(g, cfg, Placement{ta, tb})
	if err != nil {
		t.Fatal(err)
	}
	if both.Latency >= single.Latency {
		t.Errorf("both-move %v not better than single-move %v on far pair", both.Latency, single.Latency)
	}
}

func TestForcedOrderReplaysExactly(t *testing.T) {
	g := graphOf(t, fig3)
	f := fabric.Quale4585()
	cfg := qsprConfig(f)
	p := centerPlacement(f, g.NumQubits)
	first, err := run(g, cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	cfg.ForcedOrder = first.IssueOrder
	second, err := run(g, cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	for i := range first.IssueOrder {
		if second.IssueOrder[i] != first.IssueOrder[i] {
			t.Fatalf("forced order not replayed at %d", i)
		}
	}
}

func TestBackwardRunOnReversedGraph(t *testing.T) {
	g := graphOf(t, fig3)
	f := fabric.Quale4585()
	cfg := qsprConfig(f)
	p := centerPlacement(f, g.NumQubits)
	fwd, err := run(g, cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	rev := g.Reverse()
	order := make([]int, len(fwd.IssueOrder))
	for i, n := range fwd.IssueOrder {
		order[len(order)-1-i] = n
	}
	bcfg := cfg
	bcfg.ForcedOrder = order
	bwd, err := run(rev, bcfg, fwd.Final)
	if err != nil {
		t.Fatal(err)
	}
	if err := bwd.Trace.Validate(); err != nil {
		t.Errorf("backward trace invalid: %v", err)
	}
	if bwd.Latency < rev.CriticalPathLatency(cfg.Tech) {
		t.Errorf("backward latency below ideal bound")
	}
}

func TestPlacementValidation(t *testing.T) {
	g := graphOf(t, fig3)
	f := fabric.Small()
	cfg := qsprConfig(f)
	if _, err := run(g, cfg, Placement{0, 1}); err == nil {
		t.Error("short placement accepted")
	}
	if _, err := run(g, cfg, Placement{0, 1, 2, 3, 999}); err == nil {
		t.Error("out-of-range trap accepted")
	}
	if _, err := run(g, cfg, Placement{0, 0, 0, 1, 2}); err == nil {
		t.Error("overloaded trap accepted")
	}
	bad := cfg
	bad.Fabric = nil
	if _, err := run(g, bad, Placement{0, 1, 2, 3, 4}); err == nil {
		t.Error("nil fabric accepted")
	}
}

func TestStatsConsistentWithTrace(t *testing.T) {
	g := graphOf(t, fig3)
	f := fabric.Quale4585()
	res, err := run(g, qsprConfig(f), centerPlacement(f, g.NumQubits))
	if err != nil {
		t.Fatal(err)
	}
	var moves, turns int
	for _, op := range res.Trace.Ops {
		switch op.Kind {
		case trace.OpMove:
			// one OpMove per hop move-segment; count via stats only
			moves++
		case trace.OpTurn:
			turns++
		}
	}
	if res.Stats.Turns == 0 || res.Stats.Moves == 0 {
		t.Error("expected nonzero movement on spread placement")
	}
	if turns == 0 || moves == 0 {
		t.Error("trace lacks movement micro-commands")
	}
	var wantRouting gates.Time
	for _, op := range res.Trace.Ops {
		if op.Kind != trace.OpGate {
			wantRouting += op.Duration()
		}
	}
	if res.Stats.RoutingDelay != wantRouting {
		t.Errorf("routing delay %v != trace movement time %v", res.Stats.RoutingDelay, wantRouting)
	}
}

func TestGateDelayStat(t *testing.T) {
	g := graphOf(t, fig3)
	f := fabric.Quale4585()
	res, err := run(g, qsprConfig(f), centerPlacement(f, g.NumQubits))
	if err != nil {
		t.Fatal(err)
	}
	// Fig. 3: 4 H gates (10µs) + 8 two-qubit gates (100µs).
	if res.Stats.GateDelay != 4*10+8*100 {
		t.Errorf("gate delay = %v, want 840", res.Stats.GateDelay)
	}
}

// TestCongestedFabricStillCompletes drives many qubits through a tiny
// fabric to exercise the busy queue and capacity reservations.
func TestCongestedFabricStillCompletes(t *testing.T) {
	src := `
QUBIT a,0
QUBIT b,0
QUBIT c,0
QUBIT d,0
QUBIT e,0
QUBIT f,0
H a
H b
C-X a,b
C-X c,d
C-X e,f
C-Z a,c
C-Z b,e
C-Y d,f
C-X a,f
C-X b,d
C-Z c,e
`
	g := graphOf(t, src)
	fb := fabric.Small() // 8 traps, 6 qubits
	res, err := run(g, qsprConfig(fb), centerPlacement(fb, g.NumQubits))
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Trace.Validate(); err != nil {
		t.Errorf("trace invalid: %v", err)
	}
	if res.Latency < g.CriticalPathLatency(gates.Default()) {
		t.Error("latency below ideal bound")
	}
}

func TestCapacityOneStillCompletes(t *testing.T) {
	g := graphOf(t, fig3)
	f := fabric.Quale4585()
	cfg := qsprConfig(f)
	cfg.Tech.ChannelCapacity = 1
	cfg.TurnAware = false
	cfg.BothMove = false
	cfg.MedianTarget = false
	cfg.Policy = sched.QUALEALAP
	res, err := run(g, cfg, centerPlacement(f, g.NumQubits))
	if err != nil {
		t.Fatal(err)
	}
	if err := res.Trace.Validate(); err != nil {
		t.Errorf("trace invalid: %v", err)
	}
}

// TestEvictionBreaksCapacityDeadlock constructs the deadlock shape
// directly: a gate between two qubits that each share a full trap
// with a stranger, while every other trap holds one idle stranger.
// Without eviction no trap can seat the pair; the engine must
// relocate a bystander and finish.
func TestEvictionBreaksCapacityDeadlock(t *testing.T) {
	f := fabric.Small() // 8 traps, capacity 2
	// Qubits: 0,1 are the gate pair; 2..11 are idle strangers.
	// Placement: trap0={0,2}, trap1={1,3}, traps 2..7 = {4..9} one
	// each, plus 10,11 doubling up traps 2,3 to fill every seat to
	// the deadlock pattern (2,2,2,2,1,1,1,1).
	src := `
QUBIT a,0
QUBIT b,0
QUBIT c,0
QUBIT d,0
QUBIT e,0
QUBIT f,0
QUBIT g,0
QUBIT h,0
QUBIT i,0
QUBIT j,0
QUBIT k,0
QUBIT l,0
C-X a,b
`
	g := graphOf(t, src)
	p := Placement{0, 1, 0, 1, 2, 2, 3, 3, 4, 5, 6, 7}
	res, err := run(g, qsprConfig(f), p)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Evictions == 0 {
		t.Error("expected at least one eviction")
	}
	if res.Final[0] != res.Final[1] {
		t.Error("gate pair did not end co-located")
	}
	if err := res.Trace.Validate(); err != nil {
		t.Error(err)
	}
}

// TestNoEvictionsOnRoomyFabric: the 45×85 fabric never needs
// deadlock prevention for the paper's benchmarks.
func TestNoEvictionsOnRoomyFabric(t *testing.T) {
	g := graphOf(t, fig3)
	f := fabric.Quale4585()
	res, err := run(g, qsprConfig(f), centerPlacement(f, g.NumQubits))
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Evictions != 0 {
		t.Errorf("unexpected evictions: %d", res.Stats.Evictions)
	}
}
