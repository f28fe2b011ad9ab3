package routegraph

import (
	"math"
	"testing"

	"repro/internal/fabric"
	"repro/internal/gates"
)

func newSmall(t *testing.T, aware bool) *Graph {
	t.Helper()
	return New(fabric.Small(), gates.Default(), Options{TurnAware: aware})
}

func TestGraphShapeSmall(t *testing.T) {
	g := newSmall(t, true)
	f := g.Fabric
	wantNodes := 2*len(f.Junctions) + len(f.Traps)
	if len(g.Nodes) != wantNodes {
		t.Errorf("nodes = %d, want %d", len(g.Nodes), wantNodes)
	}
	// Edges: 9 turn + 12 channel + 2*8 trap access + trap-trap
	// pairs. In Small the two row-4 channels each hold two traps.
	wantEdges := 9 + 12 + 16 + 2
	if len(g.Edges) != wantEdges {
		t.Errorf("edges = %d, want %d", len(g.Edges), wantEdges)
	}
	if len(g.Groups) != len(f.Junctions)+len(f.Channels) {
		t.Errorf("groups = %d, want %d", len(g.Groups), len(f.Junctions)+len(f.Channels))
	}
}

func TestEdgeWeightEq2(t *testing.T) {
	g := newSmall(t, true)
	// Pick a channel edge (turn edges come first, one per junction).
	eid := -1
	for _, e := range g.Edges {
		if g.Groups[e.Group].Kind == ChannelGroup && e.Turns == 0 && g.Nodes[e.A].Kind != TrapNode && g.Nodes[e.B].Kind != TrapNode {
			eid = e.ID
			break
		}
	}
	if eid < 0 {
		t.Fatal("no channel edge found")
	}
	e := g.Edges[eid]
	base := e.SelectBase
	if w := g.EdgeWeight(eid); w != base {
		t.Errorf("empty channel weight = %v, want %v", w, base)
	}
	g.Occupy(e.Group)
	if w := g.EdgeWeight(eid); w != 2*base {
		t.Errorf("n=1 weight = %v, want %v", w, 2*base)
	}
	g.Occupy(e.Group)
	if w := g.EdgeWeight(eid); w != math.MaxInt64 {
		t.Errorf("saturated weight = %v, want inf", w)
	}
	g.Release(e.Group)
	if w := g.EdgeWeight(eid); w != 2*base {
		t.Errorf("after release weight = %v, want %v", w, 2*base)
	}
	g.Release(e.Group)
	if g.Groups[e.Group].Occupancy() != 0 {
		t.Error("occupancy not restored")
	}
}

func TestOccupyPanicsOverCapacity(t *testing.T) {
	g := newSmall(t, true)
	gr := g.ChannelGroupID(0)
	g.Occupy(gr)
	g.Occupy(gr)
	defer func() {
		if recover() == nil {
			t.Error("Occupy above capacity did not panic")
		}
	}()
	g.Occupy(gr)
}

func TestReleasePanicsBelowZero(t *testing.T) {
	g := newSmall(t, true)
	defer func() {
		if recover() == nil {
			t.Error("Release below zero did not panic")
		}
	}()
	g.Release(g.ChannelGroupID(0))
}

func TestFindRouteSameTrap(t *testing.T) {
	g := newSmall(t, true)
	r, ok := g.FindRoute(3, 3)
	if !ok || len(r.Hops) != 0 || r.Delay != 0 {
		t.Errorf("same-trap route = %+v, ok=%v", r, ok)
	}
}

func TestFindRouteNeighborTraps(t *testing.T) {
	g := newSmall(t, true)
	f := g.Fabric
	// Find two traps sharing an attachment cell (offsets equal on
	// the same channel): the direct edge costs exactly 2 moves.
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
		t.Skip("no opposite-side trap pair in this fabric")
	}
	r, ok := g.FindRoute(a, b)
	if !ok {
		t.Fatal("no route")
	}
	if r.Delay != 2*g.Tech.MoveDelay || r.Turns != 0 || r.Moves != 2 {
		t.Errorf("opposite traps route = %+v, want 2 moves 0 turns", r)
	}
}

// pathIsConnected verifies the hop sequence forms a trap-to-trap walk.
func pathIsConnected(t *testing.T, g *Graph, r Route) {
	t.Helper()
	if len(r.Hops) == 0 {
		return
	}
	cur := g.TrapNodeID(r.From)
	for i, h := range r.Hops {
		e := g.Edges[h.Edge]
		switch cur {
		case e.A:
			cur = e.B
		case e.B:
			cur = e.A
		default:
			t.Fatalf("hop %d: edge %d does not touch node %d", i, h.Edge, cur)
		}
	}
	if cur != g.TrapNodeID(r.To) {
		t.Fatalf("path ends at node %d, want trap node %d", cur, g.TrapNodeID(r.To))
	}
}

func TestRoutesAreConnectedAndConsistent(t *testing.T) {
	g := newSmall(t, true)
	n := len(g.Fabric.Traps)
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			r, ok := g.FindRoute(a, b)
			if !ok {
				t.Fatalf("no route %d->%d on empty fabric", a, b)
			}
			pathIsConnected(t, g, r)
			var delay gates.Time
			moves, turns := 0, 0
			for _, h := range r.Hops {
				delay += h.Delay
				moves += h.Moves
				turns += h.Turns
			}
			if delay != r.Delay || moves != r.Moves || turns != r.Turns {
				t.Fatalf("route %d->%d totals inconsistent", a, b)
			}
			if r.Delay != gates.Time(r.Moves)*g.Tech.MoveDelay+gates.Time(r.Turns)*g.Tech.TurnDelay {
				t.Fatalf("route %d->%d delay %v does not match %d moves + %d turns", a, b, r.Delay, r.Moves, r.Turns)
			}
		}
	}
}

func TestRouteSymmetryUncongested(t *testing.T) {
	g := newSmall(t, true)
	n := len(g.Fabric.Traps)
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			r1, _ := g.FindRoute(a, b)
			r2, _ := g.FindRoute(b, a)
			if r1.Delay != r2.Delay {
				t.Errorf("asymmetric delay %d<->%d: %v vs %v", a, b, r1.Delay, r2.Delay)
			}
		}
	}
}

// TestTurnAwareBeatsBlind is the Fig. 5 reproduction: on every trap
// pair the realized travel time of the turn-aware route is at most
// that of the turn-blind route, and there exist pairs where it is
// strictly better.
func TestTurnAwareBeatsBlind(t *testing.T) {
	aware := New(fabric.Quale4585(), gates.Default(), Options{TurnAware: true})
	blind := New(fabric.Quale4585(), gates.Default(), Options{TurnAware: false})
	nt := len(aware.Fabric.Traps)
	strictly := 0
	checked := 0
	for a := 0; a < nt; a += 17 {
		for b := 1; b < nt; b += 23 {
			if a == b {
				continue
			}
			ra, oka := aware.FindRoute(a, b)
			rb, okb := blind.FindRoute(a, b)
			if !oka || !okb {
				t.Fatalf("route %d->%d missing", a, b)
			}
			checked++
			if ra.Delay > rb.Delay {
				t.Errorf("turn-aware slower on %d->%d: %v vs %v", a, b, ra.Delay, rb.Delay)
			}
			if ra.Delay < rb.Delay {
				strictly++
			}
		}
	}
	if strictly == 0 {
		t.Errorf("turn-aware never strictly better over %d pairs; Fig. 5 effect absent", checked)
	}
}

func TestSaturationBlocksRoute(t *testing.T) {
	g := newSmall(t, true)
	f := g.Fabric
	target := 0
	// Saturate the channel the target trap hangs off: every access
	// edge to the trap shares that channel group.
	grp := g.ChannelGroupID(f.Traps[target].Channel)
	for i := 0; i < g.Tech.ChannelCapacity; i++ {
		g.Occupy(grp)
	}
	src := -1
	for i := range f.Traps {
		if i != target && f.Traps[i].Channel != f.Traps[target].Channel {
			src = i
			break
		}
	}
	if src < 0 {
		t.Fatal("no source trap off-channel")
	}
	if _, ok := g.FindRoute(src, target); ok {
		t.Error("route found through saturated channel")
	}
	g.Release(grp)
	if _, ok := g.FindRoute(src, target); !ok {
		t.Error("route still blocked after release")
	}
}

func TestCongestionSteersRouting(t *testing.T) {
	g := newSmall(t, true)
	// Route between far corner traps twice; committing the first
	// route must make the second pay more or choose other groups.
	ids := g.Fabric.TrapsByDistance(fabric.Pos{Row: 0, Col: 0})
	a := ids[0]
	ids2 := g.Fabric.TrapsByDistance(fabric.Pos{Row: 8, Col: 8})
	b := ids2[0]
	r1, ok := g.FindRoute(a, b)
	if !ok {
		t.Fatal("no route")
	}
	g.Commit(r1)
	r2, ok := g.FindRoute(a, b)
	if !ok {
		t.Fatal("no second route")
	}
	if r2.Cost < r1.Cost {
		t.Errorf("congested cost %v < uncongested %v", r2.Cost, r1.Cost)
	}
}

func TestCommitChargesEveryHopGroup(t *testing.T) {
	g := newSmall(t, true)
	r, ok := g.FindRoute(0, len(g.Fabric.Traps)-1)
	if !ok {
		t.Fatal("no route")
	}
	before := make([]int, len(g.Groups))
	for i := range g.Groups {
		before[i] = g.Groups[i].Occupancy()
	}
	g.Commit(r)
	charged := map[int]int{}
	for _, h := range r.Hops {
		charged[h.Group]++
	}
	for i := range g.Groups {
		if g.Groups[i].Occupancy() != before[i]+charged[i] {
			t.Errorf("group %d occupancy = %d, want %d", i, g.Groups[i].Occupancy(), before[i]+charged[i])
		}
	}
}

func TestTrapNodesNotThoroughfares(t *testing.T) {
	g := newSmall(t, true)
	n := len(g.Fabric.Traps)
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			r, ok := g.FindRoute(a, b)
			if !ok {
				continue
			}
			cur := g.TrapNodeID(a)
			for i, h := range r.Hops {
				e := g.Edges[h.Edge]
				next := e.A
				if next == cur {
					next = e.B
				}
				if g.Nodes[next].Kind == TrapNode && i != len(r.Hops)-1 {
					t.Fatalf("route %d->%d passes through trap node mid-path", a, b)
				}
				cur = next
			}
		}
	}
}

func TestBlindMetricIgnoresTurnsInCost(t *testing.T) {
	blind := newSmall(t, false)
	for _, e := range blind.Edges {
		if e.SelectBase != gates.Time(e.Moves)*blind.Tech.MoveDelay {
			t.Errorf("edge %d blind select base %v includes turn time", e.ID, e.SelectBase)
		}
		if e.RealDelay != gates.Time(e.Moves)*blind.Tech.MoveDelay+gates.Time(e.Turns)*blind.Tech.TurnDelay {
			t.Errorf("edge %d real delay wrong", e.ID)
		}
	}
}

func TestQuale4585GraphBuilds(t *testing.T) {
	g := New(fabric.Quale4585(), gates.Default(), Options{TurnAware: true})
	if len(g.Nodes) == 0 || len(g.Edges) == 0 {
		t.Fatal("empty graph")
	}
	// Spot check: a route between the two most distant traps exists
	// and uses at least the Manhattan distance in moves.
	f := g.Fabric
	a := f.TrapsByDistance(fabric.Pos{Row: 0, Col: 0})[0]
	b := f.TrapsByDistance(fabric.Pos{Row: 44, Col: 84})[0]
	r, ok := g.FindRoute(a, b)
	if !ok {
		t.Fatal("no route across fabric")
	}
	if r.Moves < fabric.ManhattanDist(f.Traps[a].Pos, f.Traps[b].Pos) {
		t.Errorf("route moves %d below Manhattan distance %d",
			r.Moves, fabric.ManhattanDist(f.Traps[a].Pos, f.Traps[b].Pos))
	}
}

// TestDefectiveJunctionIsImpassable: no route touches either node of a
// defective junction, through its turn edge or any channel or access
// edge ending there, under the classic search and ALT alike. The
// junction's edges move into one group appended after the others, so
// every other group keeps its ID.
func TestDefectiveJunctionIsImpassable(t *testing.T) {
	for _, tc := range []struct {
		name   string
		f      *fabric.Fabric
		stride int
	}{{"small", fabric.Small(), 1}, {"quale4585", fabric.Quale4585(), 9}} {
		for _, landmarks := range []int{-1, 4} {
			perfect := New(tc.f, gates.Default(), Options{TurnAware: true, Landmarks: landmarks})
			g := New(tc.f, gates.Default(), Options{TurnAware: true, Landmarks: landmarks, DefectiveJunctions: []int{1}})
			if len(g.Groups) != len(perfect.Groups)+1 {
				t.Fatalf("%s: %d groups, want the perfect fabric's %d plus one", tc.name, len(g.Groups), len(perfect.Groups))
			}
			for id, gr := range perfect.Groups {
				if got := g.Groups[id]; got.Kind != gr.Kind || got.Index != gr.Index {
					t.Fatalf("%s: group %d moved: %+v, perfect fabric has %+v", tc.name, id, got, gr)
				}
			}
			dead := map[int]bool{g.juncNodeH[1]: true, g.juncNodeV[1]: true}
			n := len(tc.f.Traps)
			found := 0
			for a := 0; a < n; a += tc.stride {
				for b := 1; b < n; b += tc.stride {
					r, ok := g.FindRoute(a, b)
					if ok {
						found++
					}
					for _, hp := range r.Hops {
						if e := g.Edges[hp.Edge]; dead[e.A] || dead[e.B] {
							t.Fatalf("%s landmarks=%d: route %d->%d crosses defective junction 1 on edge %d",
								tc.name, landmarks, a, b, hp.Edge)
						}
					}
				}
			}
			if found == 0 {
				t.Errorf("%s landmarks=%d: no route found at all", tc.name, landmarks)
			}
		}
	}
}
