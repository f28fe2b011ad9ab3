package routegraph

import (
	"testing"

	"repro/internal/fabric"
	"repro/internal/gates"
)

// TestALTAutoThreshold pins the mode selection contract: the paper
// fabrics must stay on classic Dijkstra in auto mode (their golden
// fingerprints depend on it), large generated fabrics must flip to
// ALT, and explicit Landmarks values override both directions.
func TestALTAutoThreshold(t *testing.T) {
	big, _, err := fabric.Resolve("grid(rows=283,cols=283)")
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name      string
		f         *fabric.Fabric
		landmarks int
		want      bool
	}{
		{"small/auto", fabric.Small(), 0, false},
		{"quale/auto", fabric.Quale4585(), 0, false},
		{"grid283/auto", big, 0, true},
		{"grid283/forced-off", big, -1, false},
		{"small/forced-on", fabric.Small(), 4, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			g := New(c.f, gates.Default(), Options{TurnAware: true, Landmarks: c.landmarks})
			if got := g.ALTEnabled(); got != c.want {
				t.Errorf("ALTEnabled() = %v, want %v", got, c.want)
			}
			if c.want && len(g.Landmarks()) == 0 {
				t.Error("ALT enabled but no landmarks selected")
			}
		})
	}
}

// TestALTLandmarksDeterministic pins that landmark selection is a
// pure function of the graph (two builds agree), since routes — and
// therefore engine results — depend on it.
func TestALTLandmarksDeterministic(t *testing.T) {
	f, _, err := fabric.Resolve("htree(depth=4,arm=4)")
	if err != nil {
		t.Fatal(err)
	}
	a := New(f, gates.Default(), Options{TurnAware: true})
	b := New(f, gates.Default(), Options{TurnAware: true})
	if !a.ALTEnabled() {
		t.Fatal("htree(depth=4) should cross the auto threshold")
	}
	la, lb := a.Landmarks(), b.Landmarks()
	if len(la) != len(lb) {
		t.Fatalf("landmark counts differ: %d vs %d", len(la), len(lb))
	}
	for i := range la {
		if la[i] != lb[i] {
			t.Fatalf("landmark %d differs: node %d vs %d", i, la[i], lb[i])
		}
	}
}

// TestDirtyListReset pins the incremental occupancy reset: after
// Commit traffic, Reset must restore every group to zero occupancy
// (not just walk some subset), and routes after Reset must equal the
// routes of a fresh graph.
func TestDirtyListReset(t *testing.T) {
	for _, landmarks := range []int{-1, 8} {
		g := New(fabric.Small(), gates.Default(), Options{TurnAware: true, Landmarks: landmarks})
		fresh := New(fabric.Small(), gates.Default(), Options{TurnAware: true, Landmarks: landmarks})
		n := len(g.Fabric.Traps)
		for a := 0; a < n; a++ {
			r, ok := g.FindRoute(a, (a+3)%n)
			if ok && commitable(g, r) {
				g.Commit(r)
			}
		}
		occupied := 0
		for i := range g.Groups {
			if g.Groups[i].Occupancy() > 0 {
				occupied++
			}
		}
		if occupied == 0 {
			t.Fatal("test never occupied a group")
		}
		g.Reset()
		for i := range g.Groups {
			if g.Groups[i].Occupancy() != 0 {
				t.Fatalf("landmarks=%d: group %d still occupied after Reset", landmarks, i)
			}
		}
		// Second traffic epoch after Reset must match a fresh graph.
		for a := 0; a < n; a++ {
			got, okG := g.FindRoute(a, (a+5)%n)
			want, okW := fresh.FindRoute(a, (a+5)%n)
			if okG != okW {
				t.Fatalf("landmarks=%d: found mismatch for %d->%d", landmarks, a, (a+5)%n)
			}
			if !okG {
				continue
			}
			if got.Cost != want.Cost || got.Delay != want.Delay || len(got.Hops) != len(want.Hops) {
				t.Fatalf("landmarks=%d: route %d->%d differs after Reset: cost %d vs %d",
					landmarks, a, (a+5)%n, got.Cost, want.Cost)
			}
			for i := range got.Hops {
				if got.Hops[i].Edge != want.Hops[i].Edge {
					t.Fatalf("landmarks=%d: hop %d differs after Reset", landmarks, i)
				}
			}
		}
	}
}

// TestALTCacheHitMatchesCold pins that a cached ALT hit replays the
// identical canonical route the cold search produced.
func TestALTCacheHitMatchesCold(t *testing.T) {
	g := New(fabric.Quale4585(), gates.Default(), Options{TurnAware: true, Landmarks: 8})
	if !g.ALTEnabled() {
		t.Fatal("forced landmarks should enable ALT")
	}
	n := len(g.Fabric.Traps)
	type snap struct {
		cost  gates.Time
		edges []int
	}
	cold := map[[2]int]snap{}
	for a := 0; a < n; a += 17 {
		b := (a*31 + 7) % n
		if a == b {
			continue
		}
		r, ok := g.FindRoute(a, b)
		if !ok {
			t.Fatalf("no route %d->%d", a, b)
		}
		s := snap{cost: r.Cost}
		for _, h := range r.Hops {
			s.edges = append(s.edges, h.Edge)
		}
		cold[[2]int{a, b}] = s
	}
	for k, want := range cold {
		r, ok := g.FindRoute(k[0], k[1])
		if !ok {
			t.Fatalf("cached route %v vanished", k)
		}
		if r.Cost != want.cost || len(r.Hops) != len(want.edges) {
			t.Fatalf("cache hit for %v differs: cost %d vs %d", k, r.Cost, want.cost)
		}
		for i, h := range r.Hops {
			if h.Edge != want.edges[i] {
				t.Fatalf("cache hit for %v: hop %d edge %d != %d", k, i, h.Edge, want.edges[i])
			}
		}
	}
}

// TestALTSealedEndpointSkipsSearch: a route into or out of a trap
// whose channel is saturated fails without running a search — the ALT
// searcher's generation does not advance, so a return to flooding the
// fabric fails here — while a query with some other channel saturated
// still searches, routes around it and matches the oracle.
func TestALTSealedEndpointSkipsSearch(t *testing.T) {
	f, _, err := fabric.Resolve("grid(rows=41,cols=41,pitch=4)")
	if err != nil {
		t.Fatal(err)
	}
	g := New(f, gates.Default(), Options{TurnAware: true, Landmarks: 8})
	a := f.TrapsByDistance(fabric.Pos{Row: 0, Col: 0})[0]
	b := f.TrapsByDistance(fabric.Pos{Row: 40, Col: 40})[0]
	idle, ok := g.FindRoute(a, b)
	if !ok {
		t.Fatal("no route on an idle fabric")
	}
	idle = idle.Clone()

	release := fillGroup(g, g.ChannelGroupID(f.Traps[b].Channel))
	gen := g.alt.search.gen
	for _, q := range [][2]int{{a, b}, {b, a}} {
		if _, ok := g.FindRoute(q[0], q[1]); ok {
			t.Fatalf("%d->%d routed through a saturated endpoint channel", q[0], q[1])
		}
	}
	if g.alt.search.gen != gen {
		t.Fatalf("sealed-endpoint queries ran %d searches, want 0", g.alt.search.gen-gen)
	}
	release()

	// Saturate a channel in the middle of the idle route instead.
	mid := -1
	ends := [2]int{g.ChannelGroupID(f.Traps[a].Channel), g.ChannelGroupID(f.Traps[b].Channel)}
	for _, h := range idle.Hops {
		if gr := g.Groups[h.Group]; gr.Kind == ChannelGroup && h.Group != ends[0] && h.Group != ends[1] {
			mid = h.Group
			break
		}
	}
	if mid < 0 {
		t.Fatal("idle route crosses no channel besides its endpoints'")
	}
	defer fillGroup(g, mid)()
	gen = g.alt.search.gen
	got, gotOK := g.FindRoute(a, b)
	if !gotOK {
		t.Fatal("saturating a mid-route channel cut the route entirely")
	}
	if g.alt.search.gen == gen {
		t.Fatal("a query with open endpoints did not search")
	}
	oracle, oracleOK := g.OracleRoute(a, b)
	if d := routesDiffer(got, gotOK, oracle, oracleOK); d != "" {
		t.Fatalf("detour differs from the oracle: %s", d)
	}
	for _, h := range got.Hops {
		if h.Group == mid {
			t.Fatal("route crosses the saturated channel")
		}
	}
}

// TestOracleRouteOnClassicGraph: a graph below the ALT threshold keeps
// its far ends only in the classic search's slot records, and the
// oracle still answers on it, with the classic search's costs.
func TestOracleRouteOnClassicGraph(t *testing.T) {
	g := New(fabric.Quale4585(), gates.Default(), Options{TurnAware: true})
	if g.ALTEnabled() {
		t.Fatal("quale45x85 routes with ALT")
	}
	for _, p := range [][2]int{{0, 461}, {3, 207}, {101, 102}} {
		r, ok := g.FindRoute(p[0], p[1])
		oracle, oracleOK := g.OracleRoute(p[0], p[1])
		if ok != oracleOK || r.Cost != oracle.Cost {
			t.Errorf("%d->%d: classic cost %v (found %v), oracle %v (found %v)", p[0], p[1], r.Cost, ok, oracle.Cost, oracleOK)
		}
	}
}
