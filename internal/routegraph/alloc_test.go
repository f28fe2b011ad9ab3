package routegraph

import (
	"testing"

	"repro/internal/fabric"
	"repro/internal/gates"
)

// TestFindRouteZeroAllocSteadyState pins the tentpole guarantee: on a
// warm graph FindRoute performs zero allocations, on the cache-hit
// path (idle graph, repeated pair), the full-search path (congested
// graph, cache bypassed) and the ring flood toward a sealed trap.
func TestFindRouteZeroAllocSteadyState(t *testing.T) {
	g := New(fabric.Quale4585(), gates.Default(), Options{TurnAware: true})
	f := g.Fabric
	a := f.TrapsByDistance(fabric.Pos{Row: 0, Col: 0})[0]
	z := f.TrapsByDistance(fabric.Pos{Row: 44, Col: 84})[0]

	// Warm: first query grows the search heap, the hop buffer and the
	// cache entry.
	if _, ok := g.FindRoute(a, z); !ok {
		t.Fatal("no route")
	}
	if avg := testing.AllocsPerRun(200, func() {
		if _, ok := g.FindRoute(a, z); !ok {
			t.Fatal("no route")
		}
	}); avg != 0 {
		t.Errorf("cache-hit FindRoute allocates %.1f objects/op, want 0", avg)
	}

	// Congest one junction so the cache is bypassed and every call is
	// a full Dijkstra over the reusable state.
	g.Occupy(g.JunctionGroupID(0))
	if _, ok := g.FindRoute(a, z); !ok {
		t.Fatal("no route under congestion")
	}
	if avg := testing.AllocsPerRun(200, func() {
		if _, ok := g.FindRoute(a, z); !ok {
			t.Fatal("no route under congestion")
		}
	}); avg != 0 {
		t.Errorf("congested FindRoute allocates %.1f objects/op, want 0", avg)
	}

	// Saturate z's channel: every query toward z floods in the ring.
	ch := g.ChannelGroupID(f.Traps[z].Channel)
	for g.Groups[ch].Occupancy() < g.Groups[ch].Capacity {
		g.Occupy(ch)
	}
	before := g.SearchWork().RingFloods
	if _, ok := g.FindRoute(a, z); ok {
		t.Fatal("route to a sealed trap")
	}
	if avg := testing.AllocsPerRun(200, func() {
		if _, ok := g.FindRoute(a, z); ok {
			t.Fatal("route to a sealed trap")
		}
	}); avg != 0 {
		t.Errorf("ring-flood FindRoute allocates %.1f objects/op, want 0", avg)
	}
	if n := g.SearchWork().RingFloods - before; n < 200 {
		t.Errorf("%d of the sealed queries flooded in the ring, want all", n)
	}
}

// TestCacheReplayMatchesFreshSearch is the white-box proof of the
// cache's bit-identity claim: a replayed hit must return exactly the
// route a full search would have, with exactly the same tie-break rng
// consumption — for the SAME rng state. Two graphs run the same query
// stream; on one the cache entry is deleted before each repeat, so it
// re-searches while the other replays. Any divergence in hops, cost
// or rng stream position shows up as differing routes (now or on the
// later queries).
func TestCacheReplayMatchesFreshSearch(t *testing.T) {
	for _, aware := range []bool{true, false} {
		cached := New(fabric.Quale4585(), gates.Default(), Options{TurnAware: aware})
		fresh := New(fabric.Quale4585(), gates.Default(), Options{TurnAware: aware})
		pairs := [][2]int{{0, 461}, {3, 207}, {0, 461}, {101, 102}, {0, 461}, {3, 207}, {101, 102}}
		for qi, p := range pairs {
			r1, ok1 := cached.FindRoute(p[0], p[1])
			r1 = r1.Clone()
			// Deleting the entry forces the control graph to run the
			// full search the legacy implementation always ran.
			delete(fresh.cache, routeKey(p[0], p[1]))
			r2, ok2 := fresh.FindRoute(p[0], p[1])
			if ok1 != ok2 {
				t.Fatalf("query %d (%d->%d): found %v vs %v", qi, p[0], p[1], ok1, ok2)
			}
			if r1.Cost != r2.Cost || r1.Delay != r2.Delay || r1.Moves != r2.Moves || r1.Turns != r2.Turns {
				t.Fatalf("query %d (%d->%d): totals diverge: %+v vs %+v", qi, p[0], p[1], r1, r2)
			}
			if len(r1.Hops) != len(r2.Hops) {
				t.Fatalf("query %d: hop count %d vs %d", qi, len(r1.Hops), len(r2.Hops))
			}
			for i := range r1.Hops {
				if r1.Hops[i] != r2.Hops[i] {
					t.Fatalf("query %d hop %d: %+v vs %+v", qi, i, r1.Hops[i], r2.Hops[i])
				}
			}
		}
	}
}

// TestResetRestoresFreshGraphBehavior: after arbitrary traffic, Reset
// must make the graph route exactly like a newly built one (same
// routes AND same rewound tie-break stream), while keeping the cache
// warm (still zero allocations on a repeated pair).
func TestResetRestoresFreshGraphBehavior(t *testing.T) {
	g := New(fabric.Small(), gates.Default(), Options{TurnAware: true, TieSeed: 5})
	virgin := New(fabric.Small(), gates.Default(), Options{TurnAware: true, TieSeed: 5})
	n := len(g.Fabric.Traps)
	// Traffic: route and commit a few pairs, then release.
	var held []int
	for a := 0; a < n; a++ {
		r, ok := g.FindRoute(a, (a+3)%n)
		if !ok || a == (a+3)%n {
			continue
		}
		if commitable(g, r) {
			g.Commit(r)
			for _, h := range r.Hops {
				held = append(held, h.Group)
			}
		}
	}
	for _, grp := range held {
		g.Release(grp)
	}
	g.Reset()
	h1, q1 := routeFingerprint(g, 1, 2)
	h2, q2 := routeFingerprint(virgin, 1, 2)
	if h1 != h2 || q1 != q2 {
		t.Errorf("post-Reset fingerprint %#x/%d, fresh graph %#x/%d", h1, q1, h2, q2)
	}
}

// TestNewAllocBudget gates the graph build's allocations: New sizes
// its node, group and edge arrays from the fabric and lays out the
// CSR by counting, so neither a classic graph (quale45x85, 27 objects)
// nor an ALT one with its landmark tables (grid 97, ~112) allocates
// per node. Per-node adjacency lists cost thousands more (2,205 and
// 5,401), so the gate fails if they come back.
func TestNewAllocBudget(t *testing.T) {
	grid97, _, err := fabric.Resolve("grid(rows=97,cols=97,pitch=4)")
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name   string
		f      *fabric.Fabric
		alt    bool
		budget float64
	}{
		{"quale45x85", fabric.Quale4585(), false, 64},
		{"grid97", grid97, true, 256},
	} {
		var g *Graph
		avg := testing.AllocsPerRun(3, func() {
			g = New(tc.f, gates.Default(), Options{TurnAware: true})
		})
		if g.ALTEnabled() != tc.alt {
			t.Fatalf("%s: ALTEnabled %v, want %v", tc.name, g.ALTEnabled(), tc.alt)
		}
		t.Logf("%s: New allocates %.0f objects", tc.name, avg)
		if avg > tc.budget {
			t.Errorf("%s: New allocates %.0f objects, budget %.0f", tc.name, avg, tc.budget)
		}
	}
}
