package routegraph

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/fabric"
	"repro/internal/gates"
)

// Property test: ALT goal-directed search is observationally identical
// to the plain Dijkstra oracle — same cost AND same trajectory — on
// randomly generated fabrics, for random trap pairs, including under
// nonzero occupancy. Both searches resolve ties canonically (min cost,
// then fewest hops, then smallest edge ID per backward step), so exact
// equality is a theorem, not a flaky expectation; any divergence is a
// bug in the heuristic (admissibility/consistency) or the searcher.

// randomFamilySpec draws a small fabric spec from a seeded stream.
// Sizes are kept modest so the whole property sweep stays fast enough
// for -race CI runs.
func randomFamilySpec(rng *rand.Rand) string {
	switch rng.Intn(3) {
	case 0:
		rows := 9 + rng.Intn(28)
		cols := 9 + rng.Intn(28)
		pitch := 4 + rng.Intn(3)
		if rows < pitch+1 {
			rows = pitch + 1
		}
		if cols < pitch+1 {
			cols = pitch + 1
		}
		return fmt.Sprintf("grid(rows=%d,cols=%d,pitch=%d)", rows, cols, pitch)
	case 1:
		return fmt.Sprintf("htree(depth=%d,arm=%d)", 1+rng.Intn(3), 2+rng.Intn(3))
	default:
		return fmt.Sprintf("multicore(cx=%d,cy=2,rows=%d,cols=%d,pitch=4,links=%d,gap=%d)",
			1+rng.Intn(2), 9+rng.Intn(8), 9+rng.Intn(8), 1+rng.Intn(2), 1+rng.Intn(3))
	}
}

// shrinkSpec tries progressively smaller grid variants of a failing
// spec so the failure report names a minimal reproducer. Only grids
// shrink (the other families have little to shrink); the predicate
// returns true when the spec still fails.
func shrinkSpec(spec string, fails func(string) bool) string {
	var rows, cols, pitch int
	if _, err := fmt.Sscanf(spec, "grid(rows=%d,cols=%d,pitch=%d)", &rows, &cols, &pitch); err != nil {
		return spec
	}
	for {
		shrunk := false
		for _, cand := range []string{
			fmt.Sprintf("grid(rows=%d,cols=%d,pitch=%d)", (rows+pitch+1)/2, cols, pitch),
			fmt.Sprintf("grid(rows=%d,cols=%d,pitch=%d)", rows, (cols+pitch+1)/2, pitch),
			fmt.Sprintf("grid(rows=%d,cols=%d,pitch=%d)", rows-1, cols, pitch),
			fmt.Sprintf("grid(rows=%d,cols=%d,pitch=%d)", rows, cols-1, pitch),
		} {
			var r2, c2 int
			fmt.Sscanf(cand, "grid(rows=%d,cols=%d,pitch=%d)", &r2, &c2, &pitch)
			if r2 < pitch+1 || c2 < pitch+1 || (r2 == rows && c2 == cols) {
				continue
			}
			if fails(cand) {
				rows, cols = r2, c2
				shrunk = true
				break
			}
		}
		if !shrunk {
			return fmt.Sprintf("grid(rows=%d,cols=%d,pitch=%d)", rows, cols, pitch)
		}
	}
}

// routesDiffer compares cost and full hop trajectory.
func routesDiffer(a Route, aOK bool, b Route, bOK bool) string {
	if aOK != bOK {
		return fmt.Sprintf("found mismatch: alt=%v oracle=%v", aOK, bOK)
	}
	if !aOK {
		return ""
	}
	if a.Cost != b.Cost {
		return fmt.Sprintf("cost mismatch: alt=%d oracle=%d", a.Cost, b.Cost)
	}
	if a.Delay != b.Delay || a.Moves != b.Moves || a.Turns != b.Turns {
		return fmt.Sprintf("metrics mismatch: alt=(%d,%d,%d) oracle=(%d,%d,%d)",
			a.Delay, a.Moves, a.Turns, b.Delay, b.Moves, b.Turns)
	}
	if len(a.Hops) != len(b.Hops) {
		return fmt.Sprintf("hop count mismatch: alt=%d oracle=%d", len(a.Hops), len(b.Hops))
	}
	for i := range a.Hops {
		if a.Hops[i].Edge != b.Hops[i].Edge || a.Hops[i].Group != b.Hops[i].Group {
			return fmt.Sprintf("hop %d mismatch: alt=(e%d,g%d) oracle=(e%d,g%d)",
				i, a.Hops[i].Edge, a.Hops[i].Group, b.Hops[i].Edge, b.Hops[i].Group)
		}
	}
	return ""
}

// checkEquivOnSpec runs the ALT-vs-oracle comparison on one fabric:
// a cold pass, then a congested pass (routes committed between
// queries), in both turn-aware and turn-blind modes. Returns a
// non-empty diagnostic on the first divergence.
func checkEquivOnSpec(spec string, seed int64, pairs int) string {
	f, _, err := fabric.Resolve(spec)
	if err != nil {
		// Random parameters can produce invalid fabrics (e.g. htree arms
		// that collide); that's a generator property, not a routing one.
		return ""
	}
	n := len(f.Traps)
	if n < 2 {
		return ""
	}
	for _, turnAware := range []bool{true, false} {
		g := New(f, gates.Default(), Options{TurnAware: turnAware, Landmarks: 8, TieSeed: seed})
		if !g.ALTEnabled() {
			return fmt.Sprintf("%s: forced landmarks did not enable ALT", spec)
		}
		rng := rand.New(rand.NewSource(seed))
		var committed []Route
		for i := 0; i < pairs; i++ {
			a, b := rng.Intn(n), rng.Intn(n)
			if a == b {
				continue
			}
			alt, altOK := g.FindRoute(a, b)
			oracle, oracleOK := g.OracleRoute(a, b)
			if d := routesDiffer(alt, altOK, oracle, oracleOK); d != "" {
				return fmt.Sprintf("%s turnAware=%v %d->%d (cold #%d): %s", spec, turnAware, a, b, i, d)
			}
			// Commit roughly a third of found routes so later queries in
			// this pass run against nonzero occupancy.
			if altOK && i%3 == 0 && commitable(g, alt) {
				r := alt
				r.Hops = append([]Hop(nil), alt.Hops...)
				g.Commit(r)
				committed = append(committed, r)
			}
			// Every fourth pair is re-queried with one endpoint sealed:
			// its channel group filled to capacity, alternately the
			// source's and the destination's.
			if i%4 == 1 {
				end := a
				if i%8 == 5 {
					end = b
				}
				release := fillGroup(g, g.ChannelGroupID(f.Traps[end].Channel))
				alt, altOK := g.FindRoute(a, b)
				oracle, oracleOK := g.OracleRoute(a, b)
				release()
				if d := routesDiffer(alt, altOK, oracle, oracleOK); d != "" {
					return fmt.Sprintf("%s turnAware=%v %d->%d (trap %d sealed, #%d): %s", spec, turnAware, a, b, end, i, d)
				}
			}
		}
		for _, r := range committed {
			g.Uncommit(r)
		}
	}
	return ""
}

// fillGroup occupies a capacity group up to its capacity and returns
// a func that releases what it added.
func fillGroup(g *Graph, grp int) (release func()) {
	added := 0
	for gr := &g.Groups[grp]; gr.Occupancy() < gr.Capacity; added++ {
		g.Occupy(grp)
	}
	return func() {
		for ; added > 0; added-- {
			g.Release(grp)
		}
	}
}

func TestALTMatchesOracleOnRandomFabrics(t *testing.T) {
	fabrics := 12
	pairs := 60
	if testing.Short() {
		fabrics = 5
		pairs = 25
	}
	rng := rand.New(rand.NewSource(4585))
	for i := 0; i < fabrics; i++ {
		spec := randomFamilySpec(rng)
		seed := rng.Int63()
		if diag := checkEquivOnSpec(spec, seed, pairs); diag != "" {
			min := shrinkSpec(spec, func(s string) bool {
				return checkEquivOnSpec(s, seed, pairs) != ""
			})
			t.Fatalf("ALT/oracle divergence (seed=%d, minimal spec %q): %s", seed, min, diag)
		}
	}
}

// TestALTMatchesOracleOnPaperFabrics forces ALT on the two paper
// fabrics and checks it against the oracle, including with a few
// defective channels. In auto mode these fabrics use the classic
// searcher (pinned separately by the golden fingerprints); this test
// proves that forcing ALT on them would still yield optimal routes.
func TestALTMatchesOracleOnPaperFabrics(t *testing.T) {
	for _, tc := range []struct {
		name string
		f    *fabric.Fabric
		opts Options
	}{
		{"small", fabric.Small(), Options{TurnAware: true, Landmarks: 4}},
		{"quale", fabric.Quale4585(), Options{TurnAware: true, Landmarks: 16}},
		{"quale-defects", fabric.Quale4585(),
			Options{TurnAware: true, Landmarks: 16, DefectiveChannels: []int{3, 17, 40}}},
		{"quale-blind", fabric.Quale4585(), Options{TurnAware: false, Landmarks: 16}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := New(tc.f, gates.Default(), tc.opts)
			n := len(tc.f.Traps)
			rng := rand.New(rand.NewSource(12))
			pairs := 120
			if testing.Short() {
				pairs = 40
			}
			for i := 0; i < pairs; i++ {
				a, b := rng.Intn(n), rng.Intn(n)
				if a == b {
					continue
				}
				alt, altOK := g.FindRoute(a, b)
				oracle, oracleOK := g.OracleRoute(a, b)
				if d := routesDiffer(alt, altOK, oracle, oracleOK); d != "" {
					t.Fatalf("%d->%d: %s", a, b, d)
				}
				if altOK && i%4 == 0 && commitable(g, alt) {
					r := alt
					r.Hops = append([]Hop(nil), alt.Hops...)
					g.Commit(r)
				}
			}
		})
	}
}
