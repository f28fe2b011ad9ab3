package fabric_test

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/fabric"
)

// Reference-equivalence tests for the trap-distance queries: the
// counting-sort TrapsByDistance and the row-walking NearestTrap must
// return exactly what the straightforward implementations they
// replaced return, on the paper fabrics and the seeded family sample.

// refTrapsByDistance is the replaced implementation: a binary
// insertion sort of all trap IDs on (distance from p, ID).
func refTrapsByDistance(f *fabric.Fabric, p fabric.Pos) []int {
	less := func(a, b int) bool {
		da := fabric.ManhattanDist(f.Traps[a].Pos, p)
		db := fabric.ManhattanDist(f.Traps[b].Pos, p)
		if da != db {
			return da < db
		}
		return a < b
	}
	s := make([]int, len(f.Traps))
	for i := range s {
		s[i] = i
	}
	for i := 1; i < len(s); i++ {
		v := s[i]
		lo, hi := 0, i
		for lo < hi {
			mid := (lo + hi) / 2
			if less(v, s[mid]) {
				hi = mid
			} else {
				lo = mid + 1
			}
		}
		copy(s[lo+1:i+1], s[lo:i])
		s[lo] = v
	}
	return s
}

// refNearestTrap is the replaced implementation: a linear scan that
// asks keep about every trap.
func refNearestTrap(f *fabric.Fabric, p fabric.Pos, keep func(int) bool) int {
	best, bestDist := -1, int(^uint(0)>>1)
	for i := range f.Traps {
		if keep != nil && !keep(i) {
			continue
		}
		d := fabric.ManhattanDist(f.Traps[i].Pos, p)
		if d < bestDist || (d == bestDist && i < best) {
			best, bestDist = i, d
		}
	}
	return best
}

// distanceFabrics returns the paper fabrics plus every resolvable
// fabric of the family property sample.
func distanceFabrics(t *testing.T) map[string]*fabric.Fabric {
	t.Helper()
	fabs := map[string]*fabric.Fabric{"small": fabric.Small(), "quale45x85": fabric.Quale4585()}
	for _, spec := range familySpecs() {
		if f, _, err := fabric.Resolve(spec); err == nil {
			fabs[spec] = f
		}
	}
	return fabs
}

// randomPoint draws a query point on or up to a few cells beyond the
// grid, so clamping at every edge is exercised.
func randomPoint(rng *rand.Rand, f *fabric.Fabric) fabric.Pos {
	return fabric.Pos{Row: rng.Intn(f.Rows+8) - 4, Col: rng.Intn(f.Cols+8) - 4}
}

func TestTrapsByDistanceMatchesReference(t *testing.T) {
	points := 12
	if testing.Short() {
		points = 4
	}
	for name, f := range distanceFabrics(t) {
		rng := rand.New(rand.NewSource(int64(len(f.Traps))))
		for i := 0; i < points; i++ {
			p := randomPoint(rng, f)
			if i == 0 {
				p = f.Center()
			}
			got, want := f.TrapsByDistance(p), refTrapsByDistance(f, p)
			if !slices.Equal(got, want) {
				t.Fatalf("%s: TrapsByDistance(%v) differs from the reference sort", name, p)
			}
		}
	}
}

func TestNearestTrapMatchesReference(t *testing.T) {
	points := 40
	if testing.Short() {
		points = 10
	}
	for name, f := range distanceFabrics(t) {
		n := len(f.Traps)
		rng := rand.New(rand.NewSource(int64(n)))
		for i := 0; i < points; i++ {
			p := randomPoint(rng, f)
			subset := make([]bool, n)
			for j := range subset {
				subset[j] = rng.Intn(4) == 0
			}
			banned := make([]bool, n)
			for _, id := range refTrapsByDistance(f, p)[:min(n, 1+rng.Intn(8))] {
				banned[id] = true
			}
			for _, kc := range []struct {
				name string
				keep func(int) bool
			}{
				{"nil", nil},
				{"none", func(int) bool { return false }},
				{"subset", func(id int) bool { return subset[id] }},
				{"ban-nearest", func(id int) bool { return !banned[id] }},
			} {
				want := refNearestTrap(f, p, kc.keep)
				if kc.keep == nil {
					if got := f.NearestTrap(p, nil); got != want {
						t.Fatalf("%s %v keep=nil: NearestTrap = %d, reference %d", name, p, got, want)
					}
					continue
				}
				// Every call to keep must be on a trap whose
				// (distance, ID) beats the best kept trap so far.
				best, bestDist := -1, int(^uint(0)>>1)
				got := f.NearestTrap(p, func(id int) bool {
					d := fabric.ManhattanDist(f.Traps[id].Pos, p)
					if d > bestDist || (d == bestDist && id > best) {
						t.Fatalf("%s %v keep=%s: keep(%d) at distance %d after the best %d at %d",
							name, p, kc.name, id, d, best, bestDist)
					}
					if !kc.keep(id) {
						return false
					}
					best, bestDist = id, d
					return true
				})
				if got != want {
					t.Fatalf("%s %v keep=%s: NearestTrap = %d, reference %d", name, p, kc.name, got, want)
				}
			}
		}
	}
}
