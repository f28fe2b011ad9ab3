package routegraph_test

import (
	"fmt"

	"repro/internal/fabric"
	"repro/internal/gates"
	"repro/internal/routegraph"
)

// A turn on the ion-trap fabric takes 10× as long as a move, but the
// plain routing graph (vertices = junctions, edges = channels) cannot
// see turns: every monotone staircase between two corners weighs the
// same. With TurnAware, New splits each junction into a horizontal
// and a vertical vertex joined by a turn edge (Fig. 5 of the paper),
// so the shortest route is also the fastest.
func ExampleNew_turnAware() {
	fab := fabric.Quale4585()
	tech := gates.Default()
	aware := routegraph.New(fab, tech, routegraph.Options{TurnAware: true})
	blind := routegraph.New(fab, tech, routegraph.Options{TurnAware: false})

	// A far trap pair, like Fig. 5's corner-to-corner example.
	a := fab.TrapsByDistance(fabric.Pos{Row: 0, Col: 0})[0]
	b := fab.TrapsByDistance(fabric.Pos{Row: 44, Col: 84})[0]
	fmt.Printf("routing trap %d %v -> trap %d %v\n",
		a, fab.Traps[a].Pos, b, fab.Traps[b].Pos)
	ra, _ := aware.FindRoute(a, b)
	rb, _ := blind.FindRoute(a, b)
	fmt.Printf("turn-aware : %3d moves, %2d turns, travel time %v\n", ra.Moves, ra.Turns, ra.Delay)
	fmt.Printf("turn-blind : %3d moves, %2d turns, travel time %v\n", rb.Moves, rb.Turns, rb.Delay)

	// Over many pairs the blind router wastes time in turns it cannot
	// see.
	var awareTotal, blindTotal gates.Time
	pairs := 0
	for i := 0; i < len(fab.Traps); i += 13 {
		for j := 5; j < len(fab.Traps); j += 29 {
			if i == j {
				continue
			}
			x, _ := aware.FindRoute(i, j)
			y, _ := blind.FindRoute(i, j)
			awareTotal += x.Delay
			blindTotal += y.Delay
			pairs++
		}
	}
	fmt.Printf("\nover %d random trap pairs:\n", pairs)
	fmt.Printf("  total turn-aware travel: %v\n", awareTotal)
	fmt.Printf("  total turn-blind travel: %v (+%.1f%%)\n", blindTotal,
		100*float64(blindTotal-awareTotal)/float64(awareTotal))
	// Output:
	// routing trap 0 {1 2} -> trap 461 {43 82}
	// turn-aware : 126 moves,  4 turns, travel time 166µs
	// turn-blind : 126 moves,  8 turns, travel time 206µs
	//
	// over 575 random trap pairs:
	//   total turn-aware travel: 48038µs
	//   total turn-blind travel: 52018µs (+8.3%)
}
