package fabric_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/fabric"
	"repro/internal/gates"
	"repro/internal/routegraph"
)

// Property tests for the fabric generator families: every fabric the
// generators emit must satisfy the §II.B structural invariants (not
// just pass Validate — the checks here re-derive the invariants
// independently), grids with exact lattice spans must match their
// closed-form statistics, and the derived route graph must connect
// every trap to every other.

// checkStructure re-derives the structural invariants from the raw
// cell grid and cross-checks them against the derived topology.
func checkStructure(t *testing.T, f *fabric.Fabric) {
	t.Helper()
	if err := f.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if len(f.Traps) < 1 {
		t.Fatal("fabric has no traps")
	}
	// Count cells by kind and cross-check the derived slices.
	var nj, nc, nt int
	for r := 0; r < f.Rows; r++ {
		for c := 0; c < f.Cols; c++ {
			switch f.At(fabric.Pos{Row: r, Col: c}) {
			case fabric.Junction:
				nj++
			case fabric.Channel:
				nc++
			case fabric.Trap:
				nt++
			}
		}
	}
	st := f.Stats()
	if nj != st.Junctions || nt != st.Traps || nc != st.ChannelCells {
		t.Fatalf("cell counts (J=%d C=%d T=%d) disagree with stats %+v", nj, nc, nt, st)
	}
	// Every channel run is straight, contiguous, and terminated by a
	// junction at both ends.
	for _, ch := range f.Channels {
		if len(ch.Cells) != ch.Length || ch.Length < 1 {
			t.Fatalf("channel %d: %d cells, length %d", ch.ID, len(ch.Cells), ch.Length)
		}
		for i, p := range ch.Cells {
			if f.At(p) != fabric.Channel {
				t.Fatalf("channel %d cell %d at %v is not a channel cell", ch.ID, i, p)
			}
			if i == 0 {
				continue
			}
			prev := ch.Cells[i-1]
			dr, dc := p.Row-prev.Row, p.Col-prev.Col
			straight := (ch.Orientation == fabric.Horizontal && dr == 0 && dc == 1) ||
				(ch.Orientation == fabric.Vertical && dr == 1 && dc == 0)
			if !straight {
				t.Fatalf("channel %d not straight at cell %d (%v -> %v)", ch.ID, i, prev, p)
			}
		}
		j1, j2 := f.Junctions[ch.J1].Pos, f.Junctions[ch.J2].Pos
		first, last := ch.Cells[0], ch.Cells[len(ch.Cells)-1]
		if fabric.ManhattanDist(j1, first) != 1 || fabric.ManhattanDist(j2, last) != 1 {
			t.Fatalf("channel %d ends not junction-adjacent: %v/%v vs %v/%v", ch.ID, j1, first, j2, last)
		}
	}
	// Traps are numbered in row-major cell order: trap IDs enumerate
	// the grid's trap cells row by row, left to right.
	id := 0
	for r := 0; r < f.Rows; r++ {
		for c := 0; c < f.Cols; c++ {
			p := fabric.Pos{Row: r, Col: c}
			if f.At(p) != fabric.Trap {
				continue
			}
			if f.Traps[id].Pos != p {
				t.Fatalf("trap %d at %v, row-major numbering puts it at %v", id, f.Traps[id].Pos, p)
			}
			id++
		}
	}
	// Every trap touches exactly one channel cell (side adjacency),
	// and the derived attachment matches it.
	trapsPerChannel := make(map[int]int)
	for _, tr := range f.Traps {
		adj := 0
		var attach fabric.Pos
		for _, n := range []fabric.Pos{
			{Row: tr.Pos.Row - 1, Col: tr.Pos.Col}, {Row: tr.Pos.Row + 1, Col: tr.Pos.Col},
			{Row: tr.Pos.Row, Col: tr.Pos.Col - 1}, {Row: tr.Pos.Row, Col: tr.Pos.Col + 1},
		} {
			if f.At(n) == fabric.Channel {
				adj++
				attach = n
			}
		}
		if adj != 1 {
			t.Fatalf("trap %d at %v touches %d channel cells, want 1", tr.ID, tr.Pos, adj)
		}
		ch := f.Channels[tr.Channel]
		if ch.Cells[tr.Offset] != attach {
			t.Fatalf("trap %d: derived attachment %v, adjacency says %v", tr.ID, ch.Cells[tr.Offset], attach)
		}
		trapsPerChannel[tr.Channel]++
	}
	for _, ch := range f.Channels {
		if len(ch.Traps) != trapsPerChannel[ch.ID] {
			t.Fatalf("channel %d lists %d traps, %d traps reference it", ch.ID, len(ch.Traps), trapsPerChannel[ch.ID])
		}
		for _, id := range ch.Traps {
			if f.Traps[id].Channel != ch.ID {
				t.Fatalf("channel %d lists trap %d which references channel %d", ch.ID, id, f.Traps[id].Channel)
			}
		}
	}
}

// checkConnected BFSes the route graph from trap 0's node and
// demands that every trap node is reached.
func checkConnected(t *testing.T, f *fabric.Fabric) {
	t.Helper()
	g := routegraph.New(f, gates.Default(), routegraph.Options{TurnAware: true})
	visited := make([]bool, len(g.Nodes))
	queue := []int{g.TrapNodeID(0)}
	visited[queue[0]] = true
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		for _, e := range g.IncidentEdges(n) {
			ed := g.Edges[e]
			next := ed.A
			if next == n {
				next = ed.B
			}
			if !visited[next] {
				visited[next] = true
				queue = append(queue, next)
			}
		}
	}
	for i := range f.Traps {
		if !visited[g.TrapNodeID(i)] {
			t.Fatalf("trap %d unreachable from trap 0 in route graph", i)
		}
	}
}

// familySpecs is the seeded family sample the property tests share:
// fixed corner cases plus random grid/htree/multicore draws (fewer
// under -short). Some random multicore draws have a single core and
// do not resolve, by design.
func familySpecs() []string {
	specs := []string{
		"grid(rows=9,cols=9,pitch=4)",
		"grid(rows=45,cols=85,pitch=4)",
		"grid(rows=89,cols=89,pitch=4)",
		"htree(depth=1,arm=2)",
		"htree(depth=4,arm=4)",
		"multicore(cx=2,cy=2,rows=13,cols=13,pitch=4,links=2,gap=3)",
		"multicore(cx=3,cy=1,rows=9,cols=17,pitch=4,links=1,gap=1)",
	}
	rng := rand.New(rand.NewSource(85))
	n := 18
	if testing.Short() {
		n = 6
	}
	for i := 0; i < n; i++ {
		switch rng.Intn(3) {
		case 0:
			p := 4 + rng.Intn(4)
			specs = append(specs, fmt.Sprintf("grid(rows=%d,cols=%d,pitch=%d)",
				p+1+rng.Intn(30), p+1+rng.Intn(30), p))
		case 1:
			specs = append(specs, fmt.Sprintf("htree(depth=%d,arm=%d)", 1+rng.Intn(4), 2+rng.Intn(4)))
		default:
			specs = append(specs, fmt.Sprintf("multicore(cx=%d,cy=%d,rows=%d,cols=%d,pitch=4,links=%d,gap=%d)",
				1+rng.Intn(3), 1+rng.Intn(3), 9+rng.Intn(10), 9+rng.Intn(10), 1+rng.Intn(3), 1+rng.Intn(4)))
		}
	}
	return specs
}

func TestFamilyInvariants(t *testing.T) {
	for _, spec := range familySpecs() {
		t.Run(spec, func(t *testing.T) {
			f, name, err := fabric.Resolve(spec)
			if err != nil {
				if spec == "multicore(cx=1,cy=1,rows=9,cols=9,pitch=4,links=1,gap=1)" {
					return // single core is rejected by design
				}
				// Random multicore params with one core are invalid by
				// design; anything else must resolve.
				var cx, cy int
				if _, serr := fmt.Sscanf(spec, "multicore(cx=%d,cy=%d", &cx, &cy); serr == nil && cx*cy < 2 {
					return
				}
				t.Fatalf("Resolve(%q): %v", spec, err)
			}
			if name == "" {
				t.Fatal("Resolve returned empty canonical name")
			}
			checkStructure(t, f)
			checkConnected(t, f)
		})
	}
}

// TestCellIndexMatchesTopology: JunctionAt, TrapAt and ChannelAt
// answer, at every cell and on a one-cell ring outside the grid, what
// the Junctions, Channels[].Cells and Traps slices say.
func TestCellIndexMatchesTopology(t *testing.T) {
	fabs := map[string]*fabric.Fabric{"small": fabric.Small(), "quale45x85": fabric.Quale4585()}
	for _, spec := range familySpecs() {
		if f, _, err := fabric.Resolve(spec); err == nil {
			fabs[spec] = f
		}
	}
	for name, f := range fabs {
		junction := map[fabric.Pos]int{}
		channel := map[fabric.Pos]int{}
		trap := map[fabric.Pos]int{}
		for _, j := range f.Junctions {
			junction[j.Pos] = j.ID
		}
		for _, ch := range f.Channels {
			for _, p := range ch.Cells {
				channel[p] = ch.ID
			}
		}
		for _, tr := range f.Traps {
			trap[tr.Pos] = tr.ID
		}
		want := func(m map[fabric.Pos]int, p fabric.Pos) int {
			if id, ok := m[p]; ok {
				return id
			}
			return -1
		}
		for r := -1; r <= f.Rows; r++ {
			for c := -1; c <= f.Cols; c++ {
				p := fabric.Pos{Row: r, Col: c}
				if got, w := f.JunctionAt(p), want(junction, p); got != w {
					t.Fatalf("%s: JunctionAt(%v) = %d, want %d", name, p, got, w)
				}
				if got, w := f.ChannelAt(p), want(channel, p); got != w {
					t.Fatalf("%s: ChannelAt(%v) = %d, want %d", name, p, got, w)
				}
				if got, w := f.TrapAt(p), want(trap, p); got != w {
					t.Fatalf("%s: TrapAt(%v) = %d, want %d", name, p, got, w)
				}
			}
		}
	}
}

// TestResolveAllocBudget gates the fabric build's allocations: one
// per-cell index replaces per-cell map entries, and channel cells and
// trap lists are carved from one slice each, so resolving grid 97
// allocates 28 objects. Lookup maps and per-channel slices cost
// thousands more (3,669), so the gate fails if they come back.
func TestResolveAllocBudget(t *testing.T) {
	const budget = 64
	avg := testing.AllocsPerRun(3, func() {
		if _, _, err := fabric.Resolve("grid(rows=97,cols=97,pitch=4)"); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("Resolve(grid 97) allocates %.0f objects", avg)
	if avg > budget {
		t.Errorf("Resolve(grid 97) allocates %.0f objects, budget %d", avg, budget)
	}
}

// TestGridStatsClosedForm pins the generator's statistics to closed
// forms on exact-span grids (rows-1 and cols-1 multiples of the
// pitch): with jr×jc junctions the fabric must have jr*(jc-1) +
// jc*(jr-1) channels of pitch-1 cells each and 2*(jr-1)*(jc-1)
// traps.
func TestGridStatsClosedForm(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	trials := 24
	if testing.Short() {
		trials = 8
	}
	for i := 0; i < trials; i++ {
		p := 4 + rng.Intn(5)
		jr := 2 + rng.Intn(12)
		jc := 2 + rng.Intn(12)
		rows, cols := (jr-1)*p+1, (jc-1)*p+1
		f, _, err := fabric.Resolve(fmt.Sprintf("grid(rows=%d,cols=%d,pitch=%d)", rows, cols, p))
		if err != nil {
			t.Fatalf("grid(%d,%d,%d): %v", rows, cols, p, err)
		}
		st := f.Stats()
		wantCh := jr*(jc-1) + jc*(jr-1)
		if st.Junctions != jr*jc || st.Channels != wantCh ||
			st.ChannelCells != wantCh*(p-1) || st.Traps != 2*(jr-1)*(jc-1) {
			t.Fatalf("grid(%d,%d,%d): stats %+v, want J=%d Ch=%d cells=%d T=%d",
				rows, cols, p, st, jr*jc, wantCh, wantCh*(p-1), 2*(jr-1)*(jc-1))
		}
	}
}
