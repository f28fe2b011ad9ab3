package routegraph

import "repro/internal/gates"

// This file is FindRoute's classic search: Dijkstra from one trap to
// another under the Eq. 2 congestion weights, breaking equal-cost
// relaxations with the graph's seeded coin (§IV.B, Fig. 5). It is the
// only search graphs below the ALT threshold run (see alt.go), and it
// is specialized for that one job:
//
//   - Weights are read inline. Each CSR adjacency slot carries its
//     edge's capacity group and SelectBase (slotGroup, slotBase), and
//     the group's Eq. 2 multiplier (Graph.mult: occ+1, or 0 once the
//     group is saturated) turns that into the weight. EdgeWeight reads
//     the same multiplier, so Eq. 2 is defined in one place.
//   - A junction node scans only its junction-neighbour prefix. Its
//     trap neighbours trail it in the CSR order (New checks this), and
//     of them only the destination can be relaxed: other traps are not
//     thoroughfares, and the source is settled first, after which any
//     relaxation of it is a no-op (no edge weighs less than zero). The
//     trailing trap slots are scanned only at the destination's own
//     neighbours, which each query stamps.
//   - All per-query state is reset in O(1) by bumping a generation
//     counter, and queries allocate nothing at steady state.
//
// Heap shape. The seeded coin is consumed once per equal-cost
// relaxation event, and the sequence of those events depends on the
// exact pop order among equal-distance entries. The heap therefore
// leaves its array exactly as container/heap would with a strict <
// Less: push sifts up and pop sifts down along the same path with the
// same comparisons, moving a hole instead of swapping. A different
// heap (a 4-ary one, or a bottom-up pop that stops below equal keys)
// reorders equal keys and breaks the golden fingerprints
// (golden_test.go); search_test.go pins the equivalence against
// container/heap and against the generic loop this one replaced.

// searchNode is one heap entry.
type searchNode struct {
	node int32
	dist gates.Time
}

// viaWrite records one write to the predecessor array during a
// search. tie < 0 marks an unconditional (strictly-improving) write;
// tie >= 0 marks the tie-index of an equal-cost write that the
// seeded coin accepted or rejected. The route cache replays these
// against a fresh draw sequence (see cache.go).
type viaWrite struct {
	node int32
	edge int32
	tie  int32
}

// search is the graph-owned state of the classic search. FindRoute
// is single-threaded by contract, so one per graph is enough.
type search struct {
	dist         []gates.Time
	via          []int32
	distStamp    []uint32
	settledStamp []uint32
	// nearStamp marks the destination's neighbours for the query in
	// flight: only their trap slots can hold the destination.
	nearStamp []uint32
	gen       uint32
	heap      []searchNode
	revBuf    []int32

	// writes and numTies record the query's predecessor writes and
	// equal-cost events for the route cache (cache.go).
	writes  []viaWrite
	numTies int32
}

func newSearch(n int) *search {
	return &search{
		dist:         make([]gates.Time, n),
		via:          make([]int32, n),
		distStamp:    make([]uint32, n),
		settledStamp: make([]uint32, n),
		nearStamp:    make([]uint32, n),
	}
}

// begin opens a fresh query: O(1) state reset via generation bump.
func (s *search) begin() {
	s.gen++
	if s.gen == 0 { // uint32 wrap: clear stamps once every 4G queries
		clear(s.distStamp)
		clear(s.settledStamp)
		clear(s.nearStamp)
		s.gen = 1
	}
	s.heap = s.heap[:0]
	s.writes = s.writes[:0]
	s.numTies = 0
}

// push is container/heap.Push with a hole: parents strictly greater
// than x move down one level and x lands in the vacated slot.
func (s *search) push(x searchNode) {
	h := append(s.heap, x)
	j := len(h) - 1
	for j > 0 {
		i := (j - 1) / 2
		if !(x.dist < h[i].dist) {
			break
		}
		h[j] = h[i]
		j = i
	}
	h[j] = x
	s.heap = h
}

// pop is container/heap.Pop with a hole: the last entry x takes the
// root's place and sinks while its smaller child (the left one on
// ties) is strictly less than it, children moving up as it goes.
func (s *search) pop() searchNode {
	h := s.heap
	n := len(h) - 1
	top, x := h[0], h[n]
	i := 0
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && h[j2].dist < h[j].dist {
			j = j2
		}
		if !(h[j].dist < x.dist) {
			break
		}
		h[i] = h[j]
		i = j
	}
	h[i] = x
	s.heap = h[:n]
	return top
}

// runSearch executes the classic search from graph node src to dst
// under the current Eq. 2 weights and reports whether dst was
// reached. Each equal-cost relaxation of an unsettled node draws one
// coin that may redirect its predecessor; record additionally logs
// every predecessor write for the route cache.
func (g *Graph) runSearch(src, dst int32, record bool) bool {
	s := g.srch
	s.begin()
	gen := s.gen
	dist, stamp, settled, via, near := s.dist, s.distStamp, s.settledStamp, s.via, s.nearStamp
	start, juncEnd, list, other := g.edgeStart, g.juncEnd, g.edgeList, g.edgeOther
	group, base, mult := g.slotGroup, g.slotBase, g.mult

	for k := start[dst]; k < start[dst+1]; k++ {
		near[other[k]] = gen
	}
	dist[src] = 0
	stamp[src] = gen
	via[src] = -1
	s.push(searchNode{node: src, dist: 0})
	for len(s.heap) > 0 {
		cur := s.pop()
		cn := cur.node
		if cur.dist > dist[cn] || settled[cn] == gen {
			continue
		}
		settled[cn] = gen
		if cn == dst {
			break
		}
		firstTrap, end := juncEnd[cn], juncEnd[cn]
		if near[cn] == gen {
			end = start[cn+1]
		}
		for k := start[cn]; k < end; k++ {
			next := other[k]
			if k >= firstTrap && next != dst {
				continue
			}
			m := mult[group[k]]
			if m == 0 {
				continue // saturated or defective: impassable
			}
			nd := cur.dist + gates.Time(m)*base[k]
			d := timeInf
			if stamp[next] == gen {
				d = dist[next]
			}
			if nd < d {
				eid := list[k]
				dist[next] = nd
				stamp[next] = gen
				via[next] = eid
				if record {
					s.writes = append(s.writes, viaWrite{node: next, edge: eid, tie: -1})
				}
				s.push(searchNode{node: next, dist: nd})
			} else if nd == d && settled[next] != gen {
				// Equal-cost alternatives are indistinguishable to the
				// router (Fig. 5); the coin picks one arbitrarily but
				// reproducibly. Swapping the predecessor of an
				// unsettled node cannot invalidate settled paths.
				eid := list[k]
				if record {
					s.writes = append(s.writes, viaWrite{node: next, edge: eid, tie: s.numTies})
				}
				s.numTies++
				g.coins++
				if g.rng.Intn(2) == 0 {
					via[next] = eid
				}
			}
		}
	}
	return stamp[dst] == gen
}

// appendHops appends the hops of the path the via array holds from
// src to dst, in travel order, and returns the extended slice.
func (g *Graph) appendHops(src, dst int32, hops []Hop) []Hop {
	s := g.srch
	rev := s.revBuf[:0]
	for n := dst; n != src; {
		eid := s.via[n]
		rev = append(rev, eid)
		e := &g.Edges[eid]
		if int32(e.A) == n {
			n = int32(e.B)
		} else {
			n = int32(e.A)
		}
	}
	s.revBuf = rev
	for i := len(rev) - 1; i >= 0; i-- {
		e := &g.Edges[rev[i]]
		hops = append(hops, Hop{
			Edge: e.ID, Group: e.Group,
			Delay: e.RealDelay, Moves: e.Moves, Turns: e.Turns,
		})
	}
	return hops
}
