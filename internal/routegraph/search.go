package routegraph

import "repro/internal/gates"

// This file is FindRoute's classic search: Dijkstra from one trap to
// another under the Eq. 2 congestion weights, breaking equal-cost
// relaxations with the graph's seeded coin (§IV.B, Fig. 5). It is the
// only search graphs below the ALT threshold run (see alt.go), and it
// is specialized for that one job:
//
//   - Weights are read inline. Each CSR adjacency slot is one record
//     of its far end, its edge's capacity group and its SelectBase,
//     and the group's Eq. 2 multiplier (Graph.mult: occ+1, or 0 once
//     the group is saturated) turns that into the weight. EdgeWeight
//     reads the same multiplier, so Eq. 2 is defined in one place.
//   - A junction node scans only its junction-neighbour prefix. Its
//     trap neighbours trail it in the CSR order (New checks this), and
//     of them only the destination can be relaxed: other traps are not
//     thoroughfares, and the source is settled first, after which any
//     relaxation of it is a no-op (no edge weighs less than zero). The
//     trailing trap slots are scanned only at the destination's own
//     neighbours, which each query stamps.
//   - Each node's per-query state (distance, predecessor and three
//     generation stamps) is one record. A query resets all of it in
//     O(1) by bumping the generation, and queries allocate nothing at
//     steady state.
//
// Heap shape. The seeded coin is consumed once per equal-cost
// relaxation event, and the sequence of those events depends on the
// exact pop order among equal-distance entries. The heap therefore
// leaves its array exactly as container/heap would with a strict <
// Less. Push moves a hole up past strictly greater parents. Pop walks
// the min-child path from the root to a leaf, taking the right child
// only when it is strictly smaller: that is the path container/heap's
// pop walks. Keys never decrease along it, so sinking the hole to the
// leaf and then climbing back while the parent is >= the moved last
// entry leaves every slot where the top-down sift leaves it. A +inf
// sentinel in the vacated last slot makes the child choice
// branch-free. A different heap (a 4-ary one, or a pop that stops
// below equal keys) reorders equal keys and breaks the golden
// fingerprints (golden_test.go); search_test.go pins the equivalence
// against container/heap and against the generic loop this one
// replaced.
//
// Sealed destinations. A query toward a trap whose every edge is
// impassable (its channel saturated, or defective) floods the source's
// component and fails. It leaves nothing behind but the number of tie
// coins it drew: dist and via are per-query scratch, and a failed
// search records nothing for the route cache but that number. (In an
// idle state only a defective element can seal a trap, and the failed
// cache entry still records the count.) On a graph whose weights are
// all positive and at most maxRingWeight, ringFlood counts those coins
// without a heap, settling nodes from a bucket ring (Dial 1969), and
// route draws that many with the same g.rng.Intn(2) call. The count
// is exact:
//
//   - With positive weights, node v's tie events come only from
//     predecessors u with D(u) < D(v), in settle order, and settle
//     order is D order except among equal D. So group v's offers
//     c = D(u) + w(u,v) by D(u), and take the groups in D order with
//     the running minimum M (+inf before the first).
//   - A group with minimum m contributes |{c = M}| coins if m = M,
//     |{c = m}| - 1 if m < M (the first offer of m writes, the others
//     tie), and none if m > M.
//   - That holds in any order within the group, except when m < M and
//     either another offer equals M or two offers strictly between m
//     and M are equal. Only then does the heap's order among equal keys
//     matter, and the query falls back to runSearch, which draws its
//     coins itself.

// searchNode is one heap entry. A ring flood queues its nodes in the
// heap's array instead, linking the entries of one bucket, and the
// free ones, through next (-1 ends a list).
type searchNode struct {
	node, next int32
	dist       gates.Time
}

// nodeState is one node's per-query record. A stamp equal to the
// query's generation says dist was written (distGen), the node is
// settled (setGen), or the node neighbours the destination, or the
// source in a ring flood (nearGen).
type nodeState struct {
	dist    gates.Time
	distGen uint32
	setGen  uint32
	nearGen uint32
	via     int32
}

// slot is one CSR adjacency slot as the classic search reads it.
type slot struct {
	other int32      // far end
	group int32      // capacity group of the slot's edge
	base  gates.Time // the edge's SelectBase
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

// SearchWork counts the classic search's work on one graph since New;
// Reset keeps it, so it totals every run on the graph. Like the coin
// stream it is fixed by the graph and its query history. ALT graphs
// report zero.
type SearchWork struct {
	HeapPops      uint64 // entries popped from the exact search's heap
	RingFloods    uint64 // sealed-destination queries counted in the ring
	RingFallbacks uint64 // sealed-destination queries the ring left to the exact search
}

// SearchWork returns the graph's search counters.
func (g *Graph) SearchWork() SearchWork {
	if g.srch == nil {
		return SearchWork{}
	}
	return g.srch.work
}

// search is the graph-owned state of the classic search. FindRoute
// is single-threaded by contract, so one per graph is enough.
type search struct {
	nodes  []nodeState
	gen    uint32
	heap   []searchNode
	revBuf []int32

	// writes and numTies record the query's predecessor writes and
	// equal-cost events for the route cache (cache.go).
	writes  []viaWrite
	numTies int32

	// ringLen is the ring flood's bucket count (the largest Eq. 2
	// weight plus one), 0 on graphs it does not apply to; the first
	// flood allocates ring, the head entry of each bucket.
	ringLen int32
	ring    []int32

	work SearchWork
}

func newSearch(n int) *search {
	return &search{nodes: make([]nodeState, n)}
}

// begin opens a fresh query: O(1) state reset via generation bump.
func (s *search) begin() {
	s.gen++
	if s.gen == 0 { // uint32 wrap: clear stamps once every 4G queries
		for i := range s.nodes {
			n := &s.nodes[i]
			n.distGen, n.setGen, n.nearGen = 0, 0, 0
		}
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

// pop is container/heap.Pop, bottom-up: the root's hole sinks along
// the min-child path to a leaf, then climbs back while its parent is
// >= the last entry x, which lands in it (see the file comment). The
// distances are non-negative, so the sign of their difference picks
// the strictly smaller right child without a branch.
func (s *search) pop() searchNode {
	s.work.HeapPops++
	h := s.heap
	n := len(h) - 1
	top, x := h[0], h[n]
	h[n].dist = timeInf
	i := 0
	for j := 1; j < n; j = 2*i + 1 {
		j += int(uint64(h[j+1].dist-h[j].dist) >> 63)
		h[i] = h[j]
		i = j
	}
	for i > 0 {
		p := (i - 1) / 2
		if h[p].dist < x.dist {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = x
	s.heap = h[:n]
	return top
}

// route answers a classic query from graph node src to dst and
// reports whether dst was reached. A sealed destination's coins are
// counted in the ring where the graph allows it; every other query,
// and a flood whose count is ambiguous, runs the exact search.
func (g *Graph) route(src, dst int32, record bool) bool {
	s := g.srch
	if s.ringLen > 0 && g.sealed(dst) {
		if ties, ok := g.ringFlood(src); ok {
			s.work.RingFloods++
			s.numTies = ties
			for range ties {
				g.rng.Intn(2)
			}
			g.coins += uint64(ties)
			return false
		}
		s.work.RingFallbacks++
	}
	return g.runSearch(src, dst, record)
}

// runSearch executes the classic search from graph node src to dst
// under the current Eq. 2 weights and reports whether dst was
// reached. Each equal-cost relaxation of an unsettled node draws one
// coin that may redirect its predecessor; record additionally logs
// every predecessor write for the route cache.
func (g *Graph) runSearch(src, dst int32, record bool) bool {
	s := g.srch
	s.begin()
	gen, nodes := s.gen, s.nodes
	start, juncEnd, slots, list, mult := g.edgeStart, g.juncEnd, g.slots, g.edgeList, g.mult

	for k := start[dst]; k < start[dst+1]; k++ {
		nodes[slots[k].other].nearGen = gen
	}
	nodes[src].dist, nodes[src].distGen, nodes[src].via = 0, gen, -1
	s.push(searchNode{node: src, dist: 0})
	for len(s.heap) > 0 {
		cur := s.pop()
		cn := cur.node
		c := &nodes[cn]
		if cur.dist > c.dist || c.setGen == gen {
			continue
		}
		c.setGen = gen
		if cn == dst {
			break
		}
		firstTrap, end := juncEnd[cn], juncEnd[cn]
		if c.nearGen == gen {
			end = start[cn+1]
		}
		for k := start[cn]; k < end; k++ {
			sl := &slots[k]
			next := sl.other
			if k >= firstTrap && next != dst {
				continue
			}
			m := mult[sl.group]
			if m == 0 {
				continue // saturated or defective: impassable
			}
			nd := cur.dist + gates.Time(m)*sl.base
			nx := &nodes[next]
			if nx.distGen != gen || nd < nx.dist {
				eid := list[k]
				nx.dist, nx.distGen, nx.via = nd, gen, eid
				if record {
					s.writes = append(s.writes, viaWrite{node: next, edge: eid, tie: -1})
				}
				s.push(searchNode{node: next, dist: nd})
			} else if nd == nx.dist && nx.setGen != gen {
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
					nx.via = eid
				}
			}
		}
	}
	return nodes[dst].distGen == gen
}

// maxRingWeight caps the largest Eq. 2 weight (SelectBase × group
// capacity) a ring flood may meet: a flood walks one bucket per
// distance unit it spans. The paper's technology on quale45x85 has 26.
const maxRingWeight = 256

// maxOffers is the most offers groupTies takes at one node; a graph
// whose junction nodes could receive more keeps the exact search.
const maxOffers = 8

// ringSize returns the ring flood's bucket count, the largest weight
// of the junction-prefix slots it reads plus one, or 0 when one of
// them can weigh zero (a turn-blind graph's turn edges) or more than
// maxRingWeight, or a node can receive more than maxOffers offers.
func (g *Graph) ringSize() int32 {
	var wmax gates.Time
	var junc, trap int32
	for v, kind := range g.nodeKind {
		lo, hi := g.edgeStart[v], g.juncEnd[v]
		for _, sl := range g.slots[lo:hi] {
			c := gates.Time(g.Groups[sl.group].Capacity)
			if sl.base <= 0 || sl.base > maxRingWeight || c > maxRingWeight {
				return 0
			}
			wmax = max(wmax, sl.base*c)
		}
		if kind == TrapNode {
			trap = max(trap, hi-lo)
		} else {
			junc = max(junc, hi-lo)
		}
	}
	if wmax > maxRingWeight || junc+trap > maxOffers {
		return 0
	}
	return int32(wmax) + 1
}

// offer is one relaxation of a node by a settled neighbour at
// distance from, offering distance c.
type offer struct{ from, c gates.Time }

// ringFlood settles, in distance order from the bucket ring, every
// node the exact search settles from src toward a sealed destination,
// and returns the number of tie coins that search draws. ok is false
// when some node's count depends on the heap's order among equal keys
// (see the file comment); nothing has been drawn then.
func (g *Graph) ringFlood(src int32) (ties int32, ok bool) {
	s := g.srch
	s.begin()
	if s.ring == nil {
		s.ring = make([]int32, s.ringLen)
	}
	gen, nodes, ring := s.gen, s.nodes, s.ring
	start, juncEnd, slots, mult := g.edgeStart, g.juncEnd, g.slots, g.mult
	for b := range ring {
		ring[b] = -1
	}
	// The queue's entries live in the idle heap's array; a popped
	// entry goes on the free list and is reused by the next push.
	q, free := s.heap[:0], int32(-1)
	// The source is a trap, outside every junction's prefix: stamp its
	// neighbours so their settle looks up its offers.
	srcSlots := slots[start[src]:juncEnd[src]]
	for _, sl := range srcSlots {
		nodes[sl.other].nearGen = gen
	}
	nodes[src].dist, nodes[src].distGen = 0, gen
	q = append(q, searchNode{node: src, next: -1})
	ring[0] = 0
	live, nr := 1, int32(len(ring))
	var offers [maxOffers]offer
	for d, b := gates.Time(0), int32(0); live > 0; d, b = d+1, b+1 {
		if b == nr {
			b = 0
		}
		for e := ring[b]; e >= 0; e = ring[b] {
			v := q[e].node
			ring[b], q[e].next, free = q[e].next, free, e
			live--
			nv := &nodes[v]
			if nv.setGen == gen || nv.dist != d {
				continue // stale: settled, or queued again nearer
			}
			nv.setGen = gen
			// One pass over the prefix: settled neighbours offered v
			// its distance, the others are relaxed from it.
			n := 0
			for k := start[v]; k < juncEnd[v]; k++ {
				sl := &slots[k]
				m := mult[sl.group]
				if m == 0 {
					continue
				}
				w := gates.Time(m) * sl.base
				nu := &nodes[sl.other]
				if nu.setGen == gen {
					if nu.dist < d {
						offers[n] = offer{from: nu.dist, c: nu.dist + w}
						n++
					}
					continue
				}
				if nd := d + w; nu.distGen != gen || nd < nu.dist {
					nu.dist, nu.distGen = nd, gen
					t := b + int32(w)
					if t >= nr {
						t -= nr
					}
					e := free
					if e >= 0 {
						free = q[e].next
					} else {
						e = int32(len(q))
						q = append(q, searchNode{})
					}
					q[e] = searchNode{node: sl.other, next: ring[t]}
					ring[t] = e
					live++
				}
			}
			if nv.nearGen == gen {
				for _, sl := range srcSlots {
					if m := mult[sl.group]; sl.other == v && m != 0 {
						offers[n] = offer{from: 0, c: gates.Time(m) * sl.base}
						n++
					}
				}
			}
			c, exact := groupTies(offers[:n])
			if !exact {
				s.heap = q[:0]
				return 0, false
			}
			ties += c
		}
	}
	s.heap = q[:0]
	return ties, true
}

// groupTies returns the tie coins the exact search draws at one node
// from the offers of its settled neighbours, or exact false when that
// count depends on the order among equal keys. It sorts offers.
func groupTies(offers []offer) (ties int32, exact bool) {
	if len(offers) < 2 {
		return 0, true
	}
	for i := 1; i < len(offers); i++ {
		for j := i; j > 0 && offers[j].from < offers[j-1].from; j-- {
			offers[j], offers[j-1] = offers[j-1], offers[j]
		}
	}
	best := timeInf
	for i := 0; i < len(offers); {
		j, m := i+1, offers[i].c
		for ; j < len(offers) && offers[j].from == offers[i].from; j++ {
			m = min(m, offers[j].c)
		}
		group := offers[i:j]
		switch {
		case m == best:
			for _, o := range group {
				if o.c == best {
					ties++
				}
			}
		case m < best:
			for a, o := range group {
				switch {
				case o.c == m:
					ties++
				case o.c == best:
					return 0, false
				case o.c < best:
					for _, p := range group[a+1:] {
						if p.c == o.c {
							return 0, false
						}
					}
				}
			}
			ties-- // the first offer of m writes; the others tie
			best = m
		}
		i = j
	}
	return ties, true
}

// appendHops appends the hops of the path the predecessor records
// hold from src to dst, in travel order, and returns the extended
// slice.
func (g *Graph) appendHops(src, dst int32, hops []Hop) []Hop {
	s := g.srch
	rev := s.revBuf[:0]
	for n := dst; n != src; {
		eid := s.nodes[n].via
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
