package routegraph

// Landmark-based (ALT) goal-directed search for giant fabrics.
//
// The paper's fabrics are small enough that plain Dijkstra answers a
// route query in microseconds, but a 100k-trap fabric has hundreds of
// thousands of graph nodes and a Dijkstra flood touches most of them.
// ALT ("A*, Landmarks, Triangle inequality") fixes the asymptotics:
// at build time a handful of landmark nodes get exact shortest-path
// distance tables over the uncongested SelectBase weights, and each
// query runs A* with the admissible lower bound
//
//	h(n) = max over landmarks L of |d(L, dst) - d(L, n)|
//
// (the triangle inequality applied twice, once per direction of the
// undirected graph). Eq. 2 congestion only ever *raises* an edge
// above its SelectBase — weight = (occ+1)*base >= base, or +inf when
// saturated — so the uncongested tables stay admissible AND
// consistent under any occupancy state, and A* remains exact without
// ever rebuilding the tables.
//
// Canonical paths instead of coin flips. FindRoute's classic mode
// breaks equal-cost ties with a shared seeded rng whose consumption
// order is part of the pinned golden behavior; an A* search visits
// nodes in a different order and cannot reproduce that stream. ALT
// mode therefore does not flip coins at all: it searches in the
// lexicographic label domain (cost, hops) — every edge weighs
// (w, 1), which is strictly positive even for the turn-blind metric's
// zero-cost turn edges — and reconstructs the unique canonical path
// "minimum cost, then fewest hops, then smallest edge ID at every
// backward step". That path is a pure function of the exact label
// arrays, not of heap pop order, which is what makes the plain
// Dijkstra oracle (OracleRoute) provably return the identical
// cost-and-trajectory: both algorithms settle every node whose
// f-label is lexicographically <= the destination's final label, both
// compute the same exact labels for them, and the backward walk reads
// only those labels. The equivalence property tests in
// alt_equiv_test.go pin this on randomly generated fabrics.
//
// ALT engages automatically once a graph crosses altAutoNodes nodes;
// the paper fabrics (Small: 26 nodes, Quale4585: 990) stay on the
// classic coin-flip Dijkstra path, so every pre-change golden
// fingerprint and Table-2 golden is preserved bit for bit.

import (
	"math"
	"math/bits"

	"repro/internal/gates"
)

const (
	// altAutoNodes is the node count at which Options.Landmarks == 0
	// (auto) turns ALT on. Both paper fabrics sit well below it.
	altAutoNodes = 2048
	// altDefaultLandmarks is the landmark count used in auto mode.
	altDefaultLandmarks = 16
)

// altState is the per-graph ALT machinery: the landmark distance
// tables and one reusable search state (FindRoute is single-threaded
// by contract, so one is enough).
type altState struct {
	landmarks []int32
	// dist is the flattened landmark table: dist[l*numNodes+n] is the
	// exact uncongested (SelectBase) distance from landmarks[l] to
	// node n, saturated at math.MaxInt32, which also stands for
	// unreachable (see saturate).
	dist     []int32
	numNodes int

	search altSearcher
	// hDst caches d(L, dst) for the query in flight.
	hDst [altDefaultLandmarks]int32
}

// altEnabled decides whether a graph uses ALT: forced on (>0),
// forced off (<0), or by node count (0 = auto).
func altEnabled(landmarks, numNodes int) bool {
	if landmarks > 0 {
		return true
	}
	if landmarks < 0 {
		return false
	}
	return numNodes >= altAutoNodes
}

// ALTEnabled reports whether this graph routes with landmark-based
// search (and canonical deterministic tie-breaks) instead of the
// classic coin-flip Dijkstra.
func (g *Graph) ALTEnabled() bool { return g.alt != nil }

// Landmarks returns the graph node IDs chosen as landmarks (nil when
// ALT is off).
func (g *Graph) Landmarks() []int32 {
	if g.alt == nil {
		return nil
	}
	return g.alt.landmarks
}

// buildALT selects landmarks by farthest-point traversal and fills
// their distance tables. Deterministic: seeded from node 0, ties on
// equal distance resolved toward the lower node ID. The selection
// reads exact distances; only the stored tables saturate.
func (g *Graph) buildALT(count int) {
	n := len(g.Nodes)
	if count <= 0 {
		count = altDefaultLandmarks
	}
	if count > altDefaultLandmarks {
		count = altDefaultLandmarks
	}
	if count > n {
		count = n
	}
	a := &altState{numNodes: n, dist: make([]int32, 0, count*n)}
	a.search.init(n)

	w := g.landmarkWeights()
	var q radixHeap
	// minDist[v] = distance from v to its nearest chosen landmark,
	// maintained across rounds for the farthest-point choice.
	minDist := make([]gates.Time, n)
	for i := range minDist {
		minDist[i] = timeInf
	}
	row := make([]gates.Time, n)
	g.baseSSSP(0, w, &q, row)
	for len(a.landmarks) < count {
		var next int32
		if len(a.landmarks) == 0 {
			// First landmark: the node farthest from node 0 — a
			// peripheral node, which is what ALT wants.
			next = farthest(row)
		} else {
			next = farthest(minDist)
		}
		a.landmarks = append(a.landmarks, next)
		g.baseSSSP(next, w, &q, row)
		improved := false
		for v, d := range row {
			a.dist = append(a.dist, saturate(d))
			if d < minDist[v] {
				minDist[v] = d
				improved = true
			}
		}
		if !improved && len(a.landmarks) < count {
			// Degenerate graph (fewer distinct peripheries than
			// requested landmarks): stop early rather than duplicate.
			break
		}
	}
	g.alt = a
}

// saturate stores an exact distance in a landmark table, clamping it
// to math.MaxInt32; unreachable (timeInf) clamps to the same value.
// Clamping is 1-Lipschitz (|sat(a) - sat(b)| <= |a - b|), so each
// landmark's term |sat(d(L,dst)) - sat(d(L,n))| is still at most
// d(n,dst) and still changes by at most an edge's weight along an
// edge: the heuristic stays admissible and consistent. A landmark
// reaches all of a connected component or none of it, so where a
// search can reach its destination, a landmark unreachable from one
// node it explores is unreachable from all of them and adds 0.
func saturate(d gates.Time) int32 {
	if d >= math.MaxInt32 {
		return math.MaxInt32
	}
	return int32(d)
}

// farthest returns the index of the maximum finite distance (lowest
// index on ties; index 0 if every entry is unreachable).
func farthest(dist []gates.Time) int32 {
	best, bestD := int32(0), gates.Time(-1)
	for v, d := range dist {
		if d != timeInf && d > bestD {
			best, bestD = int32(v), d
		}
	}
	return best
}

// landmarkWeights returns the SelectBase weight of each CSR slot's
// edge, or -1 where the edge's group has capacity 0 (a defective
// element, impassable).
func (g *Graph) landmarkWeights() []gates.Time {
	w := make([]gates.Time, len(g.edgeList))
	for k, eid := range g.edgeList {
		e := &g.Edges[eid]
		w[k] = e.SelectBase
		if g.Groups[e.Group].Capacity <= 0 {
			w[k] = -1
		}
	}
	return w
}

// baseSSSP floods exact shortest-path distances from src over the
// per-slot landmark weights w into out (timeInf = unreachable).
// Defective elements (weight -1) are impassable; trap nodes are
// traversable here — that only weakens the resulting lower bounds,
// never invalidates them, because the real search is more restricted
// than this relaxation.
func (g *Graph) baseSSSP(src int32, w []gates.Time, q *radixHeap, out []gates.Time) {
	for i := range out {
		out[i] = timeInf
	}
	out[src] = 0
	q.reset()
	q.push(0, src)
	start, other := g.edgeStart, g.edgeOther
	for q.size > 0 {
		d, u := q.pop()
		if d > out[u] {
			continue
		}
		for k := start[u]; k < start[u+1]; k++ {
			if w[k] < 0 {
				continue
			}
			nd, v := d+w[k], other[k]
			if nd < out[v] {
				out[v] = nd
				q.push(nd, v)
			}
		}
	}
}

// radixHeap is a monotone priority queue for Dijkstra over
// non-negative weights: no key pushed is below the last key popped.
// A key lives in the bucket indexed by the highest bit in which it
// differs from that last key, so bucket 0 holds keys equal to it.
// When bucket 0 runs dry, the lowest non-empty bucket's minimum
// becomes the last key and the bucket's entries move to lower
// buckets; each entry moves at most 64 times. It is exact for any
// non-negative weights, zero included, and its bucket count does not
// depend on the weights' size.
type radixHeap struct {
	last    gates.Time
	size    int
	buckets [65][]radixEntry
}

type radixEntry struct {
	key  gates.Time
	node int32
}

func (q *radixHeap) reset() {
	for i := range q.buckets {
		q.buckets[i] = q.buckets[i][:0]
	}
	q.last, q.size = 0, 0
}

func (q *radixHeap) push(key gates.Time, node int32) {
	b := bits.Len64(uint64(key ^ q.last))
	q.buckets[b] = append(q.buckets[b], radixEntry{key, node})
	q.size++
}

// pop removes an entry with the minimum key; q must not be empty.
func (q *radixHeap) pop() (gates.Time, int32) {
	if len(q.buckets[0]) == 0 {
		i := 1
		for len(q.buckets[i]) == 0 {
			i++
		}
		b := q.buckets[i]
		m := b[0].key
		for _, x := range b[1:] {
			m = min(m, x.key)
		}
		q.last = m
		for _, x := range b {
			j := bits.Len64(uint64(x.key ^ m))
			q.buckets[j] = append(q.buckets[j], x)
		}
		q.buckets[i] = b[:0]
	}
	b := q.buckets[0]
	x := b[len(b)-1]
	q.buckets[0] = b[:len(b)-1]
	q.size--
	return x.key, x.node
}

// altSearcher is the reusable A*/Dijkstra state of the canonical
// lexicographic (cost, hops) label domain. Like the classic search it
// resets in O(1) by generation stamping, so queries touch memory proportional
// to the explored region, not the fabric.
type altSearcher struct {
	dist    []gates.Time
	hopc    []int32
	stamp   []uint32
	settled []uint32
	gen     uint32
	heap    []altNode
	revBuf  []int32
}

type altNode struct {
	f    gates.Time // dist + heuristic (lower bound on total cost)
	k    int32      // hop count of the label
	node int32
}

func altLess(a, b altNode) bool {
	if a.f != b.f {
		return a.f < b.f
	}
	return a.k < b.k
}

func (s *altSearcher) init(n int) {
	s.dist = make([]gates.Time, n)
	s.hopc = make([]int32, n)
	s.stamp = make([]uint32, n)
	s.settled = make([]uint32, n)
}

func (s *altSearcher) begin() {
	s.gen++
	if s.gen == 0 {
		clear(s.stamp)
		clear(s.settled)
		s.gen = 1
	}
	s.heap = s.heap[:0]
}

func (s *altSearcher) push(x altNode) {
	h := append(s.heap, x)
	j := len(h) - 1
	for j > 0 {
		i := (j - 1) / 2
		if !altLess(h[j], h[i]) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
	s.heap = h
}

func (s *altSearcher) pop() altNode {
	h := s.heap
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	i := 0
	for {
		j1 := 2*i + 1
		if j1 >= n {
			break
		}
		j := j1
		if j2 := j1 + 1; j2 < n && altLess(h[j2], h[j1]) {
			j = j2
		}
		if !altLess(h[j], h[i]) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	s.heap = h[:n]
	return h[n]
}

// heuristicTo prepares the query's d(L, dst) column and returns the
// per-node lower bound function. A nil altState (oracle mode) yields
// the zero heuristic, turning the search into plain Dijkstra over the
// same label domain.
func (a *altState) heuristicTo(dst int32) func(n int32) gates.Time {
	if a == nil {
		return nil
	}
	for l := range a.landmarks {
		a.hDst[l] = a.dist[l*a.numNodes+int(dst)]
	}
	return func(n int32) gates.Time {
		var h int32
		for l := range a.landmarks {
			// Both entries lie in [0, MaxInt32], so the difference
			// cannot overflow.
			d := a.hDst[l] - a.dist[l*a.numNodes+int(n)]
			if d < 0 {
				d = -d
			}
			if d > h {
				h = d
			}
		}
		return gates.Time(h)
	}
}

// runCanonical executes the lexicographic (cost, hops) search from
// src to dst under the current Eq. 2 weights, with the optional
// consistent heuristic h (nil = Dijkstra). Unlike runSearch it
// does NOT stop the moment dst settles: it keeps popping until the
// heap minimum exceeds dst's final label, which settles every node
// whose optimal f-label is <= it. That closure is exactly what makes
// the backward canonical reconstruction independent of visit order.
func (g *Graph) runCanonical(s *altSearcher, src, dst int32, h func(int32) gates.Time) bool {
	s.begin()
	gen := s.gen
	dist, hopc, stamp, settled := s.dist, s.hopc, s.stamp, s.settled
	kinds := g.nodeKind
	start, list, other := g.edgeStart, g.edgeList, g.edgeOther

	dist[src], hopc[src], stamp[src] = 0, 0, gen
	var f0 gates.Time
	if h != nil {
		f0 = h(src)
	}
	s.push(altNode{f: f0, k: 0, node: src})
	found := false
	var boundF gates.Time
	var boundK int32
	for len(s.heap) > 0 {
		cur := s.pop()
		if found && (cur.f > boundF || (cur.f == boundF && cur.k > boundK)) {
			break
		}
		cn := cur.node
		if settled[cn] == gen {
			continue
		}
		// Stale-entry check: the heap may hold superseded labels.
		var curH gates.Time
		if h != nil {
			curH = h(cn)
		}
		if cur.f-curH != dist[cn] || cur.k != hopc[cn] {
			continue
		}
		settled[cn] = gen
		if cn == dst {
			found = true
			boundF, boundK = cur.f, cur.k
			continue
		}
		d, k := dist[cn], hopc[cn]
		for i := start[cn]; i < start[cn+1]; i++ {
			eid := list[i]
			next := other[i]
			if kinds[next] == TrapNode && next != dst && next != src {
				continue
			}
			if settled[next] == gen {
				continue
			}
			w := g.EdgeWeight(int(eid))
			if w == timeInf {
				continue
			}
			nd, nk := d+w, k+1
			if stamp[next] == gen {
				if od, ok := dist[next], hopc[next]; nd > od || (nd == od && nk >= ok) {
					continue
				}
			}
			var nh gates.Time
			if h != nil {
				nh = h(next)
			}
			nf := nd + nh
			if found && (nf > boundF || (nf == boundF && nk > boundK)) {
				continue // provably beyond every optimal label
			}
			dist[next], hopc[next], stamp[next] = nd, nk, gen
			s.push(altNode{f: nf, k: nk, node: next})
		}
	}
	return found
}

// appendCanonicalHops reconstructs the canonical optimal path purely
// from the settled label arrays: from dst walk backward, at each node
// taking the smallest-ID incident edge whose far endpoint carries the
// exactly-one-step-shorter label. Every such endpoint is settled (see
// runCanonical), so the choice — and therefore the whole trajectory —
// depends only on the labels, never on search order.
func (g *Graph) appendCanonicalHops(s *altSearcher, src, dst int32, hops []Hop) []Hop {
	gen := s.gen
	rev := s.revBuf[:0]
	kinds := g.nodeKind
	start, list, other := g.edgeStart, g.edgeList, g.edgeOther
	for n := dst; n != src; {
		bestEdge, bestNode := int32(-1), int32(-1)
		dn, kn := s.dist[n], s.hopc[n]
		for i := start[n]; i < start[n+1]; i++ {
			eid := list[i]
			u := other[i]
			if kinds[u] == TrapNode && u != src {
				continue
			}
			if s.settled[u] != gen {
				continue
			}
			w := g.EdgeWeight(int(eid))
			if w == timeInf {
				continue
			}
			if s.dist[u]+w == dn && s.hopc[u]+1 == kn && (bestEdge < 0 || eid < bestEdge) {
				bestEdge, bestNode = eid, u
			}
		}
		if bestEdge < 0 {
			panic("routegraph: canonical reconstruction lost the path")
		}
		rev = append(rev, bestEdge)
		n = bestNode
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

// findRouteALT is FindRoute's landmark-mode body: canonical A* with
// the triangle-inequality heuristic, plus the uncongested route cache
// (entries store the canonical hop sequence directly — no tie coins
// exist in this mode, so no draw replay is needed).
func (g *Graph) findRouteALT(fromTrap, toTrap int) (Route, bool) {
	a := g.alt
	uncongested := g.totalOcc == 0
	key := routeKey(fromTrap, toTrap)
	if uncongested {
		if e, ok := g.cache[key]; ok {
			if !e.found {
				return Route{}, false
			}
			g.hopsBuf = append(g.hopsBuf[:0], e.hops...)
			return g.buildRoute(fromTrap, toTrap, e.cost), true
		}
	}
	src := int32(g.trapNode[fromTrap])
	dst := int32(g.trapNode[toTrap])
	// A sealed endpoint fails the search without one: the source
	// cannot be left, and a sealed destination would otherwise be
	// discovered unreachable only after flooding the fabric.
	found := !g.sealed(src) && !g.sealed(dst) &&
		g.runCanonical(&a.search, src, dst, a.heuristicTo(dst))
	if !found {
		if uncongested {
			g.putCacheEntry(key, &routeEntry{})
		}
		return Route{}, false
	}
	cost := a.search.dist[dst]
	g.hopsBuf = g.appendCanonicalHops(&a.search, src, dst, g.hopsBuf[:0])
	if uncongested {
		g.putCacheEntry(key, &routeEntry{
			found: true,
			cost:  cost,
			hops:  append([]Hop(nil), g.hopsBuf...),
		})
	}
	return g.buildRoute(fromTrap, toTrap, cost), true
}

// sealed reports whether every edge at node n weighs +inf under the
// current Eq. 2 weights, so no route can leave or enter it: at a trap
// node, while its channel is saturated or defective.
func (g *Graph) sealed(n int32) bool {
	for k := g.edgeStart[n]; k < g.edgeStart[n+1]; k++ {
		if g.EdgeWeight(int(g.edgeList[k])) != timeInf {
			return false
		}
	}
	return true
}

// OracleRoute answers the same query as FindRoute's ALT mode with a
// plain canonical Dijkstra (no landmarks, no heuristic) over the
// current Eq. 2 weights. It is the reference oracle for the
// ALT-equivalence property suite: for any graph and any occupancy
// state it returns the identical cost and hop-for-hop trajectory that
// findRouteALT returns, and a graph too small for ALT can still be
// queried through it. It never consumes the tie rng and never touches
// the route cache, so interleaving oracle queries cannot perturb the
// graph's pinned behavior. The returned hops are freshly allocated.
func (g *Graph) OracleRoute(fromTrap, toTrap int) (Route, bool) {
	if fromTrap == toTrap {
		return Route{From: fromTrap, To: toTrap}, true
	}
	if g.edgeOther == nil { // a classic graph keeps far ends in its slots
		g.edgeOther = make([]int32, len(g.slots))
		for k := range g.slots {
			g.edgeOther[k] = g.slots[k].other
		}
	}
	var s altSearcher
	s.init(len(g.Nodes))
	src := int32(g.trapNode[fromTrap])
	dst := int32(g.trapNode[toTrap])
	if !g.runCanonical(&s, src, dst, nil) {
		return Route{}, false
	}
	r := Route{
		From: fromTrap, To: toTrap,
		Cost: s.dist[dst],
		Hops: g.appendCanonicalHops(&s, src, dst, nil),
	}
	for i := range r.Hops {
		h := &r.Hops[i]
		r.Delay += h.Delay
		r.Moves += h.Moves
		r.Turns += h.Turns
	}
	return r, true
}
