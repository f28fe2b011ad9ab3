package routegraph

import (
	"container/heap"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/fabric"
	"repro/internal/gates"
)

// refHeap is container/heap's view of a searchNode slice under the
// strict < Less the search relies on.
type refHeap []searchNode

func (h refHeap) Len() int           { return len(h) }
func (h refHeap) Less(i, j int) bool { return h[i].dist < h[j].dist }
func (h refHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)        { *h = append(*h, x.(searchNode)) }
func (h *refHeap) Pop() any {
	old := *h
	x := old[len(old)-1]
	*h = old[:len(old)-1]
	return x
}

// TestHeapMatchesContainerHeap: the hole-sifting heap pops the same
// (node, dist) sequence as container/heap and leaves its array in the
// same order after every operation. Keys come from a 4-value range,
// so nearly every comparison meets equal keys.
func TestHeapMatchesContainerHeap(t *testing.T) {
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var s search
		var ref refHeap
		next := int32(0)
		for op := 0; op < 2000; op++ {
			if len(ref) == 0 || rng.Intn(5) < 3 {
				x := searchNode{node: next, dist: gates.Time(rng.Intn(4))}
				next++
				s.push(x)
				heap.Push(&ref, x)
			} else {
				got, want := s.pop(), heap.Pop(&ref).(searchNode)
				if got != want {
					t.Fatalf("seed %d op %d: pop = %+v, container/heap pops %+v", seed, op, got, want)
				}
			}
			if !slices.Equal(s.heap, ref) {
				t.Fatalf("seed %d op %d: heap %v, container/heap %v", seed, op, s.heap, ref)
			}
		}
	}
}

// refSearcher is the generic search loop the specialized one replaced,
// kept at W = gates.Time as the reference for
// TestSearchMatchesReference: weights and the tie coin come in through
// closures, every trap slot is scanned, each slot's far end comes from
// its Edge, and the heap swaps.
type refSearcher struct {
	g *Graph

	dist         []gates.Time
	via          []int32
	distStamp    []uint32
	settledStamp []uint32
	gen          uint32
	heap         []searchNode

	record  bool
	writes  []viaWrite
	numTies int32

	lastSrc, lastDst int32
	lastFound        bool
}

func newRefSearcher(g *Graph) *refSearcher {
	n := len(g.Nodes)
	return &refSearcher{
		g:            g,
		dist:         make([]gates.Time, n),
		via:          make([]int32, n),
		distStamp:    make([]uint32, n),
		settledStamp: make([]uint32, n),
	}
}

func (s *refSearcher) begin() {
	s.gen++
	if s.gen == 0 {
		clear(s.distStamp)
		clear(s.settledStamp)
		s.gen = 1
	}
	s.heap = s.heap[:0]
	s.writes = s.writes[:0]
	s.numTies = 0
	s.lastFound = false
}

func (s *refSearcher) push(x searchNode) {
	h := append(s.heap, x)
	j := len(h) - 1
	for j > 0 {
		i := (j - 1) / 2
		if !(h[j].dist < h[i].dist) {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
	s.heap = h
}

func (s *refSearcher) pop() searchNode {
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
		if j2 := j1 + 1; j2 < n && h[j2].dist < h[j1].dist {
			j = j2
		}
		if !(h[j].dist < h[i].dist) {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	v := h[n]
	s.heap = h[:n]
	return v
}

func (s *refSearcher) run(src, dst int32, inf gates.Time, weight func(edge int32) gates.Time, onEqual func(next, edge int32) bool, record bool) bool {
	s.begin()
	s.record = record
	s.lastSrc, s.lastDst = src, dst
	g := s.g
	dist, stamp, settled, via := s.dist, s.distStamp, s.settledStamp, s.via
	gen := s.gen
	kinds := g.nodeKind
	start, list := g.edgeStart, g.edgeList

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
		for k := start[cn]; k < start[cn+1]; k++ {
			eid := list[k]
			e := &g.Edges[eid]
			next := int32(e.A + e.B - int(cn))
			if kinds[next] == TrapNode && next != dst && next != src {
				continue
			}
			w := weight(eid)
			if w == inf {
				continue
			}
			nd := cur.dist + w
			d := inf
			if stamp[next] == gen {
				d = dist[next]
			}
			if nd < d {
				dist[next] = nd
				stamp[next] = gen
				via[next] = eid
				if record {
					s.writes = append(s.writes, viaWrite{node: next, edge: eid, tie: -1})
				}
				s.push(searchNode{node: next, dist: nd})
			} else if nd == d && settled[next] != gen && onEqual != nil {
				if record {
					s.writes = append(s.writes, viaWrite{node: next, edge: eid, tie: s.numTies})
				}
				s.numTies++
				if onEqual(next, eid) {
					via[next] = eid
				}
			}
		}
	}
	s.lastFound = s.distStamp[dst] == gen
	return s.lastFound
}

// refFindRoute answers a query on g with the reference loop: no route
// cache, Eq. 2 evaluated from the group occupancies directly, and one
// coin per equal-cost event from g's seeded stream.
func refFindRoute(g *Graph, s *refSearcher, fromTrap, toTrap int) (Route, bool) {
	weight := func(edge int32) gates.Time {
		e := &g.Edges[edge]
		gr := &g.Groups[e.Group]
		if gr.Occupancy() >= gr.Capacity {
			return math.MaxInt64
		}
		return gates.Time(gr.Occupancy()+1) * e.SelectBase
	}
	tie := func(next, edge int32) bool { g.coins++; return g.rng.Intn(2) == 0 }
	src, dst := int32(g.trapNode[fromTrap]), int32(g.trapNode[toTrap])
	if !s.run(src, dst, timeInf, weight, tie, false) {
		return Route{}, false
	}
	r := Route{From: fromTrap, To: toTrap, Cost: s.dist[dst]}
	var rev []int32
	for n := dst; n != src; {
		e := &g.Edges[s.via[n]]
		rev = append(rev, s.via[n])
		if int32(e.A) == n {
			n = int32(e.B)
		} else {
			n = int32(e.A)
		}
	}
	for i := len(rev) - 1; i >= 0; i-- {
		e := &g.Edges[rev[i]]
		r.Hops = append(r.Hops, Hop{Edge: e.ID, Group: e.Group, Delay: e.RealDelay, Moves: e.Moves, Turns: e.Turns})
		r.Delay += e.RealDelay
		r.Moves += e.Moves
		r.Turns += e.Turns
	}
	return r, true
}

// checkSearchScript drives two identically built graphs through one
// seeded script of queries, commits, releases and resets: ref answers
// with the reference loop, got with FindRoute (route cache included).
// A tail of queries/2 more queries then commits every route it can,
// so channels saturate and many queries meet a sealed destination. It
// returns a diagnostic at the first query whose found flag, cost, hops
// or coin count differ, and got's search counters.
func checkSearchScript(f *fabric.Fabric, tech gates.Tech, opts Options, seed int64, queries int) (string, SearchWork) {
	ref, got := New(f, tech, opts), New(f, tech, opts)
	if ref.ALTEnabled() {
		return "graph routes with ALT; the script needs the classic search", SearchWork{}
	}
	rs := newRefSearcher(ref)
	rng := rand.New(rand.NewSource(seed))
	n := len(f.Traps)
	var held []Route
	for q := 0; q < queries+queries/2; q++ {
		a, b := rng.Intn(n), rng.Intn(n)
		if a == b {
			continue
		}
		want, wantOK := refFindRoute(ref, rs, a, b)
		r, ok := got.FindRoute(a, b)
		if d := routesDiffer(r, ok, want, wantOK); d != "" {
			return fmt.Sprintf("query %d (%d->%d): %s", q, a, b, d), got.SearchWork()
		}
		if got.coins != ref.coins {
			return fmt.Sprintf("query %d (%d->%d): %d coins drawn, reference drew %d", q, a, b, got.coins, ref.coins), got.SearchWork()
		}
		op := rng.Intn(10)
		if q >= queries {
			op = 0 // the tail commits
		}
		switch {
		case op < 4 && ok && commitable(got, r):
			r = r.Clone()
			got.Commit(r)
			ref.Commit(r)
			held = append(held, r)
		case op < 6 && len(held) > 0:
			i := rng.Intn(len(held))
			got.Uncommit(held[i])
			ref.Uncommit(held[i])
			held = append(held[:i], held[i+1:]...)
		case op == 6:
			// Drain to idle so the route cache records and replays.
			for _, h := range held {
				got.Uncommit(h)
				ref.Uncommit(h)
			}
			held = held[:0]
		case op == 7 && rng.Intn(4) == 0:
			got.Reset()
			ref.Reset()
			held = held[:0]
		}
	}
	return "", got.SearchWork()
}

// randomDefects picks each of n IDs with probability p.
func randomDefects(rng *rand.Rand, n int, p float64) []int {
	var ids []int
	for i := 0; i < n; i++ {
		if rng.Float64() < p {
			ids = append(ids, i)
		}
	}
	return ids
}

// TestSearchMatchesReference: the specialized search returns the same
// found flag, cost and hops as the generic loop it replaced, and draws
// the same number of tie coins, query by query, on the paper fabrics
// and on seeded generated fabrics, under both metrics, default and
// capacity-1 technology, with and without defective channels and
// junctions, idle and congested. The turn-aware scripts count coins in
// the ring and fall back from it at least once each, so both paths are
// compared with the reference; the turn-blind ones never use the ring.
func TestSearchMatchesReference(t *testing.T) {
	cap1 := gates.Default()
	cap1.ChannelCapacity = 1
	cap1.JunctionCapacity = 1
	fabrics := []struct {
		name string
		f    *fabric.Fabric
	}{{"small", fabric.Small()}, {"quale4585", fabric.Quale4585()}}
	specs, queries := 8, 400
	if testing.Short() {
		specs, queries = 3, 150
	}
	rng := rand.New(rand.NewSource(13))
	for len(fabrics) < 2+specs {
		spec := randomFamilySpec(rng)
		if f, _, err := fabric.Resolve(spec); err == nil && len(f.Traps) >= 2 {
			fabrics = append(fabrics, struct {
				name string
				f    *fabric.Fabric
			}{spec, f})
		}
	}
	var awareWork, blindWork SearchWork
	for _, fc := range fabrics {
		for _, aware := range []bool{true, false} {
			for ti, tech := range []gates.Tech{gates.Default(), cap1} {
				for _, defects := range []bool{false, true} {
					name := fmt.Sprintf("%s/aware=%v/tech=%d/defects=%v", fc.name, aware, ti, defects)
					seed := rng.Int63()
					opts := Options{TurnAware: aware, TieSeed: seed, Landmarks: -1}
					if defects {
						drng := rand.New(rand.NewSource(seed))
						opts.DefectiveChannels = randomDefects(drng, len(fc.f.Channels), 0.05)
						opts.DefectiveJunctions = randomDefects(drng, len(fc.f.Junctions), 0.05)
					}
					d, w := checkSearchScript(fc.f, tech, opts, seed, queries)
					if d != "" {
						t.Errorf("%s: %s", name, d)
					}
					sum := &blindWork
					if aware {
						sum = &awareWork
					}
					sum.HeapPops += w.HeapPops
					sum.RingFloods += w.RingFloods
					sum.RingFallbacks += w.RingFallbacks
				}
			}
		}
	}
	t.Logf("turn-aware %+v, turn-blind %+v", awareWork, blindWork)
	if awareWork.RingFloods == 0 || awareWork.RingFallbacks == 0 {
		t.Errorf("turn-aware scripts: %+v, want ring floods and at least one fallback", awareWork)
	}
	if blindWork.RingFloods+blindWork.RingFallbacks != 0 {
		t.Errorf("turn-blind scripts used the ring: %+v", blindWork)
	}
}

// TestJunctionPrefixOrderChecked: the CSR check behind the search's
// positional trap-slot skip accepts junction-then-trap neighbour lists
// and panics on a junction neighbour listed after a trap neighbour.
func TestJunctionPrefixOrderChecked(t *testing.T) {
	kinds := []NodeKind{JuncH, JuncV, TrapNode, TrapNode}
	start := []int32{0, 3, 5, 6, 7}
	slots := func(other ...int32) []slot {
		s := make([]slot, len(other))
		for k, o := range other {
			s[k].other = o
		}
		return s
	}
	ends := junctionPrefixEnds(start, slots(1, 2, 3, 0, 2, 0, 1), kinds)
	if want := []int32{1, 4, 6, 7}; fmt.Sprint(ends) != fmt.Sprint(want) {
		t.Fatalf("prefix ends %v, want %v", ends, want)
	}
	defer func() {
		if recover() == nil {
			t.Error("junction neighbour after a trap neighbour did not panic")
		}
	}()
	junctionPrefixEnds(start, slots(2, 1, 3, 0, 2, 0, 1), kinds)
}

// TestRingFallbackMatchesReference forces ambiguous floods by a
// bounded seeded search: it congests quale45x85 one committed route at
// a time, and in each state with a sealed trap it routes to that trap
// from every source. Each source whose ring count depends on the
// heap's order among equal keys (ringFlood says so without drawing a
// coin) must be left to the exact search and counted as a fallback;
// every other must be counted in the ring. Either way FindRoute must
// draw exactly the reference loop's coins.
func TestRingFallbackMatchesReference(t *testing.T) {
	f := fabric.Quale4585()
	opts := Options{TurnAware: true, TieSeed: 4}
	got, ref := New(f, gates.Default(), opts), New(f, gates.Default(), opts)
	rs := newRefSearcher(ref)
	rng := rand.New(rand.NewSource(4))
	n := len(f.Traps)
	ambiguous := 0
	for round := 0; round < 200 && ambiguous == 0; round++ {
		a, b := rng.Intn(n), rng.Intn(n)
		want, wantOK := refFindRoute(ref, rs, a, b)
		r, ok := got.FindRoute(a, b)
		if d := routesDiffer(r, ok, want, wantOK); d != "" || got.coins != ref.coins {
			t.Fatalf("round %d (%d->%d): %s, %d coins vs the reference's %d", round, a, b, d, got.coins, ref.coins)
		}
		if ok && commitable(got, r) {
			r = r.Clone()
			got.Commit(r)
			ref.Commit(r)
		}
		dst := -1
		for tr := 0; tr < n && dst < 0; tr++ {
			if got.sealed(int32(got.trapNode[tr])) {
				dst = tr
			}
		}
		if dst < 0 {
			continue
		}
		for src := 0; src < n; src++ {
			if src == dst {
				continue
			}
			_, exact := got.ringFlood(int32(got.trapNode[src]))
			before := got.SearchWork()
			if _, ok := got.FindRoute(src, dst); ok {
				t.Fatalf("round %d: route to sealed trap %d found", round, dst)
			}
			refFindRoute(ref, rs, src, dst)
			if got.coins != ref.coins {
				t.Fatalf("round %d (%d->%d, exact count %v): %d coins drawn, reference drew %d", round, src, dst, exact, got.coins, ref.coins)
			}
			w := got.SearchWork()
			if exact {
				if w.RingFloods != before.RingFloods+1 || w.RingFallbacks != before.RingFallbacks {
					t.Fatalf("round %d (%d->%d): counters %+v -> %+v, want one ring flood", round, src, dst, before, w)
				}
				continue
			}
			ambiguous++
			if w.RingFallbacks != before.RingFallbacks+1 || w.RingFloods != before.RingFloods {
				t.Fatalf("round %d (%d->%d): counters %+v -> %+v, want one fallback", round, src, dst, before, w)
			}
		}
	}
	if ambiguous == 0 {
		t.Fatal("the bounded search found no ambiguous flood")
	}
	t.Logf("%d ambiguous floods fell back; %+v", ambiguous, got.SearchWork())
}

// TestGroupTiesMatchesEveryOrder checks the ring's per-node count
// against the exact search's relaxations in every order they can come
// in: offers settle in distance order, in any order among equal
// distances. On random offer sets over few values, so most of them
// hold equal keys, groupTies must give the count every such order
// gives, and report ambiguity exactly when two orders disagree.
func TestGroupTiesMatchesEveryOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 4000; trial++ {
		offers := make([]offer, rng.Intn(7))
		for i := range offers {
			from := gates.Time(rng.Intn(3))
			offers[i] = offer{from: from, c: from + gates.Time(1+rng.Intn(3))}
		}
		lo, hi := orderTies(offers)
		ties, exact := groupTies(slices.Clone(offers))
		if exact != (lo == hi) || exact && int(ties) != lo {
			t.Fatalf("offers %v: groupTies = %d, exact %v; settle orders draw %d to %d coins", offers, ties, exact, lo, hi)
		}
	}
}

// orderTies returns the fewest and the most coins the exact search
// draws from offers over every order that keeps them in distance
// order: each offer below the running minimum writes, each equal to
// it ties.
func orderTies(offers []offer) (lo, hi int) {
	lo, hi = math.MaxInt, -1
	var perm func(k int)
	perm = func(k int) {
		if k == len(offers) {
			best, ties := timeInf, 0
			for i, o := range offers {
				if i > 0 && o.from < offers[i-1].from {
					return
				}
				if o.c < best {
					best = o.c
				} else if o.c == best {
					ties++
				}
			}
			lo, hi = min(lo, ties), max(hi, ties)
			return
		}
		for i := k; i < len(offers); i++ {
			offers[k], offers[i] = offers[i], offers[k]
			perm(k + 1)
			offers[k], offers[i] = offers[i], offers[k]
		}
	}
	perm(0)
	return lo, hi
}
