// Package routegraph builds the weighted routing graph of §IV.B of
// the QSPR paper from an ion-trap fabric and runs Dijkstra's
// algorithm over it with the congestion-aware edge weights of Eq. 2.
//
// In the paper's base model every junction is a vertex and every
// channel an edge. The turn-aware enhancement (Fig. 5.c) splits each
// junction into two vertices — one joining the horizontal channels,
// one joining the vertical channels — connected by a "turn edge"
// whose weight is the technology turn delay. This package implements
// the enhanced model and can optionally fall back to the turn-blind
// metric (for reproducing QUALE and for the turn-awareness ablation).
//
// Congestion is tracked on capacity groups: one group per channel
// (capacity = Tech.ChannelCapacity) and one per junction (capacity =
// Tech.JunctionCapacity, charged by turn edges). Edge weights follow
// Eq. 2: weight = (n+1) * base while n < capacity, infinity once the
// group is saturated, where n is the number of qubits currently using
// (or committed to use) the group.
package routegraph

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/fabric"
	"repro/internal/gates"
)

// NodeKind classifies routing-graph vertices.
type NodeKind uint8

// Node kinds: the two planes of a split junction, and traps.
const (
	JuncH NodeKind = iota // junction vertex joining horizontal channels
	JuncV                 // junction vertex joining vertical channels
	TrapNode
)

// String names the node kind.
func (k NodeKind) String() string {
	switch k {
	case JuncH:
		return "juncH"
	case JuncV:
		return "juncV"
	case TrapNode:
		return "trap"
	}
	return "?"
}

// Node is one routing-graph vertex.
type Node struct {
	ID   int
	Kind NodeKind
	// Junction is the fabric junction ID for JuncH/JuncV nodes, -1
	// for traps.
	Junction int
	// Trap is the fabric trap ID for TrapNode nodes, -1 otherwise.
	Trap int
}

// GroupKind classifies capacity groups.
type GroupKind uint8

// Group kinds.
const (
	ChannelGroup  GroupKind = iota // shared by all edges over one channel
	JunctionGroup                  // charged by the turn edge of one junction
)

// Group is a congestion/capacity domain (a channel or a junction).
type Group struct {
	ID   int
	Kind GroupKind
	// Index is the fabric channel or junction ID; -1 for the
	// capacity-0 group that holds a defective junction's edges.
	Index    int
	Capacity int
	occ      int
	// inDirty marks the group as already recorded on the graph's
	// dirty list, so Reset touches only groups that saw traffic.
	inDirty bool
}

// Occupancy returns the current number of committed users.
func (g *Group) Occupancy() int { return g.occ }

// Edge is an undirected routing edge.
type Edge struct {
	ID   int
	A, B int // node IDs
	// Group is the capacity group charged while a qubit traverses
	// this edge.
	Group int
	// SelectBase is the uncongested weight used for path selection.
	// With the turn-aware metric it equals RealDelay; with the
	// turn-blind metric turn contributions are dropped (Fig. 5.b).
	SelectBase gates.Time
	// RealDelay is the physical traversal time: Moves*T_move +
	// Turns*T_turn.
	RealDelay gates.Time
	// Moves and Turns are the relocation counts of the traversal.
	Moves, Turns int
}

// Options configures graph construction.
type Options struct {
	// TurnAware selects the Fig. 5.c metric (turn delays visible to
	// the router). When false the router sees the Fig. 5.b metric:
	// turns cost nothing during path selection although they still
	// take real time when executed. QUALE uses the blind metric.
	TurnAware bool
	// TieSeed seeds the arbitrary choice among equal-cost shortest
	// paths. Fig. 5 notes that to a turn-blind router all
	// equal-Manhattan paths "look the same"; which one such a router
	// returns is implementation accident, modeled here as a seeded
	// coin flip so results stay reproducible.
	TieSeed int64
	// DefectiveChannels and DefectiveJunctions list fabric elements
	// that failed fabrication, so no route ever crosses them: a
	// defective channel's group gets capacity 0, and every edge at a
	// defective junction's two nodes moves into one capacity-0 group
	// appended after the others. IDs out of range are ignored here
	// (engine.Config rejects them). Yield modeling for large trap
	// arrays (beyond the paper, which assumes a perfect fabric).
	DefectiveChannels  []int
	DefectiveJunctions []int
	// Landmarks controls the ALT goal-directed search mode (alt.go):
	// 0 enables it automatically once the graph crosses altAutoNodes
	// nodes (both paper fabrics stay below the threshold, so their
	// classic coin-flip Dijkstra behavior — and every pinned golden —
	// is untouched); a positive value forces ALT with that many
	// landmarks (capped at altDefaultLandmarks); a negative value
	// forces plain Dijkstra at any size. In ALT mode ties are broken
	// canonically (fewest hops, then smallest edge ID) instead of by
	// the seeded coin stream, and TieSeed has no effect on routes.
	Landmarks int
}

// Graph is the routing graph over one fabric.
//
// Construction builds a CSR (compressed sparse row) adjacency once;
// queries run on a graph-owned, generation-stamped search state and
// touch no per-query heap memory. A graph is single-goroutine state:
// FindRoute, Occupy, Release, Commit and Reset all mutate it.
type Graph struct {
	Fabric *fabric.Fabric
	Tech   gates.Tech
	Opts   Options

	Nodes  []Node
	Edges  []Edge
	Groups []Group

	rng *rand.Rand // arbitrary-tie coin, seeded by Opts.TieSeed

	trapNode  []int // fabric trap ID -> node ID
	juncNodeH []int // fabric junction ID -> JuncH node ID
	juncNodeV []int // fabric junction ID -> JuncV node ID
	chanGroup []int // fabric channel ID -> group ID
	juncGroup []int // fabric junction ID -> group ID

	// CSR adjacency: the incident edges of node n are
	// edgeList[edgeStart[n]:edgeStart[n+1]], and edgeOther holds the
	// far endpoint of each slot so the hot loop never inspects Edge.
	// A classic graph keeps the far ends in its slot records instead
	// (edgeOther nil).
	edgeStart []int32
	edgeList  []int32
	edgeOther []int32
	nodeKind  []NodeKind // Nodes[i].Kind, densely packed for the hot loop

	// mult is each group's Eq. 2 multiplier: occ+1 while the group has
	// residual capacity, 0 once it is saturated (or defective).
	mult []int32

	// The classic search's per-slot records (nil on ALT graphs): the
	// far end, group and SelectBase of each CSR slot's edge, and the
	// end of each node's junction-neighbour prefix (search.go).
	slots   []slot
	juncEnd []int32
	srch    *search

	// totalOcc gates the route cache: every totally idle state is
	// weight-identical (Eq. 2 depends only on group occupancies), so
	// totalOcc == 0 is the canonical cacheable generation; any
	// nonzero occupancy bypasses the cache entirely.
	totalOcc int

	// dirty lists the groups occupied since the last Reset, so Reset
	// costs O(groups touched) instead of O(all groups) — on a
	// 100k-trap fabric a typical engine run touches a few hundred of
	// several hundred thousand groups.
	dirty []int32

	// alt holds the landmark tables and canonical searcher when the
	// graph routes in ALT mode (see alt.go); nil for classic Dijkstra.
	alt *altState

	cache   map[uint64]*routeEntry
	hopsBuf []Hop  // backs Route.Hops; valid until the next query
	drawBuf []int8 // replayed tie-break coins

	// coins counts tie-break draws consumed since the last Reset. The
	// rand.Rand state is opaque, but the seeded stream is pure, so
	// (seed, coins) pins the rng position exactly: RestoreState rewinds
	// by re-seeding and burning that many draws. Cache hits draw
	// exactly the coins the uncached search would have (see cache.go),
	// so the count is query-history-deterministic.
	coins uint64
}

// New builds the routing graph for a fabric under the given
// technology parameters.
//
// Every array is sized from the fabric up front. A junction has two
// nodes, a group and a turn edge; a channel a group and a channel
// edge; a trap a node and two access edges; each pair of traps on a
// channel an edge; and defective junctions share one extra group.
func New(f *fabric.Fabric, tech gates.Tech, opts Options) *Graph {
	numEdges := len(f.Junctions) + len(f.Channels) + 2*len(f.Traps)
	for _, ch := range f.Channels {
		numEdges += len(ch.Traps) * (len(ch.Traps) - 1) / 2
	}
	g := &Graph{
		Fabric:    f,
		Tech:      tech,
		Opts:      opts,
		Nodes:     make([]Node, 0, 2*len(f.Junctions)+len(f.Traps)),
		Edges:     make([]Edge, 0, numEdges),
		Groups:    make([]Group, 0, len(f.Junctions)+len(f.Channels)+1),
		rng:       rand.New(rand.NewSource(opts.TieSeed + 1)),
		trapNode:  make([]int, len(f.Traps)),
		juncNodeH: make([]int, len(f.Junctions)),
		juncNodeV: make([]int, len(f.Junctions)),
		chanGroup: make([]int, len(f.Channels)),
		juncGroup: make([]int, len(f.Junctions)),
	}
	for _, j := range f.Junctions {
		g.juncNodeH[j.ID] = g.addNode(Node{Kind: JuncH, Junction: j.ID, Trap: -1})
		g.juncNodeV[j.ID] = g.addNode(Node{Kind: JuncV, Junction: j.ID, Trap: -1})
		g.juncGroup[j.ID] = g.addGroup(Group{Kind: JunctionGroup, Index: j.ID, Capacity: tech.JunctionCapacity})
	}
	for _, ch := range f.Channels {
		g.chanGroup[ch.ID] = g.addGroup(Group{Kind: ChannelGroup, Index: ch.ID, Capacity: tech.ChannelCapacity})
	}
	for _, tr := range f.Traps {
		g.trapNode[tr.ID] = g.addNode(Node{Kind: TrapNode, Junction: -1, Trap: tr.ID})
	}
	for _, ch := range opts.DefectiveChannels {
		if ch >= 0 && ch < len(f.Channels) {
			g.Groups[g.chanGroup[ch]].Capacity = 0
		}
	}
	alt := altEnabled(opts.Landmarks, len(g.Nodes))
	g.buildEdges()
	g.buildCSR(!alt)
	g.isolateDefectiveJunctions(opts.DefectiveJunctions)
	g.mult = make([]int32, len(g.Groups))
	for id := range g.Groups {
		g.setMult(id)
	}
	g.cache = make(map[uint64]*routeEntry)
	if alt {
		g.buildALT(opts.Landmarks)
	} else {
		g.buildSearch()
	}
	return g
}

// isolateDefectiveJunctions moves every edge at a defective junction's
// two nodes (its turn edge, the channel edges ending there and the
// access edges of traps on those channels) into one capacity-0 group
// appended after the existing ones, so no route crosses the junction
// and no group ID moves; the junction's own group is left unused.
// Out-of-range IDs are ignored.
func (g *Graph) isolateDefectiveJunctions(ids []int) {
	dead := -1
	for _, j := range ids {
		if j < 0 || j >= len(g.Fabric.Junctions) {
			continue
		}
		if dead < 0 {
			dead = g.addGroup(Group{Kind: JunctionGroup, Index: -1})
		}
		for _, n := range [2]int{g.juncNodeH[j], g.juncNodeV[j]} {
			for _, eid := range g.IncidentEdges(n) {
				g.Edges[eid].Group = dead
			}
		}
	}
}

// buildSearch completes a classic graph's per-slot records with each
// edge's group and SelectBase, and gives it junction-prefix bounds and
// search state.
func (g *Graph) buildSearch() {
	g.juncEnd = junctionPrefixEnds(g.edgeStart, g.slots, g.nodeKind)
	for k, eid := range g.edgeList {
		e := &g.Edges[eid]
		g.slots[k].group, g.slots[k].base = int32(e.Group), e.SelectBase
	}
	g.srch = newSearch(len(g.Nodes))
	g.srch.ringLen = g.ringSize()
}

// junctionPrefixEnds returns, per node, the end of the CSR slots that
// lead to junction nodes. The classic search skips the trap slots
// after that prefix by position, so it panics if any node lists a
// junction neighbour after a trap neighbour: that would mean
// buildEdges stopped adding junction edges before trap edges.
func junctionPrefixEnds(start []int32, slots []slot, kinds []NodeKind) []int32 {
	ends := make([]int32, len(start)-1)
	for v := range ends {
		end := start[v]
		for k := start[v]; k < start[v+1]; k++ {
			if kinds[slots[k].other] == TrapNode {
				continue
			}
			if end != k {
				panic(fmt.Sprintf("routegraph: node %d lists junction neighbour %d after a trap neighbour", v, slots[k].other))
			}
			end = k + 1
		}
		ends[v] = end
	}
	return ends
}

// buildCSR lays the edges out as CSR adjacency: a degree count sizes
// each node's slots, then one pass over the edges in ID order fills
// them, so every node lists its incident edges in increasing ID order.
// The far ends go to the slot records of a classic graph, else to
// edgeOther.
func (g *Graph) buildCSR(classic bool) {
	n := len(g.Nodes)
	g.edgeStart = make([]int32, n+1)
	for i := range g.Edges {
		e := &g.Edges[i]
		g.edgeStart[e.A+1]++
		g.edgeStart[e.B+1]++
	}
	for i := 0; i < n; i++ {
		g.edgeStart[i+1] += g.edgeStart[i]
	}
	total := g.edgeStart[n]
	g.edgeList = make([]int32, total)
	if classic {
		g.slots = make([]slot, total)
	} else {
		g.edgeOther = make([]int32, total)
	}
	next := make([]int32, n)
	copy(next, g.edgeStart)
	for i := range g.Edges {
		e := &g.Edges[i]
		ka := next[e.A]
		next[e.A]++
		kb := next[e.B]
		next[e.B]++
		g.edgeList[ka], g.edgeList[kb] = int32(i), int32(i)
		if classic {
			g.slots[ka].other, g.slots[kb].other = int32(e.B), int32(e.A)
		} else {
			g.edgeOther[ka], g.edgeOther[kb] = int32(e.B), int32(e.A)
		}
	}
	g.nodeKind = make([]NodeKind, n)
	for i := range g.Nodes {
		g.nodeKind[i] = g.Nodes[i].Kind
	}
}

// Reset restores the graph to its just-built state: every capacity
// group released and the tie-break rng rewound to its seed, exactly
// as if New had been called again. The route cache is retained — its
// entries describe the zero-occupancy weights, which are identical
// in every totally idle state — so repeated engine runs over one
// graph (MVFB, Monte-Carlo) keep their warm cache. engine.Sim calls
// it whenever a run reuses a graph.
// Occupancy bookkeeping is dirty-listed (see Occupy), so only groups
// that actually saw traffic are walked — Reset is O(touched), not
// O(fabric).
func (g *Graph) Reset() {
	for _, id := range g.dirty {
		gr := &g.Groups[id]
		gr.occ = 0
		gr.inDirty = false
		g.setMult(int(id))
	}
	g.dirty = g.dirty[:0]
	g.totalOcc = 0
	g.rng.Seed(g.Opts.TieSeed + 1)
	g.coins = 0
}

// State is a saved mid-run snapshot of the graph's mutable routing
// state — the sparse set of nonzero group occupancies, the occupancy
// total, and the tie-coin count — for checkpoint/fork re-simulation
// (see engine.Sim.Checkpoint). The route cache is deliberately not
// part of the state: cache hits are bit-identical to uncached
// searches and consume the same coin stream (cache.go), so a fork may
// keep warming the cache without affecting results. The storage is
// caller-owned and pooled.
type State struct {
	groups   []int32
	occs     []int32
	totalOcc int
	coins    uint64
}

// SaveState records the current occupancies and rng position into st,
// reusing st's storage. Cost is O(groups touched since Reset), not
// O(all groups), via the dirty list.
func (g *Graph) SaveState(st *State) {
	st.groups = st.groups[:0]
	st.occs = st.occs[:0]
	for _, id := range g.dirty {
		if occ := g.Groups[id].occ; occ != 0 {
			st.groups = append(st.groups, id)
			st.occs = append(st.occs, int32(occ))
		}
	}
	st.totalOcc = g.totalOcc
	st.coins = g.coins
}

// RestoreState rewinds the graph to a previously saved mid-run state:
// occupancies are cleared and re-applied sparsely, and the tie rng is
// re-seeded and advanced by the saved coin count, so every later
// FindRoute draws exactly the coins the original run would have drawn
// from this point. Results after a restore are bit-identical to a run
// that reached the saved state naturally.
func (g *Graph) RestoreState(st *State) {
	g.Reset()
	for i, id := range st.groups {
		gr := &g.Groups[id]
		gr.occ = int(st.occs[i])
		gr.inDirty = true
		g.dirty = append(g.dirty, id)
		g.setMult(int(id))
	}
	g.totalOcc = st.totalOcc
	for n := uint64(0); n < st.coins; n++ {
		g.rng.Intn(2)
	}
	g.coins = st.coins
}

// TrapReachable reports whether any route can reach the trap, i.e.
// its access channel is not defective.
func (g *Graph) TrapReachable(trapID int) bool {
	ch := g.Fabric.Traps[trapID].Channel
	return g.Groups[g.chanGroup[ch]].Capacity > 0
}

func (g *Graph) addNode(n Node) int {
	n.ID = len(g.Nodes)
	g.Nodes = append(g.Nodes, n)
	return n.ID
}

func (g *Graph) addGroup(gr Group) int {
	gr.ID = len(g.Groups)
	g.Groups = append(g.Groups, gr)
	return gr.ID
}

func (g *Graph) addEdge(a, b, group int, moves, turns int) int {
	real := gates.Time(moves)*g.Tech.MoveDelay + gates.Time(turns)*g.Tech.TurnDelay
	sel := real
	if !g.Opts.TurnAware {
		sel = gates.Time(moves) * g.Tech.MoveDelay
	}
	e := Edge{
		ID: len(g.Edges), A: a, B: b, Group: group,
		SelectBase: sel, RealDelay: real, Moves: moves, Turns: turns,
	}
	g.Edges = append(g.Edges, e)
	return e.ID
}

func (g *Graph) buildEdges() {
	f := g.Fabric
	// Turn edges inside each junction.
	for _, j := range f.Junctions {
		g.addEdge(g.juncNodeH[j.ID], g.juncNodeV[j.ID], g.juncGroup[j.ID], 0, 1)
	}
	// Channel edges between junction planes.
	for _, ch := range f.Channels {
		group := g.chanGroup[ch.ID]
		// Crossing the channel also crosses its two end junction
		// cells; the junction cells are charged to the moves.
		moves := ch.Length + 1
		if ch.Orientation == fabric.Horizontal {
			g.addEdge(g.juncNodeH[ch.J1], g.juncNodeH[ch.J2], group, moves, 0)
		} else {
			g.addEdge(g.juncNodeV[ch.J1], g.juncNodeV[ch.J2], group, moves, 0)
		}
	}
	// Trap access edges. A trap hangs perpendicular to its channel:
	// leaving the trap costs one move into the attachment cell plus
	// one turn to align with the channel, then Offset+1 (resp.
	// Length-Offset) moves to the J1 (resp. J2) end junction.
	for _, tr := range f.Traps {
		ch := f.Channels[tr.Channel]
		group := g.chanGroup[ch.ID]
		var n1, n2 int
		if ch.Orientation == fabric.Horizontal {
			n1, n2 = g.juncNodeH[ch.J1], g.juncNodeH[ch.J2]
		} else {
			n1, n2 = g.juncNodeV[ch.J1], g.juncNodeV[ch.J2]
		}
		g.addEdge(g.trapNode[tr.ID], n1, group, tr.Offset+2, 1)
		g.addEdge(g.trapNode[tr.ID], n2, group, ch.Length-tr.Offset+1, 1)
	}
	// Direct trap-to-trap edges along one channel (a qubit need not
	// detour through a junction to hop between neighbouring traps).
	for _, ch := range f.Channels {
		for i := 0; i < len(ch.Traps); i++ {
			for k := i + 1; k < len(ch.Traps); k++ {
				a, b := f.Traps[ch.Traps[i]], f.Traps[ch.Traps[k]]
				d := a.Offset - b.Offset
				if d < 0 {
					d = -d
				}
				if d == 0 {
					// Opposite sides of one attachment cell: two
					// straight moves, no turn.
					g.addEdge(g.trapNode[a.ID], g.trapNode[b.ID], g.chanGroup[ch.ID], 2, 0)
				} else {
					g.addEdge(g.trapNode[a.ID], g.trapNode[b.ID], g.chanGroup[ch.ID], d+2, 2)
				}
			}
		}
	}
}

// TrapNodeID returns the graph node for a fabric trap.
func (g *Graph) TrapNodeID(trapID int) int { return g.trapNode[trapID] }

// IncidentEdges returns the IDs of edges touching a node as a view
// into the CSR edge list. The slice is shared; callers must not
// mutate it.
func (g *Graph) IncidentEdges(node int) []int32 {
	return g.edgeList[g.edgeStart[node]:g.edgeStart[node+1]]
}

// ChannelGroupID returns the capacity group of a fabric channel.
func (g *Graph) ChannelGroupID(chID int) int { return g.chanGroup[chID] }

// JunctionGroupID returns the capacity group of a fabric junction.
func (g *Graph) JunctionGroupID(jID int) int { return g.juncGroup[jID] }

// Occupy commits one qubit to a capacity group (edge weights on the
// group rise per Eq. 2). It panics if the group is already at
// capacity, which would indicate an engine bookkeeping bug.
func (g *Graph) Occupy(groupID int) {
	gr := &g.Groups[groupID]
	if gr.occ >= gr.Capacity {
		panic(fmt.Sprintf("routegraph: group %d over capacity", groupID))
	}
	if !gr.inDirty {
		gr.inDirty = true
		g.dirty = append(g.dirty, int32(groupID))
	}
	gr.occ++
	g.totalOcc++
	g.setMult(groupID)
}

// Release removes one committed qubit from a group ("when a qubit
// exits a channel, the weight of the corresponding edge will be
// decreased").
func (g *Graph) Release(groupID int) {
	gr := &g.Groups[groupID]
	if gr.occ <= 0 {
		panic(fmt.Sprintf("routegraph: group %d released below zero", groupID))
	}
	gr.occ--
	g.totalOcc--
	g.setMult(groupID)
	// When totalOcc returns to 0 the weights are identical to every
	// other totally idle state, so the uncongested route cache is
	// valid again (see cache.go).
}

// setMult refreshes a group's Eq. 2 multiplier after its occupancy
// changed: n+1 while the group has residual capacity, 0 (impassable)
// once it is saturated.
func (g *Graph) setMult(id int) {
	gr := &g.Groups[id]
	var m int32
	if gr.occ < gr.Capacity {
		m = int32(gr.occ + 1)
	}
	g.mult[id] = m
}

// EdgeWeight evaluates Eq. 2 for an edge: (n+1)*base while the edge's
// group has residual capacity, +inf (math.MaxInt64) otherwise. The
// classic search reads the same multiplier inline.
func (g *Graph) EdgeWeight(edgeID int) gates.Time {
	e := &g.Edges[edgeID]
	m := g.mult[e.Group]
	if m == 0 {
		return timeInf
	}
	return gates.Time(m) * e.SelectBase
}

// Hop is one traversed edge of a committed route.
type Hop struct {
	Edge  int
	Group int
	// Delay is the physical traversal time of this hop.
	Delay gates.Time
	// Moves, Turns are the relocation counts of this hop.
	Moves, Turns int
}

// Route is a shortest path between two traps.
type Route struct {
	// From, To are fabric trap IDs.
	From, To int
	// Hops in travel order; empty when From == To. The slice returned
	// by FindRoute aliases a per-graph scratch buffer and is valid
	// only until the next FindRoute call on the same graph; callers
	// that retain a route across queries must Clone it first.
	Hops []Hop
	// Delay is the total physical travel time (T_routing).
	Delay gates.Time
	// Cost is the congestion-inflated metric the router minimized.
	Cost gates.Time
	// Moves, Turns are total relocation counts.
	Moves, Turns int
}

// Clone deep-copies a route so it survives later queries on the
// graph (FindRoute reuses the hop buffer between calls).
func (r Route) Clone() Route {
	r.Hops = append([]Hop(nil), r.Hops...)
	return r
}

// timeInf is the impassable-edge sentinel of the Eq. 2 weight domain.
const timeInf = gates.Time(math.MaxInt64)

// buildRoute assembles the Route totals over g.hopsBuf.
func (g *Graph) buildRoute(fromTrap, toTrap int, cost gates.Time) Route {
	r := Route{From: fromTrap, To: toTrap, Cost: cost, Hops: g.hopsBuf}
	for i := range r.Hops {
		h := &r.Hops[i]
		r.Delay += h.Delay
		r.Moves += h.Moves
		r.Turns += h.Turns
	}
	return r
}

// FindRoute runs Dijkstra from one trap to another using the Eq. 2
// weights. Trap vertices other than the endpoints are excluded (traps
// are gate sites, not thoroughfares). ok is false when every path is
// saturated (the instruction must wait in the busy queue).
//
// While the graph is totally idle, repeated queries are served from
// the route cache (see cache.go) with bit-identical results. The
// returned Route's hop slice is valid until the next FindRoute call;
// see Route.Hops.
func (g *Graph) FindRoute(fromTrap, toTrap int) (Route, bool) {
	if fromTrap == toTrap {
		return Route{From: fromTrap, To: toTrap}, true
	}
	if g.alt != nil {
		return g.findRouteALT(fromTrap, toTrap)
	}
	uncongested := g.totalOcc == 0
	key := routeKey(fromTrap, toTrap)
	if uncongested {
		if e, ok := g.cache[key]; ok {
			return g.replayCacheEntry(e, fromTrap, toTrap)
		}
	}
	src, dst := int32(g.trapNode[fromTrap]), int32(g.trapNode[toTrap])
	found := g.route(src, dst, uncongested)
	if uncongested {
		g.storeCacheEntry(key, src, dst, found)
	}
	if !found {
		return Route{}, false
	}
	g.hopsBuf = g.appendHops(src, dst, g.hopsBuf[:0])
	return g.buildRoute(fromTrap, toTrap, g.srch.nodes[dst].dist), true
}

// Commit charges every hop's group (call after accepting a route).
func (g *Graph) Commit(r Route) {
	for _, h := range r.Hops {
		g.Occupy(h.Group)
	}
}

// Uncommit releases every hop's group of a previously committed route
// that will not be traveled after all (e.g. the sibling operand of a
// two-qubit gate could not be routed, so the whole instruction goes
// to the busy queue).
func (g *Graph) Uncommit(r Route) {
	for _, h := range r.Hops {
		g.Release(h.Group)
	}
}
