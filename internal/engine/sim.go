package engine

import (
	"fmt"

	"repro/internal/events"
	"repro/internal/fabric"
	"repro/internal/gates"
	"repro/internal/qidg"
	"repro/internal/routegraph"
	"repro/internal/sched"
	"repro/internal/trace"
)

// Sim is a reusable mapping simulator. It owns every piece of per-run
// state — the typed event queue, the ready and busy queues, priority
// vectors, placement and reservation bookkeeping, the routing graph
// and the pooled trace — and recycles all of it across runs: after
// the first run on a given problem size, Sim.Run allocates nothing
// beyond the returned Result.
//
// A Sim is sticky on its routing inputs but flexible on everything
// else: consecutive runs may change graph, scheduling policy, forced
// order, movement knobs and trace capture freely, while a change of
// fabric/technology/routing options makes the Sim transparently
// rebuild its internal graph (one-time cost, identical results).
//
// Concurrency: a Sim is single-threaded mutable state — give each
// worker goroutine its own and never share one across concurrent
// runs (the same ownership rule as routegraph.Graph; see
// docs/CONCURRENCY.md).
//
// The zero value is ready to use.
type Sim struct {
	// Per-run configuration (copied by Reset).
	cfg Config
	g   *qidg.Graph
	rg  *routegraph.Graph

	// Own routing graph, kept warm across runs when the caller does
	// not supply Config.RouteGraph; ownCfg records the routing inputs
	// it was built from.
	own    *routegraph.Graph
	ownCfg Config

	// This run's priority vector, plus the cached policy-derived
	// vector: the cache survives while (graph, policy, weights, tech)
	// are unchanged — including across interleaved forced-order runs,
	// the MVFB forward/backward shape — so every forward MVFB run and
	// every Monte-Carlo trial reuses one computation.
	prio        []float64
	prioCache   []float64
	prioGraph   *qidg.Graph
	prioPolicy  sched.Policy
	prioWeights sched.Weights
	prioTech    gates.Tech
	prioValid   bool

	// Pooled storage for forced-order priorities (MVFB backward runs
	// change the order every run, so these cannot be cached, only
	// reused).
	forcedPrio []float64
	forcedSeen []bool

	q    events.Queue
	fire func(events.Event) // bound to dispatch once, reused every run

	ready        sched.ReadyQueue
	blocked      []int // instruction IDs parked in the busy queue
	retryScratch []int // swap buffer for retryBlocked

	// Busy-queue congestion accounting, generation-stamped so a Reset
	// is O(1): instruction n has a live entry iff blockedGen[n]==gen.
	blockedSince []gates.Time
	blockedGen   []uint64
	gen          uint64

	state     []instState
	predsLeft []int

	trapOf      []int // qubit -> resting trap (-1 in transit)
	trapLoad    []int // trap -> resident+reserved qubits
	scratchLoad []int // post-run invariant audit buffer

	plans           []instPlan
	pendingArrivals []int // per instruction: operands still traveling

	evicting bool  // one eviction in flight at a time
	pinned   []int // per qubit: >0 while owned by an in-flight instruction

	// Reusable predicates for fabric.NearestTrap queries, bound once
	// so the hot path creates no closures; the query parameters live
	// in the fields below.
	fitsFn    func(int) bool
	evictFn   func(int) bool
	fitsC     int // two-qubit operands of the current fits query
	fitsD     int
	evictHost int // trap excluded from the current eviction query

	collect bool        // capture micro-commands this run
	tr      trace.Trace // pooled trace storage (cloned into Results)
	latency gates.Time  // max op end time, tracked trace or no trace
	order   []int       // realized issue order (pooled; copied out)
	stats   Stats
	done    int

	// Checkpoint/fork state (checkpoint.go). runGen stamps every Reset
	// so outstanding checkpoints of earlier runs are detected (and
	// rejected with a state-intact error) instead of silently restored
	// over mismatched pooled state. fired counts events dispatched in
	// the current run; rec, non-nil only while a RunRecorded is in
	// flight, receives snapshots and dependency-frontier touches.
	runGen uint64
	fired  int
	rec    *CheckpointLog

	// forkInitial is pooled storage for RunFrom's perturbed initial
	// placement (cloned into the Result by finishRun).
	forkInitial []int
}

// NewSim returns an empty simulator; equivalent to new(Sim).
func NewSim() *Sim { return &Sim{} }

// Run executes g on the fabric from the given initial placement and
// returns the complete solution, reusing the Sim's pooled state. With
// cfg.CollectTrace false the run skips micro-command capture
// (Result.Trace is nil) and allocates only the returned Result.
func (s *Sim) Run(g *qidg.Graph, cfg Config, initial Placement) (*Result, error) {
	if err := s.Reset(g, cfg, initial); err != nil {
		return nil, err
	}
	if err := s.runLoop(); err != nil {
		return nil, err
	}
	return s.finishRun(initial)
}

// runLoop drives the event queue until it drains, counting dispatched
// events in s.fired and — when a RunRecorded is in flight — capturing
// checkpoints at boundary strides and recording dependency-frontier
// touches. It reproduces events.Queue.Run bit for bit, including the
// event-limit guard's error bytes.
func (s *Sim) runLoop() error {
	maxEvents := s.cfg.MaxEvents
	if maxEvents == 0 {
		maxEvents = 200*s.g.Len() + 100000
	}
	rec := s.rec
	for {
		if rec != nil {
			// Boundary s.fired: the state before event number s.fired
			// dispatches. Touches recorded during that dispatch stamp
			// this index.
			rec.maybeSnapshot(s, false)
			rec.idx = s.fired
		}
		if !s.q.Step(s.fire) {
			if rec != nil {
				rec.maybeSnapshot(s, true) // always capture the end state
			}
			return nil
		}
		s.fired++
		if maxEvents > 0 && s.fired >= maxEvents && s.q.Len() > 0 {
			return events.LimitError(s.fired, s.q.Len())
		}
	}
}

// finishRun audits the completed simulation and assembles the Result.
// It is shared by Run, RunRecorded and RunFrom so the three paths
// produce byte-identical results for byte-identical simulations.
func (s *Sim) finishRun(initial Placement) (*Result, error) {
	if s.done != s.g.Len() {
		return nil, fmt.Errorf("engine: deadlock: %d of %d instructions completed, %d blocked",
			s.done, s.g.Len(), len(s.blocked))
	}
	if err := s.checkInvariants(); err != nil {
		return nil, err
	}
	res := &Result{
		Latency:    s.latency,
		Initial:    initial.Clone(),
		Final:      Placement(append([]int(nil), s.trapOf...)),
		IssueOrder: append([]int(nil), s.order...),
		Stats:      s.stats,
	}
	if s.collect {
		s.tr.Sort()
		res.Trace = s.tr.Clone()
	}
	return res, nil
}

// Reset validates the inputs and arms the Sim for one run of g from
// the given placement: every queue rewound, every per-instruction and
// per-trap slice resized and cleared, the routing graph reset (or
// rebuilt when the routing inputs changed), and the time-zero issue
// tick scheduled. Run calls it internally; it is exported for tests
// and callers that drive the event loop manually.
func (s *Sim) Reset(g *qidg.Graph, cfg Config, initial Placement) error {
	// Any Reset attempt — even one that fails validation partway —
	// invalidates outstanding checkpoints: the run generation bumps
	// first, so a later RunFrom on a checkpoint of an earlier run is
	// rejected instead of restoring over mismatched bindings.
	s.runGen++
	s.rec = nil
	s.fired = 0
	if err := cfg.validate(); err != nil {
		return err
	}
	if len(initial) != g.NumQubits {
		return fmt.Errorf("engine: placement covers %d qubits, graph has %d", len(initial), g.NumQubits)
	}
	s.cfg = cfg
	s.g = g
	if err := s.resetPlacement(initial); err != nil {
		return err
	}
	if err := s.resetPriorities(); err != nil {
		return err
	}
	if err := s.resetRouteGraph(); err != nil {
		return err
	}
	n := g.Len()
	s.state = grow(s.state, n)
	clear(s.state)
	s.predsLeft = grow(s.predsLeft, n)
	s.plans = grow(s.plans, n)
	s.pendingArrivals = grow(s.pendingArrivals, n)
	clear(s.pendingArrivals)
	s.blockedSince = grow(s.blockedSince, n)
	s.blockedGen = grow(s.blockedGen, n)
	s.gen++
	s.pinned = grow(s.pinned, g.NumQubits)
	clear(s.pinned)
	for i := range s.plans {
		s.plans[i] = instPlan{target: -1}
	}
	s.blocked = s.blocked[:0]
	s.order = s.order[:0]
	s.evicting = false
	s.stats = Stats{}
	s.done = 0
	s.latency = 0
	s.collect = cfg.CollectTrace
	s.tr.Reset()
	s.bindFuncs()

	s.ready.Reset(s.prio)
	for i := range s.predsLeft {
		s.predsLeft[i] = len(g.Preds[i])
		if s.predsLeft[i] == 0 {
			s.state[i] = instReady
			s.ready.Push(i)
		}
	}
	s.q.Reset()
	s.q.At(0, events.IssueTick, 0, 0, 0)
	return nil
}

// resetPlacement validates the initial placement while loading it
// into the pooled trapOf/trapLoad state (the checks mirror
// Placement.Validate without its scratch allocation).
func (s *Sim) resetPlacement(initial Placement) error {
	f := s.cfg.Fabric
	s.trapOf = grow(s.trapOf, len(initial))
	s.trapLoad = grow(s.trapLoad, len(f.Traps))
	clear(s.trapLoad)
	s.scratchLoad = grow(s.scratchLoad, len(f.Traps))
	for q, t := range initial {
		if t < 0 || t >= len(f.Traps) {
			return fmt.Errorf("engine: qubit %d placed at invalid trap %d", q, t)
		}
		s.trapOf[q] = t
		s.trapLoad[t]++
		if s.trapLoad[t] > s.cfg.Tech.TrapCapacity {
			return fmt.Errorf("engine: trap %d holds more than %d qubits", t, s.cfg.Tech.TrapCapacity)
		}
	}
	return nil
}

// resetPriorities produces this run's priority vector: pooled
// forced-order ranks when cfg.ForcedOrder is set, otherwise the
// policy vector, cached while (graph, policy, weights, tech) are
// unchanged.
func (s *Sim) resetPriorities() error {
	if s.cfg.ForcedOrder != nil {
		n := s.g.Len()
		s.forcedPrio = grow(s.forcedPrio, n)
		s.forcedSeen = grow(s.forcedSeen, n)
		if err := sched.ForcedPrioritiesInto(s.forcedPrio, s.forcedSeen, s.cfg.ForcedOrder); err != nil {
			return err
		}
		s.prio = s.forcedPrio
		return nil // the policy cache stays valid for the next policy run
	}
	if !(s.prioValid && s.prioGraph == s.g && s.prioPolicy == s.cfg.Policy &&
		s.prioWeights == s.cfg.Weights && s.prioTech == s.cfg.Tech) {
		s.prioCache = sched.Priorities(s.g, s.cfg.Tech, s.cfg.Policy, s.cfg.Weights)
		s.prioGraph, s.prioPolicy, s.prioWeights, s.prioTech = s.g, s.cfg.Policy, s.cfg.Weights, s.cfg.Tech
		s.prioValid = true
	}
	s.prio = s.prioCache
	return nil
}

// resetRouteGraph selects this run's routing graph: the caller's
// Config.RouteGraph when supplied (checked for compatibility), else
// the Sim's own graph, rebuilt only when the routing inputs changed.
// Either way the graph's occupancy and tie rng are rewound, so runs
// are bit-identical to a fresh build.
func (s *Sim) resetRouteGraph() error {
	if rg := s.cfg.RouteGraph; rg != nil {
		if err := s.cfg.checkRouteGraph(rg); err != nil {
			return err
		}
		rg.Reset()
		s.rg = rg
		return nil
	}
	if s.own == nil || !routeGraphCompatible(&s.ownCfg, &s.cfg) {
		s.own = s.cfg.BuildRouteGraph()
		s.ownCfg = s.cfg
		// Snapshot the defect lists: the cache key must not alias the
		// caller's slices, or an in-place mutation between runs would
		// compare equal against itself and skip the rebuild.
		s.ownCfg.DefectiveChannels = append([]int(nil), s.cfg.DefectiveChannels...)
		s.ownCfg.DefectiveJunctions = append([]int(nil), s.cfg.DefectiveJunctions...)
	} else {
		s.own.Reset()
	}
	s.rg = s.own
	return nil
}

// bindFuncs creates the Sim's reusable closures on first use; they
// capture only the receiver, so every later run reuses them.
func (s *Sim) bindFuncs() {
	if s.fire == nil {
		s.fire = s.dispatch
		// fabric.NearestTrap calls fitsFn only on traps whose
		// (distance, ID) beats the best fitting trap found so far, so
		// a recorded run notes load reads on those traps alone. That
		// is sound for forks: a trap that is never probed is beaten by
		// the probed winner, so whatever its load, it cannot change
		// the answer — and while every probed trap answers as before,
		// the walk probes the same traps and returns the same winner.
		s.fitsFn = func(t int) bool {
			// Unreachable traps fail before the load is consulted: the
			// outcome is load-independent there, so recorded runs need
			// no frontier touch for them.
			if !s.rg.TrapReachable(t) {
				return false
			}
			need := 0
			if s.trapOf[s.fitsC] != t {
				need++
			}
			if s.trapOf[s.fitsD] != t {
				need++
			}
			sum := s.trapLoad[t] + need
			if s.rec != nil {
				s.rec.noteLoadRead(t, sum, s.cfg.Tech.TrapCapacity)
			}
			return sum <= s.cfg.Tech.TrapCapacity
		}
		s.evictFn = func(t int) bool {
			return t != s.evictHost && s.rg.TrapReachable(t) && s.trapLoad[t] < s.cfg.Tech.TrapCapacity
		}
	}
}

// grow returns s with length n, reusing the backing array when it is
// large enough. Contents are unspecified; callers clear what needs
// clearing.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// dispatch is the monomorphic event switch: each typed event record
// maps to exactly the action the pre-refactor closure performed, in
// the same order, so the event interleaving — and hence every result
// bit — is unchanged.
func (s *Sim) dispatch(ev events.Event) {
	now := ev.At
	switch ev.Kind {
	case events.HopRelease:
		s.rg.Release(ev.A)
		s.retryBlocked(now)
	case events.Arrival:
		if ev.A < 0 {
			// An eviction victim lands: it rests in its new trap (the
			// seat was reserved at dispatch) and the busy queue gets
			// another chance.
			s.trapOf[ev.B] = ev.C
			s.evicting = false
			s.retryBlocked(now)
		} else {
			s.arriveQubit(ev.A, ev.B, ev.C, now)
		}
	case events.GateComplete:
		s.completeGate(ev.A, now)
	case events.IssueTick:
		s.issueReady(now)
	}
}

// checkInvariants audits bookkeeping after a completed simulation:
// every routing reservation released, every qubit at rest in a trap,
// trap loads consistent, and the trace internally valid. A failure
// here is always an engine bug, never a property of the input.
func (s *Sim) checkInvariants() error {
	for i := range s.rg.Groups {
		if occ := s.rg.Groups[i].Occupancy(); occ != 0 {
			return fmt.Errorf("engine: internal: group %d still holds %d reservations after completion", i, occ)
		}
	}
	load := s.scratchLoad
	clear(load)
	for q, t := range s.trapOf {
		if t < 0 {
			return fmt.Errorf("engine: internal: qubit %d still in transit after completion", q)
		}
		load[t]++
	}
	for t := range load {
		if load[t] != s.trapLoad[t] {
			return fmt.Errorf("engine: internal: trap %d load %d, residents %d", t, s.trapLoad[t], load[t])
		}
		if load[t] > s.cfg.Tech.TrapCapacity {
			return fmt.Errorf("engine: internal: trap %d over capacity", t)
		}
	}
	if s.collect {
		if err := s.tr.Validate(); err != nil {
			return fmt.Errorf("engine: internal: %w", err)
		}
	}
	return nil
}

// noteEnd tracks the run latency exactly as trace capture would: the
// maximum end time over every micro-command, emitted or not.
func (s *Sim) noteEnd(end gates.Time) {
	if end > s.latency {
		s.latency = end
	}
}

// issueReady pops ready instructions in priority order and attempts
// to issue each; failures go to the busy queue.
func (s *Sim) issueReady(now gates.Time) {
	for {
		n, ok := s.ready.Pop()
		if !ok {
			return
		}
		if !s.tryIssue(n, now) {
			s.blocked = append(s.blocked, n)
			if s.blockedGen[n] != s.gen {
				s.blockedGen[n] = s.gen
				s.blockedSince[n] = now
			}
			s.stats.Blocked++
		}
	}
}

// settleCongestion closes an instruction's busy-queue span, crediting
// Stats.CongestionDelay with the wait since its first failed issue
// attempt. It is idempotent per run: the generation stamp is consumed
// so later calls (and instructions that never blocked) are no-ops.
// This is the single accounting point for T_congestion; the one-qubit
// and two-qubit issue paths both settle through it.
func (s *Sim) settleCongestion(n int, now gates.Time) {
	if s.blockedGen[n] == s.gen {
		s.stats.CongestionDelay += now - s.blockedSince[n]
		s.blockedGen[n] = 0
	}
}

// retryBlocked re-queues busy instructions (a channel's status
// changed) and attempts issue again.
func (s *Sim) retryBlocked(now gates.Time) {
	if len(s.blocked) == 0 {
		return
	}
	s.retryScratch = append(s.retryScratch[:0], s.blocked...)
	s.blocked = s.blocked[:0]
	for _, n := range s.retryScratch {
		s.ready.Push(n)
	}
	s.issueReady(now)
}

// tryIssue attempts to route and start instruction n at time now.
func (s *Sim) tryIssue(n int, now gates.Time) bool {
	node := &s.g.Nodes[n]
	if node.Kind.TwoQubit() {
		return s.tryIssueTwoQubit(n, now)
	}
	// One-qubit gate: the operand rests in a trap; execute in place.
	// (If the qubit is mid-flight as an eviction victim, wait.)
	q := node.Qubits[0]
	if s.rec != nil && s.collect {
		// The resting trap of a one-qubit operand feeds only the trace
		// op below: issue, pinning, gate delay and completion are all
		// position-independent, and the mid-flight test cannot diverge
		// within the frontier (a qubit goes mid-flight only downstream
		// of its own two-qubit issue — a qubit touch — or an eviction —
		// a global touch). Traceless recordings — the placers' search
		// configuration — therefore keep the frontier open across the
		// leading one-qubit layers; trace-capturing recordings must cut
		// it, because the op records the trap.
		s.rec.touchQubit(q)
	}
	if s.trapOf[q] < 0 {
		return false
	}
	s.pinned[q]++
	s.startGate(n, now, s.trapOf[q])
	return true
}

// tryEvict relocates one idle bystander qubit so a blocked two-qubit
// instruction can find a gate trap. At most one eviction is in flight
// at a time, which is enough for liveness: when it lands the busy
// queue is retried and either the instruction issues or the next
// eviction starts.
func (s *Sim) tryEvict(n int, now gates.Time) {
	if s.evicting {
		return
	}
	if s.rec != nil {
		// Eviction scans every qubit's resting trap and pin count and
		// probes seats globally: any placement change can alter its
		// choice, so it conservatively cuts the whole frontier.
		s.rec.touchGlobal()
	}
	node := &s.g.Nodes[n]
	c, d := node.Qubits[0], node.Qubits[1]
	// Preferred gate site: the trap of one of the operands (evicting
	// its stranger co-resident makes room for the partner).
	for _, host := range [2]int{s.trapOf[d], s.trapOf[c]} {
		victim := -1
		for q := range s.trapOf {
			if q != c && q != d && s.trapOf[q] == host && s.pinned[q] == 0 {
				victim = q
				break
			}
		}
		if victim < 0 {
			continue
		}
		// Destination: nearest trap with a genuinely free seat.
		s.evictHost = host
		dest := s.cfg.Fabric.NearestTrap(s.cfg.Fabric.Traps[host].Pos, s.evictFn)
		if dest < 0 {
			return // every seat reserved; retry on a later event
		}
		r, ok := s.rg.FindRoute(host, dest)
		if !ok {
			return // congested; retry on a later event
		}
		s.rg.Commit(r)
		s.evicting = true
		s.stats.Evictions++
		s.trapLoad[dest]++ // reserve the landing seat
		if s.rec != nil {
			s.rec.noteLoaded(dest)
		}
		s.sendQubit(victim, r, now, -1, dest)
		return
	}
}

// chooseTarget picks the trap the two-qubit gate will execute in. A
// candidate trap must seat both operands: its current load (counting
// every resident and reserved qubit) plus the operands still to
// arrive may not exceed the trap capacity (the fits predicate,
// s.fitsFn over s.fitsC/s.fitsD).
func (s *Sim) chooseTarget(n int) int {
	node := &s.g.Nodes[n]
	c, d := node.Qubits[0], node.Qubits[1]
	s.fitsC, s.fitsD = c, d
	if !s.cfg.MedianTarget {
		// Destination-fixed routing (QUALE/QPOS): use d's trap when
		// it can also host c; otherwise fall back to the nearest
		// trap to d with room for both.
		dt := s.trapOf[d]
		if s.fitsFn(dt) {
			return dt
		}
		return s.cfg.Fabric.NearestTrap(s.cfg.Fabric.Traps[dt].Pos, s.fitsFn)
	}
	// Median placement (§IV.B): the median location of the two
	// operands, then the nearest trap with room.
	pc := s.cfg.Fabric.Traps[s.trapOf[c]].Pos
	pd := s.cfg.Fabric.Traps[s.trapOf[d]].Pos
	median := fabric.Pos{Row: (pc.Row + pd.Row) / 2, Col: (pc.Col + pd.Col) / 2}
	return s.cfg.Fabric.NearestTrap(median, s.fitsFn)
}

func (s *Sim) tryIssueTwoQubit(n int, now gates.Time) bool {
	node := &s.g.Nodes[n]
	c, d := node.Qubits[0], node.Qubits[1]
	if s.rec != nil {
		// Every read of the operands' resting traps — target choice,
		// mover selection, route sources — happens downstream of here,
		// on every (re-)attempt.
		s.rec.touchQubit(c)
		s.rec.touchQubit(d)
	}
	pl := &s.plans[n]
	if pl.target < 0 {
		// An operand may be mid-flight as an eviction victim; the
		// instruction waits for it to land.
		if s.trapOf[c] < 0 || s.trapOf[d] < 0 {
			return false
		}
		target := s.chooseTarget(n)
		if target < 0 {
			// No trap anywhere can seat both operands: either a
			// transient reservation pile-up or a genuine capacity
			// deadlock. Deadlock prevention (cf. QPOS, ref [4]):
			// relocate a bystander qubit to open a seat.
			s.tryEvict(n, now)
			return false
		}
		pl.target = target
		// The operands now belong to this instruction until its gate
		// completes; eviction must not relocate them.
		s.pinned[c]++
		s.pinned[d]++
		// Single-operand mode: if the destination qubit is already
		// in the target there is nothing to do for it; the mode
		// differs from BothMove only through chooseTarget
		// (destination-fixed).
		if s.trapOf[c] != target {
			pl.movers[pl.nMovers] = c
			pl.nMovers++
		}
		if s.trapOf[d] != target {
			pl.movers[pl.nMovers] = d
			pl.nMovers++
		}
		// Reserve all incoming seats now so no later instruction
		// claims them while the movers are en route or waiting.
		s.trapLoad[target] += int(pl.nMovers)
		if s.rec != nil {
			s.rec.noteLoaded(target)
		}
		s.pendingArrivals[n] = int(pl.nMovers)
		s.state[n] = instRouting
		s.order = append(s.order, n)
		if pl.nMovers == 0 {
			s.startGate(n, now, target)
			return true
		}
	}
	// Dispatch the remaining movers, each along its own shortest
	// path. The routes are committed one by one so the sibling and
	// later instructions see the congestion (§IV.B: weights are
	// increased as soon as a path is returned). A mover that cannot
	// route yet parks the instruction in the busy queue; it resumes
	// when a channel's status changes.
	for pl.next < pl.nMovers {
		q := pl.movers[pl.next]
		r, ok := s.rg.FindRoute(s.trapOf[q], pl.target)
		if !ok {
			return false
		}
		s.rg.Commit(r)
		pl.next++
		s.sendQubit(q, r, now, n, pl.target)
	}
	s.settleCongestion(n, now)
	return true
}

// sendQubit animates one qubit along a committed route: it leaves its
// trap now, each hop's capacity group is released as the qubit exits
// it (a HopRelease event), and an Arrival event fires at the
// journey's end — payload (inst, qubit, target), with inst -1 marking
// an eviction relocation. The destination seat must already be
// reserved. r.Hops aliases the graph's reusable hop buffer (valid
// only until the next FindRoute), so it is consumed synchronously
// here — the scheduled events carry scalars, never the slice.
func (s *Sim) sendQubit(q int, r routegraph.Route, now gates.Time, inst, target int) {
	from := s.trapOf[q]
	s.trapLoad[from]--
	s.trapOf[q] = -1
	s.stats.RoutedQubitTrips++
	s.stats.Moves += r.Moves
	s.stats.Turns += r.Turns
	s.stats.RoutingDelay += r.Delay
	t := now
	for _, h := range r.Hops {
		hopEnd := t + h.Delay
		// Micro-commands: the turn part then the move part of the
		// hop (order within a hop does not affect timing).
		turnT := gates.Time(h.Turns) * s.cfg.Tech.TurnDelay
		if h.Turns > 0 {
			s.noteEnd(t + turnT)
			if s.collect {
				s.tr.Add(trace.Op{Kind: trace.OpTurn, Start: t, End: t + turnT, Node: -1, Trap: -1, Edge: h.Edge}.WithQubits(q))
			}
		}
		if h.Moves > 0 {
			s.noteEnd(hopEnd)
			if s.collect {
				s.tr.Add(trace.Op{Kind: trace.OpMove, Start: t + turnT, End: hopEnd, Node: -1, Trap: -1, Edge: h.Edge}.WithQubits(q))
			}
		}
		s.q.At(hopEnd, events.HopRelease, h.Group, 0, 0)
		t = hopEnd
	}
	s.q.At(t, events.Arrival, inst, q, target)
}

func (s *Sim) arriveQubit(n, q, target int, now gates.Time) {
	s.trapOf[q] = target
	s.pendingArrivals[n]--
	// The gate starts once every mover has been dispatched AND has
	// arrived; with staggered dispatch a not-yet-routed sibling may
	// still be waiting in the busy queue.
	if s.pendingArrivals[n] == 0 && s.plans[n].next == s.plans[n].nMovers {
		s.startGate(n, now, target)
	}
}

// startGate begins the gate-level operation of instruction n in trap.
func (s *Sim) startGate(n int, now gates.Time, trapID int) {
	node := &s.g.Nodes[n]
	if s.state[n] != instRouting { // one-qubit path issues directly
		s.settleCongestion(n, now)
		s.state[n] = instRouting
		s.order = append(s.order, n)
	}
	d := s.cfg.Tech.GateDelay(node.Kind)
	s.stats.GateDelay += d
	s.noteEnd(now + d)
	if s.collect {
		s.tr.Add(trace.Op{
			Kind: trace.OpGate, Start: now, End: now + d,
			Gate: node.Kind, Node: n, Trap: trapID, Edge: -1,
		}.WithQubits(node.Qubits...))
	}
	s.q.At(now+d, events.GateComplete, n, 0, 0)
}

func (s *Sim) completeGate(n int, now gates.Time) {
	s.state[n] = instDone
	s.done++
	for _, q := range s.g.Nodes[n].Qubits {
		s.pinned[q]--
	}
	for _, succ := range s.g.Succs[n] {
		s.predsLeft[succ]--
		if s.predsLeft[succ] == 0 {
			s.state[succ] = instReady
			s.ready.Push(succ)
		}
	}
	// "Execution of an instruction finishes — the simulator
	// schedules more instruction(s) that depend on the finished
	// instruction." Retry the busy queue too: freed qubits can
	// unblock trap-capacity failures.
	s.retryBlocked(now)
	s.issueReady(now)
}
