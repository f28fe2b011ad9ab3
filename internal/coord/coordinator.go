package coord

import (
	"context"
	"fmt"
	"net"
	"sync"
	"time"

	"repro/internal/experiment"
)

// EventKind classifies coordinator progress events.
type EventKind string

const (
	EventWorkerJoin  EventKind = "worker-join"
	EventWorkerLeave EventKind = "worker-leave"
	EventLeaseGrant  EventKind = "lease-grant"
	EventLeaseSteal  EventKind = "lease-steal"
	EventRequeue     EventKind = "requeue"
	EventRecord      EventKind = "record"
	EventResume      EventKind = "resume"
	EventDone        EventKind = "done"
)

// Event is one coordinator progress notification, delivered to
// Config.OnEvent outside the coordinator's lock. Done/Total track the
// sweep's recorded-run count.
type Event struct {
	Kind    EventKind
	Worker  string
	Lease   int64
	Indices []int
	Index   int
	Detail  string
	Done    int
	Total   int
}

// Config describes a coordinated sweep.
type Config struct {
	// Addr is the TCP listen address, e.g. ":9650" or "127.0.0.1:0".
	Addr string
	// Desc is the sweep spec, in the serializable form every worker
	// re-resolves and fingerprint-checks.
	Desc SpecDesc
	// ChunkSize caps the indices per lease (default 16). Small chunks
	// bound the work lost to a dead worker; the pool refills a worker
	// the moment it asks again.
	ChunkSize int
	// LeaseTTL is how long a worker session may stay silent before it
	// is declared dead and its leases are reassigned (default 10s).
	// Workers heartbeat at TTL/3.
	LeaseTTL time.Duration
	// Checkpoint is a JSONL file the coordinator appends every
	// accepted record to; restarting with the same file resumes the
	// sweep (successes served, failures retried — the resume
	// semantics of experiment.Execute). Empty disables persistence.
	Checkpoint string
	// Linger bounds how long after completion the coordinator keeps
	// answering lease requests with "done" so connected workers exit
	// cleanly (default 2s). Once a worker has connected, it stops
	// lingerQuiet after the last worker session closes.
	Linger time.Duration
	// OnEvent, if non-nil, receives progress events. It is called
	// synchronously from coordinator goroutines and must not call
	// back into the Coordinator.
	OnEvent func(Event)
}

// lingerQuiet is how long a completed coordinator keeps listening
// after its last worker session closed, for a worker started with
// the others that has not connected yet.
const lingerQuiet = 250 * time.Millisecond

func (cfg Config) normalized() Config {
	if cfg.ChunkSize < 1 {
		cfg.ChunkSize = 16
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 10 * time.Second
	}
	if cfg.Linger <= 0 {
		cfg.Linger = 2 * time.Second
	}
	return cfg
}

// session is one worker connection's identity; the lease table keys
// ownership on the session pointer, so a worker that reconnects is a
// new session and never resumes its old leases (their indices are
// reassigned by the drop of the old session).
type session struct {
	wire   *wire
	worker string
}

// Coordinator owns one sweep: the spec, the pending pool, the lease
// table, the record store and the listener. Create with New, drive
// with Run.
type Coordinator struct {
	cfg     Config
	spec    experiment.Spec
	runs    []experiment.Run
	fp      string
	ln      net.Listener
	resumed int

	mu      sync.Mutex
	table   *table
	results map[int]*experiment.RunResult
	done    int
	conns   map[net.Conn]bool
	joined  bool // a connection was ever accepted
	failErr error
	ckw     *experiment.CheckpointWriter

	// idleCh receives a token whenever the last open connection
	// closes, so the linger can end early.
	idleCh    chan struct{}
	doneCh    chan struct{}
	abortCh   chan struct{}
	onceDone  sync.Once
	onceAbort sync.Once

	wg sync.WaitGroup
}

// New resolves the spec, loads (and repairs) the checkpoint if one is
// configured, and starts listening. The sweep does not run until Run.
func New(cfg Config) (*Coordinator, error) {
	cfg = cfg.normalized()
	spec, err := cfg.Desc.Spec()
	if err != nil {
		return nil, err
	}
	runs, err := spec.Runs()
	if err != nil {
		return nil, err
	}
	fp, err := spec.Fingerprint()
	if err != nil {
		return nil, err
	}
	c := &Coordinator{
		cfg:     cfg,
		spec:    spec,
		runs:    runs,
		fp:      fp,
		results: make(map[int]*experiment.RunResult, len(runs)),
		conns:   map[net.Conn]bool{},
		idleCh:  make(chan struct{}, 1),
		doneCh:  make(chan struct{}),
		abortCh: make(chan struct{}),
	}
	if cfg.Checkpoint != "" {
		ckw, cached, err := experiment.OpenCoordinatorCheckpoint(cfg.Checkpoint, runs)
		if err != nil {
			return nil, err
		}
		c.ckw = ckw
		// Successes are final; failures are retried on this resume,
		// exactly as a single-process Execute resume would.
		for idx, rr := range cached {
			if rr.Err == "" {
				c.results[idx] = rr
			}
		}
	}
	var pending []int
	for i := range runs {
		if c.results[i] == nil {
			pending = append(pending, i)
		}
	}
	c.table = newTable(pending)
	c.done = len(c.results)
	c.resumed = c.done
	if c.done == len(runs) {
		c.onceDone.Do(func() { close(c.doneCh) })
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		if c.ckw != nil {
			c.ckw.Close()
		}
		return nil, fmt.Errorf("coord: listen %s: %w", cfg.Addr, err)
	}
	c.ln = ln
	return c, nil
}

// Addr returns the listener's resolved address (useful with ":0").
func (c *Coordinator) Addr() string { return c.ln.Addr().String() }

// Runs returns the expanded size of the sweep.
func (c *Coordinator) Runs() int { return len(c.runs) }

// Resumed returns how many runs were served from the checkpoint at
// startup.
func (c *Coordinator) Resumed() int { return c.resumed }

// Run serves workers until every run is recorded, the context is
// canceled, or a fatal error (determinism violation) occurs. It
// returns the report of everything recorded — complete and
// byte-identical to an unsharded Execute when err is nil, partial
// otherwise. The coordinator cannot be reused after Run returns;
// restart by constructing a new one on the same checkpoint file.
func (c *Coordinator) Run(ctx context.Context) (*experiment.Report, error) {
	c.event(Event{Kind: EventResume, Done: c.done, Total: len(c.runs)})
	c.wg.Add(1)
	go c.acceptLoop()

	var runErr error
	select {
	case <-ctx.Done():
		runErr = ctx.Err()
	case <-c.abortCh:
		c.mu.Lock()
		runErr = c.failErr
		c.mu.Unlock()
	case <-c.doneCh:
		c.event(Event{Kind: EventDone, Done: c.done, Total: len(c.runs)})
		// Keep answering "done" while workers are still connected, so
		// those between leases learn the sweep finished and exit
		// cleanly instead of burning their reconnect budget on a
		// vanished coordinator; Linger bounds the wait for a worker
		// that never leaves, or for the first one to a sweep resumed
		// complete.
		t := time.NewTimer(c.cfg.Linger)
	linger:
		for {
			var quiet <-chan time.Time
			if !c.workersPending() {
				quiet = time.After(lingerQuiet)
			}
			select {
			case <-c.idleCh:
			case <-quiet:
				if !c.workersPending() {
					break linger
				}
			case <-t.C:
				break linger
			case <-ctx.Done():
				break linger
			}
		}
		t.Stop()
	}

	c.ln.Close()
	c.mu.Lock()
	for conn := range c.conns {
		conn.Close()
	}
	c.mu.Unlock()
	c.wg.Wait()

	c.mu.Lock()
	rep := &experiment.Report{Results: make([]experiment.RunResult, 0, c.done)}
	for i := range c.runs {
		if rr := c.results[i]; rr != nil {
			rep.Results = append(rep.Results, *rr)
		}
	}
	c.mu.Unlock()
	if c.ckw != nil {
		if err := c.ckw.Close(); err != nil && runErr == nil {
			runErr = err
		}
	}
	return rep, runErr
}

func (c *Coordinator) acceptLoop() {
	defer c.wg.Done()
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			return
		}
		c.mu.Lock()
		c.conns[conn] = true
		c.joined = true
		c.mu.Unlock()
		c.wg.Add(1)
		go c.serve(conn)
	}
}

func (c *Coordinator) event(ev Event) {
	if c.cfg.OnEvent != nil {
		c.cfg.OnEvent(ev)
	}
}

func (c *Coordinator) fail(err error) {
	c.mu.Lock()
	if c.failErr == nil {
		c.failErr = err
	}
	c.mu.Unlock()
	c.onceAbort.Do(func() { close(c.abortCh) })
}

// serve runs one worker session: handshake, then a request loop whose
// read deadline IS the lease expiry mechanism — every message from
// the worker (records, heartbeats, requests) pushes the deadline out
// by one lease TTL, and a session silent for a full TTL is declared
// dead. Disconnects (a killed worker's FIN/RST) are detected
// immediately by the failed read. Either way the session's leases are
// released on exit and their unfinished runs reassigned.
func (c *Coordinator) serve(conn net.Conn) {
	defer c.wg.Done()
	w := newWire(conn)
	sess := &session{wire: w}
	reason := "disconnected"
	defer func() {
		c.dropSession(conn, sess, reason)
		conn.Close()
	}()

	ttl := c.cfg.LeaseTTL
	m, err := w.recv(time.Now().Add(ttl))
	if err != nil || m.Type != msgHello {
		return
	}
	if m.Proto != ProtoVersion {
		w.send(message{Type: msgError, Error: fmt.Sprintf("coord: protocol version %d, want %d", m.Proto, ProtoVersion)})
		return
	}
	sess.worker = m.Worker
	if sess.worker == "" {
		sess.worker = conn.RemoteAddr().String()
	}
	desc := c.cfg.Desc
	if err := w.send(message{
		Type: msgSpec, Spec: &desc, Fingerprint: c.fp,
		Runs: len(c.runs), LeaseTTLMS: ttl.Milliseconds(),
	}); err != nil {
		return
	}
	c.event(Event{Kind: EventWorkerJoin, Worker: sess.worker, Done: c.doneCount(), Total: len(c.runs)})

	for {
		m, err := w.recv(time.Now().Add(ttl))
		if err != nil {
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				reason = fmt.Sprintf("lease expired (silent for %v)", ttl)
			}
			return
		}
		switch m.Type {
		case msgHeartbeat:
			// The read deadline reset above is the renewal.
		case msgRecord:
			if m.Record == nil {
				continue
			}
			if err := c.ingest(sess, *m.Record); err != nil {
				w.send(message{Type: msgError, Error: err.Error()})
				reason = fmt.Sprintf("rejected record: %v", err)
				return
			}
		case msgLeaseComplete:
			c.completeLease(sess, m.Lease)
		case msgLeaseRequest:
			if err := w.send(c.grantOrWait(sess)); err != nil {
				return
			}
		}
	}
}

// workersPending reports whether a worker session is open, or none ever
// was.
func (c *Coordinator) workersPending() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.conns) > 0 || !c.joined
}

func (c *Coordinator) doneCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.done
}

// grantOrWait answers a lease request: done when the sweep is
// complete, a fresh lease from the pending pool, a stolen tail of the
// biggest straggler when the pool is dry, or wait when every
// unfinished run is a lone in-flight index that cannot be split.
func (c *Coordinator) grantOrWait(sess *session) message {
	c.mu.Lock()
	if c.done == len(c.runs) {
		c.mu.Unlock()
		return message{Type: msgDone}
	}
	if l := c.table.grant(sess, sess.worker, c.cfg.ChunkSize); l != nil {
		idxs := l.sortedRemaining()
		done := c.done
		c.mu.Unlock()
		c.event(Event{Kind: EventLeaseGrant, Worker: sess.worker, Lease: l.id, Indices: idxs, Done: done, Total: len(c.runs)})
		return message{Type: msgLease, Lease: l.id, Indices: idxs}
	}
	if l, victim := c.table.steal(sess, sess.worker, c.cfg.ChunkSize); l != nil {
		idxs := l.sortedRemaining()
		done := c.done
		victimName := victim.worker
		c.mu.Unlock()
		c.event(Event{Kind: EventLeaseSteal, Worker: sess.worker, Lease: l.id, Indices: idxs,
			Detail: fmt.Sprintf("stolen from %s (lease %d)", victimName, victim.id), Done: done, Total: len(c.runs)})
		return message{Type: msgLease, Lease: l.id, Indices: idxs}
	}
	c.mu.Unlock()
	return message{Type: msgWait}
}

// ingest validates, dedupes and persists one record. Ordering rules
// mirror LoadCheckpoints exactly: first success wins, a success
// replaces a recorded failure, duplicate successes must agree
// byte-for-byte (disagreement is a determinism violation that fails
// the whole sweep — a silently wrong report would be worse than no
// report), and late failures never displace a success.
func (c *Coordinator) ingest(sess *session, rec experiment.RunRecord) error {
	rr, err := experiment.ResultFromRecord(rec, c.runs)
	if err != nil {
		// The fingerprint handshake makes this unreachable for honest
		// workers; reject the session, keep the sweep.
		return err
	}
	idx := rec.Index
	c.mu.Lock()
	if prev := c.results[idx]; prev != nil {
		prevRec := prev.Record()
		if prevRec.Error == "" {
			if rec.Error == "" && !prevRec.SameOutcome(rec) {
				c.mu.Unlock()
				c.fail(fmt.Errorf("coord: run %d: worker %s delivered a successful record that disagrees with the one already recorded — determinism violation, refusing to pick one",
					idx, sess.worker))
				return nil
			}
			// Idempotent duplicate (reassignment / steal overlap) or a
			// stale failure: drop.
			c.mu.Unlock()
			return nil
		}
		if rec.Error != "" {
			// Keep the first failure.
			c.mu.Unlock()
			return nil
		}
		// Success after a recorded failure (the failed run was stolen
		// or reassigned before its failure arrived): upgrade, exactly
		// as LoadCheckpoints prefers success over a stale failure.
		c.results[idx] = rr
		if c.ckw != nil {
			c.ckw.Append(rr)
		}
		c.table.complete(idx)
		done := c.done
		c.mu.Unlock()
		c.event(Event{Kind: EventRecord, Worker: sess.worker, Index: idx, Done: done, Total: len(c.runs)})
		return nil
	}
	c.results[idx] = rr
	if c.ckw != nil {
		c.ckw.Append(rr)
	}
	c.table.complete(idx)
	c.done++
	done := c.done
	c.mu.Unlock()
	c.event(Event{Kind: EventRecord, Worker: sess.worker, Index: idx, Done: done, Total: len(c.runs)})
	if done == len(c.runs) {
		c.onceDone.Do(func() { close(c.doneCh) })
	}
	return nil
}

// completeLease retires a lease whose worker says it finished; runs
// whose records never arrived go back to the pool.
func (c *Coordinator) completeLease(sess *session, id int64) {
	c.mu.Lock()
	leftover := c.table.releaseLease(id)
	done := c.done
	c.mu.Unlock()
	if len(leftover) > 0 {
		c.event(Event{Kind: EventRequeue, Worker: sess.worker, Lease: id, Indices: leftover,
			Detail: "lease completed with unrecorded runs", Done: done, Total: len(c.runs)})
	}
}

// dropSession releases a dead session's leases and reassigns their
// unfinished runs.
func (c *Coordinator) dropSession(conn net.Conn, sess *session, reason string) {
	c.mu.Lock()
	delete(c.conns, conn)
	if len(c.conns) == 0 {
		select {
		case c.idleCh <- struct{}{}:
		default:
		}
	}
	returned, ids := c.table.releaseSession(sess)
	done := c.done
	c.mu.Unlock()
	if sess.worker == "" {
		return // never completed the handshake
	}
	c.event(Event{Kind: EventWorkerLeave, Worker: sess.worker, Detail: reason, Done: done, Total: len(c.runs)})
	if len(returned) > 0 {
		c.event(Event{Kind: EventRequeue, Worker: sess.worker, Lease: ids[0], Indices: returned,
			Detail: reason, Done: done, Total: len(c.runs)})
	}
}
