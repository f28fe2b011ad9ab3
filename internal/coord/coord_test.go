package coord

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/experiment"
)

// testDesc is a small sweep (3 circuits × 2 heuristics × 2 m values =
// 12 runs) on the compact fabric, resolvable identically on both ends
// of the wire.
func testDesc() SpecDesc {
	return SpecDesc{
		Circuits:   "[[5,1,3]],[[7,1,3]],[[9,1,3]]",
		Heuristics: "quale,qspr",
		M:          "1,2",
		Seed:       1,
		Fabric:     "small",
	}
}

// fakeMapper is a pure function of the run, so coordinated report
// bytes depend only on the assignment/recovery machinery under test.
func fakeMapper(_ context.Context, r experiment.Run) (*experiment.Metrics, error) {
	return &experiment.Metrics{
		LatencyUS: int64(100*r.Index + r.Seeds),
		IdealUS:   int64(r.Index),
		Placement: []int{r.Index, r.Seeds},
	}, nil
}

// goldenBytes renders the unsharded single-process sweep in every
// format — the byte-identity reference for all coordinated runs.
func goldenBytes(t *testing.T, desc SpecDesc, fn experiment.RunFunc) (js, csv, md []byte) {
	t.Helper()
	spec, err := desc.Spec()
	if err != nil {
		t.Fatal(err)
	}
	rep, err := experiment.Execute(context.Background(), spec, experiment.Options{RunFunc: fn})
	if err != nil {
		t.Fatal(err)
	}
	return reportBytes(t, rep)
}

func reportBytes(t *testing.T, rep *experiment.Report) (js, csv, md []byte) {
	t.Helper()
	var a, b, c bytes.Buffer
	if err := rep.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := rep.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	if err := rep.WriteMarkdown(&c); err != nil {
		t.Fatal(err)
	}
	return a.Bytes(), b.Bytes(), c.Bytes()
}

func assertIdentical(t *testing.T, rep *experiment.Report, wantJS, wantCSV, wantMD []byte) {
	t.Helper()
	js, csv, md := reportBytes(t, rep)
	if !bytes.Equal(js, wantJS) {
		t.Errorf("coordinated JSON differs from unsharded run:\n got: %s\nwant: %s", js, wantJS)
	}
	if !bytes.Equal(csv, wantCSV) {
		t.Error("coordinated CSV differs from unsharded run")
	}
	if !bytes.Equal(md, wantMD) {
		t.Error("coordinated markdown differs from unsharded run")
	}
}

// startCoordinator runs a coordinator in the background and returns
// it plus a wait func for its report.
func startCoordinator(t *testing.T, ctx context.Context, cfg Config) (*Coordinator, func() (*experiment.Report, error)) {
	t.Helper()
	if cfg.LeaseTTL == 0 {
		cfg.LeaseTTL = 2 * time.Second
	}
	if cfg.Linger == 0 {
		// Must exceed the worker's wait-poll interval (250ms), or a
		// worker sleeping through sweep completion finds the listener
		// gone instead of a done response.
		cfg.Linger = 750 * time.Millisecond
	}
	if cfg.Addr == "" {
		cfg.Addr = "127.0.0.1:0"
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	type out struct {
		rep *experiment.Report
		err error
	}
	ch := make(chan out, 1)
	go func() {
		rep, err := c.Run(ctx)
		ch <- out{rep, err}
	}()
	return c, func() (*experiment.Report, error) {
		select {
		case o := <-ch:
			return o.rep, o.err
		case <-time.After(60 * time.Second):
			t.Fatal("coordinator did not finish within 60s")
			return nil, nil
		}
	}
}

func testWorker(addr string) *Worker {
	return &Worker{
		Addr: addr, RunFunc: fakeMapper,
		BaseBackoff: 20 * time.Millisecond, MaxBackoff: 300 * time.Millisecond,
		MaxAttempts: 40,
	}
}

func TestCoordinatedSweepMatchesUnsharded(t *testing.T) {
	desc := testDesc()
	wantJS, wantCSV, wantMD := goldenBytes(t, desc, fakeMapper)
	ck := filepath.Join(t.TempDir(), "coord.jsonl")

	ctx := context.Background()
	c, wait := startCoordinator(t, ctx, Config{Desc: desc, ChunkSize: 3, Checkpoint: ck})
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		w := testWorker(c.Addr())
		w.Name = fmt.Sprintf("w%d", i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := w.Run(ctx); err != nil {
				t.Errorf("worker %s: %v", w.Name, err)
			}
		}()
	}
	rep, err := wait()
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	assertIdentical(t, rep, wantJS, wantCSV, wantMD)

	// The coordinator's checkpoint merges byte-identically too — it is
	// an ordinary checkpoint file.
	merged, err := experiment.LoadCheckpoints(ck)
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, merged, wantJS, wantCSV, wantMD)
}

// TestLingerEndsWhenWorkersLeave: once every worker has heard "done"
// and left, the coordinator returns at once instead of waiting out
// Linger, with the unsharded report. Restarted on its complete
// checkpoint, it waits for a first worker, tells it "done" and
// returns once it leaves.
func TestLingerEndsWhenWorkersLeave(t *testing.T) {
	desc := testDesc()
	wantJS, wantCSV, wantMD := goldenBytes(t, desc, fakeMapper)
	ck := filepath.Join(t.TempDir(), "coord.jsonl")
	doneAt := make(chan time.Time, 1)
	ctx := context.Background()
	c, wait := startCoordinator(t, ctx, Config{
		Desc: desc, ChunkSize: 3, Checkpoint: ck, Linger: 30 * time.Second,
		OnEvent: func(ev Event) {
			if ev.Kind == EventDone {
				doneAt <- time.Now()
			}
		},
	})
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		w := testWorker(c.Addr())
		w.Name = fmt.Sprintf("w%d", i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := w.Run(ctx); err != nil {
				t.Errorf("worker %s: %v", w.Name, err)
			}
		}()
	}
	rep, err := wait()
	returned := time.Now()
	if err != nil {
		t.Fatal(err)
	}
	if d := returned.Sub(<-doneAt); d > time.Second {
		t.Errorf("coordinator returned %v after the sweep completed, want under 1s", d)
	}
	wg.Wait()
	assertIdentical(t, rep, wantJS, wantCSV, wantMD)

	c2, wait2 := startCoordinator(t, ctx, Config{Desc: desc, Checkpoint: ck, Linger: 30 * time.Second})
	if c2.Resumed() != c2.Runs() {
		t.Fatalf("restart resumed %d of %d runs", c2.Resumed(), c2.Runs())
	}
	late := testWorker(c2.Addr())
	late.Name = "late"
	if err := late.Run(ctx); err != nil {
		t.Fatalf("late worker: %v", err)
	}
	left := time.Now()
	rep, err = wait2()
	if err != nil {
		t.Fatal(err)
	}
	if d := time.Since(left); d > time.Second {
		t.Errorf("restarted coordinator returned %v after its worker left, want under 1s", d)
	}
	assertIdentical(t, rep, wantJS, wantCSV, wantMD)
}

// TestCoordinatedRealSweepMatchesUnsharded drives the real mapping
// stack (no injected RunFunc) through the full wire protocol on a
// small spec.
func TestCoordinatedRealSweepMatchesUnsharded(t *testing.T) {
	if testing.Short() {
		t.Skip("real mapping sweep in -short mode")
	}
	desc := SpecDesc{Circuits: "ghz(q=4),[[5,1,3]]", Heuristics: "quale,qspr", M: "1", Seed: 1, Fabric: "small"}
	wantJS, wantCSV, wantMD := goldenBytes(t, desc, nil)

	ctx := context.Background()
	c, wait := startCoordinator(t, ctx, Config{Desc: desc, ChunkSize: 1})
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		w := testWorker(c.Addr())
		w.RunFunc = nil // the real stack
		w.Name = fmt.Sprintf("real%d", i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := w.Run(ctx); err != nil {
				t.Errorf("worker %s: %v", w.Name, err)
			}
		}()
	}
	rep, err := wait()
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	assertIdentical(t, rep, wantJS, wantCSV, wantMD)
}

// TestWorkerKilledMidShard kills a worker (in-process kill -9: the
// connection drops with no clean shutdown) after two records; the
// coordinator must requeue its unfinished leased runs and a second
// worker must complete the sweep byte-identically.
func TestWorkerKilledMidShard(t *testing.T) {
	desc := testDesc()
	wantJS, wantCSV, wantMD := goldenBytes(t, desc, fakeMapper)

	var requeued atomic.Int32
	ctx := context.Background()
	c, wait := startCoordinator(t, ctx, Config{
		Desc: desc, ChunkSize: 6, LeaseTTL: 2 * time.Second,
		OnEvent: func(ev Event) {
			if ev.Kind == EventRequeue {
				requeued.Add(int32(len(ev.Indices)))
			}
		},
	})

	var sent atomic.Int32
	killer := testWorker(c.Addr())
	killer.Name = "victim"
	killer.Chaos = func(p ChaosPoint, detail int) ChaosAction {
		if p == PointRecord && sent.Add(1) > 2 {
			return ChaosAction{Kill: true}
		}
		return ChaosAction{}
	}
	if err := killer.Run(ctx); !errors.Is(err, ErrChaosKilled) {
		t.Fatalf("killed worker returned %v, want ErrChaosKilled", err)
	}

	// The survivor finishes everything the victim left behind.
	w := testWorker(c.Addr())
	w.Name = "survivor"
	if err := w.Run(ctx); err != nil {
		t.Fatalf("survivor: %v", err)
	}
	rep, err := wait()
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, rep, wantJS, wantCSV, wantMD)
	if requeued.Load() == 0 {
		t.Error("no runs were requeued after the worker was killed")
	}
}

// TestHungWorkerLeaseExpiry SIGSTOP-alikes a worker: mid-lease its
// heartbeats stop and it stalls past the lease TTL. The coordinator
// must expire the session, reassign, and still produce byte-identical
// output when the worker wakes up and reconnects (its stale records
// are dropped or duplicate-checked).
func TestHungWorkerLeaseExpiry(t *testing.T) {
	desc := testDesc()
	wantJS, wantCSV, wantMD := goldenBytes(t, desc, fakeMapper)

	const ttl = 400 * time.Millisecond
	var expired atomic.Int32
	ctx := context.Background()
	c, wait := startCoordinator(t, ctx, Config{
		Desc: desc, ChunkSize: 6, LeaseTTL: ttl,
		OnEvent: func(ev Event) {
			if ev.Kind == EventWorkerLeave && strings.Contains(ev.Detail, "lease expired") {
				expired.Add(1)
			}
		},
	})

	var hung atomic.Bool
	w := testWorker(c.Addr())
	w.Name = "sleeper"
	w.Chaos = func(p ChaosPoint, detail int) ChaosAction {
		if p == PointRecord && hung.CompareAndSwap(false, true) {
			return ChaosAction{MuteHeartbeat: true, Stall: 3 * ttl}
		}
		return ChaosAction{}
	}
	if err := w.Run(ctx); err != nil {
		t.Fatalf("hung worker never recovered: %v", err)
	}
	rep, err := wait()
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, rep, wantJS, wantCSV, wantMD)
	if expired.Load() == 0 {
		t.Error("coordinator never expired the hung worker's session")
	}
}

// TestDuplicateRecordDelivery sends every record twice (delivery
// after reassignment); ingest must be idempotent.
func TestDuplicateRecordDelivery(t *testing.T) {
	desc := testDesc()
	wantJS, wantCSV, wantMD := goldenBytes(t, desc, fakeMapper)

	ctx := context.Background()
	c, wait := startCoordinator(t, ctx, Config{Desc: desc, ChunkSize: 4})
	w := testWorker(c.Addr())
	w.Name = "echo"
	w.Chaos = func(p ChaosPoint, detail int) ChaosAction {
		if p == PointRecord {
			return ChaosAction{Duplicate: true}
		}
		return ChaosAction{}
	}
	if err := w.Run(ctx); err != nil {
		t.Fatal(err)
	}
	rep, err := wait()
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, rep, wantJS, wantCSV, wantMD)
}

// TestDroppedRecordsRequeuedOnLeaseComplete partitions away every
// record of the first lease; the worker still reports lease-complete,
// and the coordinator must trust records, not claims — the dropped
// runs go back to the pool and re-execute.
func TestDroppedRecordsRequeuedOnLeaseComplete(t *testing.T) {
	desc := testDesc()
	wantJS, wantCSV, wantMD := goldenBytes(t, desc, fakeMapper)

	ctx := context.Background()
	c, wait := startCoordinator(t, ctx, Config{Desc: desc, ChunkSize: 4})
	var first atomic.Int32
	w := testWorker(c.Addr())
	w.Name = "lossy"
	w.Chaos = func(p ChaosPoint, detail int) ChaosAction {
		if p == PointRecord && first.Add(1) <= 4 {
			return ChaosAction{Drop: true}
		}
		return ChaosAction{}
	}
	if err := w.Run(ctx); err != nil {
		t.Fatal(err)
	}
	rep, err := wait()
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, rep, wantJS, wantCSV, wantMD)
}

// TestStragglerStealAndKill is the acceptance scenario: a slow worker
// holds the whole sweep in one lease; a fast worker joining later must
// steal the tail of its unfinished range, and when the straggler is
// then killed its leftovers are reassigned — merged output stays
// byte-identical in every format.
func TestStragglerStealAndKill(t *testing.T) {
	desc := testDesc()
	wantJS, wantCSV, wantMD := goldenBytes(t, desc, fakeMapper)

	grantCh := make(chan struct{}, 1)
	var stole atomic.Int32
	ctx := context.Background()
	c, wait := startCoordinator(t, ctx, Config{
		Desc: desc, ChunkSize: 12, LeaseTTL: 2 * time.Second,
		OnEvent: func(ev Event) {
			switch ev.Kind {
			case EventLeaseGrant:
				select {
				case grantCh <- struct{}{}:
				default:
				}
			case EventLeaseSteal:
				stole.Add(int32(len(ev.Indices)))
			}
		},
	})

	// The straggler takes the whole sweep and crawls; after 5 records
	// it dies outright.
	var sent atomic.Int32
	straggler := testWorker(c.Addr())
	straggler.Name = "straggler"
	straggler.Chaos = func(p ChaosPoint, detail int) ChaosAction {
		if p != PointRecord {
			return ChaosAction{}
		}
		if sent.Add(1) > 5 {
			return ChaosAction{Kill: true}
		}
		return ChaosAction{Stall: 120 * time.Millisecond}
	}
	stragglerErr := make(chan error, 1)
	go func() { stragglerErr <- straggler.Run(ctx) }()

	// Wait for the straggler to own the whole sweep, then start the
	// fast worker — the pool is empty, so its first lease must be
	// stolen.
	select {
	case <-grantCh:
	case <-time.After(10 * time.Second):
		t.Fatal("straggler never got its lease")
	}
	fast := testWorker(c.Addr())
	fast.Name = "fast"
	if err := fast.Run(ctx); err != nil {
		t.Fatalf("fast worker: %v", err)
	}
	if err := <-stragglerErr; !errors.Is(err, ErrChaosKilled) {
		t.Fatalf("straggler returned %v, want ErrChaosKilled", err)
	}
	rep, err := wait()
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, rep, wantJS, wantCSV, wantMD)
	if stole.Load() == 0 {
		t.Error("fast worker never stole from the straggler")
	}
}

// TestCoordinatorRestart cancels the coordinator mid-sweep and starts
// a replacement on the same checkpoint file and address; workers ride
// out the outage on reconnect backoff and the final report is
// byte-identical, with the first half served from the checkpoint.
func TestCoordinatorRestart(t *testing.T) {
	desc := testDesc()
	wantJS, wantCSV, wantMD := goldenBytes(t, desc, fakeMapper)
	ck := filepath.Join(t.TempDir(), "coord.jsonl")

	ctx1, cancel1 := context.WithCancel(context.Background())
	var recs atomic.Int32
	c1, wait1 := startCoordinator(t, ctx1, Config{
		Desc: desc, ChunkSize: 2, Checkpoint: ck,
		OnEvent: func(ev Event) {
			if ev.Kind == EventRecord && recs.Add(1) == 5 {
				cancel1()
			}
		},
	})
	addr := c1.Addr()

	// Slow the worker slightly so the cancellation lands mid-sweep.
	w := testWorker(addr)
	w.Name = "rider"
	w.MaxAttempts = 60
	w.Chaos = func(p ChaosPoint, detail int) ChaosAction {
		if p == PointRecord {
			return ChaosAction{Stall: 20 * time.Millisecond}
		}
		return ChaosAction{}
	}
	workerErr := make(chan error, 1)
	go func() { workerErr <- w.Run(context.Background()) }()

	if _, err := wait1(); !errors.Is(err, context.Canceled) {
		t.Fatalf("first coordinator exited with %v, want context.Canceled", err)
	}
	if got := int(recs.Load()); got < 5 {
		t.Fatalf("first coordinator recorded %d runs before restart, want >= 5", got)
	}

	// The replacement resumes from the checkpoint on the same address.
	c2, wait2 := startCoordinator(t, context.Background(), Config{
		Desc: desc, ChunkSize: 2, Checkpoint: ck, Addr: addr,
	})
	if c2.Resumed() == 0 {
		t.Error("restarted coordinator resumed nothing from its checkpoint")
	}
	if err := <-workerErr; err != nil {
		t.Fatalf("worker did not survive the coordinator restart: %v", err)
	}
	rep, err := wait2()
	if err != nil {
		t.Fatal(err)
	}
	assertIdentical(t, rep, wantJS, wantCSV, wantMD)
}

// TestDeterminismViolationFailsSweep: when a steal makes two workers
// execute one run and their successful records disagree, the
// coordinator must fail the sweep loudly instead of picking one.
func TestDeterminismViolationFailsSweep(t *testing.T) {
	desc := testDesc()
	grantCh := make(chan struct{}, 1)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c, wait := startCoordinator(t, ctx, Config{
		Desc: desc, ChunkSize: 12, LeaseTTL: 2 * time.Second,
		OnEvent: func(ev Event) {
			if ev.Kind == EventLeaseGrant {
				select {
				case grantCh <- struct{}{}:
				default:
				}
			}
		},
	})

	biased := func(delta int64) experiment.RunFunc {
		return func(_ context.Context, r experiment.Run) (*experiment.Metrics, error) {
			return &experiment.Metrics{LatencyUS: int64(r.Index) + delta, Placement: []int{r.Index}}, nil
		}
	}
	slow := testWorker(c.Addr())
	slow.Name = "slow"
	slow.RunFunc = biased(0)
	slow.Chaos = func(p ChaosPoint, detail int) ChaosAction {
		if p == PointRecord {
			return ChaosAction{Stall: 80 * time.Millisecond}
		}
		return ChaosAction{}
	}
	slowErr := make(chan error, 1)
	go func() { slowErr <- slow.Run(ctx) }()
	select {
	case <-grantCh:
	case <-time.After(10 * time.Second):
		t.Fatal("slow worker never got its lease")
	}

	divergent := testWorker(c.Addr())
	divergent.Name = "divergent"
	divergent.RunFunc = biased(1000)
	divergentErr := make(chan error, 1)
	go func() { divergentErr <- divergent.Run(ctx) }()

	_, err := wait()
	if err == nil || !strings.Contains(err.Error(), "determinism violation") {
		t.Fatalf("coordinator returned %v, want a determinism violation error", err)
	}
	cancel()
	<-slowErr
	<-divergentErr
}

// TestFingerprintMismatchRejected: a qasm(path=...) circuit whose
// file differs between the coordinator's machine and the worker's
// resolves to a different content-addressed name, so the worker must
// refuse the sweep at handshake instead of mixing results.
func TestFingerprintMismatchRejected(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "c.qasm")
	prog := "QUBIT q0\nQUBIT q1\nCNOT q0, q1\n"
	if err := os.WriteFile(path, []byte(prog), 0o644); err != nil {
		t.Fatal(err)
	}
	desc := SpecDesc{
		Circuits:   fmt.Sprintf("qasm(path=%s)", path),
		Heuristics: "quale", M: "1", Seed: 1, Fabric: "small",
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c, wait := startCoordinator(t, ctx, Config{Desc: desc})

	// The worker's copy of the file drifts before it connects.
	if err := os.WriteFile(path, []byte("QUBIT q0\nQUBIT q1\nH q0\nCNOT q0, q1\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	w := testWorker(c.Addr())
	w.Name = "drifted"
	err := w.Run(ctx)
	if err == nil || !strings.Contains(err.Error(), "fingerprint mismatch") {
		t.Fatalf("worker returned %v, want a fingerprint mismatch", err)
	}
	cancel()
	if _, err := wait(); !errors.Is(err, context.Canceled) {
		t.Fatalf("coordinator exited with %v, want context.Canceled", err)
	}
}

// Unit coverage for the lease table's steal rules.
func TestLeaseTableSteal(t *testing.T) {
	a, b := &session{worker: "a"}, &session{worker: "b"}
	tb := newTable([]int{0, 1, 2, 3, 4, 5, 6, 7})
	la := tb.grant(a, "a", 8)
	if la == nil || len(la.remaining) != 8 {
		t.Fatalf("grant = %+v, want all 8", la)
	}
	if l := tb.grant(b, "b", 8); l != nil {
		t.Fatalf("second grant got %v, want nil (pool empty)", l.remaining)
	}
	// b steals the tail half.
	nl, victim := tb.steal(b, "b", 8)
	if nl == nil || victim != la {
		t.Fatalf("steal = %v victim %v", nl, victim)
	}
	got := nl.sortedRemaining()
	want := []int{4, 5, 6, 7}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("stolen tail = %v, want %v", got, want)
	}
	if len(la.remaining) != 4 {
		t.Errorf("victim keeps %d, want 4", len(la.remaining))
	}
	// With b's lease drained, the only candidate left is a's own —
	// never stolen from.
	for _, idx := range []int{4, 5, 6, 7} {
		tb.complete(idx)
	}
	if nl, _ := tb.steal(a, "a", 8); nl != nil {
		t.Errorf("a stole %v from its own lease", nl.sortedRemaining())
	}
	// A lease down to a single unfinished run is not splittable.
	for _, idx := range []int{0, 1, 2} {
		tb.complete(idx)
	}
	if nl, _ := tb.steal(b, "b", 8); nl != nil {
		t.Errorf("stole single-run lease %v", nl.sortedRemaining())
	}
}

// TestWorkerGivesUpWithoutCoordinator pins the reconnect budget: with
// no coordinator listening the worker must fail after its attempts,
// not spin forever.
func TestWorkerGivesUpWithoutCoordinator(t *testing.T) {
	w := &Worker{
		Addr:        "127.0.0.1:1", // reserved port, nothing listens
		BaseBackoff: time.Millisecond, MaxBackoff: 5 * time.Millisecond,
		MaxAttempts: 3,
	}
	err := w.Run(context.Background())
	if err == nil || !strings.Contains(err.Error(), "giving up after 3 attempts") {
		t.Fatalf("worker returned %v, want giving-up error", err)
	}
}
