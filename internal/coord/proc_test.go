package coord

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// Process-level chaos tests: these drive the real qsprbench binary so
// the failure is a genuine SIGKILL'd or SIGSTOP'd process, not a
// simulated one. Skipped in -short (the -race job) — the in-process
// chaos tests in coord_test.go cover the same recovery logic.

var (
	buildOnce sync.Once
	buildBin  string
	buildErr  error
)

// benchBinary builds cmd/qsprbench once per test process.
func benchBinary(t *testing.T) string {
	t.Helper()
	buildOnce.Do(func() {
		dir, err := os.MkdirTemp("", "qsprbench-coord-*")
		if err != nil {
			buildErr = err
			return
		}
		buildBin = filepath.Join(dir, "qsprbench")
		cmd := exec.Command("go", "build", "-o", buildBin, "repro/cmd/qsprbench")
		cmd.Dir = repoRoot(t)
		if out, err := cmd.CombinedOutput(); err != nil {
			buildErr = fmt.Errorf("go build: %v\n%s", err, out)
		}
	})
	if buildErr != nil {
		t.Fatal(buildErr)
	}
	return buildBin
}

func repoRoot(t *testing.T) string {
	t.Helper()
	out, err := exec.Command("go", "env", "GOMOD").Output()
	if err != nil {
		t.Fatal(err)
	}
	return filepath.Dir(strings.TrimSpace(string(out)))
}

// freeAddr reserves an ephemeral port and releases it for the process
// under test.
func freeAddr(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// sweepArgs is the spec used by every process test: small enough to
// finish in seconds, large enough (24 runs) that a worker can be
// killed mid-sweep.
func sweepArgs() []string {
	return []string{"-circuits", "[[5,1,3]],[[7,1,3]],[[9,1,3]]", "-heuristics", "quale,qspr", "-m", "1,2,3,25", "-seed", "1"}
}

// lineWatcher scans a process stream, broadcasting each line to
// substring waiters.
type lineWatcher struct {
	mu    sync.Mutex
	lines []string
	subs  []chan string
}

func watch(t *testing.T, r io.Reader, tag string) *lineWatcher {
	lw := &lineWatcher{}
	go func() {
		sc := bufio.NewScanner(r)
		for sc.Scan() {
			line := sc.Text()
			t.Logf("%s: %s", tag, line)
			lw.mu.Lock()
			lw.lines = append(lw.lines, line)
			for _, ch := range lw.subs {
				select {
				case ch <- line:
				default:
				}
			}
			lw.mu.Unlock()
		}
	}()
	return lw
}

// waitFor blocks until a line containing substr has been seen.
func (lw *lineWatcher) waitFor(t *testing.T, substr string, timeout time.Duration) {
	t.Helper()
	ch := make(chan string, 64)
	lw.mu.Lock()
	for _, l := range lw.lines {
		if strings.Contains(l, substr) {
			lw.mu.Unlock()
			return
		}
	}
	lw.subs = append(lw.subs, ch)
	lw.mu.Unlock()
	deadline := time.After(timeout)
	for {
		select {
		case l := <-ch:
			if strings.Contains(l, substr) {
				return
			}
		case <-deadline:
			t.Fatalf("no %q line within %v", substr, timeout)
		}
	}
}

// golden runs the unsharded sweep and returns its report bytes.
func goldenRun(t *testing.T, bin string, format string) []byte {
	t.Helper()
	out := filepath.Join(t.TempDir(), "golden."+format)
	args := append(sweepArgs(), "-compare=false", "-format", format, "-out", out)
	cmd := exec.Command(bin, args...)
	if msg, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("golden run: %v\n%s", err, msg)
	}
	b, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func startWorker(t *testing.T, bin, addr, name string) (*exec.Cmd, *lineWatcher) {
	t.Helper()
	cmd := exec.Command(bin, "-worker", addr, "-worker-name", name, "-parallel", "1", "-progress")
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	lw := watch(t, stderr, name)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	return cmd, lw
}

// TestProcessWorkerKill9 SIGKILLs a real worker process mid-shard and
// lets a second worker finish. The coordinator must log the victim
// leaving and its runs requeued, and its report must be byte-identical
// to the unsharded run in every format: json directly, csv and
// markdown through -merge of the coordinator's checkpoint.
func TestProcessWorkerKill9(t *testing.T) {
	if testing.Short() {
		t.Skip("process-level chaos test")
	}
	bin := benchBinary(t)
	addr := freeAddr(t)
	dir := t.TempDir()
	out := filepath.Join(dir, "coord.json")

	// chunk = the whole sweep: the victim provably dies holding an
	// unfinished lease, so reassignment must happen.
	args := append([]string{"-coordinate", addr, "-chunk", "24", "-lease-ttl", "5s",
		"-checkpoint-dir", dir, "-compare=false", "-format", "json", "-out", out}, sweepArgs()...)
	coordCmd := exec.Command(bin, args...)
	coordErr, err := coordCmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	coordLog := watch(t, coordErr, "coord")
	if err := coordCmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer coordCmd.Process.Kill()
	coordLog.waitFor(t, "coordinating", 10*time.Second)

	victim, _ := startWorker(t, bin, addr, "victim")
	// Kill -9 only after the coordinator has accepted records from it
	// — a genuine mid-shard death.
	coordLog.waitFor(t, "runs recorded", 30*time.Second)
	if err := victim.Process.Kill(); err != nil {
		t.Fatal(err)
	}
	victim.Wait()
	coordLog.waitFor(t, "worker victim left", 20*time.Second)
	coordLog.waitFor(t, "requeued", 20*time.Second)

	survivor, _ := startWorker(t, bin, addr, "survivor")
	if err := survivor.Wait(); err != nil {
		t.Fatalf("survivor: %v", err)
	}
	if err := coordCmd.Wait(); err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	for _, format := range []string{"json", "csv", "markdown"} {
		t.Run(format, func(t *testing.T) {
			got := out
			if format != "json" {
				got = filepath.Join(dir, "merged."+format)
				merge := exec.Command(bin, "-merge", filepath.Join(dir, "coord.jsonl"), "-compare=false", "-format", format, "-out", got)
				if msg, err := merge.CombinedOutput(); err != nil {
					t.Fatalf("-merge: %v\n%s", err, msg)
				}
			}
			b, err := os.ReadFile(got)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(b, goldenRun(t, bin, format)) {
				t.Errorf("%s report after kill -9 differs from the unsharded run", format)
			}
		})
	}
}

// TestProcessWorkerSIGSTOP freezes a real worker with SIGSTOP; its
// heartbeats stop, the coordinator expires the lease after -lease-ttl
// and a second worker finishes. The frozen worker is killed afterward;
// output must be byte-identical to the unsharded run.
func TestProcessWorkerSIGSTOP(t *testing.T) {
	if testing.Short() {
		t.Skip("process-level chaos test")
	}
	bin := benchBinary(t)
	want := goldenRun(t, bin, "json")
	addr := freeAddr(t)
	dir := t.TempDir()
	out := filepath.Join(dir, "coord.json")

	args := append([]string{"-coordinate", addr, "-chunk", "24", "-lease-ttl", "2s",
		"-checkpoint-dir", dir, "-compare=false", "-format", "json", "-out", out}, sweepArgs()...)
	coordCmd := exec.Command(bin, args...)
	coordErr, err := coordCmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	coordLog := watch(t, coordErr, "coord")
	if err := coordCmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer coordCmd.Process.Kill()
	coordLog.waitFor(t, "coordinating", 10*time.Second)

	sleeper, _ := startWorker(t, bin, addr, "sleeper")
	defer sleeper.Process.Kill()
	// Freeze only once it demonstrably holds the lease and is mapping.
	coordLog.waitFor(t, "runs recorded", 30*time.Second)
	if err := sleeper.Process.Signal(syscall.SIGSTOP); err != nil {
		t.Fatal(err)
	}
	// The coordinator must notice the silence and reassign.
	coordLog.waitFor(t, "lease expired", 30*time.Second)

	survivor, _ := startWorker(t, bin, addr, "survivor")
	if err := survivor.Wait(); err != nil {
		t.Fatalf("survivor: %v", err)
	}
	// The sweep must complete while the sleeper is still frozen.
	if err := coordCmd.Wait(); err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	sleeper.Process.Kill()
	sleeper.Wait()

	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("report after SIGSTOP'd worker differs from unsharded run")
	}
}

// TestProcessLoneSingleRunLease is the degenerate sharding case: with
// -chunk 1 every lease covers exactly one run, so when the only
// worker freezes mid-run there is nothing to split and no partial
// progress to steal — the single in-flight run can be recovered ONLY
// by lease expiry. The survivor is started only after the expiry is
// observed, so the recovery path is provably expiry, not a second
// worker racing the frozen one. Output must stay byte-identical to
// the unsharded run.
func TestProcessLoneSingleRunLease(t *testing.T) {
	if testing.Short() {
		t.Skip("process-level chaos test")
	}
	bin := benchBinary(t)
	want := goldenRun(t, bin, "json")
	addr := freeAddr(t)
	dir := t.TempDir()
	out := filepath.Join(dir, "coord.json")

	args := append([]string{"-coordinate", addr, "-chunk", "1", "-lease-ttl", "2s",
		"-checkpoint-dir", dir, "-compare=false", "-format", "json", "-out", out}, sweepArgs()...)
	coordCmd := exec.Command(bin, args...)
	coordErr, err := coordCmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	coordLog := watch(t, coordErr, "coord")
	if err := coordCmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer coordCmd.Process.Kill()
	coordLog.waitFor(t, "coordinating", 10*time.Second)

	sleeper, _ := startWorker(t, bin, addr, "sleeper")
	defer sleeper.Process.Kill()
	// Let it demonstrably complete at least one single-run shard, then
	// freeze it while it holds the next one-run lease.
	coordLog.waitFor(t, "runs recorded", 30*time.Second)
	if err := sleeper.Process.Signal(syscall.SIGSTOP); err != nil {
		t.Fatal(err)
	}
	// No other worker exists, so the only way this line can appear is
	// the coordinator timing out the frozen worker's lone lease.
	coordLog.waitFor(t, "lease expired", 30*time.Second)

	survivor, _ := startWorker(t, bin, addr, "survivor")
	if err := survivor.Wait(); err != nil {
		t.Fatalf("survivor: %v", err)
	}
	if err := coordCmd.Wait(); err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	sleeper.Process.Kill()
	sleeper.Wait()

	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("report after lone-lease expiry differs from unsharded run")
	}
}

// TestProcessCoordinatorRestart kills the coordinator process
// mid-sweep and restarts it on the same checkpoint dir and address;
// the worker rides out the outage on reconnect backoff and the merged
// output is byte-identical.
func TestProcessCoordinatorRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("process-level chaos test")
	}
	bin := benchBinary(t)
	want := goldenRun(t, bin, "json")
	addr := freeAddr(t)
	dir := t.TempDir()
	out := filepath.Join(dir, "coord.json")

	coordArgs := append([]string{"-coordinate", addr, "-chunk", "2", "-lease-ttl", "5s",
		"-checkpoint-dir", dir, "-compare=false", "-format", "json", "-out", out}, sweepArgs()...)
	first := exec.Command(bin, coordArgs...)
	firstErr, err := first.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	firstLog := watch(t, firstErr, "coord1")
	if err := first.Start(); err != nil {
		t.Fatal(err)
	}
	defer first.Process.Kill()
	firstLog.waitFor(t, "coordinating", 10*time.Second)

	worker, _ := startWorker(t, bin, addr, "rider")
	defer worker.Process.Kill()

	// Kill the coordinator after the first records are checkpointed.
	firstLog.waitFor(t, "runs recorded", 30*time.Second)
	first.Process.Kill()
	first.Wait()

	second := exec.Command(bin, coordArgs...)
	secondErr, err := second.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	secondLog := watch(t, secondErr, "coord2")
	if err := second.Start(); err != nil {
		t.Fatal(err)
	}
	defer second.Process.Kill()
	secondLog.waitFor(t, "resumed", 10*time.Second)

	if err := worker.Wait(); err != nil {
		t.Fatalf("worker did not survive the restart: %v", err)
	}
	if err := second.Wait(); err != nil {
		t.Fatalf("restarted coordinator: %v", err)
	}
	got, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Error("report after coordinator restart differs from unsharded run")
	}
}
