package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// stamp renders what ties a result to a source tree and a machine:
// commit (when known), Go version, GOMAXPROCS, nproc, CPU model, date,
// workload and seed.
func stamp(rc *runCtx) []string {
	commit := os.Getenv("PERFBENCH_COMMIT")
	if commit == "" {
		commit = "unknown"
	}
	return []string{
		fmt.Sprintf("perfbench workload=%s seed=%d trace=%t short=%t seconds=%g",
			rc.workload, rc.seed, rc.traced, rc.short, rc.budget.Seconds()),
		fmt.Sprintf("commit=%s", commit),
		fmt.Sprintf("go=%s gomaxprocs=%d nproc=%d cpu=%q", runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), cpuModel()),
		fmt.Sprintf("date=%s", time.Now().UTC().Format(time.RFC3339)),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// cpuTime is the process's user+sys CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// mallocs is the cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// heapPeak tracks heap high-water marks: the bytes of all heap objects,
// live or not yet swept, sampled every few milliseconds and at every
// cut. Each window between reset and cut yields one peak. The sampler
// goroutine and the owner read through separate sample buffers, so
// sampling allocates nothing.
type heapPeak struct {
	max     atomic.Uint64
	windows []float64 // MiB
	own     []metrics.Sample
	stop    chan struct{}
	wg      sync.WaitGroup
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func heapBytes(buf []metrics.Sample) uint64 {
	metrics.Read(buf)
	return buf[0].Value.Uint64()
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{}), own: []metrics.Sample{{Name: heapMetric}}}
	h.reset()
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		buf := []metrics.Sample{{Name: heapMetric}}
		t := time.NewTicker(5 * time.Millisecond)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				h.observe(buf)
			}
		}
	}()
	return h
}

func (h *heapPeak) observe(buf []metrics.Sample) {
	v := heapBytes(buf)
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// reset starts a new window at the current heap size.
func (h *heapPeak) reset() { h.max.Store(heapBytes(h.own)) }

// cut ends the current window and records its peak.
func (h *heapPeak) cut() {
	h.observe(h.own)
	h.windows = append(h.windows, float64(h.max.Load())/(1<<20))
}

// finish stops the sampler and returns the windows' peaks in MiB.
func (h *heapPeak) finish() []float64 {
	close(h.stop)
	h.wg.Wait()
	return h.windows
}

// passStats accumulates the per-pass cost samples every workload
// reports: wall time, CPU time and allocation count, and the heap peak
// when peak is set.
type passStats struct {
	wall, cpu, allocs []float64
	peak              *heapPeak
}

// timePass runs fn as one pass and records its wall time (as fn
// reports it), CPU time, allocations and heap peak. Every pass starts
// from a collected heap, so its garbage-collector work, pooled-object
// refills and heap peak do not depend on where the previous pass left
// the collector.
func (ps *passStats) timePass(fn func() (time.Duration, error)) error {
	runtime.GC()
	if ps.peak != nil {
		ps.peak.reset()
	}
	m0 := mallocs()
	c0 := cpuTime()
	d, err := fn()
	c1 := cpuTime()
	m1 := mallocs()
	if err != nil {
		return err
	}
	if ps.peak != nil {
		ps.peak.cut()
	}
	ps.wall = append(ps.wall, d.Seconds())
	ps.cpu = append(ps.cpu, (c1 - c0).Seconds())
	ps.allocs = append(ps.allocs, float64(m1-m0))
	return nil
}

// report sets pass_s, cpu_s and allocs from the recorded passes.
func (ps *passStats) report(rc *runCtx) {
	rc.setMedian("pass_s", ps.wall)
	rc.setMedian("cpu_s", ps.cpu)
	rc.setMedian("allocs", ps.allocs)
}
