package main

import "time"

// tracer records spans around the benchmark's calls into each layer.
// One tracer belongs to one goroutine; spans nest by call order and are
// kept in memory until the pass ends.
type tracer struct {
	spans []span
	stack []int
}

// span is one timed call: its name ("layer.operation"), the span that
// caused it (-1 for a root) and its interval.
type span struct {
	name       string
	parent     int
	start, end time.Time
}

func (t *tracer) begin(name string) int {
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{name: name, parent: parent, start: time.Now()})
	id := len(t.spans) - 1
	t.stack = append(t.stack, id)
	return id
}

func (t *tracer) end(id int) {
	t.spans[id].end = time.Now()
	t.stack = t.stack[:len(t.stack)-1]
}

func (t *tracer) reset() {
	t.spans = t.spans[:0]
	t.stack = t.stack[:0]
}

func (s span) dur() time.Duration { return s.end.Sub(s.start) }

// total sums the durations of the spans called name.
func (t *tracer) total(name string) time.Duration {
	var d time.Duration
	for _, s := range t.spans {
		if s.name == name {
			d += s.dur()
		}
	}
	return d
}

// selfByName sums each span name's self time: its duration minus the
// part its child spans cover.
func (t *tracer) selfByName() map[string]time.Duration {
	self := map[string]time.Duration{}
	for _, s := range t.spans {
		self[s.name] += s.dur()
		if s.parent >= 0 {
			self[t.spans[s.parent].name] -= s.dur()
		}
	}
	return self
}

// selfSum sums the self times of every span name: the time the layers
// account for.
func (t *tracer) selfSum() time.Duration {
	var d time.Duration
	for _, v := range t.selfByName() {
		d += v
	}
	return d
}

// reconcileTolerance is the largest share by which the time the layer
// self times account for may differ from an independent measurement of
// the same work.
const reconcileTolerance = 0.15

// reconcile checks the traced attribution against a measurement that
// does not go through it: attributed is the time per pass the per-layer
// self times account for, reference the time per pass of the same work
// measured another way (how names it). It reports the unattributed
// share 1 − attributed/reference and counts a check that fails outside
// ±reconcileTolerance. A --short run has too few samples to hold the
// tolerance, so there the share is only reported.
func (rc *runCtx) reconcile(attributed, reference float64, how string) {
	frac := 1 - attributed/reference
	rc.set("trace.unattributed_frac", frac)
	rc.note("reconcile: layer self times %.6fs per pass against %s %.6fs, unattributed %.4f (tolerance %.2f)",
		attributed, how, reference, frac, reconcileTolerance)
	if rc.short {
		return
	}
	rc.check(frac >= -reconcileTolerance && frac <= reconcileTolerance,
		"reconcile: unattributed share %.4f outside ±%.2f", frac, reconcileTolerance)
}
