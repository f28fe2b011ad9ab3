package engine

import (
	"strings"
	"testing"

	"repro/internal/fabric"
)

// forkDelta builds a deterministic admissible single-qubit delta for
// the given baseline initial placement: qubit q moves to the first
// trap (scanning from a q-dependent offset) that currently hosts no
// qubit of the baseline. Both paper fabrics have far more traps than
// qubits, so an empty trap always exists.
func forkDelta(t *testing.T, f *fabric.Fabric, base Placement, q int) Delta {
	t.Helper()
	used := make(map[int]bool, len(base))
	for _, tr := range base {
		used[tr] = true
	}
	nt := len(f.Traps)
	for i := 0; i < nt; i++ {
		cand := (q*31 + 7 + i) % nt
		if !used[cand] {
			return Delta{{Qubit: q, To: cand}}
		}
	}
	t.Fatalf("no empty trap on a %d-trap fabric", nt)
	return nil
}

// applyDelta returns the perturbed placement.
func applyDelta(base Placement, d Delta) Placement {
	p := base.Clone()
	for _, m := range d {
		p[m.Qubit] = m.To
	}
	return p
}

// TestRunRecordedMatchesRun: recording must be observationally free —
// RunRecorded produces the exact Run fingerprint (which the pinned
// pre-refactor fingerprints also guard) on every case, forward and
// backward.
func TestRunRecordedMatchesRun(t *testing.T) {
	for _, tc := range fingerprintCases(t) {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			cfg := qsprConfig(tc.f)
			cfg.CollectTrace = true
			p := centerPlacement(tc.f, tc.g.NumQubits)
			want, err := run(tc.g, cfg, p)
			if err != nil {
				t.Fatal(err)
			}
			sim := NewSim()
			log := &CheckpointLog{}
			got, err := sim.RunRecorded(tc.g, cfg, p, log)
			if err != nil {
				t.Fatal(err)
			}
			if fingerprint(t, got) != fingerprint(t, want) {
				t.Error("RunRecorded result differs from Run")
			}
			if !log.CanFork() {
				t.Error("log not forkable after a successful recording")
			}
			if log.Checkpoints() == 0 || log.Events() == 0 {
				t.Errorf("empty recording: %d checkpoints, %d events", log.Checkpoints(), log.Events())
			}
			if last := log.At(log.Checkpoints() - 1); last.Index() != log.Events() {
				t.Errorf("last checkpoint at %d, want end state %d", last.Index(), log.Events())
			}
		})
	}
}

// TestResetInvalidatesCheckpoints is the satellite invalidation
// contract: any Reset of the owning Sim makes outstanding checkpoints
// unusable, RunFrom reports it with the Sim's state left intact, and
// the Sim remains fully usable for both plain runs and re-recording.
func TestResetInvalidatesCheckpoints(t *testing.T) {
	g := graphOf(t, fig3)
	f := fabric.Small()
	cfg := qsprConfig(f)
	p := centerPlacement(f, g.NumQubits)

	sim := NewSim()
	log := &CheckpointLog{}
	if _, err := sim.RunRecorded(g, cfg, p, log); err != nil {
		t.Fatal(err)
	}
	delta := forkDelta(t, f, p, 0)
	cp := log.Before(delta)
	if cp == nil {
		t.Fatal("no fork point for a fresh recording")
	}

	// Reset (via a plain Run) invalidates.
	want, err := sim.Run(g, cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	if log.CanFork() {
		t.Error("log still forkable after Reset")
	}
	if _, err := sim.RunFrom(cp, delta); err == nil {
		t.Fatal("RunFrom succeeded on a stale checkpoint")
	} else if !strings.Contains(err.Error(), "stale") {
		t.Errorf("unexpected stale-checkpoint error: %v", err)
	}

	// State intact: the Sim still runs and matches a fresh reference.
	got, err := sim.Run(g, cfg, p)
	if err != nil {
		t.Fatalf("Sim unusable after rejected fork: %v", err)
	}
	if !resultsEqualSansTrace(got, want) {
		t.Error("Sim diverged after rejected fork")
	}

	// Re-recording restores forkability.
	if _, err := sim.RunRecorded(g, cfg, p, log); err != nil {
		t.Fatal(err)
	}
	if cp2 := log.Before(delta); cp2 == nil {
		t.Error("re-recorded log not forkable")
	} else if _, err := sim.RunFrom(cp2, delta); err != nil {
		t.Errorf("fork after re-recording: %v", err)
	}
}

// TestRunFromValidationStateIntact: every rejected delta leaves the
// Sim exactly as it was — a subsequent valid fork still reproduces the
// cold-run result.
func TestRunFromValidationStateIntact(t *testing.T) {
	g := graphOf(t, fig3)
	f := fabric.Small()
	cfg := qsprConfig(f)
	p := centerPlacement(f, g.NumQubits)

	sim := NewSim()
	log := &CheckpointLog{}
	if _, err := sim.RunRecorded(g, cfg, p, log); err != nil {
		t.Fatal(err)
	}
	delta := forkDelta(t, f, p, 0)
	cp := log.Before(delta)
	if cp == nil {
		t.Fatal("no fork point")
	}

	bad := []struct {
		name  string
		delta Delta
	}{
		{"unknown qubit", Delta{{Qubit: g.NumQubits + 3, To: 0}}},
		{"invalid trap", Delta{{Qubit: 0, To: len(f.Traps)}}},
		{"duplicate qubit", Delta{{Qubit: 0, To: delta[0].To}, {Qubit: 0, To: 0}}},
		{"overloaded trap", Delta{{Qubit: 0, To: delta[0].To}, {Qubit: 1, To: delta[0].To}, {Qubit: 2, To: delta[0].To}}},
	}
	for _, b := range bad {
		if _, err := sim.RunFrom(cp, b.delta); err == nil {
			t.Errorf("%s: fork accepted", b.name)
		}
	}
	// Foreign checkpoint.
	other := NewSim()
	if _, err := other.Run(g, cfg, p); err != nil {
		t.Fatal(err)
	}
	if _, err := other.RunFrom(cp, delta); err == nil {
		t.Error("foreign Sim accepted another Sim's checkpoint")
	}

	// After all rejections the valid fork still matches cold.
	cold, err := NewSim().Run(g, cfg, applyDelta(p, delta))
	if err != nil {
		t.Fatal(err)
	}
	got, err := sim.RunFrom(cp, delta)
	if err != nil {
		t.Fatal(err)
	}
	if !resultsEqualSansTrace(got, cold) {
		t.Error("fork after rejected deltas diverged from cold run")
	}
}

// TestRunFromPastFrontierRejected: a checkpoint strictly past the
// delta's dependency frontier must be refused (state intact), and
// Before must return one at or before it.
func TestRunFromPastFrontierRejected(t *testing.T) {
	for _, tc := range fingerprintCases(t) {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			cfg := qsprConfig(tc.f)
			p := centerPlacement(tc.f, tc.g.NumQubits)
			sim := NewSim()
			log := &CheckpointLog{}
			if _, err := sim.RunRecorded(tc.g, cfg, p, log); err != nil {
				t.Fatal(err)
			}
			delta := forkDelta(t, tc.f, p, 0)
			f := log.Frontier(delta)
			if cp := log.Before(delta); cp == nil || cp.Index() > f {
				t.Fatalf("Before returned %v for frontier %d", cp, f)
			}
			for i := 0; i < log.Checkpoints(); i++ {
				cp := log.At(i)
				if cp.Index() <= f {
					continue
				}
				if _, err := sim.RunFrom(cp, delta); err == nil {
					t.Fatalf("checkpoint at %d accepted past frontier %d", cp.Index(), f)
				}
				break
			}
		})
	}
}

// TestManualCheckpoint: a Sim.Checkpoint taken right after Reset
// (index 0) forks to any admissible delta and reproduces the cold
// run; one taken mid-run only resumes with an empty delta... which it
// cannot prove safe without a log, so RunFrom refuses non-zero-index
// manual checkpoints outright.
func TestManualCheckpoint(t *testing.T) {
	g := graphOf(t, fig3)
	f := fabric.Small()
	cfg := qsprConfig(f)
	p := centerPlacement(f, g.NumQubits)

	sim := NewSim()
	if err := sim.Reset(g, cfg, p); err != nil {
		t.Fatal(err)
	}
	var cp Checkpoint
	sim.Checkpoint(&cp)
	if cp.Index() != 0 {
		t.Fatalf("post-Reset checkpoint at index %d", cp.Index())
	}
	delta := forkDelta(t, f, p, 1)
	cold, err := NewSim().Run(g, cfg, applyDelta(p, delta))
	if err != nil {
		t.Fatal(err)
	}
	got, err := sim.RunFrom(&cp, delta)
	if err != nil {
		t.Fatal(err)
	}
	if !resultsEqualSansTrace(got, cold) {
		t.Error("index-0 manual fork diverged from cold run")
	}

	// Mid-run manual checkpoints are rejected by RunFrom.
	log := &CheckpointLog{}
	if _, err := sim.RunRecorded(g, cfg, p, log); err != nil {
		t.Fatal(err)
	}
	if err := sim.Reset(g, cfg, p); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if !sim.q.Step(sim.fire) {
			t.Fatal("queue drained early")
		}
		sim.fired++
	}
	var mid Checkpoint
	sim.Checkpoint(&mid)
	if _, err := sim.RunFrom(&mid, delta); err == nil {
		t.Error("mid-run manual checkpoint accepted a delta")
	}
}

// TestRunFromAllocsSteadyState is the satellite allocation guard: with
// warm buffers, one Checkpoint selection plus RunFrom allocates only
// the returned Result (4 objects), exactly like a steady-state
// Sim.Run. RunRecorded re-baselining gets its own (looser) guard:
// its per-boundary captures reuse pooled buffers, so it too settles at
// the Result-only floor.
func TestRunFromAllocsSteadyState(t *testing.T) {
	const resultAllocs = 4
	for _, tc := range fingerprintCases(t) {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			cfg := qsprConfig(tc.f)
			cfg.CollectTrace = false
			p := centerPlacement(tc.f, tc.g.NumQubits)
			sim := NewSim()
			log := &CheckpointLog{}
			if _, err := sim.RunRecorded(tc.g, cfg, p, log); err != nil {
				t.Fatal(err)
			}
			delta := forkDelta(t, tc.f, p, 0)
			if cp := log.Before(delta); cp == nil {
				t.Fatal("no fork point")
			} else if _, err := sim.RunFrom(cp, delta); err != nil { // warm the fork path
				t.Fatal(err)
			}
			if avg := testing.AllocsPerRun(50, func() {
				cp := log.Before(delta)
				if _, err := sim.RunFrom(cp, delta); err != nil {
					t.Fatal(err)
				}
			}); avg > resultAllocs {
				t.Errorf("steady-state Before+RunFrom allocates %.1f objects, want <= %d (the Result)",
					avg, resultAllocs)
			}
			if avg := testing.AllocsPerRun(20, func() {
				if _, err := sim.RunRecorded(tc.g, cfg, p, log); err != nil {
					t.Fatal(err)
				}
			}); avg > resultAllocs {
				t.Errorf("steady-state RunRecorded allocates %.1f objects, want <= %d (the Result)",
					avg, resultAllocs)
			}
		})
	}
}
