package engine

import (
	"math/rand"
	"testing"

	"repro/internal/fabric"
	"repro/internal/gates"
	"repro/internal/qasm"
	"repro/internal/qidg"
	"repro/internal/sched"
)

// randomProgram builds a random Clifford circuit.
func randomProgram(rng *rand.Rand, nq, ng int) *qasm.Program {
	p := qasm.NewProgram()
	for i := 0; i < nq; i++ {
		name := []byte{'q', byte('a' + i%26)}
		if i >= 26 {
			name = append(name, byte('0'+i/26))
		}
		if _, err := p.DeclareQubit(string(name), rng.Intn(2), i+1); err != nil {
			panic(err)
		}
	}
	oneQ := []gates.Kind{gates.H, gates.X, gates.S, gates.Sdg, gates.Z}
	twoQ := []gates.Kind{gates.CX, gates.CY, gates.CZ}
	for i := 0; i < ng; i++ {
		if nq < 2 || rng.Intn(3) == 0 {
			_ = p.AddGateByIndex(oneQ[rng.Intn(len(oneQ))], rng.Intn(nq))
		} else {
			a := rng.Intn(nq)
			b := (a + 1 + rng.Intn(nq-1)) % nq
			_ = p.AddGateByIndex(twoQ[rng.Intn(len(twoQ))], a, b)
		}
	}
	return p
}

// randomPlacement places qubits into distinct random traps.
func randomPlacement(rng *rand.Rand, f *fabric.Fabric, nq int) Placement {
	perm := rng.Perm(len(f.Traps))
	p := make(Placement, nq)
	copy(p, perm[:nq])
	return p
}

// TestPropertyRandomMappings drives random circuits, placements,
// fabrics and policy knobs through the engine. The engine's internal
// invariant audit (reservations drained, qubits at rest, trap loads
// consistent, trace valid) runs on every completion; this test adds
// the external invariants.
func TestPropertyRandomMappings(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	fabrics := []*fabric.Fabric{fabric.Small(), fabric.Quale4585()}
	policies := []sched.Policy{sched.QSPR, sched.QUALEALAP, sched.QPOSDependents, sched.QPOSDelay}
	for trial := 0; trial < 60; trial++ {
		f := fabrics[trial%len(fabrics)]
		maxQ := len(f.Traps)
		if maxQ > 12 {
			maxQ = 12
		}
		nq := 2 + rng.Intn(maxQ-1)
		ng := 1 + rng.Intn(50)
		prog := randomProgram(rng, nq, ng)
		g, err := qidg.Build(prog)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{
			Fabric:       f,
			Tech:         gates.Default(),
			Policy:       policies[rng.Intn(len(policies))],
			Weights:      sched.DefaultWeights(),
			TurnAware:    rng.Intn(2) == 0,
			TieSeed:      int64(trial),
			BothMove:     rng.Intn(2) == 0,
			MedianTarget: rng.Intn(2) == 0,
		}
		if rng.Intn(3) == 0 {
			cfg.Tech.ChannelCapacity = 1
			cfg.Tech.JunctionCapacity = 1
		}
		res, err := run(g, cfg, randomPlacement(rng, f, nq))
		if err != nil {
			t.Fatalf("trial %d (%d qubits, %d gates, policy %v, cap %d): %v",
				trial, nq, ng, cfg.Policy, cfg.Tech.ChannelCapacity, err)
		}
		if res.Latency < g.CriticalPathLatency(cfg.Tech) {
			t.Fatalf("trial %d: latency below ideal", trial)
		}
		_, _, gateOps := res.Trace.Counts()
		if gateOps != g.Len() {
			t.Fatalf("trial %d: %d gate ops, want %d", trial, gateOps, g.Len())
		}
		if err := res.Final.Validate(f, cfg.Tech.TrapCapacity); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		// Issue order is a topological order.
		pos := make(map[int]int, len(res.IssueOrder))
		for i, n := range res.IssueOrder {
			pos[n] = i
		}
		for u, ss := range g.Succs {
			for _, v := range ss {
				if pos[u] >= pos[v] {
					t.Fatalf("trial %d: issue order violates %d->%d", trial, u, v)
				}
			}
		}
	}
}

// TestPropertyTinyFabricHighPressure packs qubits to the trap
// capacity limit of the smallest fabric and checks completion.
func TestPropertyTinyFabricHighPressure(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	f := fabric.Small() // 8 traps, capacity 2 => up to 16 qubits
	for trial := 0; trial < 15; trial++ {
		nq := 10 + rng.Intn(4)
		prog := randomProgram(rng, nq, 25)
		g, err := qidg.Build(prog)
		if err != nil {
			t.Fatal(err)
		}
		// Pack two qubits per trap.
		p := make(Placement, nq)
		for i := range p {
			p[i] = i / 2
		}
		cfg := Config{
			Fabric: f, Tech: gates.Default(),
			Policy: sched.QSPR, Weights: sched.DefaultWeights(),
			TurnAware: true, BothMove: true, MedianTarget: true,
			TieSeed: int64(trial),
		}
		res, err := run(g, cfg, p)
		if err != nil {
			t.Fatalf("trial %d (%d qubits): %v", trial, nq, err)
		}
		if err := res.Trace.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}
