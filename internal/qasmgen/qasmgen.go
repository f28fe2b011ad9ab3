// Package qasmgen generates parameterized QASM workloads for
// experiments beyond the paper's six QECC encoders: scaling sweeps
// over qubit count, depth and parallelism need families of circuits
// with controlled shape.
//
// All generators are deterministic in their seed.
package qasmgen

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/gates"
	"repro/internal/qasm"
)

// qubitName returns a stable name for qubit i.
func qubitName(i int) string { return fmt.Sprintf("q%d", i) }

// declare builds a program with n qubits initialized to |0⟩.
func declare(n int) *qasm.Program {
	p := qasm.NewProgram()
	for i := 0; i < n; i++ {
		if _, err := p.DeclareQubit(qubitName(i), 0, 0); err != nil {
			panic(err)
		}
	}
	return p
}

// GHZ returns the standard GHZ-state preparation circuit: H on qubit
// 0 followed by a CNOT chain. Its dependency graph is a single long
// chain — minimal parallelism, maximal depth.
func GHZ(n int) (*qasm.Program, error) {
	if n < 2 {
		return nil, fmt.Errorf("qasmgen: GHZ needs at least 2 qubits")
	}
	p := declare(n)
	if err := p.AddGateByIndex(gates.H, 0); err != nil {
		return nil, err
	}
	for i := 0; i < n-1; i++ {
		if err := p.AddGateByIndex(gates.CX, i, i+1); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// BrickworkLayers returns a maximally parallel circuit: layers of
// disjoint two-qubit gates in the alternating "brickwork" pattern
// (pairs (0,1)(2,3)... then (1,2)(3,4)...). Each layer keeps n/2
// gates in flight, stressing channel congestion.
func BrickworkLayers(n, layers int) (*qasm.Program, error) {
	if n < 2 || layers < 1 {
		return nil, fmt.Errorf("qasmgen: brickwork needs >=2 qubits and >=1 layer")
	}
	p := declare(n)
	kinds := []gates.Kind{gates.CX, gates.CZ, gates.CY}
	for l := 0; l < layers; l++ {
		start := l % 2
		for a := start; a+1 < n; a += 2 {
			if err := p.AddGateByIndex(kinds[l%len(kinds)], a, a+1); err != nil {
				return nil, err
			}
		}
	}
	return p, nil
}

// RandomClifford returns a random circuit over the Clifford gate set
// with the given one-qubit-gate fraction (0..1).
func RandomClifford(n, numGates int, oneQubitFrac float64, seed int64) (*qasm.Program, error) {
	if n < 2 || numGates < 1 {
		return nil, fmt.Errorf("qasmgen: need >=2 qubits and >=1 gate")
	}
	if oneQubitFrac < 0 || oneQubitFrac > 1 {
		return nil, fmt.Errorf("qasmgen: oneQubitFrac %v outside [0,1]", oneQubitFrac)
	}
	rng := rand.New(rand.NewSource(seed))
	p := declare(n)
	oneQ := []gates.Kind{gates.H, gates.X, gates.Y, gates.Z, gates.S, gates.Sdg}
	twoQ := []gates.Kind{gates.CX, gates.CY, gates.CZ}
	for i := 0; i < numGates; i++ {
		if rng.Float64() < oneQubitFrac {
			if err := p.AddGateByIndex(oneQ[rng.Intn(len(oneQ))], rng.Intn(n)); err != nil {
				return nil, err
			}
		} else {
			a := rng.Intn(n)
			b := (a + 1 + rng.Intn(n-1)) % n
			if err := p.AddGateByIndex(twoQ[rng.Intn(len(twoQ))], a, b); err != nil {
				return nil, err
			}
		}
	}
	return p, nil
}

// interactionLayers builds a circuit whose qubit-interaction graph is
// exactly the given edge set: each layer applies one two-qubit gate
// per edge (kinds cycling CX/CZ/CY so consecutive layers differ),
// preceded by an H on every qubit in layer 0 to make the circuit
// non-trivial. Used by the named topology families below, which exist
// so sweeps can control the interaction graph (the structure qidg
// exposes and placement quality depends on) independently of size.
func interactionLayers(n, layers int, edges [][2]int) (*qasm.Program, error) {
	if n < 2 || layers < 1 {
		return nil, fmt.Errorf("qasmgen: need >=2 qubits and >=1 layer")
	}
	p := declare(n)
	for i := 0; i < n; i++ {
		if err := p.AddGateByIndex(gates.H, i); err != nil {
			return nil, err
		}
	}
	kinds := []gates.Kind{gates.CX, gates.CZ, gates.CY}
	for l := 0; l < layers; l++ {
		for _, e := range edges {
			if err := p.AddGateByIndex(kinds[l%len(kinds)], e[0], e[1]); err != nil {
				return nil, err
			}
		}
	}
	return p, nil
}

// Ring returns a circuit whose interaction graph is the n-cycle:
// every qubit interacts with its two ring neighbors, layers times.
func Ring(n, layers int) (*qasm.Program, error) {
	if n < 3 {
		return nil, fmt.Errorf("qasmgen: ring needs at least 3 qubits")
	}
	edges := make([][2]int, 0, n)
	for i := 0; i < n; i++ {
		edges = append(edges, [2]int{i, (i + 1) % n})
	}
	return interactionLayers(n, layers, edges)
}

// Star returns a circuit whose interaction graph is the n-star:
// qubit 0 interacts with every other qubit, layers times. The hub
// serializes all two-qubit gates — worst case for placement spread.
func Star(n, layers int) (*qasm.Program, error) {
	if n < 2 {
		return nil, fmt.Errorf("qasmgen: star needs at least 2 qubits")
	}
	edges := make([][2]int, 0, n-1)
	for i := 1; i < n; i++ {
		edges = append(edges, [2]int{0, i})
	}
	return interactionLayers(n, layers, edges)
}

// Grid returns a circuit whose interaction graph is the rows×cols
// nearest-neighbor grid — the topology that matches the fabric's own
// 2-D structure, so a good placer should realize it with short routes.
func Grid(rows, cols, layers int) (*qasm.Program, error) {
	if rows > 0 && cols > 0 && rows > math.MaxInt/cols {
		return nil, fmt.Errorf("qasmgen: grid %dx%d has more qubits than an int can count", rows, cols)
	}
	if rows < 1 || cols < 1 || rows*cols < 2 {
		return nil, fmt.Errorf("qasmgen: grid needs at least 2 qubits")
	}
	var edges [][2]int
	at := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				edges = append(edges, [2]int{at(r, c), at(r, c+1)})
			}
			if r+1 < rows {
				edges = append(edges, [2]int{at(r, c), at(r+1, c)})
			}
		}
	}
	return interactionLayers(rows*cols, layers, edges)
}

// SteaneSyndrome returns a flag-style syndrome-extraction round for
// the Steane code: one ancilla interacts with a weight-4 stabilizer
// support, repeated for all six generators. This is the circuit shape
// the paper's intro motivates (QECC dominating real workloads).
func SteaneSyndrome() (*qasm.Program, error) {
	// 7 data qubits + 6 ancillas.
	p := declare(13)
	supports := [][]int{
		{3, 4, 5, 6}, {1, 2, 5, 6}, {0, 2, 4, 6}, // X-type
		{3, 4, 5, 6}, {1, 2, 5, 6}, {0, 2, 4, 6}, // Z-type
	}
	for s, sup := range supports {
		anc := 7 + s
		xType := s < 3
		if xType {
			if err := p.AddGateByIndex(gates.H, anc); err != nil {
				return nil, err
			}
		}
		for _, dq := range sup {
			if xType {
				if err := p.AddGateByIndex(gates.CX, anc, dq); err != nil {
					return nil, err
				}
			} else {
				if err := p.AddGateByIndex(gates.CX, dq, anc); err != nil {
					return nil, err
				}
			}
		}
		if xType {
			if err := p.AddGateByIndex(gates.H, anc); err != nil {
				return nil, err
			}
		}
		if err := p.AddGateByIndex(gates.Measure, anc); err != nil {
			return nil, err
		}
	}
	return p, nil
}
