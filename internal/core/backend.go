package core

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/fabric"
	"repro/internal/gates"
	"repro/internal/place"
	"repro/internal/qasm"
	"repro/internal/qidg"
	"repro/internal/qpos"
	"repro/internal/quale"
	"repro/internal/swapmap"
)

// Backend maps a parsed program onto a target fabric and produces a
// Result whose Mapping carries the full micro-command trace, so the
// noise model, viz and every report renderer work identically on any
// backend. The contract:
//
//   - opts arrive already normalized (Mapper.Map calls Normalize
//     before dispatch); implementations must not re-default them.
//   - Implementations are stateless values safe for concurrent use.
//     Per-worker warm state — the reusable engine.Sim a Mapper owns,
//     never nil — is caller-owned and threaded in via sim; the ion
//     backend runs its QSPR-engine placers on it, other backends
//     ignore it (docs/CONCURRENCY.md "Backends").
//   - Results are a pure function of (prog, fab, opts): bit-identical
//     at any opts.InnerParallel and on warm or cold state.
type Backend interface {
	// Name is the canonical CLI/request name ("ion", "swap").
	Name() string
	// Map maps prog onto fab under normalized opts.
	Map(prog *qasm.Program, fab *fabric.Fabric, opts Options, sim *engine.Sim) (*Result, error)
}

// backends is keyed by the canonical Options.Backend value: the ion
// backend — the pre-refactor default — is the empty string so that
// every pre-existing ResultKey, fingerprint and cached report stays
// byte-identical.
var backends = map[string]Backend{
	"":     ionBackend{},
	"swap": swapBackend{},
}

// BackendNames lists the valid backend names for diagnostics, sorted.
func BackendNames() []string {
	names := make([]string, 0, len(backends))
	for _, b := range backends {
		names = append(names, b.Name())
	}
	sort.Strings(names)
	return names
}

// CanonicalBackend resolves a user-facing backend name to its
// canonical Options.Backend value: "" and "ion" (any case) are the
// ion backend and canonicalize to "", so the zero Options keeps its
// pre-backend identity everywhere identity matters (ResultKey, cache
// keys, sweep fingerprints). Unknown names are rejected with the
// valid list, mirroring the -heuristic diagnostics.
func CanonicalBackend(name string) (string, error) {
	s := strings.ToLower(strings.TrimSpace(name))
	if s == "ion" {
		s = ""
	}
	if _, ok := backends[s]; !ok {
		return "", fmt.Errorf("unknown backend %q (valid: %s)", name, strings.Join(BackendNames(), ", "))
	}
	return s, nil
}

// BackendDisplayName renders a canonical Options.Backend value for
// reports: the canonical empty string reads "ion".
func BackendDisplayName(canonical string) string {
	if canonical == "" {
		return "ion"
	}
	return canonical
}

// ionBackend is the paper's architecture: ion-trap shuttling under
// the QSPR/QUALE/QPOS engines.
type ionBackend struct{}

func (ionBackend) Name() string { return "ion" }

func (ionBackend) Map(prog *qasm.Program, fab *fabric.Fabric, opts Options, sim *engine.Sim) (*Result, error) {
	g, err := qidg.Build(prog)
	if err != nil {
		return nil, err
	}
	tech := gates.Default()
	if opts.Tech != nil {
		tech = *opts.Tech
	}
	start := time.Now()
	res := &Result{
		Heuristic: opts.Heuristic,
		Ideal:     g.CriticalPathLatency(tech),
	}
	switch opts.Heuristic {
	case QSPR:
		cfg := qsprConfig(fab, tech)
		// The paper's global-patience protocol at any worker count:
		// parallel MVFB is bit-identical to the sequential search.
		sol, err := place.MVFB(g, cfg, place.MVFBOptions{
			Seeds: opts.Seeds, Patience: opts.Patience,
			MaxRunsPerSeed: 50, Seed: opts.Seed, Workers: opts.InnerParallel,
			Sim: sim,
		})
		if err != nil {
			return nil, err
		}
		res.Mapping = sol.Result
		res.Runs = sol.Runs
		res.BackwardWinner = sol.Backward
	case QSPRCenter:
		// A single deterministic run whose trace is the deliverable.
		r, err := place.CenterRun(g, qsprConfig(fab, tech), sim)
		if err != nil {
			return nil, err
		}
		res.Mapping = r
		res.Runs = 1
	case MonteCarlo:
		cfg := qsprConfig(fab, tech)
		sol, err := place.MonteCarlo(g, cfg, opts.Seeds, opts.Seed, opts.InnerParallel, sim)
		if err != nil {
			return nil, err
		}
		res.Mapping = sol.Result
		res.Runs = sol.Runs
	case Portfolio:
		cfg := qsprConfig(fab, tech)
		popts := place.PortfolioOptions{
			MVFB: place.MVFBOptions{
				Seeds: opts.Seeds, Patience: opts.Patience,
				MaxRunsPerSeed: 50, Seed: opts.Seed,
			},
			Workers: opts.InnerParallel,
		}
		if opts.AnnealMoves > 0 {
			popts.Anneal = &place.AnnealOptions{
				Moves: opts.AnnealMoves, Restarts: opts.AnnealRestarts,
				Seed: opts.Seed, Cooling: opts.AnnealCooling,
			}
		}
		sol, err := place.Portfolio(g, cfg, popts)
		if err != nil {
			return nil, err
		}
		res.Mapping = sol.Result
		res.Runs = sol.Runs
		res.BackwardWinner = sol.Backward && sol.Rank == place.RankMVFB
		res.PortfolioWinner = sol.Placer
	case Anneal:
		cfg := qsprConfig(fab, tech)
		sol, err := place.Anneal(g, cfg, place.AnnealOptions{
			Moves: opts.AnnealMoves, Restarts: opts.AnnealRestarts,
			Seed: opts.Seed, Cooling: opts.AnnealCooling,
			Workers: opts.InnerParallel, Sim: sim,
		})
		if err != nil {
			return nil, err
		}
		res.Mapping = sol.Result
		res.Runs = sol.Runs
	case QUALE:
		r, err := quale.Map(g, fab)
		if err != nil {
			return nil, err
		}
		res.Mapping = r
		res.Runs = 1
	case QPOS:
		r, err := qpos.Map(g, fab, qpos.VariantDependents)
		if err != nil {
			return nil, err
		}
		res.Mapping = r
		res.Runs = 1
	case QPOSDelay:
		r, err := qpos.Map(g, fab, qpos.VariantDelay)
		if err != nil {
			return nil, err
		}
		res.Mapping = r
		res.Runs = 1
	default:
		return nil, fmt.Errorf("core: unknown heuristic %v", opts.Heuristic)
	}
	res.Latency = res.Mapping.Latency
	res.Runtime = time.Since(start)
	return res, nil
}

// swapBackend is the superconducting-style architecture: qubits sit
// on a nearest-neighbor coupling graph derived from the fabric's trap
// sites and two-qubit gates between distant operands are preceded by
// deterministic SWAP insertion along a shortest path
// (internal/swapmap). It ignores the warm ion Sim.
type swapBackend struct{}

func (swapBackend) Name() string { return "swap" }

func (swapBackend) Map(prog *qasm.Program, fab *fabric.Fabric, opts Options, sim *engine.Sim) (*Result, error) {
	g, err := qidg.Build(prog)
	if err != nil {
		return nil, err
	}
	tech := gates.Default()
	if opts.Tech != nil {
		tech = *opts.Tech
	}
	sopts := swapmap.Options{
		Tech:    tech,
		Seed:    opts.Seed,
		Workers: opts.InnerParallel,
	}
	switch opts.Heuristic {
	case QSPRCenter:
		// The single deterministic center placement, like the ion
		// QSPR-center flow isolates the placer there.
		sopts.Trials = 1
	case QSPR, MonteCarlo:
		// The placement-search heuristics transfer as a seeded trial
		// portfolio: trial 0 is the deterministic center placement,
		// trials 1..m-1 are center permutations.
		sopts.Trials = opts.Seeds
	default:
		return nil, fmt.Errorf("core: heuristic %s is not supported on the swap backend (valid: QSPR, QSPR-center, MC)", opts.Heuristic)
	}
	start := time.Now()
	res := &Result{
		Heuristic: opts.Heuristic,
		Ideal:     g.CriticalPathLatency(tech),
	}
	sol, err := swapmap.Map(g, fab, sopts)
	if err != nil {
		return nil, err
	}
	res.Mapping = sol.Result
	res.Runs = sol.Runs
	res.Latency = res.Mapping.Latency
	res.Runtime = time.Since(start)
	return res, nil
}
