package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/core"
	"repro/internal/experiment"
	"repro/internal/noise"
	"repro/internal/trace"
)

// Request is the POST /map body. Exactly one of Circuit and QASM
// names the program; everything else has the documented qspr
// defaults, so `{"circuit":"[[5,1,3]]"}` is a complete request.
type Request struct {
	// Circuit is a registry source spec (circuits.Resolve): a
	// built-in label like "[[5,1,3]]" or a generator family call like
	// "rand(q=20,g=400,seed=7)" of at most 4,096 qubits and 65,536
	// gates. The file-backed "qasm(path=...)" family is refused with
	// a 400 before any file is read; send the program in QASM.
	Circuit string `json:"circuit,omitempty"`
	// QASM is an inline program (the paper's QUALE-style dialect or
	// OpenQASM 2.0, auto-detected). Its canonical circuit name is
	// content-addressed: "inline:" + the first 12 hex chars of the
	// body's sha256, so identical bodies share one cache entry.
	QASM string `json:"qasm,omitempty"`
	// Fabric names a built-in fabric: "quale45x85" (default) or
	// "small" — the same names experiment.LoadFabric resolves.
	Fabric string `json:"fabric,omitempty"`
	// Heuristic is a qspr -heuristic name (experiment.ParseHeuristic);
	// default "qspr".
	Heuristic string `json:"heuristic,omitempty"`
	// M is the MVFB seed / MC run count (0 = the paper default 25).
	M int `json:"m,omitempty"`
	// Seed feeds the random permutations (0 = the documented 1).
	Seed int64 `json:"seed,omitempty"`
	// Patience is MVFB's non-improving-run stop count (0 = 3).
	Patience int `json:"patience,omitempty"`
	// InnerParallel is the worker count within the mapping. It never
	// changes response bytes (docs/CONCURRENCY.md) and is clamped so
	// workers × inner stays within the server's CPU budget.
	InnerParallel int `json:"inner_parallel,omitempty"`
	// AnnealMoves, AnnealRestarts and AnnealCooling configure the
	// annealing placer for the "anneal" heuristic and opt it into
	// "portfolio" when anneal_moves > 0 (see core.Options); zeros
	// resolve to the documented defaults.
	AnnealMoves    int     `json:"anneal_moves,omitempty"`
	AnnealRestarts int     `json:"anneal_restarts,omitempty"`
	AnnealCooling  float64 `json:"anneal_cooling,omitempty"`
	// Backend selects the target architecture: "ion" (default) or
	// "swap" (core.BackendNames). Part of the request identity —
	// the same circuit on different backends caches separately.
	Backend string `json:"backend,omitempty"`
	// Noise, when present, scores the mapping with the noise model:
	// the report's metrics gain p_fail and echo the params. Absent
	// means unscored, whose response bytes are identical to the
	// pre-noise schema.
	Noise *noise.Params `json:"noise,omitempty"`
	// Trace includes the full micro-command trace in the report.
	Trace bool `json:"trace,omitempty"`
}

// Report is the deterministic mapping report: the POST /map response
// body and the `qspr -report` output are these exact bytes, which is
// what lets the service's correctness be pinned byte-for-byte against
// the CLI. Every field is a pure function of (circuit, fabric,
// normalized options) — no wall-clock time, no server state.
type Report struct {
	// Circuit is the canonical content-addressed circuit name: the
	// canonicalized registry spec, or "inline:<digest>" for inline
	// programs.
	Circuit string `json:"circuit"`
	// Fabric is the built-in fabric name ("quale45x85", "small") or
	// the fabric file path for CLI runs.
	Fabric string `json:"fabric"`
	// Heuristic, M, Seed and Patience echo the normalized options the
	// mapping ran under (defaults filled in).
	Heuristic string `json:"heuristic"`
	// Backend echoes the target architecture only when it is not the
	// ion default, so every pre-backend report's bytes are unchanged.
	Backend  string `json:"backend,omitempty"`
	M        int    `json:"m"`
	Seed     int64  `json:"seed"`
	Patience int    `json:"patience"`
	// Noise echoes the scoring params when the mapping was scored
	// (the metrics then carry p_fail); absent otherwise.
	Noise *noise.Params `json:"noise,omitempty"`
	// Metrics are the deterministic per-run measurements, in exactly
	// the shape of the sweep reports (experiment.Metrics).
	Metrics *experiment.Metrics `json:"metrics"`
	// Trace is the micro-command trace, present only when requested.
	Trace *trace.Trace `json:"trace,omitempty"`
}

// NewReport assembles the deterministic report for one mapping
// result. circuit must already be the canonical content-addressed
// name (see InlineName and circuits.Resolve); opts are normalized
// here so the echoed knobs always show the resolved defaults. np,
// when non-nil, scores the result's trace with the noise model:
// metrics gain p_fail and the report echoes the params — a nil np
// leaves the bytes exactly as the pre-noise schema rendered them.
func NewReport(circuit, fabricName string, opts core.Options, res *core.Result, withTrace bool, np *noise.Params) (*Report, error) {
	n, err := opts.Normalize()
	if err != nil {
		return nil, err
	}
	rep := &Report{
		Circuit:   circuit,
		Fabric:    fabricName,
		Heuristic: res.Heuristic.String(),
		Backend:   n.Backend,
		M:         n.Seeds,
		Seed:      n.Seed,
		Patience:  n.Patience,
		Metrics:   experiment.MetricsFrom(res),
	}
	if np != nil {
		// Placement is indexed by qubit, so its length is the qubit
		// count of the mapped program.
		if err := rep.Metrics.ScoreNoise(res, len(res.Mapping.Initial), *np); err != nil {
			return nil, fmt.Errorf("serve: %w", err)
		}
		rep.Noise = np
	}
	if withTrace {
		if res.Mapping.Trace == nil {
			return nil, fmt.Errorf("serve: mapping result carries no trace")
		}
		rep.Trace = res.Mapping.Trace
	}
	return rep, nil
}

// MarshalBytes renders the report's canonical byte form: compact JSON
// plus a trailing newline. These are the bytes /map serves, the cache
// stores, and `qspr -report` writes.
func (rep *Report) MarshalBytes() ([]byte, error) {
	b, err := json.Marshal(rep)
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// Encode writes MarshalBytes to w.
func (rep *Report) Encode(w io.Writer) error {
	b, err := rep.MarshalBytes()
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// InlineName is the canonical content-addressed name of an inline
// program: "inline:" + the first 12 hex chars of the source's sha256.
// The same derivation serves `qspr -qasm` reports and inline /map
// requests, so a file POSTed verbatim gets the file's CLI name.
func InlineName(src []byte) string {
	sum := sha256.Sum256(src)
	return "inline:" + hex.EncodeToString(sum[:6])
}
