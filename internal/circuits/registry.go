// Circuit-source registry: circuits become a first-class, open-ended
// input rather than a hard-coded list. A source spec is either the
// table label of a built-in QECC benchmark ("[[7,1,3]]"), the name of
// a parameterized generator family ("rand(q=20,g=400,seed=7)"), or an
// external QASM file ("qasm(path=bench.qasm)", either dialect). All
// generator families are deterministic in their parameters, so a spec
// string identifies the exact same circuit in every process — the
// property sharded and resumed sweeps rely on. File-backed sources
// uphold the same property by stamping the file's content digest into
// the canonical name: a resume or merge against an edited file is a
// name mismatch, not a silently mixed report.

package circuits

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"os"
	"sort"
	"strconv"
	"strings"

	"repro/internal/qasm"
	"repro/internal/qasmgen"
)

// family describes one generator-backed benchmark family.
type family struct {
	// params lists accepted keys in canonical order; required keys
	// have no default.
	params []paramSpec
	// build constructs the program from resolved parameters. It runs
	// before the canonical name is rendered and may rewrite the params
	// (the qasm family stamps the file's content digest, hashed from
	// the same bytes it parses).
	build func(p map[string]string) (*qasm.Program, error)
	// size bounds the qubits and gates build would emit, from the
	// resolved parameters alone. It is nil for the qasm family, whose
	// size is known only once its file is read.
	size func(p map[string]string) (qubits, gates int, err error)
	// usage is the one-line signature shown in errors and -list.
	usage string
	// doc is a short description of the family.
	doc string
}

type paramSpec struct {
	key string
	// def is the default value; "" means required.
	def string
}

// families is the registry of generator-backed circuit sources, in
// the order Families lists them.
var familyOrder = []string{"rand", "ghz", "brickwork", "ring", "star", "grid", "steane-syndrome", "qasm"}

var families = map[string]family{
	"rand": {
		params: []paramSpec{{"q", ""}, {"g", ""}, {"frac", "0.5"}, {"seed", "1"}},
		usage:  "rand(q=<qubits>,g=<gates>,frac=0.5,seed=1)",
		doc:    "seeded random Clifford circuit (frac = one-qubit-gate fraction)",
		build: func(p map[string]string) (*qasm.Program, error) {
			q, err := intParam(p, "q")
			if err != nil {
				return nil, err
			}
			g, err := intParam(p, "g")
			if err != nil {
				return nil, err
			}
			frac, err := strconv.ParseFloat(p["frac"], 64)
			if err != nil {
				return nil, fmt.Errorf("frac=%q is not a number", p["frac"])
			}
			seed, err := strconv.ParseInt(p["seed"], 10, 64)
			if err != nil {
				return nil, fmt.Errorf("seed=%q is not an integer", p["seed"])
			}
			return qasmgen.RandomClifford(q, g, frac, seed)
		},
		size: func(p map[string]string) (int, int, error) {
			return intParams2(p, "q", "g")
		},
	},
	"ghz": {
		params: []paramSpec{{"q", ""}},
		usage:  "ghz(q=<qubits>)",
		doc:    "GHZ preparation: H + CNOT chain (maximal depth, minimal parallelism)",
		build: func(p map[string]string) (*qasm.Program, error) {
			q, err := intParam(p, "q")
			if err != nil {
				return nil, err
			}
			return qasmgen.GHZ(q)
		},
		size: func(p map[string]string) (int, int, error) {
			q, err := intParam(p, "q")
			return q, q, err // H, then a CNOT per further qubit
		},
	},
	"brickwork": {
		params: []paramSpec{{"q", ""}, {"layers", "1"}},
		usage:  "brickwork(q=<qubits>,layers=1)",
		doc:    "alternating layers of disjoint two-qubit gates (maximal parallelism)",
		build: func(p map[string]string) (*qasm.Program, error) {
			q, err := intParam(p, "q")
			if err != nil {
				return nil, err
			}
			layers, err := intParam(p, "layers")
			if err != nil {
				return nil, err
			}
			return qasmgen.BrickworkLayers(q, layers)
		},
		size: func(p map[string]string) (int, int, error) {
			q, layers, err := intParams2(p, "q", "layers")
			return q, satMul(layers, max(q, 0)/2), err
		},
	},
	"ring": {
		params: []paramSpec{{"q", ""}, {"layers", "1"}},
		usage:  "ring(q=<qubits>,layers=1)",
		doc:    "interaction graph is the q-cycle",
		build: func(p map[string]string) (*qasm.Program, error) {
			q, err := intParam(p, "q")
			if err != nil {
				return nil, err
			}
			layers, err := intParam(p, "layers")
			if err != nil {
				return nil, err
			}
			return qasmgen.Ring(q, layers)
		},
		size: func(p map[string]string) (int, int, error) {
			q, layers, err := intParams2(p, "q", "layers")
			return q, satAdd(q, satMul(layers, q)), err // an H per qubit, a gate per edge per layer
		},
	},
	"star": {
		params: []paramSpec{{"q", ""}, {"layers", "1"}},
		usage:  "star(q=<qubits>,layers=1)",
		doc:    "interaction graph is the q-star (hub qubit 0)",
		build: func(p map[string]string) (*qasm.Program, error) {
			q, err := intParam(p, "q")
			if err != nil {
				return nil, err
			}
			layers, err := intParam(p, "layers")
			if err != nil {
				return nil, err
			}
			return qasmgen.Star(q, layers)
		},
		size: func(p map[string]string) (int, int, error) {
			q, layers, err := intParams2(p, "q", "layers")
			return q, satAdd(q, satMul(layers, max(q, 1)-1)), err
		},
	},
	"grid": {
		params: []paramSpec{{"rows", ""}, {"cols", ""}, {"layers", "1"}},
		usage:  "grid(rows=<r>,cols=<c>,layers=1)",
		doc:    "interaction graph is the rows×cols nearest-neighbor grid",
		build: func(p map[string]string) (*qasm.Program, error) {
			rows, err := intParam(p, "rows")
			if err != nil {
				return nil, err
			}
			cols, err := intParam(p, "cols")
			if err != nil {
				return nil, err
			}
			layers, err := intParam(p, "layers")
			if err != nil {
				return nil, err
			}
			return qasmgen.Grid(rows, cols, layers)
		},
		size: func(p map[string]string) (int, int, error) {
			rows, cols, err := intParams2(p, "rows", "cols")
			if err != nil {
				return 0, 0, err
			}
			layers, err := intParam(p, "layers")
			q := satMul(rows, cols)
			edges := satAdd(satMul(rows, max(cols, 1)-1), satMul(cols, max(rows, 1)-1))
			return q, satAdd(q, satMul(layers, edges)), err
		},
	},
	"steane-syndrome": {
		params: []paramSpec{},
		usage:  "steane-syndrome",
		doc:    "one syndrome-extraction round of the Steane code (7 data + 6 ancilla)",
		build: func(map[string]string) (*qasm.Program, error) {
			return qasmgen.SteaneSyndrome()
		},
		size: func(map[string]string) (int, int, error) {
			return 13, 36, nil // 7 data + 6 ancillas; 3×7 X-type + 3×5 Z-type gates
		},
	},
	"qasm": {
		params: []paramSpec{{"path", ""}, {"sha256", "auto"}},
		usage:  "qasm(path=<file>,sha256=auto)",
		doc:    "external QASM file (QUALE-style or OpenQASM 2.0, auto-detected; sha256 pins the contents)",
		build: func(p map[string]string) (*qasm.Program, error) {
			data, err := os.ReadFile(p["path"])
			if err != nil {
				return nil, fmt.Errorf("qasm: %w", err)
			}
			if err := stampDigest(p, data); err != nil {
				return nil, err
			}
			prog, err := qasm.ParseString(string(data))
			if err != nil {
				return nil, fmt.Errorf("%s: %w", p["path"], err)
			}
			return prog, nil
		},
	},
}

// stampDigest replaces the sha256 parameter with the content digest
// (first 12 hex chars) of the bytes the program is built from, so the
// canonical spec — and hence checkpoint/resume run identity — tracks
// the file's contents, not just its path. A user-supplied sha256
// pins the expected contents and is verified against the bytes.
func stampDigest(p map[string]string, data []byte) error {
	sum := sha256.Sum256(data)
	full := hex.EncodeToString(sum[:])
	digest := full[:12]
	if want := p["sha256"]; want != "auto" {
		// A pin that verifies almost nothing (one hex char matches
		// 1/16 of all files) or is a typo'd keyword must not pass
		// silently as if it checked the contents.
		w := strings.ToLower(want)
		if len(w) < 8 || len(w) > len(full) || !isHex(w) {
			return fmt.Errorf("sha256=%q must be 8-%d hex digits (or the default \"auto\")", want, len(full))
		}
		if !strings.HasPrefix(full, w) {
			return fmt.Errorf("file %s has sha256 %s… but the spec pins sha256=%s (file changed?)",
				p["path"], digest, want)
		}
	}
	p["sha256"] = digest
	return nil
}

func isHex(s string) bool {
	for _, c := range s {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

func intParam(p map[string]string, key string) (int, error) {
	v, err := strconv.Atoi(p[key])
	if err != nil {
		return 0, fmt.Errorf("%s=%q is not an integer", key, p[key])
	}
	return v, nil
}

func intParams2(p map[string]string, k1, k2 string) (int, int, error) {
	a, err := intParam(p, k1)
	if err != nil {
		return 0, 0, err
	}
	b, err := intParam(p, k2)
	return a, b, err
}

// satMul and satAdd are the size bounds' arithmetic: they count a
// negative operand (which build rejects) as 0 and saturate at
// math.MaxInt instead of overflowing.
func satMul(a, b int) int {
	a, b = max(a, 0), max(b, 0)
	if a != 0 && b > math.MaxInt/a {
		return math.MaxInt
	}
	return a * b
}

func satAdd(a, b int) int {
	a, b = max(a, 0), max(b, 0)
	if b > math.MaxInt-a {
		return math.MaxInt
	}
	return a + b
}

// Families lists the generator family signatures with their
// one-line descriptions, for -list style help output.
func Families() []string {
	out := make([]string, 0, len(familyOrder))
	for _, name := range familyOrder {
		f := families[name]
		out = append(out, fmt.Sprintf("%s — %s", f.usage, f.doc))
	}
	return out
}

// Resolve turns a circuit-source spec into a Benchmark. A spec is
// either a built-in benchmark label (see All), a bare family name
// with no required parameters ("steane-syndrome"), or a family call
// "name(k=v,...)" such as "rand(q=20,g=400,seed=7)". The returned
// benchmark is named by the canonicalized spec (defaults filled in,
// parameters in declaration order), so the same circuit gets the
// same name in every report.
func Resolve(spec string) (Benchmark, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return Benchmark{}, fmt.Errorf("circuits: empty circuit spec")
	}
	if b, err := ByName(spec); err == nil {
		return b, nil
	}
	name, fam, resolved, err := lookup(spec)
	if err != nil {
		return Benchmark{}, err
	}
	prog, err := fam.build(resolved)
	if err != nil {
		return Benchmark{}, fmt.Errorf("circuits: %s: %w", name, err)
	}
	return Benchmark{
		Name:    canonicalSpec(strings.ToLower(name), fam, resolved),
		Program: prog,
		Source:  "generator:" + strings.ToLower(name),
	}, nil
}

// Bound is what Resolve would build from a spec, found without
// building it or reading any file.
type Bound struct {
	// Family is the lower-case family the spec calls; "" for a
	// built-in benchmark label.
	Family string
	// ReadsFile reports a family that reads a file on the resolving
	// host (qasm). Its size is unknown, and Qubits and Gates are 0.
	ReadsFile bool
	// Qubits and Gates bound the circuit from above, saturating at
	// math.MaxInt however large the spec's numbers are.
	Qubits, Gates int
}

// SpecBound parses spec as Resolve does and bounds the circuit it
// names from its parameters alone, so a caller can refuse a spec
// before paying for it. A spec Resolve rejects for its syntax, family
// or parameters is rejected with the same error.
func SpecBound(spec string) (Bound, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return Bound{}, fmt.Errorf("circuits: empty circuit spec")
	}
	once.Do(build)
	for _, b := range all {
		if b.Name == spec {
			return Bound{Qubits: b.Program.NumQubits(), Gates: len(b.Program.Instrs) - b.Program.NumQubits()}, nil
		}
	}
	name, fam, resolved, err := lookup(spec)
	if err != nil {
		return Bound{}, err
	}
	bound := Bound{Family: strings.ToLower(name)}
	if fam.size == nil {
		bound.ReadsFile = true
		return bound, nil
	}
	q, g, err := fam.size(resolved)
	if err != nil {
		return Bound{}, fmt.Errorf("circuits: %s: %w", name, err)
	}
	bound.Qubits, bound.Gates = max(q, 0), max(g, 0)
	return bound, nil
}

// lookup parses a spec that is not a built-in label into the family
// name as spelled, the family, and its parameters with the defaults
// filled in.
func lookup(spec string) (string, family, map[string]string, error) {
	name, given, hasCall, err := splitCall(spec)
	if err != nil {
		return "", family{}, nil, fmt.Errorf("circuits: %w", err)
	}
	fam, ok := families[strings.ToLower(name)]
	if !ok {
		return "", family{}, nil, fmt.Errorf("circuits: unknown benchmark or family %q (built-ins: %s; families: %s)",
			spec, strings.Join(Names(), ", "), strings.Join(familyOrder, ", "))
	}
	if !hasCall && requiredParams(fam) > 0 {
		return "", family{}, nil, fmt.Errorf("circuits: family %q needs parameters: %s", name, fam.usage)
	}
	resolved, err := resolveParams(fam, given)
	if err != nil {
		return "", family{}, nil, fmt.Errorf("circuits: %s: %w (usage: %s)", name, err, fam.usage)
	}
	return name, fam, resolved, nil
}

// splitCall splits "name(k=v,...)" into name and parameter map.
// hasCall is false for a bare name with no parentheses.
func splitCall(spec string) (name string, params map[string]string, hasCall bool, err error) {
	open := strings.IndexByte(spec, '(')
	if open < 0 {
		// A bare name may contain any characters (e.g. a typo'd QECC
		// label like "[[4,1,3]]"); the family lookup rejects it with
		// the name-listing diagnostic, which beats a syntax error.
		return spec, nil, false, nil
	}
	if !strings.HasSuffix(spec, ")") {
		return "", nil, false, fmt.Errorf("unbalanced parentheses in circuit spec %q", spec)
	}
	name = strings.TrimSpace(spec[:open])
	params = map[string]string{}
	body := spec[open+1 : len(spec)-1]
	if strings.TrimSpace(body) == "" {
		return name, params, true, nil
	}
	for _, kv := range strings.Split(body, ",") {
		eq := strings.IndexByte(kv, '=')
		if eq < 0 {
			return "", nil, false, fmt.Errorf("parameter %q is not k=v in spec %q", strings.TrimSpace(kv), spec)
		}
		k := strings.TrimSpace(kv[:eq])
		v := strings.TrimSpace(kv[eq+1:])
		if k == "" || v == "" {
			return "", nil, false, fmt.Errorf("empty parameter in spec %q", spec)
		}
		if _, dup := params[k]; dup {
			return "", nil, false, fmt.Errorf("duplicate parameter %q in spec %q", k, spec)
		}
		params[k] = v
	}
	return name, params, true, nil
}

func requiredParams(f family) int {
	n := 0
	for _, ps := range f.params {
		if ps.def == "" {
			n++
		}
	}
	return n
}

// resolveParams validates given against the family's parameter specs
// and fills defaults. Unknown and missing-required keys are errors.
func resolveParams(f family, given map[string]string) (map[string]string, error) {
	out := map[string]string{}
	known := map[string]bool{}
	for _, ps := range f.params {
		known[ps.key] = true
		if v, ok := given[ps.key]; ok {
			out[ps.key] = v
		} else if ps.def != "" {
			out[ps.key] = ps.def
		} else {
			return nil, fmt.Errorf("missing required parameter %q", ps.key)
		}
	}
	var unknown []string
	for k := range given {
		if !known[k] {
			unknown = append(unknown, k)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		return nil, fmt.Errorf("unknown parameter(s) %s", strings.Join(unknown, ", "))
	}
	return out, nil
}

// canonicalSpec renders the resolved call with parameters in
// declaration order, e.g. "rand(q=20,g=400,frac=0.5,seed=7)".
func canonicalSpec(name string, f family, params map[string]string) string {
	if len(f.params) == 0 {
		return name
	}
	parts := make([]string, 0, len(f.params))
	for _, ps := range f.params {
		parts = append(parts, ps.key+"="+params[ps.key])
	}
	return name + "(" + strings.Join(parts, ",") + ")"
}
