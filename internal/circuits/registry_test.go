package circuits

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/qidg"
)

func TestResolveBuiltin(t *testing.T) {
	b, err := Resolve("[[7,1,3]]")
	if err != nil {
		t.Fatal(err)
	}
	if b.Name != "[[7,1,3]]" || b.Source != "synthesized" {
		t.Errorf("got %q/%q", b.Name, b.Source)
	}
}

func TestResolveRandCanonicalAndDeterministic(t *testing.T) {
	a, err := Resolve("rand(q=8,g=40,seed=7)")
	if err != nil {
		t.Fatal(err)
	}
	if want := "rand(q=8,g=40,frac=0.5,seed=7)"; a.Name != want {
		t.Errorf("canonical name %q, want %q", a.Name, want)
	}
	if a.Source != "generator:rand" {
		t.Errorf("source %q", a.Source)
	}
	// Same spec (even spelled differently) → identical circuit: the
	// contract sharded/resumed sweeps rely on.
	b, err := Resolve(" rand( seed=7, g=40 , q=8 ) ")
	if err != nil {
		t.Fatal(err)
	}
	if a.Program.String() != b.Program.String() || a.Name != b.Name {
		t.Error("same parameters resolved to different circuits")
	}
	c, err := Resolve("rand(q=8,g=40,seed=8)")
	if err != nil {
		t.Fatal(err)
	}
	if a.Program.String() == c.Program.String() {
		t.Error("different seeds produced identical circuits")
	}
}

func TestResolveTopologyFamilies(t *testing.T) {
	ring, err := Resolve("ring(q=5)")
	if err != nil {
		t.Fatal(err)
	}
	g, err := qidg.Build(ring.Program)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := g.InteractionEdges(), [][2]int{{0, 1}, {0, 4}, {1, 2}, {2, 3}, {3, 4}}; len(got) != len(want) {
		t.Fatalf("ring(q=5) interaction edges %v, want %v", got, want)
	} else {
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("ring(q=5) interaction edges %v, want %v", got, want)
			}
		}
	}
	star, err := Resolve("star(q=4,layers=2)")
	if err != nil {
		t.Fatal(err)
	}
	gs, err := qidg.Build(star.Program)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range gs.InteractionEdges() {
		if e[0] != 0 {
			t.Errorf("star edge %v does not touch the hub", e)
		}
	}
	grid, err := Resolve("grid(rows=2,cols=3)")
	if err != nil {
		t.Fatal(err)
	}
	gg, err := qidg.Build(grid.Program)
	if err != nil {
		t.Fatal(err)
	}
	// 2x3 grid: 2*2 horizontal + 3 vertical = 7 edges.
	if got := len(gg.InteractionEdges()); got != 7 {
		t.Errorf("grid(2,3) has %d interaction edges, want 7", got)
	}
}

func TestResolveQASMFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "fig3.qasm")
	if err := os.WriteFile(path, []byte(Fig3QASM), 0o644); err != nil {
		t.Fatal(err)
	}
	b, err := Resolve("qasm(path=" + path + ")")
	if err != nil {
		t.Fatal(err)
	}
	if b.Program.String() != Fig3().String() {
		t.Error("external file did not reproduce the built-in circuit")
	}
	if b.Source != "generator:qasm" {
		t.Errorf("source %q", b.Source)
	}
	// The canonical name embeds the content digest so checkpoint
	// identity tracks contents, not just the path: editing the file
	// must change the name, and a pinned digest must be verified.
	if !strings.Contains(b.Name, "sha256=") {
		t.Fatalf("canonical name %q lacks a content digest", b.Name)
	}
	if err := os.WriteFile(path, []byte(Fig3QASM+"\n// edited\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	edited, err := Resolve("qasm(path=" + path + ")")
	if err != nil {
		t.Fatal(err)
	}
	if edited.Name == b.Name {
		t.Error("edited file resolved to the same canonical name")
	}
	if _, err := Resolve("qasm(path=" + path + ",sha256=ffffffffffff)"); err == nil {
		t.Error("mismatched pinned sha256 accepted")
	}
	// A matching pin (the digest from the canonical name) is accepted;
	// pins too short to verify anything, or typo'd keywords, are not.
	digest := edited.Name[strings.Index(edited.Name, "sha256=")+len("sha256=") : len(edited.Name)-1]
	if _, err := Resolve("qasm(path=" + path + ",sha256=" + digest + ")"); err != nil {
		t.Errorf("matching pinned sha256 rejected: %v", err)
	}
	for _, pin := range []string{"a", "AUTO", "nothexdigits"} {
		if _, err := Resolve("qasm(path=" + path + ",sha256=" + pin + ")"); err == nil {
			t.Errorf("invalid pin sha256=%s accepted", pin)
		}
	}
}

func TestResolveBareFamilyWithoutParams(t *testing.T) {
	b, err := Resolve("steane-syndrome")
	if err != nil {
		t.Fatal(err)
	}
	if b.Program.NumQubits() != 13 {
		t.Errorf("steane-syndrome has %d qubits, want 13", b.Program.NumQubits())
	}
}

func TestResolveErrors(t *testing.T) {
	cases := []struct {
		spec, wantSub string
	}{
		{"", "empty circuit spec"},
		{"nosuch", "unknown benchmark or family"},
		{"nosuch(q=3)", "unknown benchmark or family"},
		{"[[4,1,3]]", "unknown benchmark or family"},
		{"rand", "needs parameters"},
		{"rand(q=8)", `missing required parameter "g"`},
		{"rand(q=8,g=10,bogus=1)", "unknown parameter(s) bogus"},
		{"rand(q=8,g=ten)", "not an integer"},
		{"rand(q=8,g=10,q=9)", "duplicate parameter"},
		{"rand(q=8,g=10", "unbalanced parentheses"},
		{"rand(q)", "not k=v"},
		{"ghz(q=1)", "at least 2 qubits"},
		{"star(q=0)", "at least 2 qubits"},
		{"star(q=-3)", "at least 2 qubits"},
	}
	for _, tc := range cases {
		_, err := Resolve(tc.spec)
		if err == nil {
			t.Errorf("Resolve(%q): no error", tc.spec)
			continue
		}
		if !strings.Contains(err.Error(), tc.wantSub) {
			t.Errorf("Resolve(%q) = %q, want mention of %q", tc.spec, err, tc.wantSub)
		}
	}
}

func TestFamiliesListed(t *testing.T) {
	fams := Families()
	if len(fams) != len(familyOrder) {
		t.Fatalf("Families() lists %d entries, registry has %d", len(fams), len(familyOrder))
	}
	for _, f := range fams {
		if !strings.Contains(f, "—") {
			t.Errorf("family line %q has no description", f)
		}
	}
}

// TestSpecBound: SpecBound bounds the circuit Resolve builds without
// building it (exactly, for every family but brickwork, whose odd
// layers are one gate short), saturates instead of overflowing on
// huge parameters, rejects what Resolve rejects, and marks the qasm
// family, in any spelling, as reading a file without touching one.
func TestSpecBound(t *testing.T) {
	for _, spec := range []string{
		"[[7,1,3]]", "rand(q=5,g=17)", "ghz(q=7)", "brickwork(q=7,layers=3)",
		"ring(q=5,layers=2)", "star(q=6,layers=2)", "grid(rows=3,cols=4,layers=2)", "steane-syndrome",
	} {
		b, err := SpecBound(spec)
		if err != nil {
			t.Fatalf("SpecBound(%q): %v", spec, err)
		}
		c, err := Resolve(spec)
		if err != nil {
			t.Fatal(err)
		}
		q, g := c.Program.NumQubits(), len(c.Program.Gates())
		if b.Qubits != q || b.Gates < g || (b.Gates != g && !strings.HasPrefix(spec, "brickwork")) {
			t.Errorf("SpecBound(%q) = %d qubits, %d gates; circuit has %d, %d", spec, b.Qubits, b.Gates, q, g)
		}
	}
	huge := "9223372036854775807"
	for _, spec := range []string{
		"rand(q=2,g=" + huge + ")",
		"ring(q=" + huge + ",layers=" + huge + ")",
		"grid(rows=4294967296,cols=4294967296,layers=" + huge + ")",
		"star(q=-9223372036854775808,layers=" + huge + ")",
	} {
		b, err := SpecBound(spec)
		if err != nil {
			t.Fatalf("SpecBound(%q): %v", spec, err)
		}
		if b.Qubits < 0 || b.Gates < 0 || (b.Gates != math.MaxInt && !strings.HasPrefix(spec, "star")) {
			t.Errorf("SpecBound(%q) = %+v, want gates saturated at MaxInt", spec, b)
		}
	}
	for _, spec := range []string{"", "nosuch", "rand(q=8)", "rand(q=x,g=3)", "ghz(q=4,bogus=1)"} {
		if _, err := SpecBound(spec); err == nil {
			t.Errorf("SpecBound(%q): no error", spec)
		} else if _, rerr := Resolve(spec); rerr == nil || rerr.Error() != err.Error() {
			t.Errorf("SpecBound(%q) error %q, Resolve's %v", spec, err, rerr)
		}
	}
	missing := filepath.Join(t.TempDir(), "missing.qasm")
	for _, spec := range []string{"qasm(path=" + missing + ")", "QASM(path=" + missing + ")", " qasm(path=" + missing + ")"} {
		b, err := SpecBound(spec)
		if err != nil || b != (Bound{Family: "qasm", ReadsFile: true}) {
			t.Errorf("SpecBound(%q) = %+v, %v; want the qasm family marked as reading a file", spec, b, err)
		}
	}
}

// TestGridOverflowRejected: a grid whose rows×cols overflows int is
// refused, by name, before a cell is visited. The first product wraps
// negative; the second wraps to 4 and would otherwise pass as a
// 4-qubit grid and walk 2^62 columns, so the first case's Fatalf
// keeps a build without the check from ever reaching it.
func TestGridOverflowRejected(t *testing.T) {
	side := int(math.Sqrt(float64(math.MaxInt))) + 1
	for _, dims := range [][2]int{{side, side}, {4, math.MaxInt/2 + 2}} {
		spec := fmt.Sprintf("grid(rows=%d,cols=%d)", dims[0], dims[1])
		want := fmt.Sprintf("grid %dx%d has more qubits than an int can count", dims[0], dims[1])
		if _, err := Resolve(spec); err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("Resolve(%q) = %v, want an error containing %q", spec, err, want)
		}
	}
}
