package main

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/circuits"
)

// TestCodeEmitsBuiltinProgram: -code prints exactly the registry
// program's QASM text, so a file written from it and mapped with
// `qspr -qasm` is the built-in circuit (TestGoldenQASMIngestionEquivalence
// maps that text to the pinned Table-2 latencies).
func TestCodeEmitsBuiltinProgram(t *testing.T) {
	for _, code := range []string{"[[5,1,3]]", "[[9,1,3]]"} {
		b, err := circuits.ByName(code)
		if err != nil {
			t.Fatal(err)
		}
		var out, errb bytes.Buffer
		if rc := run([]string{"-code", code}, &out, &errb); rc != 0 {
			t.Fatalf("qecc -code %s: code %d: %s", code, rc, errb.String())
		}
		if out.String() != b.Program.String() {
			t.Errorf("qecc -code %s printed:\n%s\nwant:\n%s", code, out.String(), b.Program.String())
		}
	}
}

// TestListAndGens: -list names every built-in code and -gens prints
// the n−k generators of a known code.
func TestListAndGens(t *testing.T) {
	var out, errb bytes.Buffer
	if rc := run([]string{"-list"}, &out, &errb); rc != 0 {
		t.Fatalf("-list: code %d: %s", rc, errb.String())
	}
	for _, b := range circuits.All() {
		if !strings.Contains(out.String(), b.Name) {
			t.Errorf("-list misses %s", b.Name)
		}
	}
	out.Reset()
	if rc := run([]string{"-code", "[[5,1,3]]", "-gens"}, &out, &errb); rc != 0 {
		t.Fatalf("-gens: code %d: %s", rc, errb.String())
	}
	if got := strings.Count(out.String(), "\n"); got != 4 {
		t.Errorf("[[5,1,3]] -gens printed %d generators, want 4:\n%s", got, out.String())
	}
}

// TestRunReturnsInsteadOfExit: failures come back as exit codes with
// a qecc-prefixed diagnostic, never as os.Exit.
func TestRunReturnsInsteadOfExit(t *testing.T) {
	cases := []struct {
		args []string
		code int
		msg  string
	}{
		{nil, 1, "qecc: -code or -list required"},
		{[]string{"-code", "[[4,1,3]]"}, 1, "qecc: "},
		{[]string{"-code", "[[4,1,3]]", "-gens"}, 1, `qecc: unknown code "[[4,1,3]]"`},
		{[]string{"-not-a-flag"}, 2, "flag provided but not defined"},
	}
	for _, tc := range cases {
		var out, errb bytes.Buffer
		if rc := run(tc.args, &out, &errb); rc != tc.code || !strings.Contains(errb.String(), tc.msg) {
			t.Errorf("qecc %v: code %d, stderr %q; want %d and %q", tc.args, rc, errb.String(), tc.code, tc.msg)
		}
	}
}
