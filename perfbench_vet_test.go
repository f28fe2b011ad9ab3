package repro

import (
	"os/exec"
	"testing"
)

// TestPerfbenchVets builds and vets perfbench/, the end-to-end
// benchmark. It is a module of its own that compiles against this
// module's internal packages, so `go build ./...` and `go test ./...`
// here never compile it, and an API change that breaks it would
// otherwise go unnoticed until the benchmark is run.
func TestPerfbenchVets(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go binary on PATH")
	}
	cmd := exec.Command(goBin, "vet", "./...")
	cmd.Dir = "perfbench"
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go vet ./... in perfbench/: %v\n%s", err, out)
	}
}
