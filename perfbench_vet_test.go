package repro

import (
	"os/exec"
	"testing"
)

// TestPerfbenchVets builds, vets and tests perfbench/, the end-to-end
// benchmark. It is a module of its own that compiles against this
// module's internal packages, so `go build ./...` and `go test ./...`
// here never compile it, and an API change that breaks it would
// otherwise go unnoticed until the benchmark is run. Its own tests run
// every workload at minimum size against its output pins (the Table-2
// latencies, giant's latency, the sweep's byte-identity), so they also
// catch a change that moves a pinned output; -short skips them.
func TestPerfbenchVets(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go binary on PATH")
	}
	run := func(args ...string) {
		t.Helper()
		cmd := exec.Command(goBin, args...)
		cmd.Dir = "perfbench"
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go %v in perfbench/: %v\n%s", args, err, out)
		}
	}
	run("vet", "./...")
	if testing.Short() {
		return
	}
	run("test", "./...")
}
