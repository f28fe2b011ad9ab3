package viz

import (
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/fabric"
	"repro/internal/gates"
	"repro/internal/qasm"
	"repro/internal/qidg"
	"repro/internal/routegraph"
	"repro/internal/sched"
	"repro/internal/trace"
)

func mappedTrace(t *testing.T) (*trace.Trace, *routegraph.Graph, int) {
	t.Helper()
	src := `
QUBIT a,0
QUBIT b,0
QUBIT c,0
H a
C-X a,b
C-Z b,c
C-Y a,c
`
	p, err := qasm.ParseString(src)
	if err != nil {
		t.Fatal(err)
	}
	g, err := qidg.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	fab := fabric.Quale4585()
	cfg := engine.Config{
		Fabric: fab, Tech: gates.Default(),
		Policy: sched.QSPR, Weights: sched.DefaultWeights(),
		TurnAware: true, BothMove: true, MedianTarget: true, CollectTrace: true,
	}
	order := fab.TrapsByDistance(fabric.Pos{Row: 10, Col: 10})
	res, err := engine.NewSim().Run(g, cfg, engine.Placement{order[0], order[1], order[4]})
	if err != nil {
		t.Fatal(err)
	}
	rg := routegraph.New(fab, cfg.Tech, routegraph.Options{TurnAware: true})
	return res.Trace, rg, p.NumQubits()
}

func TestGanttShape(t *testing.T) {
	tr, _, nq := mappedTrace(t)
	out := Gantt(tr, nq, 60)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != nq+1 {
		t.Fatalf("gantt has %d lines, want %d", len(lines), nq+1)
	}
	for _, l := range lines[1:] {
		if !strings.Contains(l, "|") {
			t.Errorf("row lacks frame: %q", l)
		}
	}
	// Every qubit participates in a two-qubit gate, so each row shows
	// at least one 'G'.
	for i, l := range lines[1:] {
		if !strings.ContainsRune(l, 'G') {
			t.Errorf("qubit %d row has no gate mark: %q", i, l)
		}
	}
}

func TestGanttDegenerate(t *testing.T) {
	if Gantt(&trace.Trace{}, 3, 40) != "" {
		t.Error("empty trace should render empty")
	}
	tr := &trace.Trace{}
	tr.Add(trace.Op{Kind: trace.OpGate, Start: 0, End: 10, Gate: gates.H, Node: 0, Trap: 0, Edge: -1}.WithQubits(0))
	if Gantt(tr, 0, 40) != "" {
		t.Error("zero qubits should render empty")
	}
	out := Gantt(tr, 1, 3) // width clamps to 10
	if !strings.Contains(out, "|gggggggggg|") {
		t.Errorf("single gate trace rendering:\n%s", out)
	}
}

func TestChannelUtilizationNonEmpty(t *testing.T) {
	tr, rg, _ := mappedTrace(t)
	use := ChannelUtilization(tr, rg)
	if len(use) == 0 {
		t.Fatal("no channel utilization recorded")
	}
	var total gates.Time
	for _, u := range use {
		if u <= 0 {
			t.Error("non-positive utilization entry")
		}
		total += u
	}
	// Total channel time must equal total movement time in the trace.
	var moveTime gates.Time
	for _, op := range tr.Ops {
		if op.Kind != trace.OpGate {
			moveTime += op.Duration()
		}
	}
	// Turn ops charged to junction groups are excluded from channel
	// utilization, so total <= moveTime.
	if total > moveTime {
		t.Errorf("channel time %v exceeds movement time %v", total, moveTime)
	}
}

func TestHeatmapShape(t *testing.T) {
	tr, rg, _ := mappedTrace(t)
	out := Heatmap(tr, rg)
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != rg.Fabric.Rows+1 {
		t.Fatalf("heatmap has %d lines, want %d", len(lines), rg.Fabric.Rows+1)
	}
	for _, l := range lines[1:] {
		if len(l) != rg.Fabric.Cols {
			t.Fatalf("heatmap row width %d, want %d", len(l), rg.Fabric.Cols)
		}
	}
	body := strings.Join(lines[1:], "\n")
	hot := false
	for _, d := range "123456789" {
		if strings.ContainsRune(body, d) {
			hot = true
		}
	}
	if !hot {
		t.Error("heatmap shows no used channels")
	}
	if !strings.Contains(body, "J") || !strings.Contains(body, "T") {
		t.Error("heatmap lost fabric landmarks")
	}
}

func TestTopChannelsSorted(t *testing.T) {
	tr, rg, _ := mappedTrace(t)
	top := TopChannels(tr, rg, 5)
	if len(top) == 0 {
		t.Fatal("no top channels")
	}
	for i := 1; i < len(top); i++ {
		if top[i].Time > top[i-1].Time {
			t.Error("top channels not sorted")
		}
	}
	all := TopChannels(tr, rg, 1<<30)
	if len(TopChannels(tr, rg, 2)) > 2 {
		t.Error("n not respected")
	}
	if len(all) < len(top) {
		t.Error("n larger than population truncated")
	}
}
