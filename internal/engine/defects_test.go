package engine

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/fabric"
	"repro/internal/routegraph"
)

// TestDefectiveChannelForcesDetour kills one channel on the shortest
// corridor between two traps; the mapping must still complete and the
// route must avoid the dead channel.
func TestDefectiveChannelForcesDetour(t *testing.T) {
	f := fabric.Quale4585()
	g := graphOf(t, "QUBIT a,0\nQUBIT b,0\nC-X a,b\n")
	ta := f.TrapsByDistance(fabric.Pos{Row: 4, Col: 40})[0]
	tb := f.TrapsByDistance(fabric.Pos{Row: 40, Col: 40})[0] // vertical corridor: crosses trapless vertical channels

	// Find the channels the healthy route uses and kill the first
	// pure channel edge (not the trap-access channels, which would
	// strand the qubits).
	healthyCfg := qsprConfig(f)
	healthy, err := Run(g, healthyCfg, Placement{ta, tb})
	if err != nil {
		t.Fatal(err)
	}
	rg := routegraph.New(f, healthyCfg.Tech, routegraph.Options{TurnAware: true})
	forbidden := -1
	access := map[int]bool{}
	for _, tr := range f.Traps {
		access[tr.Channel] = true
	}
	for _, op := range healthy.Trace.Ops {
		if op.Edge < 0 {
			continue
		}
		grp := rg.Groups[rg.Edges[op.Edge].Group]
		if grp.Kind == routegraph.ChannelGroup && !access[grp.Index] {
			forbidden = grp.Index
			break
		}
	}
	if forbidden < 0 {
		t.Skip("healthy route uses only trap-access channels")
	}
	cfg := qsprConfig(f)
	cfg.DefectiveChannels = []int{forbidden}
	res, err := Run(g, cfg, Placement{ta, tb})
	if err != nil {
		t.Fatal(err)
	}
	rgDef := routegraph.New(f, cfg.Tech, routegraph.Options{TurnAware: true, DefectiveChannels: []int{forbidden}})
	for _, op := range res.Trace.Ops {
		if op.Edge < 0 {
			continue
		}
		grp := rgDef.Groups[rgDef.Edges[op.Edge].Group]
		if grp.Kind == routegraph.ChannelGroup && grp.Index == forbidden {
			t.Fatalf("route crosses defective channel %d", forbidden)
		}
	}
	if res.Latency < healthy.Latency {
		t.Errorf("defective fabric faster (%v) than healthy (%v)?", res.Latency, healthy.Latency)
	}
}

// TestRandomDefectsStillComplete sprinkles random defective channels
// (sparing every trap-access channel) and checks mappings survive.
func TestRandomDefectsStillComplete(t *testing.T) {
	f := fabric.Quale4585()
	rng := rand.New(rand.NewSource(4))
	access := map[int]bool{}
	for _, tr := range f.Traps {
		access[tr.Channel] = true
	}
	var pool []int
	for _, ch := range f.Channels {
		if !access[ch.ID] {
			pool = append(pool, ch.ID)
		}
	}
	g := graphOf(t, fig3)
	for trial := 0; trial < 8; trial++ {
		var defects []int
		for _, ch := range pool {
			if rng.Float64() < 0.10 { // 10% channel yield loss
				defects = append(defects, ch)
			}
		}
		cfg := qsprConfig(f)
		cfg.DefectiveChannels = defects
		res, err := Run(g, cfg, centerPlacement(f, g.NumQubits))
		if err != nil {
			t.Fatalf("trial %d (%d defects): %v", trial, len(defects), err)
		}
		if err := res.Trace.Validate(); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

// TestTrapReachable reports defective access channels.
func TestTrapReachable(t *testing.T) {
	f := fabric.Small()
	dead := f.Traps[0].Channel
	rg := routegraph.New(f, qsprConfig(f).Tech, routegraph.Options{DefectiveChannels: []int{dead}})
	if rg.TrapReachable(0) {
		t.Error("trap on defective channel reported reachable")
	}
	reachable := 0
	for i := range f.Traps {
		if rg.TrapReachable(i) {
			reachable++
		}
	}
	if reachable == len(f.Traps) {
		t.Error("no trap lost reachability")
	}
	if _, ok := rg.FindRoute(1, 0); ok {
		t.Error("found route to unreachable trap")
	}
}

// TestDefectiveJunctionAvoided: a mapping on a fabric with a dead
// junction next to the qubits completes, and no traced move touches
// either of the junction's routing nodes.
func TestDefectiveJunctionAvoided(t *testing.T) {
	f := fabric.Quale4585()
	g := graphOf(t, fig3)
	p := centerPlacement(f, g.NumQubits)
	dead := f.Traps[p[0]].Channel
	junction := f.Channels[dead].J1
	cfg := qsprConfig(f)
	cfg.DefectiveJunctions = []int{junction}
	res, err := Run(g, cfg, p)
	if err != nil {
		t.Fatal(err)
	}
	rg := cfg.BuildRouteGraph()
	for _, op := range res.Trace.Ops {
		if op.Edge < 0 {
			continue
		}
		e := rg.Edges[op.Edge]
		if rg.Nodes[e.A].Junction == junction || rg.Nodes[e.B].Junction == junction {
			t.Fatalf("trace op on edge %d touches defective junction %d", op.Edge, junction)
		}
	}
}

// TestConfigRejectsOutOfRangeDefects: a defect ID naming no fabric
// element is an error that names the list and index, not a silent
// perfect fabric.
func TestConfigRejectsOutOfRangeDefects(t *testing.T) {
	f := fabric.Small()
	g := graphOf(t, "QUBIT a,0\nQUBIT b,0\nC-X a,b\n")
	for _, tc := range []struct {
		channels, junctions []int
		want                string
	}{
		{channels: []int{0, len(f.Channels)}, want: "DefectiveChannels[1]"},
		{channels: []int{-1}, want: "DefectiveChannels[0]"},
		{junctions: []int{2, 3, len(f.Junctions) + 4}, want: "DefectiveJunctions[2]"},
		{junctions: []int{-2}, want: "DefectiveJunctions[0]"},
	} {
		cfg := qsprConfig(f)
		cfg.DefectiveChannels, cfg.DefectiveJunctions = tc.channels, tc.junctions
		_, err := Run(g, cfg, Placement{0, 1})
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("channels %v junctions %v: error %v, want one naming %s", tc.channels, tc.junctions, err, tc.want)
		}
	}
}
