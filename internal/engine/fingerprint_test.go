package engine

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"testing"

	"repro/internal/circuits"
	"repro/internal/fabric"
	"repro/internal/qidg"
)

// fingerprint condenses everything observable about one engine run —
// latency, final placement, realized issue order, the full Stats
// struct and the serialized trace bytes — into one printable string.
// Any drift in event interleaving, congestion accounting or trace
// capture shows up here.
func fingerprint(t *testing.T, res *Result) string {
	t.Helper()
	var buf bytes.Buffer
	if err := res.Trace.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("lat=%d final=%x order=%x stats=%+v trace=%x",
		res.Latency, sha256.Sum256(intBytes(res.Final)),
		sha256.Sum256(intBytes(res.IssueOrder)), res.Stats,
		sha256.Sum256(buf.Bytes()))
}

func intBytes(xs []int) []byte {
	b := make([]byte, 0, len(xs)*8)
	for _, x := range xs {
		for i := 0; i < 8; i++ {
			b = append(b, byte(uint64(x)>>(8*i)))
		}
	}
	return b
}

// engineFingerprints pins the exact behaviour of the pre-refactor
// closure-based engine (PR 3 tree) on two circuits × both fabrics,
// forward and backward (forced-order) runs. The typed event queue,
// the pooled Sim state and the deferred trace capture must all leave
// these strings bit-identical: they were recorded BEFORE the engine
// core rewrite and must never be regenerated from a changed tree.
var engineFingerprints = map[string]string{
	"fig3/small/forward":           "lat=886 final=b6d19c35e481bb06bb9d86213214d0615d674609bc6453968d234a39a73350e6 order=9ac77844a65e83dbd87699fc61b993f8efeab29739e873f457577ff64375d374 stats={Moves:94 Turns:36 RoutedQubitTrips:11 Blocked:0 Evictions:0 RoutingDelay:454µs CongestionDelay:0µs GateDelay:840µs} trace=74e90d366a099e6b13cc09683afe00f9f2684fdf327b3346ce09b36690ebd3e6",
	"fig3/quale45x85/forward":      "lat=914 final=c32cdd2e934166c89536a446e7578fcc41c08b2bd24e28a49653fa14cfb35013 order=9ac77844a65e83dbd87699fc61b993f8efeab29739e873f457577ff64375d374 stats={Moves:78 Turns:28 RoutedQubitTrips:9 Blocked:0 Evictions:0 RoutingDelay:358µs CongestionDelay:0µs GateDelay:840µs} trace=21febd7596882ece4321dc0c5df78efcae1ab2d39bf5c7e1ab9cc62967cca9a3",
	"[[7,1,3]]/small/forward":      "lat=884 final=22240fc1c6d60b92354889daf23c6975493f380fe118d3ce2111f0fb1fd490da order=ee71f28849ed19fc8f7a09ce8ac5c945c33cd7347620b11ac5401828987b6749 stats={Moves:114 Turns:40 RoutedQubitTrips:13 Blocked:0 Evictions:0 RoutingDelay:514µs CongestionDelay:0µs GateDelay:1130µs} trace=a4d4f87f67498439fe9b3197ed081fff9410800746ebedf1ae736e32e635de9a",
	"[[7,1,3]]/quale45x85/forward": "lat=862 final=6264741c0800a43b84bd5b30f10a5bf87d01126b5c0182d224faf96829ce9eab order=b59e5a03fa371bfbce47096581160a3961d0e3b0c5a038dd45e2ced65ad85ceb stats={Moves:112 Turns:40 RoutedQubitTrips:16 Blocked:0 Evictions:0 RoutingDelay:512µs CongestionDelay:0µs GateDelay:1130µs} trace=93c4a79aaf6c90a4d3c5602668a5062fd666b764cdcd25e9b45ad6f3dfb9694e",
	"fig3/small/backward":          "lat=860 final=22969fc0b8e60330e464f8c94e5bb6ee8a8f529e6bf74a181ff9c19a6cc9fd0d order=1b8c4d1a7de1e57df0b320386fca4d4bcbcfe9c3699e0b9b2eada795d44d606b stats={Moves:78 Turns:30 RoutedQubitTrips:9 Blocked:0 Evictions:0 RoutingDelay:378µs CongestionDelay:0µs GateDelay:840µs} trace=15bc5aa64674cd9d08e8a99ab5f8d5c1248bf14c6eb4717acb810553a0deb2bf",
	"fig3/quale45x85/backward":     "lat=812 final=37d9d2f444cdf89324710009b3f6b2110366327fd0aae5bcd0a4ed097da823de order=1b8c4d1a7de1e57df0b320386fca4d4bcbcfe9c3699e0b9b2eada795d44d606b stats={Moves:50 Turns:16 RoutedQubitTrips:9 Blocked:0 Evictions:0 RoutingDelay:210µs CongestionDelay:0µs GateDelay:840µs} trace=da26e30944885c93bf6728f47039cba52a123ddf6d943a68bacfc3f4906e219a",
	// The [[7,1,3]] backward run on the big fabric is the one pinned
	// case that exercises the busy queue (Blocked:4) and hence the
	// congestion-delay settlement path.
	"[[7,1,3]]/small/backward":      "lat=854 final=bfb388b933ad23df7e6d4f359677fb0d7195d2c9018f3fad26af5aff00f26298 order=bbb8b9414f95a931435504f54c8d93f19b0a0ff0769a7e2347a81ade352e7f85 stats={Moves:114 Turns:42 RoutedQubitTrips:13 Blocked:0 Evictions:0 RoutingDelay:534µs CongestionDelay:0µs GateDelay:1130µs} trace=634063b76c5c34383c13f8bc12d6d087a8273021a9bdd2d7c34b2828146f0b14",
	"[[7,1,3]]/quale45x85/backward": "lat=788 final=bb51bd2959ffda2d5b954a3a21612e53c3a01fcd9922752fcf1cfb9444de05a5 order=c6653110761d21e20235e70f794757dd5fb1d18c3e5ab7cdd542b90bc3ece4cc stats={Moves:88 Turns:30 RoutedQubitTrips:14 Blocked:4 Evictions:0 RoutingDelay:388µs CongestionDelay:26µs GateDelay:1130µs} trace=f3f70a730f8d28a1c773c848fde091ef6961ec4637353b61d2193ccd4f068896",
}

func fingerprintCases(t *testing.T) []struct {
	name string
	g    *qidg.Graph
	f    *fabric.Fabric
} {
	t.Helper()
	b713, err := circuits.ByName("[[7,1,3]]")
	if err != nil {
		t.Fatal(err)
	}
	g713, err := qidg.Build(b713.Program)
	if err != nil {
		t.Fatal(err)
	}
	return []struct {
		name string
		g    *qidg.Graph
		f    *fabric.Fabric
	}{
		{"fig3/small", graphOf(t, fig3), fabric.Small()},
		{"fig3/quale45x85", graphOf(t, fig3), fabric.Quale4585()},
		{"[[7,1,3]]/small", g713, fabric.Small()},
		{"[[7,1,3]]/quale45x85", g713, fabric.Quale4585()},
	}
}

// TestEngineFingerprintsPinned runs every case forward from the
// center placement and backward (reversed graph, forced reverse issue
// order, the MVFB uncompute protocol) and compares the complete run
// fingerprint against the pre-refactor recording.
func TestEngineFingerprintsPinned(t *testing.T) {
	for _, tc := range fingerprintCases(t) {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			cfg := qsprConfig(tc.f)
			p := centerPlacement(tc.f, tc.g.NumQubits)
			fwd, err := run(tc.g, cfg, p)
			if err != nil {
				t.Fatal(err)
			}
			checkFingerprint(t, tc.name+"/forward", fingerprint(t, fwd))

			rev := tc.g.Reverse()
			order := make([]int, len(fwd.IssueOrder))
			for i, n := range fwd.IssueOrder {
				order[len(order)-1-i] = n
			}
			bcfg := cfg
			bcfg.ForcedOrder = order
			bwd, err := run(rev, bcfg, fwd.Final)
			if err != nil {
				t.Fatal(err)
			}
			checkFingerprint(t, tc.name+"/backward", fingerprint(t, bwd))
		})
	}
}

func checkFingerprint(t *testing.T, key, got string) {
	t.Helper()
	want, ok := engineFingerprints[key]
	if !ok {
		t.Errorf("no pre-refactor fingerprint recorded for %s:\n\t%q: %q,", key, key, got)
		return
	}
	if got != want {
		t.Errorf("%s fingerprint drifted from the pre-refactor engine:\n got %s\nwant %s", key, got, want)
	}
}
