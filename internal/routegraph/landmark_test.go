package routegraph

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/fabric"
	"repro/internal/gates"
)

// refLandmarks is the landmark construction that the radix-heap one
// replaced, kept as the reference: farthest-point selection over a
// binary-heap SSSP per landmark that reads each slot's Edge and Group,
// and exact int64 tables.
func refLandmarks(g *Graph, count int) ([]int32, []gates.Time) {
	n := len(g.Nodes)
	count = min(count, altDefaultLandmarks, n)
	var landmarks []int32
	var dist []gates.Time
	minDist := make([]gates.Time, n)
	for i := range minDist {
		minDist[i] = timeInf
	}
	fromZero := make([]gates.Time, n)
	refSSSP(g, 0, fromZero)
	for len(landmarks) < count {
		var next int32
		if len(landmarks) == 0 {
			next = farthest(fromZero)
		} else {
			next = farthest(minDist)
		}
		landmarks = append(landmarks, next)
		row := make([]gates.Time, n)
		refSSSP(g, next, row)
		dist = append(dist, row...)
		improved := false
		for v := 0; v < n; v++ {
			if row[v] < minDist[v] {
				minDist[v] = row[v]
				improved = true
			}
		}
		if !improved && len(landmarks) < count {
			break
		}
	}
	return landmarks, dist
}

// refSSSP is the reference's binary-heap Dijkstra over the
// uncongested SelectBase weights, skipping capacity-0 groups.
func refSSSP(g *Graph, src int32, out []gates.Time) {
	for i := range out {
		out[i] = timeInf
	}
	type qn struct {
		node int32
		dist gates.Time
	}
	var heap []qn
	push := func(x qn) {
		heap = append(heap, x)
		for j := len(heap) - 1; j > 0; {
			i := (j - 1) / 2
			if !(heap[j].dist < heap[i].dist) {
				break
			}
			heap[i], heap[j] = heap[j], heap[i]
			j = i
		}
	}
	pop := func() qn {
		n := len(heap) - 1
		heap[0], heap[n] = heap[n], heap[0]
		for i := 0; ; {
			j := 2*i + 1
			if j >= n {
				break
			}
			if j+1 < n && heap[j+1].dist < heap[j].dist {
				j++
			}
			if !(heap[j].dist < heap[i].dist) {
				break
			}
			heap[i], heap[j] = heap[j], heap[i]
			i = j
		}
		x := heap[n]
		heap = heap[:n]
		return x
	}
	out[src] = 0
	push(qn{node: src})
	for len(heap) > 0 {
		cur := pop()
		if cur.dist > out[cur.node] {
			continue
		}
		for k := g.edgeStart[cur.node]; k < g.edgeStart[cur.node+1]; k++ {
			e := &g.Edges[g.edgeList[k]]
			if g.Groups[e.Group].Capacity <= 0 {
				continue
			}
			nd := cur.dist + e.SelectBase
			if nx := g.edgeOther[k]; nd < out[nx] {
				out[nx] = nd
				push(qn{node: nx, dist: nd})
			}
		}
	}
}

// TestLandmarkTablesMatchReference: the radix-heap landmark build
// picks the reference's landmarks and stores its tables
// saturated at math.MaxInt32, on the paper fabrics and seeded
// generated fabrics, under both metrics, with and without random
// defective channels and junctions, and under a technology whose
// turns are too slow for an int32 distance (TurnDelay = 1<<40).
func TestLandmarkTablesMatchReference(t *testing.T) {
	slowTurns := gates.Default()
	slowTurns.TurnDelay = 1 << 40
	techs := []struct {
		name string
		tech gates.Tech
	}{{"default", gates.Default()}, {"turn=2^40", slowTurns}}
	specs := []string{"grid(rows=9,cols=9,pitch=4)", "grid(rows=45,cols=85,pitch=4)"}
	rng := rand.New(rand.NewSource(4242))
	n := 6
	if testing.Short() {
		n = 3
	}
	for len(specs) < 2+n {
		specs = append(specs, randomFamilySpec(rng))
	}
	saturated := 0
	for _, spec := range specs {
		f, _, err := fabric.Resolve(spec)
		if err != nil {
			continue // a single-core multicore draw is invalid by design
		}
		for _, tc := range techs {
			for _, aware := range []bool{true, false} {
				for _, defective := range []bool{false, true} {
					opts := Options{TurnAware: aware, Landmarks: altDefaultLandmarks}
					if defective {
						opts.DefectiveChannels = randomDefects(rng, len(f.Channels), 0.08)
						opts.DefectiveJunctions = randomDefects(rng, len(f.Junctions), 0.05)
					}
					name := fmt.Sprintf("%s/%s/aware=%v/defects=%v", spec, tc.name, aware, defective)
					g := New(f, tc.tech, opts)
					wantL, wantD := refLandmarks(g, opts.Landmarks)
					if fmt.Sprint(g.Landmarks()) != fmt.Sprint(wantL) {
						t.Fatalf("%s: landmarks %v, reference %v", name, g.Landmarks(), wantL)
					}
					if len(g.alt.dist) != len(wantD) {
						t.Fatalf("%s: %d table entries, reference %d", name, len(g.alt.dist), len(wantD))
					}
					for i, d := range wantD {
						want := int32(math.MaxInt32)
						if d < math.MaxInt32 {
							want = int32(d)
						} else if d != timeInf {
							saturated++
						}
						if got := g.alt.dist[i]; got != want {
							t.Fatalf("%s: landmark %d node %d: table %d, reference %d (exact %d)",
								name, i/len(g.Nodes), i%len(g.Nodes), got, want, d)
						}
					}
				}
			}
		}
	}
	if saturated == 0 {
		t.Error("no reachable distance reached MaxInt32; the saturation case went untested")
	}

	// A mis-ordered queue can still fill exact tables, because a
	// node popped early is re-relaxed when its label drops, so the
	// queue is checked on its own: interleaved pushes of keys at or
	// above the last popped key (Dijkstra's pattern; zero, small and
	// 2^40-sized steps) must pop in key order.
	t.Run("radix heap pops in key order", func(t *testing.T) {
		var q radixHeap
		for round := 0; round < 40; round++ {
			q.reset()
			var pending []gates.Time
			last := gates.Time(0)
			for step := 0; step < 300; step++ {
				if len(pending) == 0 || rng.Intn(3) > 0 {
					key := last
					switch rng.Intn(3) {
					case 1:
						key += gates.Time(rng.Intn(16))
					case 2:
						key += gates.Time(rng.Int63n(1 << 41))
					}
					q.push(key, int32(step))
					pending = append(pending, key)
					continue
				}
				lo := 0
				for i, k := range pending {
					if k < pending[lo] {
						lo = i
					}
				}
				if key, _ := q.pop(); key != pending[lo] {
					t.Fatalf("round %d step %d: popped %d, minimum pending %d", round, step, key, pending[lo])
				}
				last = pending[lo]
				pending[lo] = pending[len(pending)-1]
				pending = pending[:len(pending)-1]
				if q.size != len(pending) {
					t.Fatalf("round %d step %d: heap holds %d, want %d", round, step, q.size, len(pending))
				}
			}
		}
	})
}

// TestCSRListsIncidentEdgesInIDOrder: every node's CSR slots list
// exactly the edges that touch it, in increasing edge ID, with the
// far endpoint beside each; the classic search's tie coins depend on
// that order.
func TestCSRListsIncidentEdgesInIDOrder(t *testing.T) {
	for _, f := range []*fabric.Fabric{fabric.Small(), fabric.Quale4585()} {
		g := New(f, gates.Default(), Options{TurnAware: true})
		want := make([][]int32, len(g.Nodes))
		for _, e := range g.Edges {
			want[e.A] = append(want[e.A], int32(e.ID))
			want[e.B] = append(want[e.B], int32(e.ID))
		}
		for v := range g.Nodes {
			got := g.IncidentEdges(v)
			if fmt.Sprint(got) != fmt.Sprint(want[v]) {
				t.Fatalf("%dx%d node %d: incident edges %v, want %v", f.Rows, f.Cols, v, got, want[v])
			}
			for k := g.edgeStart[v]; k < g.edgeStart[v+1]; k++ {
				e := g.Edges[g.edgeList[k]]
				if far := int(g.slots[k].other); far != e.A+e.B-v {
					t.Fatalf("node %d slot %d: far end %d, edge %d joins %d and %d", v, k, far, e.ID, e.A, e.B)
				}
			}
		}
	}
}
