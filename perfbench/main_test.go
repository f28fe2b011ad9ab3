package main

import (
	"bytes"
	"encoding/json"
	"io"
	"strings"
	"testing"
)

// runBench runs the benchmark in-process and decodes its result line.
func runBench(t *testing.T, args ...string) (int, result, string) {
	t.Helper()
	var out bytes.Buffer
	code := mainErr(args, &out, io.Discard)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%v: last line is not a result: %v\n%s", args, err, out.String())
	}
	return code, res, out.String()
}

// TestShortWorkloads runs every workload at minimum size, untraced and
// traced, and checks that it passes its output checks and prints every
// metric of its kind.
func TestShortWorkloads(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.name+"/trace="+trace, func(t *testing.T) {
				code, res, out := runBench(t, "--workload", w.name, "--seconds", "0.3", "--short", "--trace", trace)
				if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("exit %d, result %+v\n%s", code, res, out)
				}
				defs := endToEnd
				if trace == "1" {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.name]
					if !ok || m.Unit != d.unit {
						t.Errorf("metric %s: %+v, want unit %s", d.name, m, d.unit)
					}
					if trace == "0" && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", d.name, m.Value)
					}
				}
			})
		}
	}
}

// TestCorruptedPinFails checks that the output checks catch a wrong
// mapping: with one pinned Table-2 latency off by one microsecond, the
// run must report failures and exit 1.
func TestCorruptedPinFails(t *testing.T) {
	saved := table2Pins[0]
	table2Pins[0].latency++
	defer func() { table2Pins[0] = saved }()
	code, res, out := runBench(t, "--workload", "table2", "--seconds", "0.1", "--short")
	if code != 1 || res.Correct || res.Failed == 0 {
		t.Fatalf("corrupted pin: exit %d, result correct=%t failed=%d\n%s", code, res.Correct, res.Failed, out)
	}
}

// TestStreamRecall checks that a serve-mix stream is a function of its
// seed and that recalls reach back recallMinAge to recallMaxAge misses,
// past what one cache tier holds.
func TestStreamRecall(t *testing.T) {
	tmpl := missTemplates(false)
	a, b := newStream(7, 1, tmpl), newStream(7, 1, tmpl)
	recalls := 0
	for i := 0; i < 5000; i++ {
		ra, rb := a.next(), b.next()
		if !bytes.Equal(ra.body, rb.body) || ra.class != rb.class {
			t.Fatalf("request %d differs between two streams of one seed: %s vs %s", i, ra.body, rb.body)
		}
		if ra.class == classRecall {
			recalls++
			if age := len(a.keys) - 1 - ra.key; age < recallMinAge || age > recallMaxAge {
				t.Fatalf("request %d recalls a key %d misses old", i, age)
			}
		}
	}
	if recalls < 400 {
		t.Errorf("%d recalls in 5000 requests, want about 500", recalls)
	}
}

func TestHighPercentile(t *testing.T) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i)
	}
	if label, _ := highPercentile(xs); label != "p99" {
		t.Errorf("1000 samples: %s, want p99", label)
	}
	if label, v := highPercentile(xs[:5]); label != "max" || v != 4 {
		t.Errorf("5 samples: %s %v, want max 4", label, v)
	}
}
