package experiment

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"repro/internal/core"
)

// The Pareto report mode pivots a noise-scored sweep into its
// multi-objective answer: per (circuit, fabric) cell, the
// non-dominated set over (latency, p_fail) across every heuristic ×
// backend × m configuration that mapped the cell. A point dominates
// another when it is no worse on both axes and strictly better on at
// least one; ties on both axes are all kept (they are genuinely
// interchangeable optima). Ordering is deterministic — groups in
// first-appearance (run index) order, points by (latency, p_fail,
// run index) — so Pareto reports inherit the sweep's byte-identity
// across worker counts, shards and checkpoint resumes.

// ParetoPoint is one non-dominated configuration of a cell.
type ParetoPoint struct {
	// Index is the run's index in the sweep, tying the point back to
	// the full report row.
	Index     int    `json:"index"`
	Heuristic string `json:"heuristic"`
	// Backend is the display name ("ion", "swap").
	Backend   string  `json:"backend"`
	M         int     `json:"m"`
	LatencyUS int64   `json:"latency_us"`
	PFail     float64 `json:"p_fail"`
}

// ParetoGroup is the non-dominated set of one (circuit, fabric) cell.
type ParetoGroup struct {
	Circuit string        `json:"circuit"`
	Fabric  string        `json:"fabric"`
	Points  []ParetoPoint `json:"pareto"`
}

// Pareto computes the per-cell non-dominated sets of a noise-scored
// report. Failed runs are skipped (they have no point to place);
// a successful run without a p_fail score is an error — the sweep
// must have been run with noise scoring for latency/fidelity
// trade-offs to exist.
func (rep *Report) Pareto() ([]ParetoGroup, error) {
	type cell struct{ circuit, fabric string }
	index := map[cell]int{}
	var groups []ParetoGroup
	var pts [][]ParetoPoint
	for _, rr := range rep.Results {
		if rr.Metrics == nil {
			continue
		}
		if rr.Metrics.PFail == nil {
			return nil, fmt.Errorf("experiment: run %d (%s on %s) has no p_fail score; a Pareto report needs a noise-scored sweep (-noise)",
				rr.Index, rr.Circuit.Name, rr.Fabric.Name)
		}
		k := cell{rr.Circuit.Name, rr.Fabric.Name}
		gi, ok := index[k]
		if !ok {
			gi = len(groups)
			index[k] = gi
			groups = append(groups, ParetoGroup{Circuit: k.circuit, Fabric: k.fabric})
			pts = append(pts, nil)
		}
		pts[gi] = append(pts[gi], ParetoPoint{
			Index:     rr.Index,
			Heuristic: rr.Heuristic.String(),
			Backend:   core.BackendDisplayName(rr.Backend),
			M:         rr.Seeds,
			LatencyUS: rr.Metrics.LatencyUS,
			PFail:     *rr.Metrics.PFail,
		})
	}
	for gi := range groups {
		groups[gi].Points = paretoFront(pts[gi])
	}
	return groups, nil
}

// paretoFront filters candidates down to the non-dominated set,
// ordered by (latency, p_fail, run index).
func paretoFront(cands []ParetoPoint) []ParetoPoint {
	var front []ParetoPoint
	for i, p := range cands {
		dominated := false
		for j, q := range cands {
			if i == j {
				continue
			}
			better := q.LatencyUS < p.LatencyUS || q.PFail < p.PFail
			noWorse := q.LatencyUS <= p.LatencyUS && q.PFail <= p.PFail
			if noWorse && better {
				dominated = true
				break
			}
		}
		if !dominated {
			front = append(front, p)
		}
	}
	sort.Slice(front, func(i, j int) bool { return paretoLess(front[i], front[j]) })
	return front
}

func paretoLess(a, b ParetoPoint) bool {
	if a.LatencyUS != b.LatencyUS {
		return a.LatencyUS < b.LatencyUS
	}
	if a.PFail != b.PFail {
		return a.PFail < b.PFail
	}
	return a.Index < b.Index
}

// WritePareto emits the Pareto report in the named format (json, csv,
// markdown).
func (rep *Report) WritePareto(w io.Writer, format string) error {
	groups, err := rep.Pareto()
	if err != nil {
		return err
	}
	switch strings.ToLower(format) {
	case FormatJSON:
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(struct {
			Groups []ParetoGroup `json:"groups"`
		}{groups})
	case FormatCSV:
		cw := csv.NewWriter(w)
		if err := cw.Write([]string{"circuit", "fabric", "index", "heuristic", "backend", "m", "latency_us", "p_fail"}); err != nil {
			return err
		}
		for _, g := range groups {
			for _, p := range g.Points {
				if err := cw.Write([]string{
					g.Circuit, g.Fabric, strconv.Itoa(p.Index), p.Heuristic, p.Backend,
					strconv.Itoa(p.M), strconv.FormatInt(p.LatencyUS, 10),
					strconv.FormatFloat(p.PFail, 'g', -1, 64),
				}); err != nil {
					return err
				}
			}
		}
		cw.Flush()
		return cw.Error()
	case FormatMarkdown, "md":
		var b strings.Builder
		b.WriteString("| circuit | fabric | heuristic | backend | m | latency (µs) | p_fail |\n")
		b.WriteString("|---|---|---|---|---:|---:|---:|\n")
		for _, g := range groups {
			for _, p := range g.Points {
				fmt.Fprintf(&b, "| %s | %s | %s | %s | %d | %d | %s |\n",
					mdCell(g.Circuit), mdCell(g.Fabric), mdCell(p.Heuristic), p.Backend,
					p.M, p.LatencyUS, strconv.FormatFloat(p.PFail, 'g', -1, 64))
			}
		}
		_, err := io.WriteString(w, b.String())
		return err
	}
	return fmt.Errorf("experiment: unknown format %q (json, csv, markdown)", format)
}
