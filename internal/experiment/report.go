package experiment

import (
	"encoding/csv"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"text/tabwriter"

	"repro/internal/core"
)

// Formats accepted by Report.Write.
const (
	FormatJSON     = "json"
	FormatCSV      = "csv"
	FormatMarkdown = "markdown"
)

// Write emits the report in the named format (json, csv, markdown).
func (rep *Report) Write(w io.Writer, format string) error {
	switch strings.ToLower(format) {
	case FormatJSON:
		return rep.WriteJSON(w)
	case FormatCSV:
		return rep.WriteCSV(w)
	case FormatMarkdown, "md":
		return rep.WriteMarkdown(w)
	}
	return fmt.Errorf("experiment: unknown format %q (json, csv, markdown)", format)
}

// ValidateFormat rejects format names Write would reject; CLIs call
// it before starting a sweep so a typo fails fast, not after minutes
// of mapping.
func ValidateFormat(format string) error {
	switch strings.ToLower(format) {
	case FormatJSON, FormatCSV, FormatMarkdown, "md":
		return nil
	}
	return fmt.Errorf("experiment: unknown format %q (json, csv, markdown)", format)
}

// Emit writes the report, or with pareto its Pareto-front pivot, in
// the named format to path, or to stdout when path is empty — the one
// output step of the sweep CLIs.
func (rep *Report) Emit(stdout io.Writer, format, path string, pareto bool) error {
	write := rep.Write
	if pareto {
		write = rep.WritePareto
	}
	if path == "" {
		return write(stdout, format)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f, format); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// RunRecord is the serialized shape of one run: a report row, a
// checkpoint line, and the coordinator wire record are all this one
// shape, so reports assembled from any of the three agree
// byte-for-byte. Wall-clock time is deliberately absent: every field
// is a function of the run's inputs, so report bytes are reproducible
// across machines and worker counts.
type RunRecord struct {
	Index     int    `json:"index"`
	Circuit   string `json:"circuit"`
	Fabric    string `json:"fabric"`
	Heuristic string `json:"heuristic"`
	// Backend is the canonical backend value: empty for the ion
	// default (and absent from JSON, so pre-backend records and
	// checkpoints stay byte-compatible), "swap" for SWAP insertion.
	Backend string   `json:"backend,omitempty"`
	M       int      `json:"m"`
	Seed    int64    `json:"seed"`
	Error   string   `json:"error,omitempty"`
	Metrics *Metrics `json:"metrics,omitempty"`
}

// Record serializes one result; the same shape is a report row and a
// checkpoint line (checkpoint.go), so merged checkpoints reproduce
// report bytes exactly.
func (rr RunResult) Record() RunRecord {
	return RunRecord{
		Index:     rr.Index,
		Circuit:   rr.Circuit.Name,
		Fabric:    rr.Fabric.Name,
		Heuristic: rr.Heuristic.String(),
		Backend:   rr.Backend,
		M:         rr.Seeds,
		Seed:      rr.Seed,
		Error:     rr.Err,
		Metrics:   rr.Metrics,
	}
}

func (rep *Report) records() []RunRecord {
	recs := make([]RunRecord, 0, len(rep.Results))
	for _, rr := range rep.Results {
		recs = append(recs, rr.Record())
	}
	return recs
}

// WriteJSON emits the report as indented JSON: {"runs": [...]} in run
// index order.
func (rep *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(struct {
		Runs []RunRecord `json:"runs"`
	}{rep.records()})
}

// csvHeader is the fixed column set of WriteCSV.
var csvHeader = []string{
	"index", "circuit", "fabric", "heuristic", "backend", "m", "seed",
	"latency_us", "ideal_us", "overhead_us", "moves", "turns", "trips",
	"blocked", "gate_delay_us", "routing_delay_us", "congestion_delay_us",
	"placement_runs", "backward_winner", "p_fail", "placement", "error",
}

// WriteCSV emits one row per run in index order. The placement column
// joins trap IDs with ';'. Failed runs have empty metric columns and
// a non-empty error column.
func (rep *Report) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return err
	}
	for _, rec := range rep.records() {
		row := []string{
			strconv.Itoa(rec.Index), rec.Circuit, rec.Fabric, rec.Heuristic,
			core.BackendDisplayName(rec.Backend),
			strconv.Itoa(rec.M), strconv.FormatInt(rec.Seed, 10),
		}
		if m := rec.Metrics; m != nil {
			traps := make([]string, len(m.Placement))
			for i, t := range m.Placement {
				traps[i] = strconv.Itoa(t)
			}
			pfail := ""
			if m.PFail != nil {
				pfail = strconv.FormatFloat(*m.PFail, 'g', -1, 64)
			}
			row = append(row,
				strconv.FormatInt(m.LatencyUS, 10),
				strconv.FormatInt(m.IdealUS, 10),
				strconv.FormatInt(m.OverheadUS, 10),
				strconv.Itoa(m.Moves), strconv.Itoa(m.Turns), strconv.Itoa(m.Trips),
				strconv.Itoa(m.Blocked),
				strconv.FormatInt(m.GateDelayUS, 10),
				strconv.FormatInt(m.RoutingDelayUS, 10),
				strconv.FormatInt(m.CongestionDelayUS, 10),
				strconv.Itoa(m.PlacementRuns),
				strconv.FormatBool(m.BackwardWinner),
				pfail,
				strings.Join(traps, ";"),
			)
		} else {
			row = append(row, "", "", "", "", "", "", "", "", "", "", "", "", "", "")
		}
		row = append(row, rec.Error)
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// mdCell escapes a string for use inside a markdown table cell:
// pipes would add phantom columns and newlines would break the row —
// error strings from panicking runs can contain both.
func mdCell(s string) string {
	s = strings.NewReplacer("|", "\\|", "\n", " ", "\r", " ").Replace(s)
	return s
}

// WriteMarkdown emits a GitHub-flavored markdown table of the key
// metrics, one row per run in index order.
func (rep *Report) WriteMarkdown(w io.Writer) error {
	var b strings.Builder
	b.WriteString("| circuit | fabric | heuristic | backend | m | latency (µs) | ideal (µs) | overhead (µs) | moves | turns | runs | p_fail | error |\n")
	b.WriteString("|---|---|---|---|---:|---:|---:|---:|---:|---:|---:|---:|---|\n")
	for _, rec := range rep.records() {
		if m := rec.Metrics; m != nil {
			pfail := ""
			if m.PFail != nil {
				pfail = strconv.FormatFloat(*m.PFail, 'g', -1, 64)
			}
			fmt.Fprintf(&b, "| %s | %s | %s | %s | %d | %d | %d | %d | %d | %d | %d | %s |  |\n",
				mdCell(rec.Circuit), mdCell(rec.Fabric), mdCell(rec.Heuristic),
				core.BackendDisplayName(rec.Backend), rec.M,
				m.LatencyUS, m.IdealUS, m.OverheadUS, m.Moves, m.Turns, m.PlacementRuns, pfail)
		} else {
			fmt.Fprintf(&b, "| %s | %s | %s | %s | %d |  |  |  |  |  |  |  | %s |\n",
				mdCell(rec.Circuit), mdCell(rec.Fabric), mdCell(rec.Heuristic),
				core.BackendDisplayName(rec.Backend), rec.M, mdCell(rec.Error))
		}
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// ComparisonRow is one line of the paper's headline comparison: QSPR
// vs. QUALE latency for one (circuit, fabric, m) cell.
type ComparisonRow struct {
	Circuit string
	Fabric  string
	M       int
	// IdealUS is the Table 2 "Baseline" lower bound.
	IdealUS int64
	// QualeUS and QsprUS are the mapped latencies; 0 when the
	// corresponding run is missing or failed.
	QualeUS int64
	QsprUS  int64
	// ImprovePct is 100*(QUALE-QSPR)/QUALE, the paper's improvement
	// column.
	ImprovePct float64
}

// Comparison pivots the report into the paper's headline QSPR-vs-QUALE
// table: one row per (circuit, fabric, m) that has at least one of the
// two heuristics, in first-appearance order.
func (rep *Report) Comparison() []ComparisonRow {
	type key struct {
		circuit, fabric string
		m               int
	}
	index := map[key]int{}
	var rows []ComparisonRow
	for _, rr := range rep.Results {
		if rr.Metrics == nil {
			continue
		}
		h := rr.Heuristic.String()
		if h != "QSPR" && h != "QUALE" {
			continue
		}
		k := key{rr.Circuit.Name, rr.Fabric.Name, rr.Seeds}
		i, ok := index[k]
		if !ok {
			i = len(rows)
			index[k] = i
			rows = append(rows, ComparisonRow{
				Circuit: k.circuit, Fabric: k.fabric, M: k.m,
				IdealUS: rr.Metrics.IdealUS,
			})
		}
		if h == "QSPR" {
			rows[i].QsprUS = rr.Metrics.LatencyUS
		} else {
			rows[i].QualeUS = rr.Metrics.LatencyUS
		}
	}
	for i := range rows {
		if rows[i].QualeUS > 0 && rows[i].QsprUS > 0 {
			rows[i].ImprovePct = 100 * float64(rows[i].QualeUS-rows[i].QsprUS) / float64(rows[i].QualeUS)
		}
	}
	return rows
}

// WriteComparison renders Comparison as an aligned text table
// (tabwriter), the shape of the paper's Table 2.
func (rep *Report) WriteComparison(w io.Writer) error {
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "circuit\tfabric\tm\tbaseline(µs)\tQUALE(µs)\tQSPR(µs)\timprove%")
	for _, r := range rep.Comparison() {
		fmt.Fprintf(tw, "%s\t%s\t%d\t%d\t%d\t%d\t%.1f\n",
			r.Circuit, r.Fabric, r.M, r.IdealUS, r.QualeUS, r.QsprUS, r.ImprovePct)
	}
	return tw.Flush()
}
