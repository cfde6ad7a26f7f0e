package sweep

import (
	"encoding/csv"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"
)

// This file is the sweep aggregation layer: it joins per-run summaries
// (RunSummary, persisted by the orchestrator) into cross-run
// comparison tables and CSV — e.g. gateway traffic share or monitor
// overlap vs. population × churn — without ever re-reading raw trace
// segments. Every output is deterministic for a given set of summaries:
// rows, columns and long-form lines are sorted, and wall-clock fields are
// excluded.

// Metrics are resolved by name through (*RunSummary).Metric: the metrics
// map written by the report-driven summaries (version-1 files migrated
// into it on read), with "coverage:<monitor>" addressing. This layer knows
// no metric by field.

// paramString renders a run's override value for one parameter; runs that
// did not override it report the base-spec marker.
func paramString(r *RunSummary, key string) string {
	for _, p := range r.Params {
		if p.Key == key {
			return FormatValue(p.Value)
		}
	}
	return "(base)"
}

// Cell is one aggregated grid cell: the metric's mean over the cell's
// seed replicates.
type Cell struct {
	Mean float64
	Runs int
}

// Table is a two-parameter comparison of one metric across a sweep:
// rows × columns of replicate-averaged cells.
type Table struct {
	Metric   string
	RowParam string
	ColParam string
	RowVals  []string
	ColVals  []string
	// Cells is indexed [row][col]; Runs == 0 marks a grid hole.
	Cells [][]Cell
}

// ComputeTable joins run summaries into a rowParam × colParam
// comparison of metric. Each cell is the mean over every run landing in
// it: the seed replicates, plus — in sweeps with more than two axes — all
// values of any parameter not on the table's axes (the cell's Runs count
// says how many were blended; compare it against the seed policy to spot
// marginalised axes). Pass colParam "" for a one-dimensional table (a
// single "all" column).
func ComputeTable(recs []*RunSummary, rowParam, colParam, metric string) (Table, error) {
	t := Table{Metric: metric, RowParam: rowParam, ColParam: colParam}
	if len(recs) == 0 {
		return t, fmt.Errorf("sweep: no run summaries to aggregate")
	}
	if rowParam == "" {
		return t, fmt.Errorf("sweep: sweep table needs a row parameter")
	}
	type acc struct {
		sum float64
		n   int
	}
	cells := make(map[[2]string]*acc)
	rowSet := make(map[string]bool)
	colSet := make(map[string]bool)
	for _, r := range recs {
		v, err := r.Metric(metric)
		if err != nil {
			return t, err
		}
		row := paramString(r, rowParam)
		col := "all"
		if colParam != "" {
			col = paramString(r, colParam)
		}
		rowSet[row] = true
		colSet[col] = true
		key := [2]string{row, col}
		a, ok := cells[key]
		if !ok {
			a = &acc{}
			cells[key] = a
		}
		a.sum += v
		a.n++
	}
	t.RowVals = sortedAxisValues(rowSet)
	t.ColVals = sortedAxisValues(colSet)
	t.Cells = make([][]Cell, len(t.RowVals))
	for i, row := range t.RowVals {
		t.Cells[i] = make([]Cell, len(t.ColVals))
		for j, col := range t.ColVals {
			if a, ok := cells[[2]string{row, col}]; ok {
				t.Cells[i][j] = Cell{Mean: a.sum / float64(a.n), Runs: a.n}
			}
		}
	}
	return t, nil
}

// sortedAxisValues orders axis values numerically when they all parse as
// numbers (so nodes 80, 120, 600 do not sort lexically) or as durations
// (so mean_session 2h, 12h, 48h stays in churn order), lexically
// otherwise.
func sortedAxisValues(set map[string]bool) []string {
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	ordered := true
	vals := make(map[string]float64, len(out))
	for _, s := range out {
		if f, err := strconv.ParseFloat(s, 64); err == nil {
			vals[s] = f
			continue
		}
		if d, err := time.ParseDuration(s); err == nil {
			vals[s] = float64(d)
			continue
		}
		ordered = false
		break
	}
	sort.Slice(out, func(i, j int) bool {
		if ordered {
			return vals[out[i]] < vals[out[j]]
		}
		return out[i] < out[j]
	})
	return out
}

// Render prints the comparison table.
func (t Table) Render() string {
	var sb strings.Builder
	col := t.ColParam
	if col == "" {
		col = "-"
	}
	fmt.Fprintf(&sb, "Sweep comparison — %s by %s × %s (mean per cell)\n", t.Metric, t.RowParam, col)
	fmt.Fprintf(&sb, "%-22s", t.RowParam+"\\"+col)
	for _, c := range t.ColVals {
		fmt.Fprintf(&sb, " %14s", c)
	}
	sb.WriteString("\n")
	for i, r := range t.RowVals {
		fmt.Fprintf(&sb, "%-22s", r)
		for j := range t.ColVals {
			cell := t.Cells[i][j]
			if cell.Runs == 0 {
				fmt.Fprintf(&sb, " %14s", "-")
			} else {
				fmt.Fprintf(&sb, " %14.4f", cell.Mean)
			}
		}
		sb.WriteString("\n")
	}
	return sb.String()
}

// CSV renders the table as CSV (header row of column values, one line per
// row value). Output is deterministic: same summaries, same bytes.
func (t Table) CSV() string {
	rows := [][]string{append([]string{t.RowParam + "\\" + t.ColParam}, t.ColVals...)}
	for i, r := range t.RowVals {
		row := []string{r}
		for j := range t.ColVals {
			cell := ""
			if c := t.Cells[i][j]; c.Runs > 0 {
				cell = strconv.FormatFloat(c.Mean, 'g', -1, 64)
			}
			row = append(row, cell)
		}
		rows = append(rows, row)
	}
	return writeCSV(rows)
}

// CSV renders the long-form join of every run summary: one line per
// run with its parameters and every metric, sorted by run ID — the
// load-into-anything export. Deterministic: wall-clock fields are excluded
// and ordering is fixed.
func CSV(recs []*RunSummary) string {
	sorted := make([]*RunSummary, len(recs))
	copy(sorted, recs)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].RunID < sorted[j].RunID })

	// The parameter, metric and monitor columns are the union across runs
	// (a run missing a metric — e.g. an extra report only some specs
	// requested — leaves its cell empty).
	paramSet := make(map[string]bool)
	monSet := make(map[string]bool)
	metricSet := make(map[string]bool)
	for _, r := range sorted {
		for _, p := range r.Params {
			paramSet[p.Key] = true
		}
		for mon := range r.MonitorCoverage {
			monSet[mon] = true
		}
		for _, m := range r.MetricNames() {
			metricSet[m] = true
		}
	}
	params := make([]string, 0, len(paramSet))
	for k := range paramSet {
		params = append(params, k)
	}
	sort.Strings(params)
	mons := make([]string, 0, len(monSet))
	for m := range monSet {
		mons = append(mons, m)
	}
	sort.Strings(mons)
	metrics := make([]string, 0, len(metricSet))
	for m := range metricSet {
		metrics = append(metrics, m)
	}
	sort.Strings(metrics)

	header := []string{"run_id", "seed"}
	for _, p := range params {
		header = append(header, "param:"+p)
	}
	header = append(header, metrics...)
	for _, m := range mons {
		header = append(header, "coverage:"+m)
	}
	rows := [][]string{header}
	for _, r := range sorted {
		row := []string{r.RunID, strconv.FormatInt(r.Seed, 10)}
		for _, p := range params {
			cell := ""
			for _, rp := range r.Params {
				if rp.Key == p {
					cell = FormatValue(rp.Value)
					break
				}
			}
			row = append(row, cell)
		}
		for _, m := range metrics {
			cell := ""
			if v, err := r.Metric(m); err == nil {
				cell = strconv.FormatFloat(v, 'g', -1, 64)
			}
			row = append(row, cell)
		}
		for _, m := range mons {
			cell := ""
			if v, ok := r.MonitorCoverage[m]; ok {
				cell = strconv.FormatFloat(v, 'g', -1, 64)
			}
			row = append(row, cell)
		}
		rows = append(rows, row)
	}
	return writeCSV(rows)
}

// writeCSV renders rows with encoding/csv, which quotes a cell only when it
// must. Writes to a strings.Builder cannot fail.
func writeCSV(rows [][]string) string {
	var sb strings.Builder
	csv.NewWriter(&sb).WriteAll(rows)
	return sb.String()
}
