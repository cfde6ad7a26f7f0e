package sweep

import (
	"encoding/csv"
	"slices"
	"strings"
	"testing"
)

// gridSummaries fabricates a 2×2 grid with 2 replicates each.
func gridSummaries() []*RunSummary {
	var out []*RunSummary
	for _, nodes := range []float64{100, 200} {
		for _, sess := range []string{"2h", "6h"} {
			for rep, seed := range []int64{1, 2} {
				out = append(out, &RunSummary{
					Version: SummaryVersion,
					RunID:   "nodes=" + FormatValue(nodes) + ",mean_session=" + sess + "-s" + FormatValue(seed),
					Seed:    seed,
					Params: []Param{
						{Key: "nodes", Value: nodes},
						{Key: "mean_session", Value: sess},
					},
					Metrics: map[string]float64{
						"population":   nodes,
						"entries":      nodes * 10,
						"peer_overlap": 0.5 + 0.1*float64(rep),
					},
					MonitorCoverage: map[string]float64{
						"us": 0.5, "de": 0.4,
					},
				})
			}
		}
	}
	return out
}

func TestComputeTable(t *testing.T) {
	recs := gridSummaries()
	tbl, err := ComputeTable(recs, "nodes", "mean_session", "entries")
	if err != nil {
		t.Fatal(err)
	}
	// Numeric row ordering, not lexical.
	if len(tbl.RowVals) != 2 || tbl.RowVals[0] != "100" || tbl.RowVals[1] != "200" {
		t.Fatalf("row values = %v", tbl.RowVals)
	}
	if len(tbl.ColVals) != 2 || tbl.ColVals[0] != "2h" {
		t.Fatalf("col values = %v", tbl.ColVals)
	}
	if c := tbl.Cells[0][0]; c.Runs != 2 || c.Mean != 1000 {
		t.Errorf("cell[100][2h] = %+v, want mean 1000 over 2 runs", c)
	}
	if c := tbl.Cells[1][1]; c.Mean != 2000 {
		t.Errorf("cell[200][6h] mean = %v, want 2000", c.Mean)
	}
	if !strings.Contains(tbl.Render(), "entries by nodes × mean_session") {
		t.Errorf("render header wrong:\n%s", tbl.Render())
	}

	// Replicate averaging of a per-replicate metric.
	tbl, err = ComputeTable(recs, "nodes", "", "peer_overlap")
	if err != nil {
		t.Fatal(err)
	}
	if c := tbl.Cells[0][0]; c.Runs != 4 || c.Mean != 0.55 {
		t.Errorf("1-D overlap cell = %+v, want mean 0.55 over 4 runs", c)
	}

	// Monitor coverage addressing.
	if _, err := ComputeTable(recs, "nodes", "", "coverage:us"); err != nil {
		t.Errorf("coverage metric: %v", err)
	}
	if _, err := ComputeTable(recs, "nodes", "", "coverage:jp"); err == nil {
		t.Error("unknown monitor accepted")
	}
	if _, err := ComputeTable(recs, "nodes", "", "vibes"); err == nil {
		t.Error("unknown metric accepted")
	}
	if _, err := ComputeTable(nil, "nodes", "", "entries"); err == nil {
		t.Error("empty record set accepted")
	}
}

// TestSweepTableDurationOrdering pins churn-style axes to duration order,
// not lexical order ("12h" must not precede "2h").
func TestSweepTableDurationOrdering(t *testing.T) {
	var recs []*RunSummary
	for _, sess := range []string{"48h", "2h", "12h"} {
		recs = append(recs, &RunSummary{
			Version: SummaryVersion,
			RunID:   "mean_session=" + sess + "-s1",
			Seed:    1,
			Params:  []Param{{Key: "mean_session", Value: sess}},
			Metrics: map[string]float64{"entries": 10},
		})
	}
	tbl, err := ComputeTable(recs, "mean_session", "", "entries")
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"2h", "12h", "48h"}
	for i, v := range want {
		if tbl.RowVals[i] != v {
			t.Fatalf("duration rows = %v, want %v", tbl.RowVals, want)
		}
	}
}

func TestSweepTableCSVDeterministic(t *testing.T) {
	recs := gridSummaries()
	tbl, err := ComputeTable(recs, "nodes", "mean_session", "entries")
	if err != nil {
		t.Fatal(err)
	}
	a := tbl.CSV()
	// Shuffle the input order; the CSV must not care.
	shuffled := []*RunSummary{recs[5], recs[2], recs[7], recs[0], recs[3], recs[6], recs[1], recs[4]}
	tbl2, err := ComputeTable(shuffled, "nodes", "mean_session", "entries")
	if err != nil {
		t.Fatal(err)
	}
	if a != tbl2.CSV() {
		t.Error("table CSV depends on record order")
	}
	if !strings.HasPrefix(a, "nodes\\mean_session,2h,6h\n") {
		t.Errorf("csv header:\n%s", a)
	}

	long := CSV(recs)
	long2 := CSV(shuffled)
	if long != long2 {
		t.Error("long-form CSV depends on record order")
	}
	lines := strings.Split(strings.TrimSuffix(long, "\n"), "\n")
	if len(lines) != 1+len(recs) {
		t.Errorf("long CSV has %d lines, want %d", len(lines), 1+len(recs))
	}
	if !strings.Contains(lines[0], "param:nodes") || !strings.Contains(lines[0], "coverage:us") {
		t.Errorf("long CSV header missing columns: %s", lines[0])
	}
	// Quoted run IDs (they contain commas) survive as single fields.
	if !strings.Contains(lines[1], "\"nodes=100,mean_session=2h-s1\"") {
		t.Errorf("run ID not quoted: %s", lines[1])
	}

	// A string parameter value that needs quoting reads back whole, from
	// the long form and as a table row value.
	const label = `east, "fast"`
	recs[0].Params = append(recs[0].Params, Param{Key: "label", Value: label})
	rows, err := csv.NewReader(strings.NewReader(CSV(recs))).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	col := slices.Index(rows[0], "param:label")
	if col < 0 || rows[1][col] != label {
		t.Errorf("long CSV label column %d of %q, want %q", col, rows, label)
	}
	tbl3, err := ComputeTable(recs, "label", "", "entries")
	if err != nil {
		t.Fatal(err)
	}
	rows, err = csv.NewReader(strings.NewReader(tbl3.CSV())).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.ContainsFunc(rows[1:], func(row []string) bool { return row[0] == label }) {
		t.Errorf("table CSV rows %q lack %q", rows, label)
	}
}
