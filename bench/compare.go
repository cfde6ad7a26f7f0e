package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// compareMain implements `bench compare A.json B.json`: for every workload
// and end-to-end metric it prints both medians, the ratio B/A, the bound and
// a verdict, and returns non-zero when any metric is worse.
//
//	ok          B's median is no worse than A's by more than the bound
//	worse       it is, and the reps' spread is within the bound or every
//	            rep of B reads worse than every rep of A
//	unresolved  the spread of either side is wider than the bound and the
//	            two sides' reps overlap
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: bench compare A.json B.json")
		return 2
	}
	var sides [2]*results
	for i, path := range args {
		r, err := loadResults(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench compare:", err)
			return 2
		}
		sides[i] = r
		fmt.Printf("%c: %s  commit %s dirty=%v  seed %d  %d × %s\n", 'A'+i, path, r.Host.Commit, r.Host.Dirty, r.Seed, r.Host.NumCPU, r.Host.CPUModel)
	}
	a, b := sides[0], sides[1]
	if a.Sizes != b.Sizes {
		fmt.Println("WARNING: the two files were measured at different sizes")
	}

	worse := false
	for _, name := range sortedKeys(a.Workloads) {
		wa, wb := a.Workloads[name], b.Workloads[name]
		if wb == nil {
			fmt.Printf("%s: missing from B\n", name)
			continue
		}
		fmt.Printf("== %s ==\n", name)
		if a.Seed == b.Seed && wa.OutputSHA256 != wb.OutputSHA256 {
			fmt.Printf("  output_sha256 DIFFERS: A %s, B %s\n", wa.OutputSHA256, wb.OutputSHA256)
		}
		for _, m := range endToEnd {
			sa, okA := wa.EndToEnd[m.Name]
			sb, okB := wb.EndToEnd[m.Name]
			if !okA || !okB {
				continue
			}
			verdict := judge(m, sa.Values, sb.Values)
			worse = worse || verdict == "worse"
			fmt.Printf("  %-22s A %12.6g  B %12.6g %-5s B/A %.4f (base A = %.6g)  bound %g %%  %s\n",
				m.Name, sa.Median, sb.Median, m.Unit, ratio(sb.Median, sa.Median), sa.Median, 100*m.Bound, verdict)
		}
	}
	if worse {
		return 1
	}
	return 0
}

func loadResults(path string) (*results, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r results
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// judge compares the reps of one metric on the two sides.
func judge(m metricDef, a, b []float64) string {
	a, b = append([]float64(nil), a...), append([]float64(nil), b...)
	sort.Float64s(a)
	sort.Float64s(b)
	ma, mb := median(a), median(b)
	// change is how much worse B's median is, as a share of A's.
	change := ratio(mb-ma, ma)
	bWorseThroughout := b[0] > a[len(a)-1]
	bBetterThroughout := b[len(b)-1] < a[0]
	if m.Better == higher {
		change = -change
		bWorseThroughout, bBetterThroughout = b[len(b)-1] < a[0], b[0] > a[len(a)-1]
	}
	noisy := spread(a) > m.Bound || spread(b) > m.Bound
	switch {
	case noisy && bBetterThroughout:
		return "ok"
	case noisy && !bWorseThroughout:
		return "unresolved"
	case change > m.Bound:
		return "worse"
	}
	return "ok"
}

// spread is the distance between the first and third quartile of an
// ascending slice as a share of its median, with the quartiles Python's
// statistics.quantiles(values, n=4) gives, which is what the driver uses.
func spread(sorted []float64) float64 {
	n := len(sorted)
	if n < 2 {
		return 0
	}
	quartile := func(k int) float64 {
		pos := float64(k*(n+1)) / 4 // 1-based position, exclusive method
		j := min(max(int(pos), 1), n-1)
		frac := pos - float64(j)
		return sorted[j-1] + frac*(sorted[j]-sorted[j-1])
	}
	return ratio(quartile(3)-quartile(1), median(sorted))
}
