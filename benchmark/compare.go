package main

import (
	"encoding/json"
	"fmt"
	"os"
)

func loadSuite(path string) (*suiteResult, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s suiteResult
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// verdict judges b against a on one metric. A metric whose run-to-run
// spread exceeds its bound cannot show a change of that size, so it is
// unresolved, not unchanged. With fewer than four runs a side has no
// quartiles and its within-run slice spread stands in.
func verdict(a, b *metricSummary) (worse float64, v string) {
	if a.Median == 0 {
		return 0, "unresolved"
	}
	worse = (b.Median - a.Median) / a.Median
	if a.Better == "higher" {
		worse = -worse
	}
	noise := func(s *metricSummary) float64 {
		if len(s.Values) >= 4 {
			return s.Spread
		}
		return s.SliceSpread
	}
	switch {
	case noise(a) > a.Bound || noise(b) > a.Bound:
		return worse, "unresolved"
	case worse > a.Bound:
		return worse, "regressed"
	}
	return worse, "ok"
}

// compareFiles prints one row per workload x end-to-end metric and checks
// the exact counts for equality. It fails on a regression or a count that
// differs; unresolved rows are printed and left to the reader.
func compareFiles(pathA, pathB string) error {
	a, err := loadSuite(pathA)
	if err != nil {
		return err
	}
	b, err := loadSuite(pathB)
	if err != nil {
		return err
	}
	fmt.Printf("a: %s  %s  commit %s  (%d runs x %gs, seed %d)\n", pathA, a.Time, a.Host.Commit, a.Runs, a.Seconds, a.Seed)
	fmt.Printf("b: %s  %s  commit %s  (%d runs x %gs, seed %d)\n", pathB, b.Time, b.Host.Commit, b.Runs, b.Seconds, b.Seed)
	if a.Host.CPU != b.Host.CPU || a.Host.GOMAXPROCS != b.Host.GOMAXPROCS {
		fmt.Printf("warning: different hosts (%s x%d vs %s x%d): timings do not compare\n",
			a.Host.CPU, a.Host.GOMAXPROCS, b.Host.CPU, b.Host.GOMAXPROCS)
	}
	fmt.Printf("%-15s %-12s %-5s %12s %24s %12s %24s %8s %7s  %s\n",
		"workload", "metric", "unit", "a median", "a [q1, q3]", "b median", "b [q1, q3]", "b/a", "bound", "verdict")
	counts := map[string]int{}
	for _, wd := range workloadDefs {
		wa, wb := a.Workloads[wd.Name], b.Workloads[wd.Name]
		if wa == nil || wb == nil {
			fmt.Printf("%-15s missing from one file\n", wd.Name)
			counts["unresolved"]++
			continue
		}
		for _, d := range endToEndDefs {
			sa, sb := wa.EndToEnd[d.Name], wb.EndToEnd[d.Name]
			if sa == nil || sb == nil {
				continue
			}
			_, v := verdict(sa, sb)
			counts[v]++
			ratio := 0.0
			if sa.Median != 0 {
				ratio = sb.Median / sa.Median
			}
			fmt.Printf("%-15s %-12s %-5s %12.4f %24s %12.4f %24s %8.4f %6.0f%%  %s\n",
				wd.Name, d.Name, d.Unit, sa.Median, fmt.Sprintf("[%.4f, %.4f]", sa.Q1, sa.Q3),
				sb.Median, fmt.Sprintf("[%.4f, %.4f]", sb.Q1, sb.Q3), ratio, 100*d.Bound, v)
		}
		// The absolute figures ride along without a verdict: on a shared
		// host they move with it more than any bound could allow.
		for _, d := range absoluteDefs {
			sa, sb := wa.Absolute[d.Name], wb.Absolute[d.Name]
			if sa == nil || sb == nil || sa.Median == 0 {
				continue
			}
			fmt.Printf("%-15s %-12s %-5s %12.4f %24s %12.4f %24s %8.4f %7s  info\n",
				wd.Name, d.Name, d.Unit, sa.Median, fmt.Sprintf("[%.4f, %.4f]", sa.Q1, sa.Q3),
				sb.Median, fmt.Sprintf("[%.4f, %.4f]", sb.Q1, sb.Q3), sb.Median/sa.Median, "-")
		}
		if wa.Failed+wb.Failed > 0 {
			fmt.Printf("%-15s ops failed: a %d, b %d\n", wd.Name, wa.Failed, wb.Failed)
			counts["regressed"]++
		}
	}
	// Exact counts come from the traced run; they repeat only for one
	// seed, so files traced on different seeds are not comparable here.
	differ := 0
	if a.Seed == b.Seed {
		for _, wd := range workloadDefs {
			wa, wb := a.Workloads[wd.Name], b.Workloads[wd.Name]
			if wa == nil || wb == nil {
				continue
			}
			// Counts are exact with one caller; the serving workloads'
			// clients race, and their windows close on the clock.
			if w, err := newWorkload(wd.Name); err != nil || w.concurrent() {
				continue
			}
			for _, d := range perLayerDefs {
				if !d.exact {
					continue
				}
				if va, vb := wa.PerLayer[d.Name].Value, wb.PerLayer[d.Name].Value; va != vb {
					differ++
					fmt.Printf("exact count differs: %-15s %-32s a %v  b %v\n", wd.Name, d.Name, va, vb)
				}
			}
		}
		fmt.Printf("exact counts: %d differ\n", differ)
	} else {
		fmt.Printf("exact counts: not compared (traced on seeds %d and %d)\n", a.Seed, b.Seed)
	}
	fmt.Printf("verdicts: %d ok, %d regressed, %d unresolved (b/a is b's median over a's; a is the base)\n",
		counts["ok"], counts["regressed"], counts["unresolved"])
	if counts["regressed"] > 0 || differ > 0 {
		return fmt.Errorf("%d regressed, %d exact counts differ", counts["regressed"], differ)
	}
	return nil
}
