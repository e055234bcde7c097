package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// minSpreadRuns is the fewest runs per side from which -compare judges
// run-to-run spread (the quartiles of fewer are not worth the name).
const minSpreadRuns = 4

func loadResult(path string) (*result, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r result
	if err := json.Unmarshal(raw, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &r, nil
}

// values collects one metric's value from every run of (workload, trace).
func (r *result) values(workload string, trace int, metric string) []float64 {
	var out []float64
	for _, run := range r.Runs {
		if run.Workload == workload && run.Trace == trace {
			if v, ok := run.Metrics[metric]; ok {
				out = append(out, v.Value)
			}
		}
	}
	return out
}

func (r *result) failShare(workload string) float64 {
	worst := 0.0
	for _, run := range r.Runs {
		if run.Workload == workload && run.FailShare > worst {
			worst = run.FailShare
		}
	}
	return worst
}

// spread is the distance between the first and third quartile as a share
// of the median, the driver's own definition.
func spread(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	// Exclusive-method quartiles, as Python's statistics.quantiles(n=4).
	q := func(p float64) float64 {
		pos := p * float64(len(s)+1)
		lo := int(pos)
		if lo < 1 {
			return s[0]
		}
		if lo >= len(s) {
			return s[len(s)-1]
		}
		return s[lo-1] + (pos-float64(lo))*(s[lo]-s[lo-1])
	}
	return ratio(q(0.75)-q(0.25), q(0.5))
}

// judge compares one end-to-end metric of B (the change) against A (the
// parent). A metric gets worse by more than its bound: regressed. The
// run-to-run spread of either side exceeds the bound: unresolved, unless
// every run of B reads better than every run of A.
func judge(m e2eMetric, a, b []float64) (medA, medB, delta float64, verdict string) {
	medA, medB = median(a), median(b)
	delta = ratio(medB-medA, medA)
	worse := delta
	if m.Better == "higher" {
		worse = -delta
	}
	if len(a) >= minSpreadRuns && len(b) >= minSpreadRuns && (spread(a) > m.Bound || spread(b) > m.Bound) {
		allBetter := true
		for _, x := range a {
			for _, y := range b {
				if m.Better == "lower" && y >= x || m.Better == "higher" && y <= x {
					allBetter = false
				}
			}
		}
		if allBetter {
			return medA, medB, delta, "ok"
		}
		return medA, medB, delta, "unresolved"
	}
	if worse > m.Bound {
		return medA, medB, delta, "regressed"
	}
	return medA, medB, delta, "ok"
}

// compareFiles prints the comparison and returns the exit code: 1 when
// any metric regressed, fail_share rose, or an exact count differs.
func compareFiles(pathA, pathB string) int {
	a, errA := loadResult(pathA)
	b, errB := loadResult(pathB)
	for _, err := range []error{errA, errB} {
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 2
		}
	}
	return compareResults(a, b)
}

func compareResults(a, b *result) int {
	if a.Machine != b.Machine {
		fmt.Printf("warning: different machines (%+v vs %+v): timings are not comparable\n", a.Machine, b.Machine)
	}
	fmt.Printf("A %s seed %d   B %s seed %d\n", a.Rev, a.Seed, b.Rev, b.Seed)
	bad := 0
	for _, w := range workloads {
		for _, m := range endToEnd {
			va, vb := a.values(w.Name, 0, m.Name), b.values(w.Name, 0, m.Name)
			if len(va) == 0 || len(vb) == 0 {
				fmt.Printf("%-9s %-12s missing on one side\n", w.Name, m.Name)
				bad++
				continue
			}
			medA, medB, delta, verdict := judge(m, va, vb)
			fmt.Printf("%-9s %-12s %12.6g %12.6g %-8s %+7.2f%%  bound %4.0f%%  %s\n",
				w.Name, m.Name, medA, medB, m.Unit, 100*delta, 100*m.Bound, verdict)
			if verdict == "regressed" {
				bad++
			}
		}
		fa, fb := a.failShare(w.Name), b.failShare(w.Name)
		verdict := "ok"
		if fb > fa {
			verdict = "regressed"
			bad++
		}
		fmt.Printf("%-9s %-12s %12.6g %12.6g failed/attempted  any rise  %s\n", w.Name, failShare, fa, fb, verdict)
		if w.Name == "serve" || a.Seed != b.Seed {
			continue // exact counts are promised only for one seed on the deterministic workloads
		}
		for _, m := range perLayer {
			va, vb := a.values(w.Name, 1, m.Name), b.values(w.Name, 1, m.Name)
			if !m.Exact || len(va) == 0 || len(vb) == 0 {
				continue
			}
			if va[0] != vb[0] {
				fmt.Printf("%-9s %-34s %v != %v  differs\n", w.Name, m.Name, va[0], vb[0])
				bad++
			}
		}
	}
	if bad > 0 {
		fmt.Printf("%d regressed, missing or differing\n", bad)
		return 1
	}
	fmt.Println("no regression; exact counts equal")
	return 0
}
