package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// readResults loads the results a series of runs appended with -out.
func readResults(path string) ([]runResult, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []runResult
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r runResult
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// quartiles returns the cut points Python's statistics.quantiles(v, n=4)
// gives (the exclusive method), so spreads here read like the driver's.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		m := len(s)
		j := i * (m + 1) / 4
		delta := i*(m+1) - j*4
		if j < 1 {
			j, delta = 1, 0
		}
		if j > m-1 {
			j, delta = m-1, 4
		}
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the distance between the quartiles as a share of the median.
func spread(v []float64) float64 {
	q1, q2, q3 := quartiles(v)
	return ratio(q3-q1, q2)
}

// compareFiles prints, per workload and end-to-end metric, how much
// worse b's median is than a's against the metric's bound. A metric
// whose spread on either side exceeds the bound is unresolved, not
// unchanged. It reports false on a breach, and on any difference in
// executions_per_pass or in failed operations.
func compareFiles(w io.Writer, pathA, pathB string) (bool, error) {
	a, err := readResults(pathA)
	if err != nil {
		return false, err
	}
	b, err := readResults(pathB)
	if err != nil {
		return false, err
	}
	ok := true
	fmt.Fprintf(w, "%-18s %-20s %3s %12s %12s %8s %7s %7s %6s  %s\n",
		"workload", "metric", "n", "median a", "median b", "worse", "sprd a", "sprd b", "bound", "verdict")
	for _, def := range workloads {
		ra, rb := ofWorkload(a, def.name), ofWorkload(b, def.name)
		if len(ra) == 0 || len(rb) == 0 {
			fmt.Fprintf(w, "%-18s missing from one side (%d and %d runs)\n", def.name, len(ra), len(rb))
			ok = false
			continue
		}
		if fa, fb := failedOps(ra), failedOps(rb); fa != 0 || fb != 0 {
			fmt.Fprintf(w, "%-18s failed operations: %d and %d  FAIL\n", def.name, fa, fb)
			ok = false
		}
		for _, m := range endToEnd {
			va, vb := metricValues(ra, m.Name), metricValues(rb, m.Name)
			_, ma, _ := quartiles(va)
			_, mb, _ := quartiles(vb)
			worse := ratio(mb-ma, ma)
			if m.Better == higher {
				worse = -worse
			}
			sa, sb := spread(va), spread(vb)
			verdict := "ok"
			switch {
			case exactMetrics[m.Name] && !allEqual(append(va, vb...)):
				verdict = "FAIL (must be identical)"
				ok = false
			case sa > m.Bound || sb > m.Bound:
				verdict = "unresolved (spread exceeds bound)"
			case worse > m.Bound:
				verdict = "BREACH"
				ok = false
			}
			fmt.Fprintf(w, "%-18s %-20s %3d %12.6g %12.6g %+7.2f%% %6.2f%% %6.2f%% %5.1f%%  %s\n",
				def.name, m.Name, len(va), ma, mb, 100*worse, 100*sa, 100*sb, 100*m.Bound, verdict)
		}
	}
	return ok, nil
}

func ofWorkload(rs []runResult, name string) []runResult {
	var out []runResult
	for _, r := range rs {
		if r.Workload == name {
			out = append(out, r)
		}
	}
	return out
}

func failedOps(rs []runResult) int {
	n := 0
	for _, r := range rs {
		n += r.Failed
	}
	return n
}

func metricValues(rs []runResult, name string) []float64 {
	out := make([]float64, len(rs))
	for i, r := range rs {
		out[i] = r.Metrics[name].Value
	}
	return out
}

func allEqual(v []float64) bool {
	for _, x := range v {
		if x != v[0] {
			return false
		}
	}
	return true
}
