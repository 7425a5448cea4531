package main

import (
	"fmt"
	"io"
	"math"
	"slices"

	"gremlin/internal/metrics"
)

// verdict is -compare's judgement of one (workload, metric) pair.
type verdict string

const (
	verdictOK         verdict = "ok"         // B is no worse than A by more than the bound
	verdictWorse      verdict = "worse"      // B is worse than A by more than the bound
	verdictUnresolved verdict = "unresolved" // run-to-run spread exceeds the bound: the data cannot say
)

// comparison is one row of -compare's table.
type comparison struct {
	Workload string
	Metric   string
	Unit     string
	A, B     float64 // medians
	// Worse is how much worse B is than A in the metric's own unit
	// (negative = better), whichever direction "worse" is for it.
	Worse float64
	// Allowed is the bound in the metric's unit: max(rel*|A|, abs).
	Allowed float64
	Spread  float64 // the wider of the two sets' interquartile spreads, in the metric's unit
	RunsA   int
	RunsB   int
	Verdict verdict
}

// judge compares two sets of values of one metric. The spread test comes
// first: when either set's own quartiles are further apart than the
// bound, a difference within the bound means nothing and one beyond it
// may be noise, so the pair is reported unresolved, not unchanged.
//
// The two shares with no relative bound (failed ops, lost records) are
// not timings and have no noise to allow for: each set is judged by its
// worst run, so one run that lost a record cannot hide behind a median.
func judge(def metricDef, a, b []float64) comparison {
	c := comparison{Metric: def.name, Unit: def.unit, A: median(a), B: median(b), RunsA: len(a), RunsB: len(b)}
	if def.rel == 0 {
		c.A, c.B = slices.Max(a), slices.Max(b)
		c.Worse, c.Allowed = c.B-c.A, def.abs
		c.Verdict = verdictOK
		if c.Worse > c.Allowed {
			c.Verdict = verdictWorse
		}
		return c
	}
	c.Worse = c.B - c.A
	if def.higher {
		c.Worse = -c.Worse
	}
	c.Allowed = math.Max(def.rel*math.Abs(c.A), def.abs)
	for _, set := range [][]float64{a, b} {
		if len(set) >= 2 {
			q1, q3 := quartiles(set)
			c.Spread = math.Max(c.Spread, q3-q1)
		}
	}
	switch {
	case c.Spread > c.Allowed:
		c.Verdict = verdictUnresolved
	case c.Worse > c.Allowed:
		c.Verdict = verdictWorse
	default:
		c.Verdict = verdictOK
	}
	return c
}

// compareSets lines up two result sets by workload and end-to-end
// metric. Traced results carry per-layer metrics, which have no bounds
// and are not judged.
func compareSets(a, b []result) []comparison {
	collect := func(rs []result) map[string]map[string][]float64 {
		out := map[string]map[string][]float64{}
		for _, r := range rs {
			if r.Traced {
				continue
			}
			if out[r.Workload] == nil {
				out[r.Workload] = map[string][]float64{}
			}
			for name, mv := range r.Metrics {
				out[r.Workload][name] = append(out[r.Workload][name], mv.Value)
			}
		}
		return out
	}
	va, vb := collect(a), collect(b)
	var rows []comparison
	for _, w := range workloads {
		for _, def := range endToEnd {
			xa, xb := va[w.name][def.name], vb[w.name][def.name]
			if len(xa) == 0 || len(xb) == 0 {
				continue
			}
			c := judge(def, xa, xb)
			c.Workload = w.name
			rows = append(rows, c)
		}
	}
	return rows
}

func noisyRuns(rs []result) int {
	n := 0
	for _, r := range rs {
		if r.Env.Noisy {
			n++
		}
	}
	return n
}

func commits(rs []result) []string {
	seen := map[string]bool{}
	for _, r := range rs {
		seen[r.Env.Commit] = true
	}
	return metrics.SortedKeys(seen)
}

// runCompare prints the table and exits non-zero when any pair is worse.
func runCompare(pathA, pathB string, stdout, stderr io.Writer) int {
	a, err := readResults(pathA)
	if err == nil && len(a) == 0 {
		err = fmt.Errorf("%s: no results", pathA)
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	b, err := readResults(pathB)
	if err == nil && len(b) == 0 {
		err = fmt.Errorf("%s: no results", pathB)
	}
	if err != nil {
		fmt.Fprintf(stderr, "bench: %v\n", err)
		return 2
	}
	fmt.Fprintf(stdout, "A: %s  commits %v  %d runs, %d noisy\n", pathA, commits(a), len(a), noisyRuns(a))
	fmt.Fprintf(stdout, "B: %s  commits %v  %d runs, %d noisy\n", pathB, commits(b), len(b), noisyRuns(b))
	if noisyRuns(a)+noisyRuns(b) > 0 {
		fmt.Fprintln(stdout, "NOISY: some runs began on a busy machine; their timings are suspect")
	}
	rows := compareSets(a, b)
	counts := map[verdict]int{}
	fmt.Fprintf(stdout, "\n%-13s %-18s %14s %14s %9s %9s %9s  %s\n",
		"workload", "metric", "A median", "B median", "worse by", "bound", "spread", "verdict")
	last := ""
	for _, c := range rows {
		if c.Workload != last && last != "" {
			fmt.Fprintln(stdout)
		}
		last = c.Workload
		counts[c.Verdict]++
		fmt.Fprintf(stdout, "%-13s %-18s %14.4f %14.4f %9s %9s %9s  %s (%d/%d runs)\n",
			c.Workload, c.Metric, c.A, c.B,
			share(c.Worse, c.A), share(c.Allowed, c.A), share(c.Spread, c.A), c.Verdict, c.RunsA, c.RunsB)
	}
	fmt.Fprintf(stdout, "\n%d ok, %d worse, %d unresolved\n", counts[verdictOK], counts[verdictWorse], counts[verdictUnresolved])
	if counts[verdictWorse] > 0 {
		return 1
	}
	return 0
}

// share renders v as a percentage of ref, or in absolute terms when ref
// is zero (the two share metrics that must stay at zero).
func share(v, ref float64) string {
	if ref == 0 {
		return fmt.Sprintf("%.4g", v)
	}
	return fmt.Sprintf("%+.1f%%", 100*v/math.Abs(ref))
}
