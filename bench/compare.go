package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"
)

// quartiles returns the three cut points of xs as Python's
// statistics.quantiles(xs, n=4) computes them (the exclusive method),
// which is how the acceptance check measures a metric's spread.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	n := len(xs)
	if n == 0 {
		return math.NaN(), math.NaN(), math.NaN()
	}
	if n == 1 {
		return xs[0], xs[0], xs[0]
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	cut := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		d := i*(n+1) - j*4
		return (s[j-1]*float64(4-d) + s[j]*float64(d)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// spread is the distance between the quartiles of xs as a share of
// their median; 0 for fewer than two samples.
func spread(xs []float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / q2)
}

// verdict compares one metric of a reference a and a candidate b, each
// a value with the run-to-run spread behind it. worsened is the share of
// a's value by which b is worse (negative when b is better).
func verdict(m metricSpec, a, b measured) (v string, worsened float64) {
	if a.Value == 0 {
		return "unresolved", 0
	}
	worsened = (b.Value - a.Value) / math.Abs(a.Value)
	if m.Better == "higher" {
		worsened = -worsened
	}
	switch {
	case math.Max(a.Spread, b.Spread) > m.Bound:
		// The spread between same-code runs is wider than the bound: a
		// difference this size cannot be told from noise either way.
		return "unresolved", worsened
	case worsened > m.Bound:
		return "worse", worsened
	}
	return "ok", worsened
}

// measured is one metric of one side of a comparison.
type measured struct {
	Value, Spread float64
}

// side is one side of a comparison: the untraced results of one or more
// runs of the same code, by workload.
type side map[string][]workloadResult

// readSide reads a comma-separated list of result files.
func readSide(arg string) (side, error) {
	out := make(side)
	for _, path := range strings.Split(arg, ",") {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		var f resultFile
		if err := json.Unmarshal(data, &f); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		for _, r := range f.WorkloadResults {
			if !r.Traced {
				out[r.Workload] = append(out[r.Workload], r)
			}
		}
	}
	return out, nil
}

// metric reduces a side's runs to one value and its spread: the median
// over the runs and the distance between their quartiles. A single run
// has no run-to-run spread; the spread of the n samples inside it
// (rounds, slices) stands in, divided by √n as the spread of their mean
// would be.
func (s side) metric(workload, name string) (measured, bool) {
	var values []float64
	var last metricValue
	for _, r := range s[workload] {
		if m, ok := r.Metrics[name]; ok {
			values = append(values, m.Value)
			last = m
		}
	}
	switch len(values) {
	case 0:
		return measured{}, false
	case 1:
		n := max(1, len(last.Samples))
		return measured{values[0], spread(last.Samples) / math.Sqrt(float64(n))}, true
	}
	return measured{median(values), spread(values)}, true
}

// failedFrac is failed over attempted operations across a side's runs,
// and whether every run was correct.
func (s side) failedFrac(workload string) (frac float64, correct bool) {
	failed, attempted := 0, 0
	correct = true
	for _, r := range s[workload] {
		failed += r.Failed
		attempted += r.Attempted
		correct = correct && r.Correct
	}
	return ratio(float64(failed), float64(attempted)), correct
}

// compareFiles prints one row per (end-to-end metric, workload) of two
// sides, a the reference and b the candidate, each a comma-separated
// list of result files, and fails on any metric worse than its bound or
// any rise in failed operations.
func compareFiles(spec *benchSpec, argA, argB string) int {
	a, err := readSide(argA)
	if err == nil {
		var b side
		if b, err = readSide(argB); err == nil {
			return compareSides(spec, a, b)
		}
	}
	fmt.Fprintln(os.Stderr, "bench:", err)
	return 2
}

func compareSides(spec *benchSpec, a, b side) int {
	code := 0
	fmt.Printf("%-20s %-20s %14s %14s %9s %7s  %s\n", "workload", "metric", "a", "b", "worsened", "bound", "verdict")
	for _, w := range spec.Workloads {
		if len(a[w.Name]) == 0 || len(b[w.Name]) == 0 {
			// A side that lost a whole workload must not pass for want of rows.
			fmt.Printf("%-20s %-20s %44s  missing\n", w.Name, "(every metric)", "")
			code = 1
			continue
		}
		for _, m := range spec.EndToEnd {
			ma, okA := a.metric(w.Name, m.Name)
			mb, okB := b.metric(w.Name, m.Name)
			if !okA || !okB {
				fmt.Printf("%-20s %-20s %44s  missing\n", w.Name, m.Name, "")
				code = 1
				continue
			}
			v, worsened := verdict(m, ma, mb)
			if v == "worse" {
				code = 1
			}
			fmt.Printf("%-20s %-20s %14.6g %14.6g %+8.1f%% %6.0f%%  %s\n",
				w.Name, m.Name, ma.Value, mb.Value, 100*worsened, 100*m.Bound, v)
		}
		fa, _ := a.failedFrac(w.Name)
		fb, correct := b.failedFrac(w.Name)
		v := "ok"
		if fb > fa || !correct {
			v, code = "worse", 1
		}
		fmt.Printf("%-20s %-20s %14.6g %14.6g %9s %7s  %s\n", w.Name, "failed_frac", fa, fb, "", "0", v)
	}
	return code
}
