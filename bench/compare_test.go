package main

import (
	"math"
	"testing"
)

// The cut points must be the ones Python's statistics.quantiles(xs, n=4)
// returns, since that is what the acceptance check computes spreads with.
func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{10, 20}, [3]float64{7.5, 15, 22.5}},
		{[]float64{4, 1, 3, 2, 5}, [3]float64{1.5, 3, 4.5}},
	} {
		q1, q2, q3 := quartiles(c.xs)
		got := [3]float64{q1, q2, q3}
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
				break
			}
		}
	}
}

func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "ack_p50_ms.mid", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "reports_per_s", Better: "higher", Bound: 0.10}
	steady := func(v float64) measured { return measured{Value: v, Spread: 0.02} }
	noisy := func(v float64) measured { return measured{Value: v, Spread: 0.4} }
	for _, c := range []struct {
		name string
		m    metricSpec
		a, b measured
		want string
	}{
		{"within bound", lower, steady(2.0), steady(2.15), "ok"},
		{"better", lower, steady(2.0), steady(1.0), "ok"},
		{"worse latency", lower, steady(2.0), steady(2.3), "worse"},
		{"worse throughput", higher, steady(1000), steady(850), "worse"},
		{"higher throughput is not worse", higher, steady(1000), steady(1500), "ok"},
		{"own spread wider than the bound", lower, noisy(2.0), steady(2.3), "unresolved"},
		{"unchanged is not claimed under noise", lower, steady(2.0), noisy(2.0), "unresolved"},
	} {
		if got, _ := verdict(c.m, c.a, c.b); got != c.want {
			t.Errorf("%s: %s, want %s", c.name, got, c.want)
		}
	}
}

func TestCompareFailsOnWorseAndOnNewFailures(t *testing.T) {
	spec := &benchSpec{EndToEnd: []metricSpec{{Name: "recover_s", Unit: "s", Better: "lower", Bound: 0.10}}}
	spec.Workloads = append(spec.Workloads, struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	}{Name: "recover_round"})
	run := func(failed int, recover ...float64) side {
		var runs []workloadResult
		for _, v := range recover {
			runs = append(runs, workloadResult{
				Workload: "recover_round", Correct: failed == 0, Attempted: 1000, Failed: failed,
				Metrics: map[string]metricValue{"recover_s": {Value: v, Unit: "s"}},
			})
		}
		return side{"recover_round": runs}
	}
	if code := compareSides(spec, run(0, 1.0), run(0, 1.05)); code != 0 {
		t.Errorf("a 5%% change inside a 10%% bound exits %d", code)
	}
	if code := compareSides(spec, run(0, 1.0), run(0, 1.2)); code == 0 {
		t.Error("a 20% slower recovery passes")
	}
	if code := compareSides(spec, run(0, 1.0), run(1, 1.0)); code == 0 {
		t.Error("a newly failing operation passes")
	}
	if code := compareSides(spec, run(0, 1.0), side{}); code == 0 {
		t.Error("a side without the workload passes")
	}
	// Several runs a side: the medians are compared, and runs that
	// disagree among themselves by more than the bound settle nothing.
	if code := compareSides(spec, run(0, 0.99, 1.0, 1.01, 1.0), run(0, 1.19, 1.2, 1.21, 1.2)); code == 0 {
		t.Error("medians 20% apart pass")
	}
	m, _ := run(0, 0.8, 1.0, 1.2, 1.0).metric("recover_round", "recover_s")
	if v, _ := verdict(spec.EndToEnd[0], m, measured{Value: 1.2, Spread: 0.01}); v != "unresolved" {
		t.Errorf("runs spread %.2f against a 0.10 bound give %s", m.Spread, v)
	}
}
