package main

import (
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// The smoke run: every workload, untraced and traced, at a hundredth of
// the size, against a real child fednumd.

var smokeFednumd string

func TestMain(m *testing.M) {
	os.Exit(func() int {
		// Inside the checkout, next to the benchmark's other build outputs.
		parent := filepath.Join(".build", "tmp")
		if err := os.MkdirAll(parent, 0o755); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		dir, err := os.MkdirTemp(parent, "smoke-")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer os.RemoveAll(dir)
		smokeFednumd = filepath.Join(dir, "fednumd")
		build := exec.Command("go", "build", "-o", smokeFednumd, "repro/cmd/fednumd")
		if out, err := build.CombinedOutput(); err != nil {
			fmt.Fprintf(os.Stderr, "building fednumd: %v\n%s", err, out)
			return 1
		}
		return m.Run()
	}())
}

func smokeEnv(t *testing.T) *env {
	t.Helper()
	spec, root, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	e, cleanup, err := newEnv(spec, root, smokeFednumd, 7, float64(spec.RunSeconds), 0.01)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		live.Lock()
		left := len(live.set)
		live.Unlock()
		cleanup()
		if left != 0 {
			t.Errorf("%d child daemons were still running at the end", left)
		}
		if _, err := os.Stat(e.tmpRoot); !os.IsNotExist(err) {
			t.Errorf("temporary logs left behind in %s", e.tmpRoot)
		}
	})
	return e
}

func metricNames(ms []metricSpec) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.Name
	}
	sort.Strings(out)
	return out
}

func TestSmokeEmitsExactlyTheContractedNames(t *testing.T) {
	e := smokeEnv(t)
	var names []string
	for _, w := range e.spec.Workloads {
		names = append(names, w.Name)
	}
	var have []string
	for _, w := range workloads {
		have = append(have, w.Name)
	}
	if strings.Join(names, ",") != strings.Join(have, ",") {
		t.Fatalf("BENCHMARK.json workloads %v, program runs %v", names, have)
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res := e.runWorkload(w, traced)
			if !res.Correct {
				t.Fatalf("%s traced=%v: not correct: %s (failed %d of %d)", w.Name, traced, res.Error, res.Failed, res.Attempted)
			}
			want := metricNames(e.spec.EndToEnd)
			if traced {
				want = metricNames(e.spec.PerLayer)
			}
			var got []string
			for name, m := range res.Metrics {
				got = append(got, name)
				if m.Unit == "" {
					t.Errorf("%s: metric %s has no unit", w.Name, name)
				}
			}
			sort.Strings(got)
			if strings.Join(got, "\n") != strings.Join(want, "\n") {
				t.Errorf("%s traced=%v emits\n%s\nBENCHMARK.json lists\n%s", w.Name, traced, strings.Join(got, " "), strings.Join(want, " "))
			}
			if traced {
				if _, err := os.Stat(filepath.Join(e.outDir, "trace-"+w.Name+".json")); err != nil {
					t.Errorf("%s: no trace file: %v", w.Name, err)
				}
			}
		}
	}
}

// One acked report kept out of the generator's tally must fail the
// verification: the check compares what the daemon holds with what it
// acked, to the report.
func TestVerificationNoticesOneWithheldReport(t *testing.T) {
	e := smokeEnv(t)
	for _, name := range []string{"accept_batch", "participate_single"} {
		w, _ := findWorkload(name)
		cfg := e.runConfig(w)
		if _, err := runRound(cfg, 0, newDigester()); err != nil {
			t.Fatalf("%s: honest round failed: %v", name, err)
		}
		cfg.withhold = true
		_, err := runRound(cfg, 0, newDigester())
		if err == nil || !strings.Contains(err.Error(), "were acked") {
			t.Fatalf("%s: withholding one acked report from the tally gave %v, want a count mismatch", name, err)
		}
	}
}
