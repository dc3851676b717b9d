// Command fedbench regenerates the paper's evaluation: every figure
// (1a-4c) plus the text-claim and ablation experiments, as aligned tables
// on stdout and optionally CSV files.
//
// Usage:
//
//	fedbench -all                      # every registered experiment
//	fedbench -fig 1a -fig 3b           # specific figures
//	fedbench -all -reps 20 -seed 7     # faster, still deterministic
//	fedbench -all -csv results/        # also write one CSV per figure
//	fedbench -all -workers 8           # parallel grid execution
//	fedbench -fig 1a -bench-json BENCH.json  # serial-vs-parallel baseline
//	fedbench -trace                    # tracing-layer overhead on the report path
//
// The engine derives every grid cell's randomness from (seed, cell index),
// so output is bit-identical at any -workers setting. -cpuprofile and
// -memprofile write pprof profiles of the run; -bench-json times each
// figure serially and in parallel and writes a machine-readable summary
// (wall time, cells/sec, allocations, speedup).
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/pprof"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/transport/wire"
)

type figList []string

func (f *figList) String() string { return fmt.Sprint(*f) }

func (f *figList) Set(v string) error {
	*f = append(*f, v)
	return nil
}

func main() {
	var figs figList
	flag.Var(&figs, "fig", "figure id to run (repeatable); see -list")
	all := flag.Bool("all", false, "run every registered experiment")
	list := flag.Bool("list", false, "list experiment ids and exit")
	reps := flag.Int("reps", 100, "repetitions per point (paper uses 100)")
	n := flag.Int("n", 0, "override the default client population size")
	seed := flag.Uint64("seed", 1, "experiment seed")
	csvDir := flag.String("csv", "", "directory to write per-figure CSV files into")
	workers := flag.Int("workers", 0, "grid-cell worker goroutines (0 = GOMAXPROCS; output is identical at any setting)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	benchJSON := flag.String("bench-json", "", "time each figure serially and in parallel and write a JSON benchmark summary to this file")
	traceBench := flag.Bool("trace", false, "measure tracing overhead on the report hot path (recorder off vs on) and exit")
	flag.Parse()

	if *traceBench {
		if err := runTraceBench(os.Stdout); err != nil {
			fatalf("%v", err)
		}
		return
	}

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Printf("%-6s %s\n", id, experiments.Registry[id].Description)
		}
		return
	}
	if *all {
		figs = experiments.IDs()
	}
	if len(figs) == 0 {
		fmt.Fprintln(os.Stderr, "fedbench: nothing to run; use -all, -fig <id> or -list")
		os.Exit(2)
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatalf("creating cpu profile: %v", err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatalf("starting cpu profile: %v", err)
		}
		defer pprof.StopCPUProfile()
	}

	opts := experiments.Options{Reps: *reps, N: *n, Seed: *seed, Workers: *workers}
	if *benchJSON != "" {
		if err := runBench(*benchJSON, figs, opts); err != nil {
			fatalf("%v", err)
		}
	} else {
		for _, id := range figs {
			start := time.Now()
			result, err := experiments.Run(id, opts)
			if err != nil {
				fatalf("figure %s: %v", id, err)
			}
			if err := result.WriteTable(os.Stdout); err != nil {
				fatalf("%v", err)
			}
			fmt.Printf("(%d reps, %.1fs)\n\n", opts.Reps, time.Since(start).Seconds())
			if *csvDir != "" {
				if err := writeCSV(*csvDir, result); err != nil {
					fatalf("%v", err)
				}
			}
		}
	}

	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fatalf("creating mem profile: %v", err)
		}
		defer f.Close()
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatalf("writing mem profile: %v", err)
		}
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "fedbench: "+format+"\n", args...)
	os.Exit(1)
}

func writeCSV(dir string, result *experiments.FigureResult) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	path := filepath.Join(dir, "fig"+result.ID+".csv")
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := result.WriteCSV(f); err != nil {
		return err
	}
	return f.Close()
}

// benchFigure is one figure's serial-vs-parallel measurement.
type benchFigure struct {
	ID              string  `json:"id"`
	SerialSeconds   float64 `json:"serial_seconds"`
	ParallelSeconds float64 `json:"parallel_seconds"`
	Speedup         float64 `json:"speedup"`
	Cells           uint64  `json:"cells"`
	CellsPerSec     float64 `json:"cells_per_sec"`
	SerialMallocs   uint64  `json:"serial_mallocs"`
	ParallelMallocs uint64  `json:"parallel_mallocs"`
	Deterministic   bool    `json:"deterministic"`
}

// benchSummary is the machine-readable baseline -bench-json writes.
type benchSummary struct {
	GoVersion            string        `json:"go_version"`
	NumCPU               int           `json:"num_cpu"`
	GoMaxProcs           int           `json:"gomaxprocs"`
	Workers              int           `json:"workers"`
	Reps                 int           `json:"reps"`
	N                    int           `json:"n,omitempty"`
	Seed                 uint64        `json:"seed"`
	Note                 string        `json:"note,omitempty"`
	Figures              []benchFigure `json:"figures"`
	TotalSerialSeconds   float64       `json:"total_serial_seconds"`
	TotalParallelSeconds float64       `json:"total_parallel_seconds"`
	Speedup              float64       `json:"speedup"`
}

// runBench times every requested figure twice — Workers:1 and the
// configured parallel worker count — verifies the two results are
// identical, and writes the summary JSON. The parallel timing uses a
// metrics registry to report executed cells and throughput.
func runBench(path string, figs []string, opts experiments.Options) error {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	sum := benchSummary{
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		Workers:    workers,
		Reps:       opts.Reps,
		N:          opts.N,
		Seed:       opts.Seed,
	}
	if runtime.NumCPU() < 2 {
		sum.Note = "single-CPU host: parallel timings cannot show speedup; rerun on a multi-core machine for the throughput figure"
	}
	for _, id := range figs {
		serialOpts := opts
		serialOpts.Workers = 1
		serialRes, serialSec, serialMallocs, err := timedRun(id, serialOpts)
		if err != nil {
			return fmt.Errorf("figure %s (serial): %w", id, err)
		}
		reg := obs.NewRegistry()
		parallelOpts := opts
		parallelOpts.Workers = workers
		parallelOpts.Metrics = reg
		parallelRes, parallelSec, parallelMallocs, err := timedRun(id, parallelOpts)
		if err != nil {
			return fmt.Errorf("figure %s (parallel): %w", id, err)
		}
		cells, _ := reg.ExpvarMap()[experiments.MetricCells].(uint64)
		fig := benchFigure{
			ID:              id,
			SerialSeconds:   serialSec,
			ParallelSeconds: parallelSec,
			Cells:           cells,
			SerialMallocs:   serialMallocs,
			ParallelMallocs: parallelMallocs,
			Deterministic:   reflect.DeepEqual(serialRes, parallelRes),
		}
		if parallelSec > 0 {
			fig.Speedup = serialSec / parallelSec
			fig.CellsPerSec = float64(cells) / parallelSec
		}
		if !fig.Deterministic {
			return fmt.Errorf("figure %s: parallel result differs from serial — engine invariant violated", id)
		}
		sum.Figures = append(sum.Figures, fig)
		sum.TotalSerialSeconds += serialSec
		sum.TotalParallelSeconds += parallelSec
		fmt.Printf("bench %-6s serial %.2fs  parallel(%d) %.2fs  speedup %.2fx\n",
			id, serialSec, workers, parallelSec, fig.Speedup)
	}
	if sum.TotalParallelSeconds > 0 {
		sum.Speedup = sum.TotalSerialSeconds / sum.TotalParallelSeconds
	}
	out, err := json.MarshalIndent(&sum, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

// runTraceBench measures what the tracing layer costs on the report path.
// Two benchmarks, each run with the recorder detached and attached:
//
//   - the in-memory duplicate-submit fast path, where the disabled case is
//     the 0-alloc guarantee the tracing layer ships with (see
//     TestTracingDisabledReportAllocs), and
//   - a full HTTP submit-report request through the instrumented mux,
//     which is what a deployed fednumd pays per report when -trace-buf is
//     set.
func runTraceBench(w io.Writer) error {
	newSession := func(rec *trace.Recorder) (*transport.Server, string, wire.Report, error) {
		s := transport.NewServer(1)
		if rec != nil {
			s.SetTracer(rec)
		}
		ctx := context.Background()
		id, err := s.CreateSession(ctx, wire.SessionConfig{Feature: "bench", Bits: 4, Gamma: 1})
		if err != nil {
			return nil, "", wire.Report{}, err
		}
		task, err := s.AssignTask(ctx, id, "bench-client")
		if err != nil {
			return nil, "", wire.Report{}, err
		}
		rep := wire.Report{ClientID: "bench-client", Bit: task.Bit, Value: 1}
		if _, err := s.SubmitReport(ctx, id, rep); err != nil {
			return nil, "", wire.Report{}, err
		}
		return s, id, rep, nil
	}

	direct := func(rec *trace.Recorder) (testing.BenchmarkResult, error) {
		s, id, rep, err := newSession(rec)
		if err != nil {
			return testing.BenchmarkResult{}, err
		}
		ctx := context.Background()
		return testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := s.SubmitReport(ctx, id, rep); err != nil {
					b.Fatal(err)
				}
			}
		}), nil
	}

	overHTTP := func(rec *trace.Recorder) (testing.BenchmarkResult, error) {
		s, id, rep, err := newSession(rec)
		if err != nil {
			return testing.BenchmarkResult{}, err
		}
		body, err := json.Marshal(rep)
		if err != nil {
			return testing.BenchmarkResult{}, err
		}
		url := "/v1/sessions/" + id + "/reports"
		return testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				req := httptest.NewRequest("POST", url, bytes.NewReader(body))
				req.Header.Set("Content-Type", "application/json")
				rw := httptest.NewRecorder()
				s.ServeHTTP(rw, req)
				if rw.Code/100 != 2 {
					b.Fatalf("submit: HTTP %d: %s", rw.Code, rw.Body.String())
				}
			}
		}), nil
	}

	type lane struct {
		name string
		run  func(*trace.Recorder) (testing.BenchmarkResult, error)
	}
	// The recorder is sized so the armed runs never wrap mid-benchmark in a
	// way that changes the cost profile (the ring overwrites in place either
	// way; 1<<12 just keeps Dropped() readable if someone instruments this).
	for _, l := range []lane{
		{"duplicate submit (in-memory fast path)", direct},
		{"HTTP submit-report request", overHTTP},
	} {
		off, err := l.run(nil)
		if err != nil {
			return fmt.Errorf("trace bench %s (off): %w", l.name, err)
		}
		on, err := l.run(trace.NewRecorder(1 << 12))
		if err != nil {
			return fmt.Errorf("trace bench %s (on): %w", l.name, err)
		}
		offNs := float64(off.NsPerOp())
		onNs := float64(on.NsPerOp())
		fmt.Fprintf(w, "%s\n", l.name)
		fmt.Fprintf(w, "  tracing off: %8d ns/op  %4d allocs/op\n", off.NsPerOp(), off.AllocsPerOp())
		fmt.Fprintf(w, "  tracing on:  %8d ns/op  %4d allocs/op\n", on.NsPerOp(), on.AllocsPerOp())
		pct := 0.0
		if offNs > 0 {
			pct = (onNs - offNs) / offNs * 100
		}
		fmt.Fprintf(w, "  overhead:    %+8d ns/op (%+.1f%%)  %+d allocs/op\n\n",
			on.NsPerOp()-off.NsPerOp(), pct, on.AllocsPerOp()-off.AllocsPerOp())
	}
	return nil
}

// timedRun executes one figure and reports wall seconds and the number of
// heap objects allocated during the run.
func timedRun(id string, opts experiments.Options) (*experiments.FigureResult, float64, uint64, error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	res, err := experiments.Run(id, opts)
	sec := time.Since(start).Seconds()
	runtime.ReadMemStats(&after)
	if err != nil {
		return nil, 0, 0, err
	}
	return res, sec, after.Mallocs - before.Mallocs, nil
}
