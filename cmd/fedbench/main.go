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
//
// The engine derives every grid cell's randomness from (seed, cell index),
// so output is bit-identical at any -workers setting. -cpuprofile and
// -memprofile write pprof profiles of the run; -bench-json times each
// figure serially and in parallel and writes a machine-readable summary
// (wall time, cells/sec, allocations, speedup).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/pprof"
	"time"

	"repro/internal/experiments"
	"repro/internal/obs"
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
	flag.Parse()

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
			fmt.Println()
			// Wall time goes to stderr so stdout, results/fedbench_full.txt,
			// is the same on every run.
			fmt.Fprintf(os.Stderr, "fedbench: %s: %d reps, %.1fs\n", id, opts.Reps, time.Since(start).Seconds())
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
