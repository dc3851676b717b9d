// Command bench is the repository's benchmark: a load generator and
// verifier for a child fednumd with a write-ahead log, over loopback,
// through the repository's public client types. See README.md.
//
//	bash bench/run.sh                       all workloads, untraced then traced
//	bash bench/run.sh --workload accept_batch --seed 7 --seconds 10 --trace 0
//	bash bench/run.sh -compare a1.json,a2.json b1.json,b2.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// benchSpec mirrors BENCHMARK.json, the contract this program prints to.
type benchSpec struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// loadSpec finds BENCHMARK.json in the working directory or, when run
// from bench/ (go test), in its parent.
func loadSpec() (spec *benchSpec, root string, err error) {
	for _, dir := range []string{".", ".."} {
		data, rerr := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if rerr != nil {
			continue
		}
		spec = new(benchSpec)
		if err := json.Unmarshal(data, spec); err != nil {
			return nil, "", fmt.Errorf("BENCHMARK.json: %w", err)
		}
		root, err = filepath.Abs(dir)
		return spec, root, err
	}
	return nil, "", errors.New("BENCHMARK.json not found: run from the repository root")
}

// metricValue is one reported metric. Samples are the values its
// statistic was taken over, kept so a comparison can tell a difference
// from this run's own spread.
type metricValue struct {
	Value   float64   `json:"value"`
	Unit    string    `json:"unit"`
	Samples []float64 `json:"samples,omitempty"`
}

// workloadResult is one run of one workload, traced or not.
type workloadResult struct {
	Workload    string                 `json:"workload"`
	Traced      bool                   `json:"traced"`
	Correct     bool                   `json:"correct"`
	Error       string                 `json:"error,omitempty"`
	Attempted   int                    `json:"attempted"`
	Failed      int                    `json:"failed"`
	Metrics     map[string]metricValue `json:"metrics"`
	Diagnostics map[string]any         `json:"diagnostics,omitempty"`
}

// resultFile is what a run leaves in bench/out/.
type resultFile struct {
	Seed            uint64           `json:"seed"`
	Seconds         float64          `json:"seconds"`
	Scale           float64          `json:"scale"`
	GoVersion       string           `json:"go_version"`
	NumCPU          int              `json:"num_cpu"`
	GeneratorProcs  int              `json:"generator_gomaxprocs"`
	DaemonProcs     int              `json:"daemon_gomaxprocs"`
	Connections     int              `json:"connections"`
	CPU             int              `json:"cpu"` // the one CPU generator and daemon share
	RoundsPerRun    int              `json:"rounds_per_run"`
	WorkloadResults []workloadResult `json:"results"`
}

// driverLine is the last line of standard output in single-workload mode.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		workloadName = flag.String("workload", "", "run one workload (default: all four, untraced then traced)")
		seed         = flag.Uint64("seed", 1, "seed of client values, session choice and the retransmission mix")
		seconds      = flag.Float64("seconds", 0, "seconds one run measures (default: run_seconds of BENCHMARK.json)")
		traceMode    = flag.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: the traced run's per-layer metrics")
		scale        = flag.Float64("scale", 1, "multiplies -seconds and the seeded client counts; 0.01 is the smoke run")
		fednumd      = flag.String("fednumd", "", "path of the built fednumd (bench/run.sh builds and passes it)")
		compare      = flag.Bool("compare", false, "compare two sides given as arguments, each a comma-separated list of result files, applying each metric's bound")
	)
	flag.Parse()
	spec, root, err := loadSpec()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 2
	}
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare takes two arguments, each a comma-separated list of result files")
			return 2
		}
		return compareFiles(spec, flag.Arg(0), flag.Arg(1))
	}
	if *fednumd == "" {
		fmt.Fprintln(os.Stderr, "bench: -fednumd is required; run through bench/run.sh, which builds it")
		return 2
	}
	if *seconds == 0 {
		*seconds = float64(spec.RunSeconds)
	}
	env, cleanup, err := newEnv(spec, root, *fednumd, *seed, *seconds, *scale)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	defer cleanup()
	// A signal reaps the children and removes the temporary logs before
	// the process goes.
	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigs
		cleanup()
		os.Exit(130)
	}()

	file := env.newResultFile()
	code := 0
	if *workloadName != "" {
		w, ok := findWorkload(*workloadName)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *workloadName)
			return 2
		}
		res := env.runWorkload(w, *traceMode == 1)
		file.WorkloadResults = append(file.WorkloadResults, res)
		printResult(res)
		if err := env.writeResult(file, fmt.Sprintf("result-%s-trace%d.json", w.Name, *traceMode)); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			code = 1
		}
		line := driverLine{Correct: res.Correct, Attempted: max(1, res.Attempted), Failed: res.Failed,
			Metrics: make(map[string]driverValue)}
		for name, m := range res.Metrics {
			line.Metrics[name] = driverValue{m.Value, m.Unit}
		}
		out, err := json.Marshal(line)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		fmt.Println(string(out))
		if !res.Correct {
			code = 1
		}
		return code
	}
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			res := env.runWorkload(w, traced)
			file.WorkloadResults = append(file.WorkloadResults, res)
			printResult(res)
			if !res.Correct {
				code = 1
			}
		}
	}
	if err := env.writeResult(file, "result.json"); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		code = 1
	}
	return code
}

// roundsPerRun is how many independent rounds — each with its own seeded
// log and daemon — share one untraced run's seconds. Every end-to-end
// metric is a median over them, so one stall on the shared box spoils
// one sample of three, and set-up time is measured three times.
const roundsPerRun = 3

// env is what every workload of one invocation shares.
type env struct {
	spec    *benchSpec
	seed    uint64
	seconds float64
	scale   float64
	conns   int
	procs   int
	cpu     int // the CPU generator and daemon run on
	fednumd string
	tmpRoot string
	outDir  string
	// layers holds the in-process layer timings, which do not depend on
	// the workload and are taken once an invocation.
	layers map[string]float64
}

func newEnv(spec *benchSpec, root, fednumd string, seed uint64, seconds, scale float64) (*env, func(), error) {
	runtime.GOMAXPROCS(1)
	e := &env{
		spec: spec, seed: seed, seconds: seconds * scale, scale: scale,
		conns: runtime.NumCPU(), procs: max(1, runtime.NumCPU()-1),
		outDir: filepath.Join(root, "bench", "out"),
	}
	var err error
	if e.cpu, err = pinToFirstCPU(); err != nil {
		return nil, nil, err
	}
	if e.fednumd, err = filepath.Abs(fednumd); err != nil {
		return nil, nil, err
	}
	if err := os.MkdirAll(e.outDir, 0o755); err != nil {
		return nil, nil, err
	}
	tmpParent := filepath.Join(root, "bench", ".build", "tmp")
	if err := os.MkdirAll(tmpParent, 0o755); err != nil {
		return nil, nil, err
	}
	if e.tmpRoot, err = os.MkdirTemp(tmpParent, "run-"); err != nil {
		return nil, nil, err
	}
	cleanup := func() {
		killAllDaemons()
		os.RemoveAll(e.tmpRoot)
	}
	return e, cleanup, nil
}

func (e *env) newResultFile() *resultFile {
	return &resultFile{
		Seed: e.seed, Seconds: e.seconds, Scale: e.scale, GoVersion: runtime.Version(),
		NumCPU: runtime.NumCPU(), GeneratorProcs: runtime.GOMAXPROCS(0), DaemonProcs: e.procs,
		Connections: e.conns, CPU: e.cpu, RoundsPerRun: roundsPerRun,
	}
}

func (e *env) writeResult(f *resultFile, name string) error {
	data, err := json.MarshalIndent(f, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(e.outDir, name), data, 0o644)
}

func (e *env) runConfig(w workloadSpec) runConfig {
	return runConfig{
		Spec: w, Seed: e.seed, Scale: e.scale,
		Plan:  planPhases(w, time.Duration(e.seconds/roundsPerRun*float64(time.Second))),
		Conns: e.conns, Procs: e.procs, Fednumd: e.fednumd,
		TmpRoot: e.tmpRoot, OutDir: e.outDir, TraceBuf: 131072,
	}
}

// runWorkload runs one workload, traced or not, and never panics the
// caller with an error: a failed run is a result with Correct false.
func (e *env) runWorkload(w workloadSpec, traced bool) workloadResult {
	res := workloadResult{Workload: w.Name, Traced: traced, Metrics: make(map[string]metricValue),
		Diagnostics: make(map[string]any)}
	var err error
	if traced {
		err = e.runTraced(w, &res)
	} else {
		err = e.runUntraced(w, &res)
	}
	for name, m := range res.Metrics {
		if err == nil && (math.IsNaN(m.Value) || math.IsInf(m.Value, 0)) {
			err = fmt.Errorf("metric %s has no samples", name)
		}
	}
	res.Correct = err == nil && res.Failed == 0
	if err != nil {
		// A failed run reports no numbers: half-measured ones would read
		// as measurements.
		res.Metrics = map[string]metricValue{}
		res.Error = err.Error()
		fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.Name, err)
	}
	return res
}

func (e *env) unit(name string) string {
	for _, list := range [][]metricSpec{e.spec.EndToEnd, e.spec.PerLayer} {
		for _, m := range list {
			if m.Name == name {
				return m.Unit
			}
		}
	}
	return ""
}

// runUntraced measures the end-to-end metrics: roundsPerRun rounds with
// tracing off.
func (e *env) runUntraced(w workloadSpec, res *workloadResult) error {
	cfg := e.runConfig(w)
	digest := newDigester()
	var (
		setup, recoverS, restore, cpu, rss, busy []float64
		cpuTotal                                 time.Duration
		units, walReports                        int
		walBytes                                 float64
		slices, late, wal                        []float64
		ack, p50                                 [3][]float64 // lo, mid, hi: pooled requests, per-round medians
		backlog, truncated                       int
		perRound                                 []map[string]float64
	)
	for round := 0; round < roundsPerRun; round++ {
		rr, err := runRound(cfg, round, digest)
		if rr != nil {
			res.Attempted += rr.Attempted
			res.Failed += rr.Failed
		}
		if err != nil {
			return fmt.Errorf("round %d: %w", round, err)
		}
		setup = append(setup, rr.SetupS)
		recoverS = append(recoverS, rr.RecoverS)
		restore = append(restore, rr.RestoreS)
		cpu = append(cpu, cpuPerUnit(rr.DaemonCPU, rr.Units))
		cpuTotal += rr.DaemonCPU
		units += rr.Units
		walBytes += rr.WALBytes
		walReports += rr.WALReports
		wal = append(wal, ratio(rr.WALBytes, float64(rr.WALReports)))
		rss = append(rss, rr.PeakRSSMB)
		busy = append(busy, rr.GeneratorBusy)
		slices = append(slices, rr.Sat.SliceRates...)
		for i, ph := range []*openStats{&rr.Lo, &rr.Mid, &rr.Hi} {
			ack[i] = append(ack[i], ph.AckMs...)
			p50[i] = append(p50[i], median(ph.AckMs))
			late = append(late, ph.LateMs...)
			backlog += ph.Backlog
		}
		if rr.Sat.Truncated {
			truncated++
		}
		perRound = append(perRound, map[string]float64{
			"seed_s": rr.SeedS, "boot_s": rr.BootS, "recover_s": rr.RecoverS, "restore_s": rr.RestoreS,
			"sat_units_per_s": mean(rr.Sat.SliceRates), "cpu_us_per_report": cpuPerUnit(rr.DaemonCPU, rr.Units),
			"cpu_sys_us_per_report": cpuPerUnit(rr.DaemonSys, rr.Units),
			"generator_busy_frac":   rr.GeneratorBusy, "seed_records": float64(rr.SeedRecords),
		})
	}
	put := func(name string, value float64, samples []float64) {
		res.Metrics[name] = metricValue{Value: value, Unit: e.unit(name), Samples: samples}
	}
	put("setup_s", median(setup), setup)
	// Throughput, CPU and log bytes per report are totals over totals
	// across the rounds. The slice rates of the fsync-bound workloads have
	// two modes (two committers in or out of step), and the median of a
	// two-mode sample jumps between them from run to run; the mean does
	// not. The slices stay as the samples that show the spread.
	put("reports_per_s", mean(slices), slices)
	put("cpu_us_per_report", cpuPerUnit(cpuTotal, units), cpu)
	put("wal_bytes_per_report", ratio(walBytes, float64(walReports)), wal)
	// Latencies are taken over the rounds' pooled requests; the per-round
	// medians are kept as the samples of their spread.
	put("ack_p50_ms.lo", median(ack[0]), p50[0])
	put("ack_p50_ms.mid", median(ack[1]), p50[1])
	put("ack_p50_ms.hi", median(ack[2]), p50[2])
	put("peak_rss_mb", median(rss), rss)
	// A boot replays a fixed log: whatever makes one of three slower is
	// interference, so the fastest is the measurement.
	put("recover_s", minOf(recoverS), recoverS)
	put("restore_s", minOf(restore), restore)
	all := append(append(append([]float64(nil), ack[0]...), ack[1]...), ack[2]...)
	res.Diagnostics["input_digest"] = digest.hex()
	res.Diagnostics["open_loop_requests"] = map[string]int{"lo": len(ack[0]), "mid": len(ack[1]), "hi": len(ack[2])}
	res.Diagnostics["generator.late_p99_ms"] = quantile(late, 0.99)
	res.Diagnostics["generator.backlog_at_end"] = backlog
	res.Diagnostics["generator.busy_frac"] = median(busy)
	res.Diagnostics["generator.ack_p90_ms.mid"] = quantile(ack[1], 0.9)
	res.Diagnostics["generator.ack_p99_ms.lo"] = quantile(ack[0], 0.99)
	res.Diagnostics["generator.ack_p99_ms.mid"] = quantile(ack[1], 0.99)
	res.Diagnostics["generator.ack_p99_ms.hi"] = quantile(ack[2], 0.99)
	res.Diagnostics["generator.stalls_over_50ms"] = countOver(all, 50)
	res.Diagnostics["sat_phases_truncated"] = truncated
	res.Diagnostics["rounds"] = perRound
	return nil
}

// runTraced measures the per-layer metrics: an untraced closed-loop
// round and its traced twin (their ratio is the tracing overhead), the
// traced round's spans and /metrics deltas, and the in-process layer
// timings. The trace goes to bench/out/trace-<workload>.json.
func (e *env) runTraced(w workloadSpec, res *workloadResult) error {
	cfg := e.runConfig(w)
	digest := newDigester()
	quick := cfg
	quick.Quick = true
	plain, err := runRound(quick, 0, digest)
	if plain != nil {
		res.Attempted += plain.Attempted
		res.Failed += plain.Failed
	}
	if err != nil {
		return fmt.Errorf("untraced twin: %w", err)
	}
	cfg.Traced = true
	rr, err := runRound(cfg, 0, newDigester())
	if rr != nil {
		res.Attempted += rr.Attempted
		res.Failed += rr.Failed
	}
	if err != nil {
		return fmt.Errorf("traced round: %w", err)
	}
	if e.layers == nil {
		if e.layers, err = measureLayers(e.tmpRoot, e.scale); err != nil {
			return fmt.Errorf("layer timings: %w", err)
		}
	}
	layers := make(map[string]float64)
	for name, v := range e.layers {
		layers[name] = v
	}
	for name, v := range spanLayers(w, rr) {
		layers[name] = v
	}
	for name, v := range counterLayers(rr) {
		layers[name] = v
	}
	layers["trace.overhead_frac"] = 1 - ratio(mean(rr.Sat.SliceRates), mean(plain.Sat.SliceRates))
	layers["transport.finalize_p50_ms"] = median(rr.FinalizeMs)
	var ack, late []float64
	for _, ph := range []*openStats{&rr.Lo, &rr.Mid, &rr.Hi} {
		ack = append(ack, ph.AckMs...)
		late = append(late, ph.LateMs...)
	}
	layers["generator.late_p99_ms"] = quantile(late, 0.99)
	layers["generator.backlog_at_end"] = float64(rr.Lo.Backlog + rr.Mid.Backlog + rr.Hi.Backlog)
	layers["generator.busy_frac"] = rr.GeneratorBusy
	layers["generator.ack_p90_ms.mid"] = quantile(rr.Mid.AckMs, 0.9)
	layers["generator.ack_p99_ms.lo"] = quantile(rr.Lo.AckMs, 0.99)
	layers["generator.ack_p99_ms.mid"] = quantile(rr.Mid.AckMs, 0.99)
	layers["generator.ack_p99_ms.hi"] = quantile(rr.Hi.AckMs, 0.99)
	layers["generator.stalls_over_50ms"] = float64(countOver(ack, 50))
	for name, v := range layers {
		res.Metrics[name] = metricValue{Value: v, Unit: e.unit(name)}
	}
	res.Diagnostics["input_digest"] = digest.hex()
	return writeTraceFile(filepath.Join(e.outDir, "trace-"+w.Name+".json"), traceFile{
		Workload: w.Name, Seed: e.seed, Layers: layers,
		ClientSpans: rr.ClientSpans, ServerSpans: rr.ServerSpans,
	})
}

// cpuPerUnit is CPU time per unit in microseconds.
func cpuPerUnit(cpu time.Duration, units int) float64 {
	return ratio(float64(cpu.Microseconds()), float64(units))
}

// ratio is a/b, and 0 when there is nothing to divide by.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// counterLayers reads the per-layer metrics the daemon itself counts,
// as /metrics deltas over the timed phases. A series the daemon no
// longer publishes yields no metric.
func counterLayers(rr *roundResult) map[string]float64 {
	out := make(map[string]float64)
	d := func(series string) (float64, bool) { return delta(rr.Before, rr.After, series) }
	units := float64(rr.Units)
	accepted := float64(rr.Timed.Accepted)
	total := float64(rr.Timed.Accepted + rr.Timed.Duplicate + rr.Timed.Rejected)
	out["transport.accepted"] = accepted
	out["transport.duplicate"] = float64(rr.Timed.Duplicate)
	out["transport.rejected"] = float64(rr.Timed.Rejected)
	out["transport.accept_ratio"] = ratio(accepted, total)
	appends, haveAppends := d("fednum_wal_appends_total")
	bytes, haveBytes := d("fednum_wal_append_bytes_total")
	if haveAppends {
		out["wal.appends_per_report"] = ratio(appends, accepted)
	}
	if haveAppends && haveBytes {
		out["wal.bytes_per_append"] = ratio(bytes, appends)
	}
	if v, ok := d("fednum_wal_fsyncs_total"); ok {
		out["wal.fsyncs_per_report"] = ratio(v, units)
	}
	if v, ok := d("fednum_wal_rotations_total"); ok {
		out["wal.rotations"] = v
	}
	// A histogram that saw nothing in the window reads 0.
	hist := func(name, metric, labels string) {
		if _, ok := rr.After[metric+"_count"+braces(labels)]; !ok {
			return
		}
		v, _ := histQuantile(rr.Before, rr.After, metric, labels, 0.5)
		out[name] = v * 1000
	}
	hist("wal.flush_p50_ms", "fednum_wal_flush_seconds", "")
	hist("transport.handler_p50_ms.report", "fednum_http_request_seconds", `route="/v1/sessions/{id}/reports"`)
	hist("transport.handler_p50_ms.task", "fednum_http_request_seconds", `route="/v1/sessions/{id}/task"`)
	return out
}

func braces(labels string) string {
	if labels == "" {
		return ""
	}
	return "{" + labels + "}"
}

// printResult prints every metric of a run by name, with its unit.
func printResult(res workloadResult) {
	mode := "end-to-end, tracing off"
	if res.Traced {
		mode = "per-layer, traced run"
	}
	fmt.Printf("== %s (%s) correct=%v attempted=%d failed=%d\n", res.Workload, mode, res.Correct, res.Attempted, res.Failed)
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Printf("%-44s %14.6g %-8s", name, m.Value, m.Unit)
		if len(m.Samples) > 0 {
			q1, _, q3 := quartiles(m.Samples)
			fmt.Printf(" n=%d q1=%.6g q3=%.6g", len(m.Samples), q1, q3)
		}
		fmt.Println()
	}
	keys := make([]string, 0, len(res.Diagnostics))
	for k := range res.Diagnostics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if k != "rounds" { // per-round detail is for the result file
			fmt.Printf("  %-42s %v\n", k, res.Diagnostics[k])
		}
	}
}
