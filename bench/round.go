package main

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/frand"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/transport/wire"
)

// digester hashes the inputs a run generates — the seeded clients and
// the first requests of each round — so two runs with one seed can be
// shown to have offered the same thing.
type digester struct {
	h hash.Hash
}

func newDigester() *digester { return &digester{h: sha256.New()} }

func (d *digester) add(s string, a int, b uint64) {
	var buf [16]byte
	binary.LittleEndian.PutUint64(buf[:8], uint64(a))
	binary.LittleEndian.PutUint64(buf[8:], b)
	d.h.Write([]byte(s))
	d.h.Write(buf[:])
}

func (d *digester) hex() string { return fmt.Sprintf("%x", d.h.Sum(nil)[:8]) }

// digestRequests is how many requests of each round enter the digest;
// later ones depend on how far the timed phases got.
const digestRequests = 64

// runConfig is what every round of a run shares.
type runConfig struct {
	Spec     workloadSpec
	Seed     uint64
	Scale    float64 // multiplies the seeded client counts
	Plan     phasePlan
	Conns    int
	Procs    int // the daemon's GOMAXPROCS
	Fednumd  string
	TmpRoot  string // parent of the per-round WAL directories
	OutDir   string
	Traced   bool
	TraceBuf int
	// Quick rounds run the warm-up and the closed-loop phase only and
	// skip the crash and snapshot cycles; the traced run uses one as its
	// untraced twin.
	Quick bool
	// withhold keeps one acked report out of the tally, to prove the
	// verification notices.
	withhold bool
}

// outcomeCounts is what the daemon answered, as the generator saw it.
type outcomeCounts struct {
	Accepted, Duplicate, Rejected int
}

// roundResult is everything one round measured.
type roundResult struct {
	SetupS, SeedS, BootS float64
	RecoverS, RestoreS   float64
	Sat                  satStats
	Lo, Mid, Hi          openStats
	DaemonCPU            time.Duration // the daemon's user+sys CPU over the timed phases
	DaemonSys            time.Duration // the sys part of it
	Units                int           // units finally acked in them
	PeakRSSMB            float64
	GeneratorBusy        float64
	FinalizeMs           []float64
	Attempted, Failed    int
	Timed                outcomeCounts // acks during the timed phases
	Before, After        promSample    // /metrics around the timed phases
	SeedRecords          int
	// WALBytes over WALReports is what a report costs in the log: how
	// much the timed phases grew the WAL directory over how many reports
	// they accepted, or, on the workloads that only retransmit (and must
	// not grow it at all), the whole log over the reports it holds.
	WALBytes     float64
	WALReports   int
	ClientSpans  []trace.SpanData
	ServerSpans  []trace.SpanData
	SpansDropped uint64
}

// runner drives one round: one seeded log, one daemon lineage.
type runner struct {
	cfg    runConfig
	sd     *seeded
	d      *daemon
	rng    *frand.RNG // draws the request sequence
	rrRNG  *frand.RNG
	zipf   *frand.Zipf
	digest *digester
	tracer *trace.Recorder

	mu        sync.Mutex // guards everything below
	cursor    int        // next pool index (fresh, sweep)
	limit     int        // pool index the current phase may not pass
	nextID    int        // next fresh participant number
	generated int        // requests generated so far, for the digest
	attempted int
	failed    int
	counts    outcomeCounts
	withheld  bool
	vals      [][]uint32 // participate: pre-drawn values per session

	conns []connState
}

// connState is one connection's scratch; a connection sends one request
// at a time.
type connState struct {
	rep  transport.BinaryReporter
	want []wire.AckStatus
	idx  []int // pool index per record, -1 for a client the session never saw
}

// do sends one request of the workload's kind.
func (r *runner) do(conn, _ int) (int, error) {
	if r.cfg.Spec.Kind == kindParticipate {
		return r.participate()
	}
	return r.flushBatch(&r.conns[conn])
}

// nextRecord draws record i of a batch request; called with r.mu held.
func (r *runner) nextRecord(c *connState) error {
	spec := r.cfg.Spec
	pool := r.sd.pool
	switch spec.Kind {
	case kindFresh:
		if r.cursor >= r.limit {
			return errExhausted
		}
		cl := &pool[r.cursor]
		c.idx = append(c.idx, r.cursor)
		c.want = append(c.want, wire.AckAccepted)
		r.cursor++
		return c.rep.Add(cl.id, int(cl.bit), uint64(cl.sent))
	case kindSweep:
		i := r.cursor % r.sd.reported
		cl := &pool[i]
		c.idx = append(c.idx, i)
		c.want = append(c.want, wire.AckDuplicate)
		r.cursor++
		return c.rep.Add(cl.id, int(cl.bit), uint64(cl.sent))
	case kindRetransmit:
		i := r.rng.Intn(r.sd.reported)
		cl := &pool[i]
		c.idx = append(c.idx, i)
		switch roll := r.rng.Intn(100); {
		case roll < mixExact:
			c.want = append(c.want, wire.AckDuplicate)
			return c.rep.Add(cl.id, int(cl.bit), uint64(cl.sent))
		case roll < mixExact+mixConflict:
			c.want = append(c.want, wire.AckConflict)
			return c.rep.Add(cl.id, int(cl.bit), uint64(cl.sent^1))
		case roll < mixExact+mixConflict+mixWrongBit:
			c.want = append(c.want, wire.AckWrongBit)
			bits := r.sd.sessions[0].cfg.Bits
			return c.rep.Add(cl.id, (int(cl.bit)+1)%bits, uint64(cl.sent))
		default:
			c.idx[len(c.idx)-1] = -1
			c.want = append(c.want, wire.AckNoTask)
			return c.rep.Add(fmt.Sprintf("ghost-%08x", i), int(cl.bit), uint64(cl.sent))
		}
	}
	return fmt.Errorf("bench: kind %d sends no batches", spec.Kind)
}

// flushBatch builds one binary batch and posts it. A batch is finally
// acked when every record came back with the status its content calls for.
func (r *runner) flushBatch(c *connState) (int, error) {
	spec := r.cfg.Spec
	s := r.sd.sessions[0]
	r.mu.Lock()
	c.want, c.idx = c.want[:0], c.idx[:0]
	for i := 0; i < spec.Batch; i++ {
		if err := r.nextRecord(c); err != nil {
			// Put back what this request took: nothing was sent.
			if spec.Kind == kindFresh {
				r.cursor -= len(c.idx)
			}
			r.mu.Unlock()
			c.discard()
			return 0, err
		}
	}
	if r.generated < digestRequests {
		for i, ix := range c.idx {
			r.digest.add("", ix, uint64(c.want[i]))
		}
	}
	r.generated++
	r.attempted++
	r.mu.Unlock()

	acks, err := c.rep.Flush(context.Background(), s.id)
	r.mu.Lock()
	defer r.mu.Unlock()
	if err != nil {
		r.failed++
		c.discard()
		return 0, fmt.Errorf("batch refused: %w", err)
	}
	ok := 0
	for i, a := range acks {
		switch {
		case a == wire.AckAccepted:
			r.counts.Accepted++
		case a == wire.AckDuplicate:
			r.counts.Duplicate++
		default:
			r.counts.Rejected++
		}
		if a != c.want[i] {
			continue
		}
		ok++
		if a == wire.AckAccepted {
			if r.cfg.withhold && !r.withheld {
				r.withheld = true
				continue
			}
			cl := &r.sd.pool[c.idx[i]]
			s.accept(cl.val, int(cl.bit), uint64(cl.sent))
		}
	}
	if ok != len(acks) {
		r.failed++
		return ok, fmt.Errorf("batch acked %d of %d records as expected", ok, len(acks))
	}
	return ok, nil
}

// discard empties the reporter's buffer after a failed or abandoned
// request (Flush keeps it for a retry the generator never makes).
func (c *connState) discard() {
	c.rep = transport.BinaryReporter{BaseURL: c.rep.BaseURL, HTTPClient: c.rep.HTTPClient, Tracer: c.rep.Tracer}
}

// participate runs the device protocol once for a client the daemon has
// never seen: fetch the task, disclose the one bit, submit it.
func (r *runner) participate() (int, error) {
	r.mu.Lock()
	si := int(r.zipf.Uint64())
	s := r.sd.sessions[si]
	if len(r.vals[si]) == 0 {
		r.vals[si] = s.sampleValues(r.rng, 1024)
	}
	val := r.vals[si][0]
	r.vals[si] = r.vals[si][1:]
	id := fmt.Sprintf("new-%08x", r.nextID)
	r.nextID++
	if r.generated < digestRequests {
		r.digest.add(id, si, uint64(val))
	}
	r.generated++
	r.attempted++
	// The randomized-response coin is drawn here, in request order, so
	// it does not depend on which connection the request lands on.
	coins := r.rrRNG.Split()
	r.mu.Unlock()

	fail := func(err error) (int, error) {
		r.mu.Lock()
		r.failed++
		r.mu.Unlock()
		return 0, err
	}
	p := transport.Participant{BaseURL: r.d.Base, ClientID: id, HTTPClient: r.d.HTTP, RNG: coins, Tracer: r.tracer}
	ctx := context.Background()
	task, err := p.FetchTask(ctx, s.id)
	if err != nil {
		return fail(fmt.Errorf("task refused: %w", err))
	}
	sent := s.reportBit(val, task.Bit, coins)
	ack, err := p.SubmitReport(ctx, s.id, wire.Report{ClientID: id, Bit: task.Bit, Value: sent})
	if err != nil {
		return fail(fmt.Errorf("report refused: %w", err))
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	switch {
	case ack.Accepted && !ack.Duplicate:
		r.counts.Accepted++
	case ack.Accepted:
		r.counts.Duplicate++
	default:
		r.counts.Rejected++
	}
	if !ack.Accepted || ack.Duplicate {
		r.failed++
		return 0, fmt.Errorf("fresh report for %s acked accepted=%v duplicate=%v %s", id, ack.Accepted, ack.Duplicate, ack.Reason)
	}
	if r.cfg.withhold && !r.withheld {
		r.withheld = true
		return 1, nil
	}
	s.accept(val, task.Bit, sent)
	return 1, nil
}

// point attaches the per-connection reporters to the current daemon.
func (r *runner) point() {
	r.conns = make([]connState, r.cfg.Conns)
	for i := range r.conns {
		r.conns[i].rep = transport.BinaryReporter{BaseURL: r.d.Base, HTTPClient: r.d.HTTP, Tracer: r.tracer}
	}
}

func (r *runner) daemonOpts(dir string, snapshot bool) daemonOpts {
	o := daemonOpts{
		Bin: r.cfg.Fednumd, WALDir: filepath.Join(dir, "wal"), Fsync: r.cfg.Spec.Fsync,
		Seed: r.cfg.Seed, Procs: r.cfg.Procs,
		Stderr: filepath.Join(r.cfg.OutDir, fmt.Sprintf("fednumd-%s.stderr", r.cfg.Spec.Name)),
	}
	if snapshot {
		o.Snapshot = filepath.Join(dir, "snapshot.json")
	}
	if r.cfg.Traced {
		o.TraceBuf = r.cfg.TraceBuf
	}
	return o
}

// runRound seeds a log, boots the daemon on it, offers the timed phases,
// verifies what the daemon holds, crashes it, verifies again, finalizes,
// and restarts it once more from a shutdown snapshot.
func runRound(cfg runConfig, round int, digest *digester) (res *roundResult, err error) {
	dir, err := os.MkdirTemp(cfg.TmpRoot, cfg.Spec.Name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	spec := cfg.Spec
	rng := frand.New(cfg.Seed*0x9e3779b97f4a7c15 + uint64(round))
	r := &runner{cfg: cfg, digest: digest, rng: rng.Split(), rrRNG: rng.Split()}
	res = &roundResult{}
	// Whatever ends the round, the result says how many requests it sent
	// and how many of them failed.
	defer func() {
		r.mu.Lock()
		res.Attempted, res.Failed = r.attempted, r.failed
		r.mu.Unlock()
	}()

	// Set-up: the seeded log and the first boot, which replays it.
	reported := int(float64(spec.Reported) * cfg.Scale)
	fresh, reserved := freshNeeded(spec, cfg.Plan)
	t0 := time.Now()
	r.sd, err = seedLog(filepath.Join(dir, "wal"), spec, reported, fresh, rng.Split(), digest)
	if err != nil {
		return res, err
	}
	res.SeedS = time.Since(t0).Seconds()
	res.SeedRecords = r.sd.records
	if cfg.Traced {
		r.tracer = trace.NewRecorder(cfg.TraceBuf)
	}
	// boot starts the daemon on the round's log; the round owns one
	// daemon at a time and the deferred kill reaps whichever is last.
	boot := func(snapshot bool) (float64, error) {
		d, took, err := startDaemon(r.daemonOpts(dir, snapshot), cfg.Conns)
		if err != nil {
			return 0, err
		}
		r.d = d
		r.point()
		return took.Seconds(), nil
	}
	if res.BootS, err = boot(false); err != nil {
		return res, err
	}
	defer func() { r.d.kill() }()
	res.SetupS = res.SeedS + res.BootS
	if spec.Kind == kindParticipate {
		r.zipf = frand.NewZipf(rng.Split(), 1.1, 1, uint64(spec.Sessions-1))
		r.vals = make([][]uint32, spec.Sessions)
	}

	// Warm-up: connections dialled, pools and maps touched, not timed.
	r.limit = len(r.sd.pool) - reserved
	for k := 0; k < warmupRequests; k++ {
		if _, err := r.do(k%cfg.Conns, k); err != nil {
			return res, fmt.Errorf("warm-up: %w", err)
		}
	}

	// The timed phases, bracketed by the daemon's own counters.
	if res.Before, err = scrape(r.d.HTTP, r.d.Base); err != nil {
		return res, err
	}
	user0, sys0, err := r.d.cpu()
	if err != nil {
		return res, err
	}
	wal0, err := dirBytes(filepath.Join(dir, "wal"))
	if err != nil {
		return res, err
	}
	gen0 := selfCPU()
	r.mu.Lock()
	r.counts = outcomeCounts{}
	r.mu.Unlock()
	tPhases := time.Now()
	res.Sat = closedLoop(cfg.Conns, cfg.Plan.Sat, 5, r.do)
	if res.Sat.Err != nil {
		return res, fmt.Errorf("sat phase: %w", res.Sat.Err)
	}
	units := res.Sat.Units
	if !cfg.Quick {
		r.limit = len(r.sd.pool)
		lo, mid, hi := spec.rates()
		for _, ph := range []struct {
			name string
			rate float64
			dur  time.Duration
			st   *openStats
		}{{"lo", lo, cfg.Plan.Lo, &res.Lo}, {"mid", mid, cfg.Plan.Mid, &res.Mid}, {"hi", hi, cfg.Plan.Hi, &res.Hi}} {
			*ph.st = openLoop(cfg.Conns, ph.rate/float64(spec.Batch), ph.dur, r.do)
			if ph.st.Err != nil {
				return res, fmt.Errorf("%s phase: %w", ph.name, ph.st.Err)
			}
			units += ph.st.Units
		}
	}
	wall := time.Since(tPhases)
	res.GeneratorBusy = (selfCPU() - gen0).Seconds() / wall.Seconds()
	user1, sys1, err := r.d.cpu()
	if err != nil {
		return res, err
	}
	if res.After, err = scrape(r.d.HTTP, r.d.Base); err != nil {
		return res, err
	}
	res.DaemonCPU, res.DaemonSys, res.Units = user1-user0+sys1-sys0, sys1-sys0, units
	if res.PeakRSSMB, err = r.d.peakRSSMB(); err != nil {
		return res, err
	}
	r.mu.Lock()
	res.Timed = r.counts
	r.mu.Unlock()
	wal1, err := dirBytes(filepath.Join(dir, "wal"))
	if err != nil {
		return res, err
	}
	if spec.Kind == kindFresh || spec.Kind == kindParticipate {
		res.WALBytes, res.WALReports = wal1-wal0, res.Timed.Accepted
	} else {
		if wal1 != wal0 {
			return res, fmt.Errorf("retransmissions grew the log by %v bytes", wal1-wal0)
		}
		res.WALBytes, res.WALReports = wal1, r.sd.reported
	}
	if cfg.Traced {
		if err := r.pullSpans(res); err != nil {
			return res, err
		}
	}
	if err := r.checkCounters(res); err != nil {
		return res, err
	}

	// What the daemon holds must be exactly what it acked...
	if err := r.verifyReports("after the timed phases"); err != nil {
		return res, err
	}
	if cfg.Quick {
		return res, nil
	}
	// ...and still be after a crash: nothing acked is lost, nothing
	// unacked appears.
	r.d.kill()
	if res.RecoverS, err = boot(true); err != nil {
		return res, fmt.Errorf("restart after SIGKILL: %w", err)
	}
	if err := r.verifyReports("after SIGKILL and replay"); err != nil {
		return res, err
	}
	if err := r.finalizeAll(res); err != nil {
		return res, err
	}
	// A graceful stop cuts a snapshot and compacts the log; the next
	// boot restores from it and must serve the same finalized results.
	if err := r.d.terminate(); err != nil {
		return res, err
	}
	if res.RestoreS, err = boot(true); err != nil {
		return res, fmt.Errorf("restart from snapshot: %w", err)
	}
	if err := r.verifyFinal("after snapshot restore"); err != nil {
		return res, err
	}
	return res, nil
}

// selfCPU is the generator's own user+system CPU time so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func dirBytes(dir string) (float64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range ents {
		info, err := e.Info()
		if err != nil {
			return 0, err
		}
		n += info.Size()
	}
	return float64(n), nil
}

// checkCounters compares the daemon's own outcome counters over the
// timed phases with what the generator saw come back.
func (r *runner) checkCounters(res *roundResult) error {
	series := func(result string) string { return `fednum_reports_total{result="` + result + `"}` }
	got := func(results ...string) int {
		n := 0.0
		for _, s := range results {
			d, _ := delta(res.Before, res.After, series(s))
			n += d
		}
		return int(n)
	}
	published := false
	for s := range res.After {
		if strings.HasPrefix(s, "fednum_reports_total{") {
			published = true
			break
		}
	}
	if !published {
		return nil // the daemon no longer counts report outcomes; nothing to compare
	}
	acc, dup := got(transport.ReportAccepted), got(transport.ReportDuplicate)
	rej := got(transport.ReportConflict, transport.ReportWrongBit, transport.ReportNoTask, transport.ReportInvalid)
	if acc != res.Timed.Accepted || dup != res.Timed.Duplicate || rej != res.Timed.Rejected {
		return fmt.Errorf("daemon counted accepted=%d duplicate=%d rejected=%d, generator saw %+v",
			acc, dup, rej, res.Timed)
	}
	kind := r.cfg.Spec.Kind
	if (kind == kindFresh || kind == kindParticipate) && dup != 0 {
		return fmt.Errorf("%d duplicate acks on a fresh-clients workload", dup)
	}
	return nil
}

// verifyReports checks that every session holds exactly the number of
// reports the generator was acked for (per-bit counts are only served
// once a session is finalized; verifyFinal checks those).
func (r *runner) verifyReports(when string) error {
	admin := transport.Admin{BaseURL: r.d.Base, HTTPClient: r.d.HTTP}
	for _, s := range r.sd.sessions {
		got, err := admin.Result(context.Background(), s.id)
		if err != nil {
			return fmt.Errorf("%s: result of %s: %w", when, s.id, err)
		}
		if got.Reports != len(s.reports) {
			return fmt.Errorf("%s: session %s holds %d reports, %d were acked", when, s.id, got.Reports, len(s.reports))
		}
	}
	return nil
}

// finalizeAll finalizes every session one after another, timing each,
// and checks the results.
func (r *runner) finalizeAll(res *roundResult) error {
	admin := transport.Admin{BaseURL: r.d.Base, HTTPClient: r.d.HTTP, Tracer: r.tracer}
	for _, s := range r.sd.sessions {
		t0 := time.Now()
		got, err := admin.Finalize(context.Background(), s.id)
		if err != nil {
			return fmt.Errorf("finalize %s: %w", s.id, err)
		}
		res.FinalizeMs = append(res.FinalizeMs, ms(time.Since(t0)))
		if err := s.check(got); err != nil {
			return fmt.Errorf("finalized %s: %w", s.id, err)
		}
	}
	return nil
}

// verifyFinal re-reads every finalized result and checks it again.
func (r *runner) verifyFinal(when string) error {
	admin := transport.Admin{BaseURL: r.d.Base, HTTPClient: r.d.HTTP}
	for _, s := range r.sd.sessions {
		got, err := admin.Result(context.Background(), s.id)
		if err != nil {
			return fmt.Errorf("%s: result of %s: %w", when, s.id, err)
		}
		if err := s.check(got); err != nil {
			return fmt.Errorf("%s: session %s: %w", when, s.id, err)
		}
	}
	return nil
}

// check holds a finalized result against the generator's tally: counts
// and sums exactly, the estimate against core.Aggregate over the same
// acked reports, and — with enough reports — against the true mean of
// the values those clients hold, within six predicted standard errors.
func (s *session) check(got *wire.Result) error {
	if !got.Done {
		return fmt.Errorf("not finalized")
	}
	if got.Reports != len(s.reports) {
		return fmt.Errorf("%d reports, %d were acked", got.Reports, len(s.reports))
	}
	ref, err := core.Aggregate(core.Config{Bits: s.cfg.Bits, Probs: s.probs, RR: s.rr}, s.reports)
	if err != nil {
		return err
	}
	if len(got.Counts) != s.cfg.Bits || len(got.Sums) != s.cfg.Bits {
		return fmt.Errorf("result has %d counts and %d sums for %d bits", len(got.Counts), len(got.Sums), s.cfg.Bits)
	}
	for j := 0; j < s.cfg.Bits; j++ {
		if got.Counts[j] != ref.Counts[j] || got.Sums[j] != ref.Sums[j] {
			return fmt.Errorf("bit %d: daemon count=%d sum=%v, acked count=%d sum=%v",
				j, got.Counts[j], got.Sums[j], ref.Counts[j], ref.Sums[j])
		}
	}
	if diff := math.Abs(got.Estimate - ref.Estimate); diff > 1e-9*math.Max(1, math.Abs(ref.Estimate)) {
		return fmt.Errorf("estimate %v, core.Aggregate over the acked reports gives %v", got.Estimate, ref.Estimate)
	}
	n := len(s.reports)
	if n < 1000 {
		return nil
	}
	means := make([]float64, s.cfg.Bits)
	for j := range means {
		means[j] = float64(s.ones[j]) / float64(n)
	}
	variance := core.PredictedVariance(means, s.probs, n)
	if s.rr != nil {
		for j, c := range ref.Counts {
			if c > 0 {
				variance += math.Ldexp(s.rr.ReportVariance()/float64(c), 2*j)
			}
		}
	}
	truth := s.valueSum / float64(n)
	if diff := math.Abs(got.Estimate - truth); diff > 6*math.Sqrt(variance) {
		return fmt.Errorf("estimate %v is %v from the true mean %v, over 6 standard errors of %v",
			got.Estimate, diff, truth, math.Sqrt(variance))
	}
	return nil
}
