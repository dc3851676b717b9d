package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/fixedpoint"
	"repro/internal/frand"
	"repro/internal/ldp"
	"repro/internal/transport"
	"repro/internal/transport/wire"
	"repro/internal/wal"
	"repro/internal/workload"
)

// kind selects what one request of a workload is.
type kind int

const (
	// kindFresh: a binary batch of clients that hold a task and have
	// never reported, so every record is a first-time accept.
	kindFresh kind = iota
	// kindRetransmit: a binary batch drawn at random from clients whose
	// report is already accepted, with a fixed share of bad records.
	kindRetransmit
	// kindSweep: binary batches walking every already-accepted client in
	// order, each an exact retransmission.
	kindSweep
	// kindParticipate: the device protocol, GET task then POST report,
	// for a client the daemon has never seen.
	kindParticipate
)

// workloadSpec is one traffic mix.
type workloadSpec struct {
	Name  string
	Kind  kind
	Fsync string // the daemon's -wal-fsync
	// Sessions is how many sessions the seeded log holds.
	Sessions int
	// Reported is how many clients are already assigned and accepted in
	// the seeded log, at scale 1.
	Reported int
	// Batch is the number of units (reports) one request carries.
	Batch int
	// SatCap is the most units per second the closed-loop phase is
	// provisioned for; it sizes the pool of fresh clients.
	SatCap float64
	// Sat is what the seed commit sustained in the closed-loop phase on
	// the reference sandbox (two vCPUs, generator and daemon on one of
	// them), in units per second: the median reports_per_s of ten seeds,
	// 2026-09-27. The open-loop rates are fixed shares of it (see rates),
	// so a faster daemon shows as lower latency at the same offered load
	// and not as a moved target. Frozen here because BENCHMARK.json admits
	// no extra keys.
	Sat float64
	// Split is how a run's seconds divide over sat, lo, mid and hi, given
	// as the seconds of a 15-second run. accept_batch spends a fresh
	// client per report, and every client in its pool is seeded, replayed
	// at boot and after the crash, snapshotted and restored: its closed
	// loop is short and its open-loop phases are sized by requests, 1,000
	// each at mid and hi and what is left at lo. The others have requests
	// to spare and give the closed loop the longest share (a saturated
	// rate swings with every collection of the daemon's heap and needs
	// seconds to average them), and lo enough for 1,000 requests.
	Split [4]float64
}

const batchSize = 256

var workloads = []workloadSpec{
	{Name: "accept_batch", Kind: kindFresh, Fsync: "grouped", Sessions: 1,
		Batch: batchSize, SatCap: 280e3, Sat: 173e3, Split: [4]float64{2, 5, 5, 3}},
	{Name: "participate_single", Kind: kindParticipate, Fsync: "always", Sessions: 64,
		Reported: 131072, Batch: 1, Sat: 1600, Split: [4]float64{5, 4.5, 3, 2.5}},
	{Name: "retransmit_batch", Kind: kindRetransmit, Fsync: "grouped", Sessions: 1,
		Reported: 262144, Batch: batchSize, Sat: 950e3, Split: [4]float64{6, 3, 3, 3}},
	{Name: "recover_round", Kind: kindSweep, Fsync: "grouped", Sessions: 1,
		Reported: 300000, Batch: batchSize, Sat: 1.17e6, Split: [4]float64{6, 3, 3, 3}},
}

// The open-loop phases offer 15%, 30% and 50% of Sat. The issue has 60%
// for hi; but what the sandbox sustains swings by a third from one run
// to the next, and at 60% of the median a slow run sits on the knee of
// the latency curve: ack_p50_ms.hi spread 0.45 to 3.4 over ten seeds.
const loShare, midShare, hiShare = 0.15, 0.30, 0.50

// rates returns the lo, mid and hi rates in units per second.
func (w workloadSpec) rates() (lo, mid, hi float64) {
	return loShare * w.Sat, midShare * w.Sat, hiShare * w.Sat
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// The retransmission mix of kindRetransmit, in parts per hundred.
const (
	mixExact    = 90 // identical report again: duplicate
	mixConflict = 5  // other value: conflict
	mixWrongBit = 3  // a bit the client was not assigned
	// the remaining 2: a client the session never saw: no task
)

// client is one simulated device of a batch workload.
type client struct {
	id   string
	val  uint32 // its private value, encoded
	bit  uint8  // the bit the daemon assigned it
	sent uint8  // the bit value it reports
}

// session is the generator's view of one aggregation session: its
// config, and the tally of every report the daemon acked as accepted.
type session struct {
	id    string
	cfg   wire.SessionConfig
	probs []float64
	rr    *ldp.RandomizedResponse
	gen   workload.Generator
	codec *fixedpoint.Codec

	reports  []core.Report // every accepted report, for core.Aggregate
	ones     []int         // per bit: accepted clients whose value has it set
	valueSum float64       // sum of the accepted clients' encoded values
}

// accept folds one acked report into the tally.
func (s *session) accept(val uint32, bit int, sent uint64) {
	s.reports = append(s.reports, core.Report{Bit: bit, Value: sent})
	for j := range s.ones {
		s.ones[j] += int(val >> uint(j) & 1)
	}
	s.valueSum += float64(val)
}

// reportBit is the client side of the protocol: read the assigned bit
// of the private value and, on an ε-LDP session, randomize it.
func (s *session) reportBit(val uint32, bit int, rng *frand.RNG) uint64 {
	b := fixedpoint.Bit(uint64(val), bit)
	if s.rr != nil {
		b = s.rr.Apply(b, rng)
	}
	return b
}

// sampleValues draws n private values for the session's feature.
func (s *session) sampleValues(rng *frand.RNG, n int) []uint32 {
	out := make([]uint32, n)
	for i, v := range s.gen.Sample(rng, n) {
		out[i] = uint32(s.codec.Encode(v))
	}
	return out
}

// sessionConfig returns the i-th session of a workload. The batch
// workloads aggregate one hot 16-bit device metric; participate_single
// spreads 8-bit census ages over many sessions, every other one ε-LDP.
func sessionConfig(w workloadSpec, i int) (wire.SessionConfig, workload.Generator) {
	if w.Kind != kindParticipate {
		return wire.SessionConfig{Feature: "device-metric", Bits: 16, Gamma: 1},
			workload.DeviceMetric{OutlierMax: 60000}
	}
	cfg := wire.SessionConfig{Feature: fmt.Sprintf("age-%02d", i), Bits: 8, Gamma: 1}
	if i%2 == 1 {
		cfg.Epsilon = 2
	}
	return cfg, workload.CensusAges{}
}

// seeded is a write-ahead log prepared offline, and what the generator
// must remember about it.
type seeded struct {
	sessions []*session
	// pool holds the batch workloads' clients: pool[:reported] are
	// already accepted, pool[reported:] hold a task and have not reported.
	pool     []client
	reported int
	records  int // WAL records written
}

// seedLog writes the log a round starts from, without HTTP: it drives an
// in-process transport.Server with a SyncNever WAL through the same
// exported calls the daemon's handlers use, and closes the log. The
// child then boots on dir and replays it. fresh is how many clients get
// a task but no report.
func seedLog(dir string, w workloadSpec, reported, fresh int, rng *frand.RNG, digest *digester) (*seeded, error) {
	ctx := context.Background()
	srv := transport.NewServer(rng.Uint64())
	log, err := wal.Open(wal.Options{Dir: dir, Policy: wal.SyncNever})
	if err != nil {
		return nil, err
	}
	srv.AttachWAL(log)
	sd := &seeded{reported: reported}
	for i := 0; i < w.Sessions; i++ {
		cfg, gen := sessionConfig(w, i)
		id, err := srv.CreateSession(ctx, cfg)
		if err != nil {
			return nil, fmt.Errorf("seeding session %d: %w", i, err)
		}
		probs, err := core.GeometricProbs(cfg.Bits, cfg.Gamma)
		if err != nil {
			return nil, err
		}
		s := &session{id: id, cfg: cfg, probs: probs, gen: gen,
			codec: fixedpoint.MustCodec(cfg.Bits, 0, 1), ones: make([]int, cfg.Bits)}
		if cfg.Epsilon > 0 {
			if s.rr, err = ldp.NewRandomizedResponse(cfg.Epsilon); err != nil {
				return nil, err
			}
		}
		sd.sessions = append(sd.sessions, s)
		digest.add(cfg.Feature, cfg.Bits, uint64(math.Float64bits(cfg.Epsilon)))
	}

	// Which session each pre-reported client belongs to: all to the one
	// hot session, or zipf(1.1) over many.
	var zipf *frand.Zipf
	if w.Sessions > 1 {
		zipf = frand.NewZipf(rng.Split(), 1.1, 1, uint64(w.Sessions-1))
	}
	valRNG, rrRNG := rng.Split(), rng.Split()
	keep := w.Kind != kindParticipate
	if keep {
		sd.pool = make([]client, 0, reported+fresh)
	}
	batch := make([]wire.Report, 0, batchSize)
	owners := make([]*session, 0, batchSize)
	vals := make([]uint32, 0, batchSize)
	flush := func() error {
		if len(batch) == 0 {
			return nil
		}
		// One SubmitReportBatch call takes one session's records.
		for start := 0; start < len(batch); {
			end := start + 1
			for end < len(batch) && owners[end] == owners[start] {
				end++
			}
			acks, err := srv.SubmitReportBatch(ctx, owners[start].id, batch[start:end])
			if err != nil {
				return fmt.Errorf("seeding reports: %w", err)
			}
			for i, a := range acks {
				if a != wire.AckAccepted {
					return fmt.Errorf("seeding reports: %s for %s", a, batch[start+i].ClientID)
				}
				r := batch[start+i]
				owners[start].accept(vals[start+i], r.Bit, r.Value)
			}
			sd.records += end - start
			start = end
		}
		batch, owners, vals = batch[:0], owners[:0], vals[:0]
		return nil
	}
	// Values are drawn per session in blocks, so the draw order does not
	// depend on how clients interleave across sessions.
	type block struct {
		vals []uint32
		next int
	}
	blocks := make([]block, len(sd.sessions))
	nextVal := func(si int) uint32 {
		b := &blocks[si]
		if b.next == len(b.vals) {
			b.vals, b.next = sd.sessions[si].sampleValues(valRNG, 4096), 0
		}
		b.next++
		return b.vals[b.next-1]
	}
	for i := 0; i < reported+fresh; i++ {
		si := 0
		if zipf != nil {
			si = int(zipf.Uint64())
		}
		s := sd.sessions[si]
		id := fmt.Sprintf("dev-%08x", i)
		task, err := srv.AssignTask(ctx, s.id, id)
		if err != nil {
			return nil, fmt.Errorf("seeding task for %s: %w", id, err)
		}
		sd.records++
		val := nextVal(si)
		sent := s.reportBit(val, task.Bit, rrRNG)
		if keep {
			sd.pool = append(sd.pool, client{id: id, val: val, bit: uint8(task.Bit), sent: uint8(sent)})
		}
		digest.add(id, si, uint64(val))
		if i < reported {
			batch = append(batch, wire.Report{ClientID: id, Bit: task.Bit, Value: sent})
			owners = append(owners, s)
			vals = append(vals, val)
			if len(batch) == batchSize {
				if err := flush(); err != nil {
					return nil, err
				}
			}
		}
	}
	if err := flush(); err != nil {
		return nil, err
	}
	sd.records += w.Sessions
	if err := log.Close(); err != nil {
		return nil, fmt.Errorf("closing seeded wal: %w", err)
	}
	return sd, nil
}

// phasePlan is how one round's measured seconds are spent.
type phasePlan struct {
	Sat, Lo, Mid, Hi time.Duration
}

// planPhases divides a round's seconds as the workload's Split says.
func planPhases(w workloadSpec, round time.Duration) phasePlan {
	sum := w.Split[0] + w.Split[1] + w.Split[2] + w.Split[3]
	part := func(i int) time.Duration { return time.Duration(float64(round) * w.Split[i] / sum) }
	return phasePlan{Sat: part(0), Lo: part(1), Mid: part(2), Hi: part(3)}
}

const warmupRequests = 20

// freshNeeded is how many task-holding clients a round of a kindFresh
// workload consumes at most, and how many of them the open-loop phases
// are certain to need.
func freshNeeded(w workloadSpec, p phasePlan) (total, reserved int) {
	if w.Kind != kindFresh {
		return 0, 0
	}
	// Two requests over, so rounding never leaves a phase short.
	units := func(rate float64, d time.Duration) int {
		return (int(rate*d.Seconds())/w.Batch + 2) * w.Batch
	}
	lo, mid, hi := w.rates()
	reserved = units(lo, p.Lo) + units(mid, p.Mid) + units(hi, p.Hi)
	return warmupRequests*w.Batch + units(w.SatCap, p.Sat) + reserved, reserved
}
