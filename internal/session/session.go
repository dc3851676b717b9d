// Package session is one aggregation session as a pure state machine:
// the paper's whole server state — per-bit report counts and sums, plus,
// while the session is open, which client was assigned which bit — and
// every transition on it. An ended session (finalized or expired) is its
// sums: the client entries exist to assign, deduplicate and reject, none
// of which an ended session does, so Apply releases them at the end.
//
// It knows nothing of HTTP, locks, logs or metrics; internal/transport
// owns those and reaches a session only through the constructor New, the
// read-only Decide and accessors, Checkpoint, and the single mutator
// Apply. Live ingest (after the record is logged), WAL replay, replication
// and checkpoint restore all go through that one Apply, so they cannot
// diverge, and Apply's contradiction errors are the only validation a
// checkpoint gets. A Session is not safe for concurrent use: the caller
// serializes access.
package session

import (
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/ldp"
	"repro/internal/quantile"
	"repro/internal/transport/wire"
)

// Why a session refuses traffic or a finalize; transport maps them onto
// HTTP statuses and wire codes.
var (
	ErrFinalized = errors.New("session already finalized")
	ErrExpired   = errors.New("session expired")
	ErrCohort    = errors.New("cohort below minimum")
)

// An OpClients record holds at most the FNR1 batch limit of entries and,
// since an id from a task URL can be far longer than a binary frame's 256
// bytes, closes once its ids reach 1 MiB: well under wal.MaxRecordBytes.
const (
	clientChunk  = wire.MaxBatchReports
	chunkIDBytes = 1 << 20
)

// Cut splits off what one OpClients record holds; head cannot grow into rest.
func (e Entries) Cut() (head, rest Entries) {
	n, ids := 0, 0
	for n < len(e.Clients) && n < clientChunk && ids < chunkIDBytes {
		ids += len(e.Clients[n])
		n++
	}
	return Entries{e.Clients[:n:n], e.Indexes[:n:n], e.States[:n:n]}, Entries{e.Clients[n:], e.Indexes[n:], e.States[n:]}
}

// entry is everything remembered about one client: the index it was
// assigned (central randomness, the §5 poisoning defence) and, once its
// report is accepted, the value it carried, so a retransmission after a
// lost ack re-acks while a conflicting value is rejected. rep is 0 until
// then and value+1 after.
type entry struct {
	idx int32
	rep uint8
}

// Session is one aggregation in progress. For bit sessions the assignment
// index is a bit position; for threshold sessions it indexes
// cfg.Thresholds. id, cfg, probs, rr, thresholds, createdAt and deadline
// never change after construction.
type Session struct {
	id         string
	cfg        wire.SessionConfig
	probs      []float64
	rr         *ldp.RandomizedResponse
	thresholds []uint64 // nil for bit sessions
	createdAt  time.Time
	deadline   time.Time

	clients map[string]entry // nil once the session has ended
	issued  []int            // tasks handed out per index, for low-discrepancy assignment
	// Counts and sums of accepted reports per index: exactly the inputs
	// core.Pool needs. Sums of 0/1 values are integer-exact, so the
	// aggregate is bit-identical to folding a report list.
	nReports int
	bitCount []int64
	bitSum   []int64

	done    bool
	expired bool
	endedAt time.Time    // when done or expired flipped, for retention GC
	result  *core.Result // bit sessions
	tail    []float64    // threshold sessions: monotonized tail probs
}

// New validates cfg and builds an empty session from it; a positive TTL
// puts the deadline that long after createdAt. Every session — created,
// replayed or restored — comes from a create record through here, so none
// can disagree on probabilities or randomized-response parameters.
func New(id string, cfg wire.SessionConfig, createdAt time.Time) (*Session, error) {
	if id == "" {
		return nil, errors.New("session: empty id")
	}
	var probs []float64
	var err error
	switch {
	case len(cfg.Thresholds) > 0:
		// Threshold-query session: clients spread uniformly across the
		// threshold grid.
		if cfg.Bits < 1 || cfg.Bits > 52 {
			return nil, fmt.Errorf("session: bits=%d out of range", cfg.Bits)
		}
		max := uint64(1) << uint(cfg.Bits)
		for i, t := range cfg.Thresholds {
			if t >= max {
				return nil, fmt.Errorf("session: threshold %d outside [0, 2^%d)", t, cfg.Bits)
			}
			if i > 0 && t <= cfg.Thresholds[i-1] {
				return nil, errors.New("session: thresholds must be strictly ascending")
			}
		}
		probs = make([]float64, len(cfg.Thresholds))
		for i := range probs {
			probs[i] = 1 / float64(len(probs))
		}
	case len(cfg.Probs) > 0:
		probs, err = core.Normalize(cfg.Probs)
		if err == nil && len(probs) != cfg.Bits {
			err = fmt.Errorf("session: %d probs for %d bits", len(probs), cfg.Bits)
		}
	default:
		probs, err = core.GeometricProbs(cfg.Bits, cfg.Gamma)
	}
	if err != nil {
		return nil, err
	}
	if cfg.Epsilon < 0 {
		return nil, fmt.Errorf("session: negative epsilon %v", cfg.Epsilon)
	}
	var rr *ldp.RandomizedResponse
	if cfg.Epsilon > 0 {
		if rr, err = ldp.NewRandomizedResponse(cfg.Epsilon); err != nil {
			return nil, err
		}
	}
	if cfg.SquashThreshold < 0 || cfg.MinCohort < 0 {
		return nil, errors.New("session: negative squash threshold or cohort")
	}
	if cfg.TTLSeconds < 0 {
		return nil, fmt.Errorf("session: negative ttl %v", cfg.TTLSeconds)
	}
	m := &Session{
		id:         id,
		cfg:        cfg,
		probs:      probs,
		rr:         rr,
		thresholds: append([]uint64(nil), cfg.Thresholds...),
		createdAt:  createdAt,
		clients:    make(map[string]entry),
		issued:     make([]int, len(probs)),
		bitCount:   make([]int64, len(probs)),
		bitSum:     make([]int64, len(probs)),
	}
	// A finalize record is logged before it is applied, so whatever could
	// make the aggregation fail must be refused here, at creation.
	if !m.IsThreshold() {
		if _, err := core.Pool(m.poolConfig()); err != nil {
			return nil, err
		}
	}
	if cfg.TTLSeconds > 0 {
		m.deadline = createdAt.Add(time.Duration(cfg.TTLSeconds * float64(time.Second)))
	}
	return m, nil
}

// ID returns the session id.
func (m *Session) ID() string { return m.id }

// Config returns the config the session was created with.
func (m *Session) Config() wire.SessionConfig { return m.cfg }

// Deadline returns the TTL deadline, zero for a session without one.
func (m *Session) Deadline() time.Time { return m.deadline }

// IsThreshold reports the session kind.
func (m *Session) IsThreshold() bool { return len(m.thresholds) > 0 }

// Reports returns how many reports were accepted.
func (m *Session) Reports() int { return m.nReports }

// Done reports whether the session was finalized.
func (m *Session) Done() bool { return m.done }

// Expired reports whether the session passed its deadline unfinalized.
func (m *Session) Expired() bool { return m.expired }

// EndedAt returns when the session finalized or expired, zero while open.
func (m *Session) EndedAt() time.Time { return m.endedAt }

// Open returns nil while the session takes tasks and reports, else why
// it does not.
func (m *Session) Open() error {
	switch {
	case m.expired:
		return ErrExpired
	case m.done:
		return ErrFinalized
	}
	return nil
}

// CohortReady returns nil when enough reports were accepted to finalize.
func (m *Session) CohortReady() error {
	if m.nReports < m.cfg.MinCohort {
		return fmt.Errorf("%w: cohort %d below minimum %d", ErrCohort, m.nReports, m.cfg.MinCohort)
	}
	return nil
}

// Assigned returns the index client was assigned, if any. An ended
// session knows no client: check Open first.
func (m *Session) Assigned(client string) (int, bool) {
	e, ok := m.clients[client]
	return int(e.idx), ok
}

// NextBit picks the index for a new client: the one whose issued count is
// furthest below its target share — a deterministic low-discrepancy
// stream (the QMC property of §3.1 for an open-ended client stream). An
// index is picked only while it is below its share, so it never runs a
// whole task ahead of n·p_j; it can fall further behind, and every prefix
// stays within 1.5 tasks of the exact n·p_j proportions — measured, not
// proven, by TestNextBitDiscrepancy, whose sweeps never exceeded 1.36.
func (m *Session) NextBit() int {
	total := 0
	for _, c := range m.issued {
		total += c
	}
	best, bestDeficit := 0, float64(-1)
	for j, p := range m.probs {
		deficit := p*float64(total+1) - float64(m.issued[j])
		if deficit > bestDeficit {
			best, bestDeficit = j, deficit
		}
	}
	return best
}

// Task is the task body for assignment index idx.
func (m *Session) Task(idx int) wire.Task {
	task := wire.Task{SessionID: m.id, Feature: m.cfg.Feature, Bits: m.cfg.Bits, Bit: idx}
	if m.IsThreshold() {
		task.Kind = wire.TaskKindThreshold
		task.Threshold = m.thresholds[idx]
	}
	if m.rr != nil {
		task.Epsilon = m.rr.Eps
	}
	return task
}

// Decide classifies one (client, bit, value) submission against an open
// session without changing it. AckAccepted means a first-time report the
// caller should log and Apply; a retransmission of the accepted report is
// AckDuplicate, a different value AckConflict. Generic over the client
// id's spelling — string from JSON, a borrowed []byte view of a binary
// frame — because string(client) in a map index does not allocate.
func Decide[K ~string | ~[]byte](m *Session, client K, bit int, value uint64) wire.AckStatus {
	if value > 1 {
		return wire.AckInvalidValue
	}
	e, ok := m.clients[string(client)]
	switch {
	case !ok:
		return wire.AckNoTask
	case bit != int(e.idx):
		return wire.AckWrongBit
	case e.rep == 0:
		return wire.AckAccepted
	case uint64(e.rep-1) == value:
		return wire.AckDuplicate
	}
	return wire.AckConflict
}

// Apply performs one transition and is the only code that changes a
// session. It is idempotent — an assignment, report, finalize or expire
// already in the state is a no-op, so replaying a log over a checkpoint
// that covers part of it is harmless — but a record that contradicts the
// state (a known client assigned another index, an accepted report
// carrying another value) is corruption and an error, never skipped.
//
// Finalize and expire release the client entries: an ended session is its
// per-index sums. An assign, report or clients record reaching an ended
// session is therefore absorbed untouched, whatever it names. Live
// handlers check Open under the caller's lock before logging, so a log
// never holds one after its session's end record; the only route here is
// replay over a checkpoint that was cut after the end but claims an
// earlier log position (transport.Snapshot reads the frontier first), and
// that checkpoint's counters already include it.
func (m *Session) Apply(rec *Record) error {
	if (rec.Op == OpAssign || rec.Op == OpReport || rec.Op == OpClients) && m.Open() != nil {
		return nil
	}
	switch rec.Op {
	case OpAssign:
		return m.assign(rec.Client, rec.Bit)
	case OpReport:
		return m.report(rec.Client, rec.Bit, rec.Value)
	case OpClients:
		// Entries run through the assign and report rules, which derive the
		// counters and refuse a report state above 2 as a value above 1.
		e := rec.Entries
		if e == nil || len(e.Indexes) != len(e.Clients) || len(e.States) != len(e.Clients) {
			return errors.New("clients record without equally many ids, indexes and report states")
		}
		for i, c := range e.Clients {
			err := m.assign(c, e.Indexes[i])
			if st := e.States[i]; err == nil && st > 0 {
				err = m.report(c, e.Indexes[i], uint64(st)-1)
			}
			if err != nil {
				return err
			}
		}
	case OpFinalize:
		if err := m.takeCounters(rec); err != nil {
			return err
		}
		if m.done {
			return nil
		}
		if m.expired {
			return errors.New("finalize of an expired session")
		}
		if err := m.aggregate(); err != nil {
			return err
		}
		m.done, m.endedAt, m.clients = true, rec.At, nil
	case OpExpire:
		if err := m.takeCounters(rec); err != nil {
			return err
		}
		if m.expired {
			return nil
		}
		if m.done {
			return errors.New("expire of a finalized session")
		}
		m.expired, m.endedAt, m.clients = true, rec.At, nil
	default:
		return fmt.Errorf("unknown session op %q", rec.Op)
	}
	return nil
}

// assign and report are the rules of the assign and report records, which
// a clients record also runs, once per entry.
func (m *Session) assign(client string, bit int) error {
	e, ok := m.clients[client]
	switch {
	case ok && int(e.idx) != bit:
		return fmt.Errorf("client %q assigned bit %d, record says %d", client, e.idx, bit)
	case !ok && (bit < 0 || bit >= len(m.issued)):
		return fmt.Errorf("assigned bit %d out of range", bit)
	case !ok:
		m.clients[client] = entry{idx: int32(bit)}
		m.issued[bit]++
	}
	return nil
}

func (m *Session) report(client string, bit int, value uint64) error {
	e, ok := m.clients[client]
	if !ok || bit != int(e.idx) || value > 1 || (e.rep != 0 && uint64(e.rep-1) != value) {
		return fmt.Errorf("report (bit %d, value %d) from client %q contradicts its assignment or accepted report", bit, value, client)
	}
	if e.rep == 0 {
		m.clients[client] = entry{idx: e.idx, rep: uint8(value) + 1}
		m.nReports++
		m.bitCount[e.idx]++
		m.bitSum[e.idx] += int64(value)
	}
	return nil
}

// takeCounters loads the per-index counters a checkpoint's end record
// carries, if any, before the end is applied. They are taken only by a
// session that holds nothing yet — open and without entries, so with
// zero counters, which move only with an entry — and only if they could
// have been accumulated: 0 ≤ sum ≤ count ≤ issued per index.
func (m *Session) takeCounters(rec *Record) error {
	c := rec.Counters
	if c == nil {
		return nil
	}
	n := len(m.issued)
	if m.Open() != nil || len(m.clients) > 0 || len(c.Issued) != n || len(c.Counts) != n || len(c.Sums) != n {
		return fmt.Errorf("%s record carries %d issued / %d counts / %d sums for a session of %d indexes holding %d clients (%v)",
			rec.Op, len(c.Issued), len(c.Counts), len(c.Sums), n, len(m.clients), m.Open())
	}
	reports := 0
	for j := range n {
		if c.Sums[j] < 0 || c.Sums[j] > c.Counts[j] || c.Counts[j] > int64(c.Issued[j]) {
			return fmt.Errorf("index %d holds issued=%d count=%d sum=%d, not 0 <= sum <= count <= issued",
				j, c.Issued[j], c.Counts[j], c.Sums[j])
		}
		reports += int(c.Counts[j])
	}
	m.nReports = reports
	copy(m.issued, c.Issued)
	copy(m.bitCount, c.Counts)
	copy(m.bitSum, c.Sums)
	return nil
}

// Checkpoint returns the records that rebuild the session from nothing
// through Apply: its create record, whose At is the creation time so the
// deadline comes back exact, then either its client entries in OpClients
// chunks while it is open, or its finalize or expire record carrying the
// per-index counters once it has ended (Apply recomputes the result).
// Entries keep the map's order, which is free because NextBit depends on
// the past only through issued. The records share no mutable memory with
// the session, so the caller may encode them after releasing its lock.
func (m *Session) Checkpoint() []Record {
	cfg := m.cfg
	recs := []Record{{Op: OpCreate, Session: m.id, Config: &cfg, At: m.createdAt}}
	if m.Open() != nil {
		op := OpFinalize
		if m.expired {
			op = OpExpire
		}
		return append(recs, Record{Op: op, Session: m.id, At: m.endedAt, Counters: &Counters{
			Issued: slices.Clone(m.issued), Counts: slices.Clone(m.bitCount), Sums: slices.Clone(m.bitSum)}})
	}
	n := len(m.clients)
	rest := Entries{Clients: make([]string, 0, n), Indexes: make([]int, 0, n), States: make([]uint8, 0, n)}
	for c, e := range m.clients {
		rest.Clients = append(rest.Clients, c)
		rest.Indexes = append(rest.Indexes, int(e.idx))
		rest.States = append(rest.States, e.rep)
	}
	for len(rest.Clients) > 0 {
		var head Entries
		head, rest = rest.Cut()
		recs = append(recs, Record{Op: OpClients, Session: m.id, Entries: &head})
	}
	return recs
}

func (m *Session) poolConfig() core.Config {
	return core.Config{Bits: m.cfg.Bits, Probs: m.probs, RR: m.rr, SquashThreshold: m.cfg.SquashThreshold}
}

// aggregate derives the bit estimate or threshold tail from the
// accumulators. It is deterministic in the session state, so replay
// reproduces the exact result the live server acked.
func (m *Session) aggregate() error {
	if m.IsThreshold() {
		m.tail = m.tailProbs()
		return nil
	}
	part := &core.Result{
		Sums:    make([]float64, len(m.probs)),
		Counts:  make([]int, len(m.probs)),
		Reports: m.nReports,
	}
	for j := range m.probs {
		part.Counts[j] = int(m.bitCount[j])
		part.Sums[j] = float64(m.bitSum[j])
	}
	res, err := core.Pool(m.poolConfig(), part)
	if err != nil {
		return err
	}
	m.result = res
	return nil
}

// tailProbs aggregates a threshold session: per-threshold report means,
// unbiased under randomized response and projected onto a monotone tail.
// A threshold that received no reports is treated as uninformative (0.5)
// and resolved by the monotone projection against its neighbours.
func (m *Session) tailProbs() []float64 {
	raw := make([]float64, len(m.thresholds))
	for i := range raw {
		c := m.bitCount[i]
		if c == 0 {
			raw[i] = 0.5
			continue
		}
		mean := float64(m.bitSum[i]) / float64(c)
		if m.rr != nil {
			mean = m.rr.UnbiasMean(mean)
		}
		raw[i] = mean
	}
	return quantile.MonotonizeTail(raw)
}

// Result returns the session's aggregate view; before finalize it carries
// Done=false and the running report count.
func (m *Session) Result() *wire.Result {
	out := &wire.Result{SessionID: m.id, Feature: m.cfg.Feature, Done: m.done, Reports: m.nReports}
	if m.result != nil {
		out.Estimate = m.result.Estimate
		out.BitMeans = append([]float64(nil), m.result.BitMeans...)
		out.Counts = append([]int(nil), m.result.Counts...)
		out.Sums = append([]float64(nil), m.result.Sums...)
		out.Squashed = append([]bool(nil), m.result.Squashed...)
	}
	if m.tail != nil {
		out.Thresholds = append([]uint64(nil), m.thresholds...)
		out.TailProbs = append([]float64(nil), m.tail...)
	}
	return out
}
