// Package session is one aggregation session as a pure state machine:
// the paper's whole server state — per-bit report counts and sums, plus,
// while the session is open, which client was assigned which bit — and
// every transition on it. An ended session (finalized or expired) is its
// sums: the client entries exist to assign, deduplicate and reject, none
// of which an ended session does, so Apply releases them at the end.
//
// It knows nothing of HTTP, locks, logs or metrics; internal/transport
// owns those and reaches a session only through the constructors (New,
// FromState), the read-only Decide and accessors, and the single mutator
// Apply. Live ingest (after the record is logged), WAL replay, replication
// and snapshot restore all go through that one Apply, so they cannot
// diverge. A Session is not safe for concurrent use: the caller
// serializes access.
package session

import (
	"errors"
	"fmt"
	"math"
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

// Record operations. Create and Delete change the session table and are
// applied by its owner; the rest are Apply's.
const (
	OpCreate   = "create"
	OpAssign   = "assign"
	OpReport   = "report"
	OpFinalize = "finalize"
	OpExpire   = "expire"
	OpDelete   = "delete"
)

// Record is one state transition and, marshalled, the payload of its WAL
// entry — field order and tags are the on-disk format. Only the fields
// the operation needs are set; everything derivable (probabilities,
// randomized-response parameters, aggregates) is recomputed by Apply.
type Record struct {
	Op      string `json:"op"`
	Session string `json:"session"`
	// Create fields.
	NextID int                 `json:"next_id,omitempty"`
	Config *wire.SessionConfig `json:"config,omitempty"`
	// Assign and report fields.
	Client string `json:"client,omitempty"`
	Bit    int    `json:"bit,omitempty"`
	Value  uint64 `json:"value,omitempty"`
	// At anchors time-derived state: the create time (TTL deadlines are
	// At+TTL) and the finalize/expire transition time (retention GC).
	At time.Time `json:"at,omitempty"`
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
// cfg.Thresholds. id, cfg, probs, rr, thresholds and deadline never
// change after construction.
type Session struct {
	id         string
	cfg        wire.SessionConfig
	probs      []float64
	rr         *ldp.RandomizedResponse
	thresholds []uint64 // nil for bit sessions
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

// derive validates cfg and builds the session's immutable derived state
// with empty counters. Both constructors go through it, so a created, a
// replayed and a restored session cannot disagree on probabilities or
// randomized-response parameters.
func derive(id string, cfg wire.SessionConfig) (*Session, error) {
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
	return m, nil
}

// New builds an empty session from its config; a positive TTL puts the
// deadline that long after createdAt.
func New(id string, cfg wire.SessionConfig, createdAt time.Time) (*Session, error) {
	m, err := derive(id, cfg)
	if err != nil {
		return nil, err
	}
	m.clients = make(map[string]entry)
	if cfg.TTLSeconds > 0 {
		m.deadline = createdAt.Add(time.Duration(cfg.TTLSeconds * float64(time.Second)))
	}
	return m, nil
}

// State is one session's serializable image, the per-session element of
// a transport.Snapshot. Assigned and Reported are the two views of the
// client entries, and are empty for an ended session: its image is the
// config, the per-index counters, the deadline and end time, and the
// result or tail — O(bits), however many clients took part.
type State struct {
	ID       string             `json:"id"`
	Config   wire.SessionConfig `json:"config"`
	Probs    []float64          `json:"probs"`
	Issued   []int              `json:"issued"`
	Assigned map[string]int     `json:"assigned"`
	Reported map[string]uint64  `json:"reported"`
	// BitCounts/BitSums are the per-index accumulators: reports received
	// and their value sum, per bit (or per threshold).
	BitCounts []int64      `json:"bit_counts"`
	BitSums   []int64      `json:"bit_sums"`
	Deadline  time.Time    `json:"deadline"`
	Done      bool         `json:"done,omitempty"`
	Expired   bool         `json:"expired,omitempty"`
	EndedAt   time.Time    `json:"ended_at"`
	Result    *core.Result `json:"result,omitempty"`
	Tail      []float64    `json:"tail,omitempty"`
}

// State captures the session.
func (m *Session) State() State {
	st := State{
		ID:        m.id,
		Config:    m.cfg,
		Probs:     append([]float64(nil), m.probs...),
		Issued:    append([]int(nil), m.issued...),
		Assigned:  make(map[string]int, len(m.clients)),
		Reported:  make(map[string]uint64, m.nReports),
		BitCounts: append([]int64(nil), m.bitCount...),
		BitSums:   append([]int64(nil), m.bitSum...),
		Deadline:  m.deadline,
		Done:      m.done,
		Expired:   m.expired,
		EndedAt:   m.endedAt,
		Result:    m.result,
		Tail:      append([]float64(nil), m.tail...),
	}
	for c, e := range m.clients {
		st.Assigned[c] = int(e.idx)
		if e.rep != 0 {
			st.Reported[c] = uint64(e.rep - 1)
		}
	}
	return st
}

// FromState rebuilds a session from its image. The derived state comes
// from the config, as in New. An open session's counters are taken from
// the image only after they are shown to agree with its client entries,
// so an old-format or damaged snapshot fails the boot instead of restoring
// zero counts under a full client map. An ended session's image has no
// entries to check against, so it is validated by its sums: per index
// 0 ≤ sum ≤ count ≤ issued. An ended image written before ended sessions
// dropped their entries still carries them: its counters are checked
// against them like an open one's, and the entries then released. Either
// way a finalized session's stored result or tail must be, bit for bit,
// the aggregate of its counters (aggregate is deterministic), and a
// session that is not finalized must hold neither.
func FromState(st State) (*Session, error) {
	if st.ID == "" {
		return nil, errors.New("session with empty id")
	}
	m, err := derive(st.ID, st.Config)
	if err != nil {
		return nil, fmt.Errorf("session %s: %w", st.ID, err)
	}
	n := len(m.probs)
	if len(st.Issued) != n || len(st.BitCounts) != n || len(st.BitSums) != n {
		return nil, fmt.Errorf("session %s: %d issued / %d counts / %d sums for %d indexes",
			st.ID, len(st.Issued), len(st.BitCounts), len(st.BitSums), n)
	}
	if st.Done && st.Expired {
		return nil, fmt.Errorf("session %s: both finalized and expired", st.ID)
	}
	if (st.Done || st.Expired) && len(st.Assigned) == 0 && len(st.Reported) == 0 {
		for j := 0; j < n; j++ {
			if st.BitSums[j] < 0 || st.BitSums[j] > st.BitCounts[j] || st.BitCounts[j] > int64(st.Issued[j]) {
				return nil, fmt.Errorf("session %s: index %d holds issued=%d count=%d sum=%d, not 0 <= sum <= count <= issued",
					st.ID, j, st.Issued[j], st.BitCounts[j], st.BitSums[j])
			}
			m.nReports += int(st.BitCounts[j])
		}
		copy(m.issued, st.Issued)
		copy(m.bitCount, st.BitCounts)
		copy(m.bitSum, st.BitSums)
	} else if err := m.restoreClients(st); err != nil {
		return nil, err
	}
	m.deadline = st.Deadline
	m.done, m.expired, m.endedAt = st.Done, st.Expired, st.EndedAt
	if m.Open() != nil {
		m.clients = nil
	}
	if !m.done {
		if st.Result != nil || len(st.Tail) > 0 {
			return nil, fmt.Errorf("session %s: holds a result without being finalized", st.ID)
		}
		return m, nil
	}
	if err := m.aggregate(); err != nil {
		return nil, fmt.Errorf("session %s: %w", st.ID, err)
	}
	if !sameResult(m.result, st.Result) || !sameFloats(m.tail, st.Tail) {
		return nil, fmt.Errorf("session %s: stored result is not the aggregate of its per-index sums", st.ID)
	}
	return m, nil
}

// restoreClients rebuilds the client entries and the counters they add up
// to from st's Assigned and Reported views, refusing an image whose own
// counters disagree.
func (m *Session) restoreClients(st State) error {
	n := len(m.probs)
	m.clients = make(map[string]entry, len(st.Assigned))
	for c, idx := range st.Assigned {
		if idx < 0 || idx >= n {
			return fmt.Errorf("session %s: client %q assigned index %d of %d", st.ID, c, idx, n)
		}
		m.clients[c] = entry{idx: int32(idx)}
		m.issued[idx]++
	}
	for c, v := range st.Reported {
		e, ok := m.clients[c]
		if !ok || v > 1 {
			return fmt.Errorf("session %s: reported client %q (value %d) has no assignment or no bit", st.ID, c, v)
		}
		e.rep = uint8(v) + 1
		m.clients[c] = e
		m.bitCount[e.idx]++
		m.bitSum[e.idx] += int64(v)
	}
	m.nReports = len(st.Reported)
	for j := 0; j < n; j++ {
		if m.issued[j] != st.Issued[j] || m.bitCount[j] != st.BitCounts[j] || m.bitSum[j] != st.BitSums[j] {
			return fmt.Errorf("session %s: index %d holds issued=%d count=%d sum=%d but its clients add up to %d/%d/%d",
				st.ID, j, st.Issued[j], st.BitCounts[j], st.BitSums[j], m.issued[j], m.bitCount[j], m.bitSum[j])
		}
	}
	return nil
}

// sameFloats compares bit patterns, so -0 is not 0: a restored result
// must encode to the bytes the live server served.
func sameFloats(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

func sameResult(a, b *core.Result) bool {
	if a == nil || b == nil {
		return a == b
	}
	return a.Reports == b.Reports && math.Float64bits(a.Estimate) == math.Float64bits(b.Estimate) &&
		sameFloats(a.BitMeans, b.BitMeans) && sameFloats(a.Sums, b.Sums) &&
		slices.Equal(a.Counts, b.Counts) && slices.Equal(a.Squashed, b.Squashed)
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
// stream that keeps every prefix of assignments within one task of the
// exact n·p_j proportions (the QMC property of §3.1 for an open-ended
// client stream).
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
// already in the state is a no-op, so replaying a log over a snapshot
// that covers part of it is harmless — but a record that contradicts the
// state is corruption and an error, never skipped.
//
// Finalize and expire release the client entries: an ended session is its
// per-index sums. An assign or report reaching an ended session is
// therefore absorbed untouched, whatever it names. Live handlers check
// Open under the caller's lock before logging, so a log never holds one
// after its session's end record; the only route here is replay over an
// image that was cut after the end but claims an earlier log position
// (transport.Snapshot reads the frontier first), and that image's
// counters already include it.
func (m *Session) Apply(rec *Record) error {
	if (rec.Op == OpAssign || rec.Op == OpReport) && m.Open() != nil {
		return nil
	}
	switch rec.Op {
	case OpAssign:
		if _, ok := m.clients[rec.Client]; ok {
			return nil
		}
		if rec.Bit < 0 || rec.Bit >= len(m.issued) {
			return fmt.Errorf("assigned bit %d out of range", rec.Bit)
		}
		m.clients[rec.Client] = entry{idx: int32(rec.Bit)}
		m.issued[rec.Bit]++
	case OpReport:
		e, ok := m.clients[rec.Client]
		if !ok || rec.Bit != int(e.idx) || rec.Value > 1 {
			return fmt.Errorf("report (bit %d, value %d) from client %q does not match its assignment", rec.Bit, rec.Value, rec.Client)
		}
		if e.rep != 0 {
			return nil
		}
		e.rep = uint8(rec.Value) + 1
		m.clients[rec.Client] = e
		m.nReports++
		m.bitCount[e.idx]++
		m.bitSum[e.idx] += int64(rec.Value)
	case OpFinalize:
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
