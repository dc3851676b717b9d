// Package transport exposes the aggregation protocol over HTTP: a
// Server that creates sessions, hands out single-bit tasks, ingests
// reports and serves aggregates, and a Participant that plays the client
// side, applying the ε-LDP transform locally before anything leaves the
// "device". It is the deployable face of the library, standing in for the
// paper's production FA stack (§4.3); cmd/fednumd and cmd/fednum-client
// wrap it as binaries.
//
// Reports travel in either of two codecs on the same /v1 route: the
// original JSON envelope, and a compact CRC32C-framed binary batch
// (internal/transport/wire, Content-Type negotiated) that carries
// hundreds of client reports per request for swarm-scale ingestion.
// Both codecs land in the same acceptance machine, so idempotency and
// duplicate semantics are identical whichever a client speaks.
//
// The layer is built for flaky fleets: clients retry with backoff
// (RetryPolicy), the server acks retransmitted reports instead of
// rejecting them, sessions carry TTL deadlines that auto-finalize or
// expire them, and the whole session table is written as a checkpoint — a
// framed stream of the log's own records, rebuilt by the same Apply that
// replays the log — so a daemon restart does not lose an in-flight
// aggregation.
//
// Durability: with a write-ahead log attached (AttachWAL), every acked
// state transition — session create, task assignment, accepted report,
// finalize, expire, retention delete — is appended and committed to the
// log before the reply leaves the server, so even a SIGKILL or power
// loss cannot take back an ack. The log's directory is the whole recovery
// input: CompactWAL writes a checkpoint into it and reclaims the segments
// it covers, and boot restores the newest checkpoint there and replays the
// segments after it (ReplayWAL). Replication ships the same two things
// over one route: log records, and the checkpoint to a follower whose
// resume point was compacted away.
//
// Concurrency: the session table is a map behind an RWMutex, taken once
// per request, and each session is a pure state machine
// (internal/session) behind one plain mutex, taken once per request —
// single report, batch, or task poll — with decide → WAL append → Apply
// run under it and the WAL commit (fsync) after it is released, before
// any ack. The lock order is Server.mu → sessionTable.mu → session.mu →
// WAL.mu, with the round table as a leaf; fedlint's lockorder/lockheld
// analyzers hold the code to it.
//
// Logging is structured (Server.Logger, a *slog.Logger). The printf-
// shaped Logf shim that once adapted unmigrated embedders is gone;
// fedlint/noprintflog keeps it from coming back.
package transport

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/frand"
	"repro/internal/obs"
	machine "repro/internal/session"
	"repro/internal/trace"
	"repro/internal/transport/wire"
	"repro/internal/wal"
)

// errNotFound is the unknown-session error; the reasons a known session
// refuses a request are internal/session's.
var errNotFound = errors.New("transport: session not found")

// sweepEvery throttles the lazy deadline sweep that piggybacks on request
// handling; Sweep and the GC loop bypass it.
const sweepEvery = 100 * time.Millisecond

// Server is the aggregation server. Create one with NewServer and mount it
// as an http.Handler. The exported knobs (Now, Logger, Retention) must be
// set before the server starts handling traffic.
//
// Every server carries its own obs.Registry (see Registry): request
// counts, latencies and session lifecycle metrics are recorded
// automatically and served in Prometheus text format at GET /metrics.
type Server struct {
	// Now is the clock, injectable for deadline tests; nil means time.Now.
	Now func() time.Time
	// Logger receives structured operational logs (request traces at
	// debug, GC activity, encode failures); nil falls back to
	// slog.Default().
	Logger *slog.Logger
	// Retention, when positive, garbage-collects finalized and expired
	// sessions that many ticks after they ended. Zero keeps them forever,
	// which costs O(bits) each: an ended session holds its per-bit sums
	// and result, not its clients.
	Retention time.Duration

	metrics *serverMetrics
	reqSeq  atomic.Uint64

	// tracer and rounds are the tracing plane (SetTracer): the span
	// recorder armed on every request context, and the per-session round
	// timeline store. Both nil (the default) means tracing is off and the
	// instrumented paths cost nothing.
	tracer atomic.Pointer[trace.Recorder]
	rounds atomic.Pointer[roundTable]

	// ovl holds the installed admission-control plane (SetOverload);
	// nil gates nothing. draining is the readiness drain flag
	// (SetDraining), shed the adaptive Retry-After advisor.
	ovl      atomic.Pointer[overloadState]
	draining atomic.Bool
	shed     *shedState
	shedOnce sync.Once

	// role/epoch/leader are the replication state machine (replication.go):
	// the role gates every client-facing route with one atomic load, the
	// fencing epoch makes promotions unambiguous, and the leader hint
	// rides in CodeNotPrimary envelopes. onPromote is the standby's
	// promotion hook (SetOnPromote).
	role      atomic.Int32
	epoch     atomic.Uint64
	leader    atomic.Pointer[string]
	onPromote atomic.Pointer[func(context.Context) error]

	// table is the session map (table.go), behind its own lock.
	table *sessionTable

	// mu guards the id-minting state — the rng stream and nextID — and
	// serializes replay and replication apply. The request paths touch it
	// only to mint a session id.
	mu     sync.Mutex
	rng    *frand.RNG
	nextID int

	// lastSweep (unix nanos) throttles the lazy deadline sweep; claimed
	// by compare-and-swap so at most one request pays for a sweep per
	// sweepEvery window.
	lastSweep atomic.Int64

	mux *http.ServeMux

	// wal, when attached (AttachWAL, before traffic), receives a record
	// for every acked state transition before the reply; walSeq is the
	// high-water sequence appended or applied (advanced with a CAS-max,
	// since appends under different session locks may race to record
	// their sequences).
	wal    atomic.Pointer[wal.WAL]
	walSeq atomic.Uint64
}

// session is one entry of the table: the state machine plus what serving
// it needs. mu serializes every use of the machine's mutable state and of
// the rate bucket; a request takes it exactly once. What the machine
// fixes at construction (ID, Config, Deadline, IsThreshold) is readable
// without it.
type session struct {
	mu sync.Mutex
	*machine.Session
	enc []byte // the encoding buffer of the records logged under mu (walAppend)
	// ingest's scratch: accepted reports, the logged part, each client's index
	accepted, chunk machine.Entries
	place           map[string]int

	// The per-session report-rate token bucket (OverloadPolicy.ReportRate).
	// Ephemeral by design: it is not snapshotted or WAL-logged, so a
	// restarted server starts the session with a full bucket.
	bucketTokens float64
	bucketLast   time.Time
}

// NewServer returns a server whose task assignment is seeded for
// reproducibility (the seed does not protect any secret).
func NewServer(seed uint64) *Server {
	s := &Server{
		table:   &sessionTable{sessions: make(map[string]*session)},
		rng:     frand.New(seed),
		metrics: newServerMetrics(obs.NewRegistry()),
	}
	// Epoch 1, role primary: a server that never hears about replication
	// behaves exactly as before.
	s.epoch.Store(1)
	s.metrics.replEpoch.Set(1)
	mux := http.NewServeMux()
	// Liveness and readiness stay ungated: an overloaded daemon must
	// still answer its probes, or the router drains a server that is
	// merely busy as if it were dead.
	mux.HandleFunc("GET /healthz", s.instrument("/healthz", s.handleHealth))
	mux.HandleFunc("GET /readyz", s.instrument("/readyz", s.handleReady))
	mux.HandleFunc("GET /v1/sessions", s.instrument("/v1/sessions", s.gated(gateQuery, s.handleList)))
	mux.HandleFunc("POST /v1/sessions", s.instrument("/v1/sessions", s.gated(gateAdmin, s.handleCreate)))
	mux.HandleFunc("GET /v1/sessions/{id}/task", s.instrument("/v1/sessions/{id}/task", s.gated(gateTask, s.handleTask)))
	mux.HandleFunc("POST /v1/sessions/{id}/reports", s.instrument("/v1/sessions/{id}/reports", s.gated(gateReport, s.handleReport)))
	mux.HandleFunc("POST /v1/sessions/{id}/finalize", s.instrument("/v1/sessions/{id}/finalize", s.gated(gateAdmin, s.handleFinalize)))
	mux.HandleFunc("GET /v1/sessions/{id}/result", s.instrument("/v1/sessions/{id}/result", s.gated(gateQuery, s.handleResult)))
	// The replication plane is instrumented but not gated: role handling
	// happens inside each handler (status answers on every role, wal only
	// on a primary), and a standby must keep serving these
	// even while shedding everything else.
	mux.HandleFunc("GET /v1/replication/wal", s.instrument("/v1/replication/wal", s.handleReplWAL))
	mux.HandleFunc("GET /v1/replication/status", s.instrument("/v1/replication/status", s.handleReplStatus))
	mux.HandleFunc("POST /v1/replication/promote", s.instrument("/v1/replication/promote", s.handleReplPromote))
	mux.HandleFunc("POST /v1/replication/demote", s.instrument("/v1/replication/demote", s.handleReplDemote))
	// The scrape endpoint itself stays uninstrumented so scrapes do not
	// perturb the request counters they read.
	mux.Handle("GET /metrics", s.metrics.reg.Handler())
	s.mux = mux
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// SetTracer arms end-to-end tracing: rec is attached to every request
// context (so instrumented paths record spans into it) and a round
// timeline store starts collecting per-session lifecycle events. Passing
// nil disarms both. Safe to call at any time; fednumd wires it to
// -trace-buf before traffic.
func (s *Server) SetTracer(rec *trace.Recorder) {
	if rec == nil {
		s.tracer.Store(nil)
		s.rounds.Store(nil)
		return
	}
	s.tracer.Store(rec)
	s.rounds.Store(newRoundTable())
}

// Tracer returns the armed span recorder, nil when tracing is off — for
// mounting its Handler on an admin listener as /debug/trace.
func (s *Server) Tracer() *trace.Recorder { return s.tracer.Load() }

// tracing reports whether SetTracer armed a recorder; instrumented paths
// use it to gate work (clock reads, detail formatting) that only matters
// when spans are being collected.
func (s *Server) tracing() bool { return s.tracer.Load() != nil }

func (s *Server) now() time.Time {
	if s.Now != nil {
		return s.Now()
	}
	return time.Now()
}

// logger resolves the operational logger: Logger, or slog.Default().
// All call sites speak slog attrs; the old printf-shaped Logf shim was
// deleted once every embedder migrated (fedlint/noprintflog enforces
// that it stays gone).
func (s *Server) logger() *slog.Logger {
	if s.Logger != nil {
		return s.Logger
	}
	return slog.Default()
}

// jsonBufPool recycles response-encoding buffers across replies, pre-
// sized for a typical envelope, so the JSON path stops allocating a
// fresh encoder buffer per response.
var jsonBufPool = sync.Pool{
	New: func() any {
		b := new(bytes.Buffer)
		b.Grow(512)
		return b
	},
}

// jsonBufPoolMaxCap bounds what goes back in the pool: an occasional
// huge body (a listing of many sessions) must not pin its buffer in the
// pool forever.
const jsonBufPoolMaxCap = 64 << 10

// writeJSON encodes v through a pooled buffer, so encoding failures are
// caught before the header is written (and answered as a 500 instead of
// a torn body) and the reply goes out with an exact Content-Length.
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	buf := jsonBufPool.Get().(*bytes.Buffer)
	buf.Reset()
	if err := json.NewEncoder(buf).Encode(v); err != nil {
		jsonBufPool.Put(buf)
		s.logger().Warn("transport: encoding response failed",
			"type", fmt.Sprintf("%T", v), "error", err)
		http.Error(w, `{"error":"response encoding failed","code":"internal"}`, http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(buf.Len()))
	w.WriteHeader(status)
	if _, err := w.Write(buf.Bytes()); err != nil {
		// The client hung up; nothing to answer.
		s.logger().Debug("transport: writing response failed", "error", err)
	}
	if buf.Cap() <= jsonBufPoolMaxCap {
		jsonBufPool.Put(buf)
	}
}

func (s *Server) writeError(w http.ResponseWriter, status int, code wire.Code, err error) {
	s.writeJSON(w, status, wire.Error{Error: err.Error(), Code: code})
}

// errorStatus maps a protocol error to its HTTP status and wire code.
func errorStatus(err error) (int, wire.Code) {
	var rl *rateLimitedError
	var shed *errShed
	switch {
	case errors.Is(err, errNotFound):
		return http.StatusNotFound, wire.CodeNotFound
	case errors.Is(err, machine.ErrFinalized):
		return http.StatusConflict, wire.CodeFinalized
	case errors.Is(err, machine.ErrExpired):
		return http.StatusGone, wire.CodeExpired
	case errors.Is(err, machine.ErrCohort):
		return http.StatusConflict, wire.CodeCohortTooSmall
	case errors.Is(err, errDurability):
		return http.StatusServiceUnavailable, wire.CodeUnavailable
	case errors.As(err, &rl):
		return http.StatusTooManyRequests, wire.CodeUnavailable
	case errors.As(err, &shed):
		return http.StatusServiceUnavailable, wire.CodeUnavailable
	default:
		return http.StatusBadRequest, wire.CodeBadRequest
	}
}

// CreateSession registers a new aggregation session programmatically
// (the HTTP handler wraps this). With a WAL attached the creation is
// durable before the id is returned. An invalid config or a failed
// append just abandons the minted id — gaps in the id sequence are
// harmless, replay takes the max.
func (s *Server) CreateSession(ctx context.Context, cfg wire.SessionConfig) (string, error) {
	_, sp := trace.Start(ctx, "server.create_session")
	defer sp.End()
	s.maybeSweep()
	s.mu.Lock()
	s.nextID++
	nextID := s.nextID
	id := fmt.Sprintf("s%08x", s.rng.Uint64n(1<<32)^uint64(nextID))
	s.mu.Unlock()
	seq, err := s.table.apply(&machine.Record{
		Op: machine.OpCreate, Session: id, NextID: nextID, Config: &cfg, At: s.now(),
	}, s.walAppend)
	if err != nil {
		return "", err
	}
	s.metrics.created.Inc()
	s.metrics.active.Add(1)
	sp.Attr("session", id)
	if err := s.walCommitTraced(sp, id, "", seq); err != nil {
		return "", err
	}
	s.roundEvent(id, RoundSessionCreate, "", "", 0, cfg.Feature)
	s.logger().DebugContext(ctx, "transport: session created",
		"session", id, "feature", cfg.Feature, "bits", cfg.Bits,
		"thresholds", len(cfg.Thresholds), "ttl_seconds", cfg.TTLSeconds)
	return id, nil
}

// walCommitTraced commits seq, and — when tracing is armed and there is
// a sequence to wait for — stamps the commit (fsync) latency onto the span
// and the session's round timeline.
func (s *Server) walCommitTraced(sp *trace.Span, session, client string, seq uint64) error {
	if !s.tracing() || seq == 0 {
		return s.walCommit(seq)
	}
	start := time.Now()
	err := s.walCommit(seq)
	d := time.Since(start)
	sp.AttrDuration("wal_commit", d)
	s.roundEvent(session, RoundWALCommit, client, "", d, "")
	return err
}

func (s *Server) handleCreate(w http.ResponseWriter, r *http.Request) {
	var cfg wire.SessionConfig
	if err := s.decodeBody(w, r, &cfg); err != nil {
		return
	}
	id, err := s.CreateSession(r.Context(), cfg)
	if err != nil {
		// Validation failures are 400s; a durability failure surfaces as
		// a retryable 503 with backoff advice.
		s.writeProtoError(w, err)
		return
	}
	s.writeJSON(w, http.StatusCreated, wire.CreateSessionResponse{SessionID: id})
}

// Sweep applies TTL garbage collection immediately: sessions past their
// deadline auto-finalize or expire, and ended sessions past Retention are
// dropped. Request handling runs the same sweep lazily; call this from a
// ticker (see StartGC) to bound staleness on an idle server.
func (s *Server) Sweep() {
	now := s.now()
	s.lastSweep.Store(now.UnixNano())
	s.sweep(now, true)
	// Sweep transitions are not acked to any client, but pushing them to
	// stable storage promptly keeps the recovery tail short; a commit
	// failure here only defers durability to the next commit.
	if err := s.walCommit(s.walSeq.Load()); err != nil {
		s.logger().Warn("transport: committing sweep transitions failed", "error", err)
	}
}

// StartGC runs Sweep every interval until the returned stop function is
// called.
func (s *Server) StartGC(interval time.Duration) (stop func()) {
	done := make(chan struct{})
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-t.C:
				s.Sweep()
			}
		}
	}()
	var once sync.Once
	return func() { once.Do(func() { close(done) }) }
}

// maybeSweep runs the lazy deadline sweep that piggybacks on request
// handling, throttled to sweepEvery. The throttle window is claimed
// with a compare-and-swap, so under concurrent load exactly one request
// pays for the sweep and everyone else proceeds straight to its own
// work.
func (s *Server) maybeSweep() {
	if s.roleValue() != RolePrimary {
		return
	}
	now := s.now()
	last := s.lastSweep.Load()
	if now.UnixNano()-last < int64(sweepEvery) {
		return
	}
	if !s.lastSweep.CompareAndSwap(last, now.UnixNano()) {
		return
	}
	s.sweep(now, false)
}

// sweep enforces session deadlines and retention across the whole table.
// Every sweep is counted in the registry; forced sweeps (the GC loop
// and manual Sweep calls) additionally log their outcome at debug
// level.
func (s *Server) sweep(now time.Time, force bool) {
	// Deadline and retention transitions are the primary's to decide and
	// log; a standby applies them from the replication stream. A sweep
	// here would append locally generated records into the mirrored
	// sequence space and diverge from the primary's history.
	if s.roleValue() != RolePrimary {
		return
	}
	expired, finalized, deleted := 0, 0, 0
	for _, sess := range s.table.all() {
		e, f := s.sweepDeadline(sess, now)
		expired += e
		finalized += f
		if s.retireExpiredSession(sess, now) {
			deleted++
		}
	}
	s.metrics.sweeps.With(strconv.FormatBool(force)).Inc()
	if force {
		s.logger().Debug("transport: gc sweep",
			"expired", expired, "auto_finalized", finalized, "deleted", deleted,
			"retained", s.table.size())
	}
}

// sweepDeadline applies the TTL transition to one session, returning
// how many sessions it expired and finalized (0 or 1 each).
func (s *Server) sweepDeadline(sess *session, now time.Time) (expired, finalized int) {
	if sess.Deadline().IsZero() || now.Before(sess.Deadline()) {
		return 0, 0
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	if sess.Open() != nil {
		return 0, 0
	}
	id := sess.ID()
	s.roundEvent(id, RoundDeadline, "", "", 0, "")
	if sess.Config().AutoFinalize && sess.CohortReady() == nil {
		_, err := s.finalizeLocked(sess, now, "deadline")
		if err == nil {
			s.logger().Info("transport: session auto-finalized at deadline",
				"session", id, "reports", sess.Reports())
			return 0, 1
		}
		s.logger().Warn("transport: deadline auto-finalize failed, expiring",
			"session", id, "error", err)
	} else {
		s.logger().Info("transport: session expired at deadline",
			"session", id, "reports", sess.Reports())
	}
	// A WAL append failure defers the expiry to the next sweep (not
	// logged ⇒ not applied).
	if _, err := s.logApplyLocked(sess, &machine.Record{Op: machine.OpExpire, Session: id, At: now}); err != nil {
		s.logger().Warn("transport: logging session expiry failed, deferring",
			"session", id, "error", err)
		return 0, 0
	}
	s.metrics.expired.Inc()
	s.metrics.active.Add(-1)
	s.roundEvent(id, RoundExpire, "", "deadline", 0, "")
	return 1, 0
}

// retireExpiredSession drops an ended session once it ages past
// Retention. Ending is sticky (a session never un-ends), so the decision
// cannot be invalidated between the session lock and the table lock.
func (s *Server) retireExpiredSession(sess *session, now time.Time) bool {
	if s.Retention <= 0 {
		return false
	}
	sess.mu.Lock()
	due := sess.Open() != nil && !sess.EndedAt().IsZero() && now.Sub(sess.EndedAt()) >= s.Retention
	sess.mu.Unlock()
	if !due {
		return false
	}
	id := sess.ID()
	if _, err := s.table.apply(&machine.Record{Op: machine.OpDelete, Session: id, At: now}, s.walAppend); err != nil {
		// errNotFound: a concurrent sweep already retired it. Anything
		// else: not logged ⇒ not applied; the next sweep retries.
		if !errors.Is(err, errNotFound) {
			s.logger().Warn("transport: logging retention delete failed, deferring",
				"session", id, "error", err)
		}
		return false
	}
	// The round timeline follows its session out of memory.
	s.rounds.Load().delete(id)
	s.metrics.deleted.Inc()
	return true
}

// AssignTask tells a client which bit to report (session.NextBit picks
// it for a first-time client). A fresh assignment is acked state — the
// report-acceptance check depends on it — so it is logged and committed
// before the reply; a re-polling client gets its original task back with
// no WAL traffic.
func (s *Server) AssignTask(ctx context.Context, sessionID, clientID string) (wire.Task, error) {
	_, sp := trace.Start(ctx, "server.assign_task")
	defer sp.End()
	sp.Attr("session", sessionID)
	sp.Attr("client", clientID)
	s.maybeSweep()
	var t0 time.Time
	if sp != nil {
		t0 = time.Now()
	}
	sess := s.table.get(sessionID)
	if sess == nil {
		return wire.Task{}, errNotFound
	}
	sess.mu.Lock()
	var tLock time.Time
	if sp != nil {
		tLock = time.Now()
		sp.AttrDuration("lock_wait", tLock.Sub(t0))
	}
	var seq uint64
	var idx int
	var known bool
	// An ended session has no client entries to look up: it answers
	// finalized or expired whoever asks.
	err := sess.Open()
	if err == nil {
		if idx, known = sess.Assigned(clientID); !known {
			idx = sess.NextBit()
			seq, err = s.logApplyLocked(sess, &machine.Record{
				Op: machine.OpAssign, Session: sessionID, Client: clientID, Bit: idx,
			})
		}
	}
	sess.mu.Unlock()
	if err != nil {
		return wire.Task{}, err
	}
	if !known {
		s.metrics.tasks.Inc()
	}
	if sp != nil {
		sp.AttrDuration("table_hold", time.Since(tLock))
		sp.AttrInt("bit", int64(idx))
		sp.AttrBool("fresh", !known)
	}
	if err := s.walCommitTraced(sp, sessionID, clientID, seq); err != nil {
		return wire.Task{}, err
	}
	if !known {
		s.roundEvent(sessionID, RoundTaskAssign, clientID, "", 0, "")
	}
	return sess.Task(idx), nil
}

func (s *Server) handleTask(w http.ResponseWriter, r *http.Request) {
	clientID := r.URL.Query().Get("client")
	if clientID == "" {
		s.writeError(w, http.StatusBadRequest, wire.CodeBadRequest, errors.New("transport: missing client parameter"))
		return
	}
	task, err := s.AssignTask(r.Context(), r.PathValue("id"), clientID)
	if err != nil {
		s.writeProtoError(w, err)
		return
	}
	s.writeJSON(w, http.StatusOK, task)
}

// reportOutcome maps an ingest outcome onto its metric label and round
// timeline event kind. Rejections reuse the label as the timeline
// reason.
func reportOutcome(st wire.AckStatus) (label string, kind RoundKind) {
	switch st {
	case wire.AckAccepted:
		return ReportAccepted, RoundReportAccept
	case wire.AckDuplicate:
		return ReportDuplicate, RoundReportDuplicate
	case wire.AckInvalidValue:
		return ReportInvalid, RoundReportReject
	case wire.AckNoTask:
		return ReportNoTask, RoundReportReject
	case wire.AckWrongBit:
		return ReportWrongBit, RoundReportReject
	case wire.AckConflict:
		return ReportConflict, RoundReportReject
	}
	return ReportInvalid, RoundReportReject
}

// ackReason spells the human-readable rejection reason of the JSON ack
// envelope; empty for the success outcomes.
func ackReason(st wire.AckStatus) string {
	switch st {
	case wire.AckAccepted, wire.AckDuplicate:
		return ""
	case wire.AckInvalidValue:
		return "value is not a bit"
	case wire.AckNoTask:
		return "no task assigned"
	case wire.AckWrongBit:
		return "report for unassigned bit"
	case wire.AckConflict:
		return "conflicting report"
	}
	return "report rejected"
}

// SubmitReport ingests one client report, enforcing one report per client
// and rejecting reports for bits the server did not assign. Ingestion is
// idempotent: a retransmission of the exact accepted report (same client,
// bit and value — the lost-ack case) is re-acked as a duplicate; only a
// conflicting retransmission is rejected.
func (s *Server) SubmitReport(ctx context.Context, sessionID string, rep wire.Report) (wire.ReportAck, error) {
	_, sp := trace.Start(ctx, "server.submit_report")
	defer sp.End()
	sp.Attr("session", sessionID)
	sp.Attr("client", rep.ClientID)
	sent := false
	var buf [1]wire.AckStatus
	acks, _, err := ingest(s, sp, sessionID, 1, func() (string, int, uint64, bool, error) {
		first := !sent
		sent = true
		return rep.ClientID, rep.Bit, rep.Value, first, nil
	}, buf[:0])
	if err != nil {
		return wire.ReportAck{}, s.noteRejected(sp, sessionID, rep.ClientID, err)
	}
	st := acks[0]
	label, kind := reportOutcome(st)
	sp.Attr("result", label)
	reason := ""
	if kind == RoundReportReject {
		reason = label
	}
	s.roundEvent(sessionID, kind, rep.ClientID, reason, 0, "")
	return wire.ReportAck{Accepted: st.OK(), Duplicate: st == wire.AckDuplicate, Reason: ackReason(st)}, nil
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	// Content-Type negotiation: the binary batch codec peels off here;
	// everything else is the original JSON single-report envelope, so
	// existing clients keep working unchanged.
	if r.Header.Get("Content-Type") == wire.ReportBatchContentType {
		s.handleReportBatch(w, r)
		return
	}
	var rep wire.Report
	if err := s.decodeBody(w, r, &rep); err != nil {
		return
	}
	ack, err := s.SubmitReport(r.Context(), r.PathValue("id"), rep)
	if err != nil {
		s.writeProtoError(w, err)
		return
	}
	s.writeJSON(w, http.StatusOK, ack)
}

// Finalize closes the session and computes the aggregate. It fails if the
// accepted cohort is below the configured minimum. Finalizing an already
// finalized session returns the same result (idempotent).
func (s *Server) Finalize(ctx context.Context, sessionID string) (*wire.Result, error) {
	_, sp := trace.Start(ctx, "server.finalize")
	defer sp.End()
	sp.Attr("session", sessionID)
	s.maybeSweep()
	sess := s.table.get(sessionID)
	if sess == nil {
		return nil, errNotFound
	}
	sess.mu.Lock()
	var seq uint64
	var err error
	first := !sess.Done()
	if sess.Expired() {
		err = machine.ErrExpired
	} else if first {
		seq, err = s.finalizeLocked(sess, s.now(), "api")
	}
	res := sess.Result()
	sess.mu.Unlock()
	if err != nil {
		return nil, err
	}
	if first {
		s.logger().DebugContext(ctx, "transport: session finalized",
			"session", sessionID, "reports", res.Reports)
	}
	if sp != nil {
		sp.AttrInt("reports", int64(res.Reports))
		sp.AttrBool("first", first)
		if len(res.Thresholds) == 0 {
			sp.AttrFloat("estimate", res.Estimate)
		}
	}
	if err := s.walCommitTraced(sp, sessionID, "", seq); err != nil {
		return nil, err
	}
	return res, nil
}

// finalizeLocked checks the cohort, logs and applies the finalize, and
// stamps the metrics and round timeline (cause is "api" or "deadline");
// the caller holds sess.mu, has checked the session is open, and commits
// the returned WAL sequence before acking.
func (s *Server) finalizeLocked(sess *session, at time.Time, cause string) (uint64, error) {
	if err := sess.CohortReady(); err != nil {
		return 0, err
	}
	id := sess.ID()
	seq, err := s.logApplyLocked(sess, &machine.Record{Op: machine.OpFinalize, Session: id, At: at})
	if err != nil {
		return 0, err
	}
	s.metrics.cohort.Observe(float64(sess.Reports()))
	s.metrics.active.Add(-1)
	s.metrics.finalized.With(cause).Inc()
	s.roundEvent(id, RoundFinalize, "", cause, 0, "")
	if s.tracing() {
		res := sess.Result()
		detail := "estimate=" + strconv.FormatFloat(res.Estimate, 'g', -1, 64)
		if sess.IsThreshold() {
			detail = "thresholds=" + strconv.Itoa(len(res.TailProbs))
		}
		s.roundEvent(id, RoundEstimate, "", "", 0, detail+" reports="+strconv.Itoa(res.Reports))
	}
	return seq, nil
}

func (s *Server) handleFinalize(w http.ResponseWriter, r *http.Request) {
	res, err := s.Finalize(r.Context(), r.PathValue("id"))
	if err != nil {
		s.writeProtoError(w, err)
		return
	}
	s.writeJSON(w, http.StatusOK, res)
}

// Result returns the session's current aggregate view; before Finalize it
// reports Done=false with the running report count.
func (s *Server) Result(sessionID string) (*wire.Result, error) {
	s.maybeSweep()
	sess := s.table.get(sessionID)
	if sess == nil {
		return nil, errNotFound
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return sess.Result(), nil
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	res, err := s.Result(r.PathValue("id"))
	if err != nil {
		s.writeProtoError(w, err)
		return
	}
	s.writeJSON(w, http.StatusOK, res)
}

// handleHealth reports liveness plus the session table split by state, so
// an operator (or orchestrator probe) can see at a glance whether the
// daemon is draining, idle, or carrying live aggregations.
func (s *Server) handleHealth(w http.ResponseWriter, _ *http.Request) {
	s.maybeSweep()
	active, done, expired := 0, 0, 0
	for _, sess := range s.table.all() {
		sess.mu.Lock()
		switch {
		case sess.Done():
			done++
		case sess.Expired():
			expired++
		default:
			active++
		}
		sess.mu.Unlock()
	}
	s.writeJSON(w, http.StatusOK, map[string]any{
		"status":   "ok",
		"sessions": active + done + expired,
		"active":   active,
		"done":     done,
		"expired":  expired,
	})
}

// SessionSummary is one row of the session listing.
type SessionSummary struct {
	SessionID string `json:"session_id"`
	Feature   string `json:"feature"`
	Kind      string `json:"kind"`
	Bits      int    `json:"bits"`
	Reports   int    `json:"reports"`
	Done      bool   `json:"done"`
	Expired   bool   `json:"expired,omitempty"`
	// Deadline is the RFC3339 TTL deadline, empty for immortal sessions.
	Deadline string `json:"deadline,omitempty"`
}

// Sessions lists every session's summary, sorted by id.
func (s *Server) Sessions() []SessionSummary {
	s.maybeSweep()
	all := s.table.all()
	out := make([]SessionSummary, 0, len(all))
	for _, sess := range all {
		kind := wire.TaskKindBit
		if sess.IsThreshold() {
			kind = wire.TaskKindThreshold
		}
		cfg := sess.Config()
		sess.mu.Lock()
		row := SessionSummary{
			SessionID: sess.ID(),
			Feature:   cfg.Feature,
			Kind:      kind,
			Bits:      cfg.Bits,
			Reports:   sess.Reports(),
			Done:      sess.Done(),
			Expired:   sess.Expired(),
		}
		sess.mu.Unlock()
		if d := sess.Deadline(); !d.IsZero() {
			row.Deadline = d.Format(time.RFC3339)
		}
		out = append(out, row)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SessionID < out[j].SessionID })
	return out
}

func (s *Server) handleList(w http.ResponseWriter, _ *http.Request) {
	s.writeJSON(w, http.StatusOK, s.Sessions())
}
