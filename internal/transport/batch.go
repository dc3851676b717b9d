package transport

import (
	"context"
	"errors"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	machine "repro/internal/session"
	"repro/internal/trace"
	"repro/internal/transport/wire"
)

// Report ingestion: the one path (ingest) every report takes, and the
// binary codec's server side. A batch frame carries up to
// wire.MaxBatchReports one-bit reports for one session in a single POST
// body. Per-record outcomes (duplicate, conflict, no task, wrong bit,
// bad value) are ack statuses, not errors; a failure of the whole
// request is the ordinary JSON error envelope.

// batchBuffers is the per-request scratch of the binary path — body,
// ack statuses, response frame — pooled so a warm server ingests
// batches without per-request allocations.
type batchBuffers struct {
	body  []byte
	acks  []wire.AckStatus
	frame []byte
}

var batchBufPool = sync.Pool{
	New: func() any { return new(batchBuffers) },
}

// readAllInto reads r to EOF appending onto dst, reusing dst's capacity
// (io.ReadAll always allocates a fresh buffer; this one amortizes to
// zero through the pool).
func readAllInto(dst []byte, r io.Reader) ([]byte, error) {
	for {
		if len(dst) == cap(dst) {
			dst = append(dst, 0)[:len(dst)]
		}
		n, err := r.Read(dst[len(dst):cap(dst)])
		dst = dst[:len(dst)+n]
		if err == io.EOF {
			return dst, nil
		}
		if err != nil {
			return dst, err
		}
	}
}

// tally counts one request's per-record outcomes by ack status.
type tally [wire.AckConflict + 1]int

// ingest is the one report path behind both codecs and all three entry
// points (SubmitReport, SubmitReportBatch, the binary frame). Under one
// hold of the session's mutex it checks the session is open, charges the
// n reports to its rate bucket, and decides each record next yields into
// acks, a client the request already accepted as a duplicate or conflict
// of that copy. It then logs the accepted reports as one record (an
// OpReport for one, an OpClients for more; several only past Entries.Cut's
// bound) and Applies it, and commits the WAL after releasing the lock, so
// no ack precedes durability. K is the client id's spelling (string from
// JSON, a borrowed []byte view of a binary frame), as for session.Decide.
//
// A retransmission is acked as a duplicate because its original is in
// the client map, but the original becomes durable only when *its*
// request commits, after releasing the lock. A request that produced any
// duplicate therefore commits the log's high-water mark: by the time it
// saw the entry the original's append had been counted into walSeq. In
// steady state the mark is already durable and the commit is one
// uncontended lock and no I/O.
//
// err is non-nil only for failures of the whole request (unknown or
// closed session, rate limit, durability, a source error). Nothing was
// acked and, but for a later record past Cut's bound, nothing applied, so
// retrying the whole request is always safe.
func ingest[K ~string | ~[]byte](s *Server, sp *trace.Span, sessionID string, n int,
	next func() (K, int, uint64, bool, error), acks []wire.AckStatus) ([]wire.AckStatus, tally, error) {
	var t tally
	s.maybeSweep()
	var t0 time.Time
	if sp != nil {
		t0 = time.Now()
	}
	sess := s.table.get(sessionID)
	if sess == nil {
		return acks, t, errNotFound
	}
	sess.mu.Lock()
	var tLock time.Time
	if sp != nil {
		tLock = time.Now()
		sp.AttrDuration("lock_wait", tLock.Sub(t0))
	}
	var maxSeq uint64
	err := sess.Open()
	if err == nil {
		err = s.reportRateLocked(sess, s.now(), float64(n))
	}
	acc := &sess.accepted
	*acc = machine.Entries{Clients: acc.Clients[:0], Indexes: acc.Indexes[:0], States: acc.States[:0]}
	for err == nil {
		client, bit, value, ok, nerr := next()
		if err = nerr; err != nil || !ok {
			break
		}
		st := machine.Decide(sess.Session, client, bit, value)
		if st == wire.AckAccepted {
			i, again := sess.place[string(client)]
			switch {
			case !again:
				c := string(client)
				sess.place[c] = len(acc.Clients)
				acc.Clients, acc.Indexes, acc.States = append(acc.Clients, c), append(acc.Indexes, bit), append(acc.States, uint8(value)+1)
			case acc.States[i] == uint8(value)+1:
				st = wire.AckDuplicate
			default:
				st = wire.AckConflict
			}
		}
		t[st]++
		acks = append(acks, st)
	}
	for rest := *acc; err == nil && len(rest.Clients) > 0; {
		sess.chunk, rest = rest.Cut()
		c := &sess.chunk
		rec := machine.Record{Op: machine.OpClients, Session: sessionID, Entries: c}
		if len(c.Clients) == 1 {
			rec = machine.Record{Op: machine.OpReport, Session: sessionID, Client: c.Clients[0], Bit: c.Indexes[0], Value: uint64(c.States[0]) - 1}
		}
		maxSeq, err = s.logApplyLocked(sess, &rec)
	}
	// Empty the scratch in time proportional to what this request added,
	// and keep no client id in it past the request.
	for _, c := range acc.Clients {
		delete(sess.place, c)
	}
	clear(acc.Clients)
	sess.mu.Unlock()
	if sp != nil {
		sp.AttrDuration("table_hold", time.Since(tLock))
	}
	if err != nil {
		return acks, t, err
	}
	for st, c := range t {
		if c > 0 {
			label, _ := reportOutcome(wire.AckStatus(st))
			s.metrics.reports.With(label).Add(uint64(c))
		}
	}
	if t[wire.AckDuplicate] > 0 {
		maxSeq = s.walSeq.Load()
	}
	return acks, t, s.walCommitTraced(sp, sessionID, "", maxSeq)
}

// errBatchTooLarge rejects a programmatic batch over the frame cap; the
// HTTP path never sees it (the decoder enforces the cap first).
var errBatchTooLarge = errors.New("transport: batch exceeds the report cap")

// submitBatch wraps ingest with what is particular to a batch: the
// server.submit_batch span, and one timeline event summarizing the
// outcome (per-record events at batch scale would flood the round ring
// buffer).
func submitBatch[K ~string | ~[]byte](s *Server, ctx context.Context, sessionID string, n int,
	next func() (K, int, uint64, bool, error), acks []wire.AckStatus) ([]wire.AckStatus, error) {
	_, sp := trace.Start(ctx, "server.submit_batch")
	defer sp.End()
	sp.Attr("session", sessionID)
	sp.AttrInt("count", int64(n))
	acks, t, err := ingest(s, sp, sessionID, n, next, acks)
	if err != nil {
		return acks, s.noteRejected(sp, sessionID, "", err)
	}
	accepted, duplicate := t[wire.AckAccepted], t[wire.AckDuplicate]
	rejected := n - accepted - duplicate
	if sp != nil {
		sp.AttrInt("accepted", int64(accepted))
		sp.AttrInt("duplicate", int64(duplicate))
		sp.AttrInt("rejected", int64(rejected))
	}
	if s.tracing() && n > 0 {
		detail := "accepted=" + strconv.Itoa(accepted) +
			" duplicate=" + strconv.Itoa(duplicate) +
			" rejected=" + strconv.Itoa(rejected)
		kind := RoundReportAccept
		if accepted == 0 && rejected > 0 {
			kind = RoundReportReject
		}
		s.roundEvent(sessionID, kind, "", "", 0, detail)
	}
	return acks, nil
}

// noteRejected stamps a whole-request rate limit onto the span and the
// round timeline, passing err through.
func (s *Server) noteRejected(sp *trace.Span, sessionID, client string, err error) error {
	var rl *rateLimitedError
	if errors.As(err, &rl) {
		sp.Attr("result", "ratelimited")
		s.roundEvent(sessionID, RoundReportRatelimit, client, "", rl.wait, "")
	}
	return err
}

// SubmitReportBatch ingests a batch of reports in one transaction: one
// lock acquisition, one rate-bucket charge, one WAL commit, one ack
// status per report in order. It is the programmatic face of the binary
// batch route and runs the identical per-record acceptance machine as
// SubmitReport, so a session may freely interleave JSON and batched
// submissions.
func (s *Server) SubmitReportBatch(ctx context.Context, sessionID string, reports []wire.Report) ([]wire.AckStatus, error) {
	if len(reports) > wire.MaxBatchReports {
		return nil, errBatchTooLarge
	}
	i := 0
	acks, err := submitBatch(s, ctx, sessionID, len(reports), func() (string, int, uint64, bool, error) {
		if i == len(reports) {
			return "", 0, 0, false, nil
		}
		r := &reports[i]
		i++
		return r.ClientID, r.Bit, r.Value, true, nil
	}, make([]wire.AckStatus, 0, len(reports)))
	if err != nil {
		return nil, err
	}
	return acks, nil
}

// ingestBatchFrame decodes and ingests one binary batch frame,
// appending ack statuses onto acks. Split from the HTTP handler so the
// alloc guard can drive the full server-side frame path without a
// network stack in the way.
func (s *Server) ingestBatchFrame(ctx context.Context, sessionID string, frame []byte, acks []wire.AckStatus) ([]wire.AckStatus, error) {
	var br wire.BatchReader
	if err := br.Reset(frame); err != nil {
		return acks, err
	}
	var v wire.ReportView
	return submitBatch(s, ctx, sessionID, br.Count(), func() ([]byte, int, uint64, bool, error) {
		ok, err := br.Next(&v)
		return v.Client, v.Bit, v.Value, ok, err
	}, acks)
}

// handleReportBatch is the Content-Type-negotiated binary leg of
// POST /v1/sessions/{id}/reports. The body is capped at the frame
// format's own maximum — independent of the JSON body cap, which is
// sized for single-report envelopes. Framing violations are 400s with
// the typed decoder detail; batch-level protocol failures reuse the
// JSON error envelope (status codes are the contract, whatever the
// request codec); per-record outcomes come back as a binary ack frame.
func (s *Server) handleReportBatch(w http.ResponseWriter, r *http.Request) {
	bb := batchBufPool.Get().(*batchBuffers)
	defer batchBufPool.Put(bb)
	r.Body = http.MaxBytesReader(w, r.Body, wire.MaxBatchFrameBytes)
	body, err := readAllInto(bb.body[:0], r.Body)
	bb.body = body
	if err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			s.metrics.bodyRejected.With(r.URL.Path).Inc()
			s.writeError(w, http.StatusRequestEntityTooLarge, wire.CodeTooLarge,
				errors.New("transport: batch frame over the size cap"))
			return
		}
		s.writeError(w, http.StatusBadRequest, wire.CodeBadRequest, err)
		return
	}
	acks, err := s.ingestBatchFrame(r.Context(), r.PathValue("id"), body, bb.acks[:0])
	bb.acks = acks
	if err != nil {
		if isFrameError(err) {
			s.writeError(w, http.StatusBadRequest, wire.CodeBadRequest, err)
			return
		}
		s.writeProtoError(w, err)
		return
	}
	frame := wire.AppendAckFrame(bb.frame[:0], acks)
	bb.frame = frame
	w.Header().Set("Content-Type", wire.ReportAckContentType)
	w.Header().Set("Content-Length", strconv.Itoa(len(frame)))
	if _, err := w.Write(frame); err != nil {
		s.logger().Debug("transport: writing ack frame failed", "error", err)
	}
}

// isFrameError reports whether err is one of the binary codec's typed
// framing failures (a malformed request, not a protocol state error).
func isFrameError(err error) bool {
	return errors.Is(err, wire.ErrFrameMagic) ||
		errors.Is(err, wire.ErrFrameTruncated) ||
		errors.Is(err, wire.ErrFrameChecksum) ||
		errors.Is(err, wire.ErrFrameOversize) ||
		errors.Is(err, wire.ErrFrameTrailing)
}
