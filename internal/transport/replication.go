package transport

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"strconv"
	"time"

	"repro/internal/trace"
	"repro/internal/transport/wire"
	"repro/internal/wal"
)

// Role is a server's position in a replicated pair: exactly one primary
// accepts client traffic and appends to its WAL; standbys mirror that
// log into a warm session table; a fenced node is a deposed primary
// that must refuse everything until an operator re-seats it. The zero
// value is RolePrimary, so unreplicated deployments behave exactly as
// before.
type Role int32

const (
	// RolePrimary serves all client and admin traffic and ships its WAL.
	RolePrimary Role = iota
	// RoleStandby applies the primary's WAL and rejects client traffic
	// with CodeNotPrimary plus a leader hint.
	RoleStandby
	// RoleFenced is a deposed primary: a node that saw a higher fencing
	// epoch. It rejects everything a standby rejects — in particular the
	// late acks a split-brain double-count would need.
	RoleFenced
)

// String returns the wire spelling served in status bodies and headers.
func (r Role) String() string {
	switch r {
	case RolePrimary:
		return "primary"
	case RoleStandby:
		return "standby"
	case RoleFenced:
		return "fenced"
	}
	return fmt.Sprintf("Role(%d)", int32(r))
}

// Replication wire headers: every /v1/replication answer carries the
// node's fencing epoch and role so a follower can detect a deposed or
// stale primary before applying a single frame, plus the log bounds
// that drive the lag metrics.
const (
	ReplHeaderEpoch    = "X-Fednum-Epoch"
	ReplHeaderRole     = "X-Fednum-Role"
	ReplHeaderHeadSeq  = "X-Fednum-Head-Seq"
	ReplHeaderFirstSeq = "X-Fednum-First-Seq"
	ReplHeaderWALBytes = "X-Fednum-Wal-Bytes"
	// ReplHeaderCheckpoint marks a body that is the checkpoint for its seq.
	ReplHeaderCheckpoint = "X-Fednum-Checkpoint"
)

// ReplContentType marks a binary WAL frame stream.
const ReplContentType = "application/x-fednum-wal"

// replFrameHeader is the per-record wire framing:
// [seq uint64le][length uint32le][crc32c(payload) uint32le][payload].
const replFrameHeader = 16

// replCRCTable is Castagnoli, matching the WAL's on-disk framing so the
// checksum shipped over the wire is the same one verified on disk.
var replCRCTable = crc32.MakeTable(crc32.Castagnoli)

// appendReplFrame appends one framed record to dst.
func appendReplFrame(dst []byte, seq uint64, payload []byte) []byte {
	var hdr [replFrameHeader]byte
	binary.LittleEndian.PutUint64(hdr[0:], seq)
	binary.LittleEndian.PutUint32(hdr[8:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[12:], crc32.Checksum(payload, replCRCTable))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// DecodeReplFrames streams the framed records of a replication response
// body or a checkpoint to fn, verifying each record's length and
// checksum. A truncated or corrupt stream is an error — the follower drops
// the batch and re-pulls, and a checkpoint fails to load, rather than
// apply bytes it cannot vouch for.
func DecodeReplFrames(r io.Reader, fn func(seq uint64, payload []byte) error) error {
	var hdr [replFrameHeader]byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			if errors.Is(err, io.EOF) {
				return nil
			}
			return fmt.Errorf("transport: truncated replication frame header: %w", err)
		}
		seq := binary.LittleEndian.Uint64(hdr[0:])
		n := binary.LittleEndian.Uint32(hdr[8:])
		crc := binary.LittleEndian.Uint32(hdr[12:])
		if n == 0 || n > wal.MaxRecordBytes {
			return fmt.Errorf("transport: replication frame %d has unframeable length %d", seq, n)
		}
		// Read rather than allocate the declared length up front, so a
		// damaged length costs what the stream holds, not up to
		// wal.MaxRecordBytes.
		payload, err := io.ReadAll(io.LimitReader(r, int64(n)))
		if err == nil && len(payload) < int(n) {
			err = io.ErrUnexpectedEOF
		}
		if err != nil {
			return fmt.Errorf("transport: truncated replication frame %d: %w", seq, err)
		}
		if crc32.Checksum(payload, replCRCTable) != crc {
			return fmt.Errorf("transport: replication frame %d failed its checksum", seq)
		}
		if err := fn(seq, payload); err != nil {
			return err
		}
	}
}

// roleValue loads the role with a single atomic read — cheap enough for
// every request path.
func (s *Server) roleValue() Role { return Role(s.role.Load()) }

// Role returns the server's current replication role.
func (s *Server) Role() Role { return s.roleValue() }

// SetRole sets the replication role directly — boot-time wiring for a
// daemon started with -replica-of. Runtime transitions should go
// through Promote and Demote, which also manage the fencing epoch.
func (s *Server) SetRole(r Role) {
	s.role.Store(int32(r))
	s.metrics.replRole.Set(float64(r))
}

// Epoch returns the node's fencing epoch.
func (s *Server) Epoch() uint64 { return s.epoch.Load() }

// SetEpoch raises the node's fencing epoch to e; a lower value is
// ignored (epochs only move forward, that is the whole point).
func (s *Server) SetEpoch(e uint64) {
	for {
		cur := s.epoch.Load()
		if e <= cur {
			return
		}
		if s.epoch.CompareAndSwap(cur, e) {
			s.metrics.replEpoch.Set(float64(e))
			return
		}
	}
}

// LeaderHint returns the base URL of the node this replica believes is
// primary, "" when unknown. Served in CodeNotPrimary envelopes so a
// redirected client knows where to go next.
func (s *Server) LeaderHint() string {
	if p := s.leader.Load(); p != nil {
		return *p
	}
	return ""
}

// SetLeaderHint records where the primary lives.
func (s *Server) SetLeaderHint(u string) {
	if u == "" {
		s.leader.Store(nil)
		return
	}
	s.leader.Store(&u)
}

// SetOnPromote installs the promotion hook the HTTP promote handler
// invokes on a standby: the replica follower wires its Promote here so
// an admin-triggered promotion runs the same salvage-then-flip sequence
// as an automatic one. Without a hook the handler flips the role
// directly (epoch+1) with no salvage.
func (s *Server) SetOnPromote(fn func(context.Context) error) {
	if fn == nil {
		s.onPromote.Store(nil)
		return
	}
	s.onPromote.Store(&fn)
}

// Promote flips this node to primary under fencing epoch epoch, which
// must exceed the current one. From this instant the node accepts
// client traffic, logs its own WAL records, and serves replication to
// followers presenting the new epoch.
func (s *Server) Promote(epoch uint64) error {
	cur := s.epoch.Load()
	if epoch <= cur {
		return fmt.Errorf("transport: promote epoch %d must exceed current epoch %d", epoch, cur)
	}
	s.epoch.Store(epoch)
	s.role.Store(int32(RolePrimary))
	s.leader.Store(nil)
	s.metrics.replEpoch.Set(float64(epoch))
	s.metrics.replRole.Set(float64(RolePrimary))
	s.metrics.replPromotions.Inc()
	// Stamp the takeover into every live session's round timeline: a
	// soak reading /debug/rounds sees exactly where the failover landed
	// inside each round.
	var live []string
	for _, sess := range s.table.all() {
		sess.mu.Lock()
		if sess.Open() == nil {
			live = append(live, sess.ID())
		}
		sess.mu.Unlock()
	}
	for _, id := range live {
		s.roundEvent(id, RoundPromote, "", "", 0, "epoch="+strconv.FormatUint(epoch, 10))
	}
	s.logger().Info("transport: promoted to primary", "epoch", epoch)
	return nil
}

// Demote fences this node under epoch (>= current): a primary becomes
// fenced and refuses all client traffic — the deposed-primary half of
// the split-brain guarantee — while a standby just adopts the new epoch
// and leader hint. Called by the freshly promoted primary (best effort)
// and by the wal handler when a follower presents a higher epoch.
func (s *Server) Demote(epoch uint64, leader string) error {
	for {
		cur := s.epoch.Load()
		if epoch < cur {
			return fmt.Errorf("transport: demote epoch %d is stale (current %d)", epoch, cur)
		}
		if epoch == cur || s.epoch.CompareAndSwap(cur, epoch) {
			break
		}
	}
	s.metrics.replEpoch.Set(float64(s.epoch.Load()))
	if leader != "" {
		s.SetLeaderHint(leader)
	}
	if s.roleValue() == RolePrimary {
		s.role.Store(int32(RoleFenced))
		s.metrics.replRole.Set(float64(RoleFenced))
		s.metrics.replFenced.Inc()
		s.logger().Warn("transport: fenced — a higher epoch exists", "epoch", epoch, "leader", leader)
	}
	return nil
}

// writeNotPrimary answers a request this node's role forbids: 421 with
// the typed CodeNotPrimary envelope and the leader hint when known, so
// a multi-endpoint client fails over in one round trip.
func (s *Server) writeNotPrimary(w http.ResponseWriter) {
	s.metrics.replNotPrimary.Inc()
	role := s.roleValue()
	s.writeJSON(w, http.StatusMisdirectedRequest, wire.Error{
		Error:  "transport: this node is not the primary (role " + role.String() + ")",
		Code:   wire.CodeNotPrimary,
		Leader: s.LeaderHint(),
	})
}

// ReplicationStatus assembles the node's replication view: role, epoch,
// applied sequence and local log bounds.
func (s *Server) ReplicationStatus() wire.ReplStatus {
	st := wire.ReplStatus{
		Role:       s.roleValue().String(),
		Epoch:      s.epoch.Load(),
		AppliedSeq: s.WALSeq(),
		Leader:     s.LeaderHint(),
	}
	if w := s.walRef(); w != nil {
		st.HeadSeq = w.LastSeq()
		st.FirstSeq = w.FirstSeq()
		st.WALBytes = w.SizeBytes()
	}
	return st
}

// replHeaders stamps the epoch/role/log-bounds headers every
// replication answer carries.
func (s *Server) replHeaders(w http.ResponseWriter) {
	h := w.Header()
	h.Set(ReplHeaderEpoch, strconv.FormatUint(s.epoch.Load(), 10))
	h.Set(ReplHeaderRole, s.roleValue().String())
	if lw := s.walRef(); lw != nil {
		h.Set(ReplHeaderHeadSeq, strconv.FormatUint(lw.LastSeq(), 10))
		h.Set(ReplHeaderFirstSeq, strconv.FormatUint(lw.FirstSeq(), 10))
		h.Set(ReplHeaderWALBytes, strconv.FormatInt(lw.SizeBytes(), 10))
	}
}

// handleReplWAL ships log records: GET /v1/replication/wal?from=SEQ
// [&max=N][&max_bytes=B][&wait_ms=MS][&epoch=E]. The answer is a binary
// frame stream (see DecodeReplFrames) resumable from any sequence. A from
// compacted away is answered with the newest checkpoint file, verbatim —
// it is already in the frame format — under ReplHeaderCheckpoint, and the
// follower's next pull starts after it; with no checkpoint to serve (a
// log compacted against a -snapshot file) it gets 410. Long-polling via
// wait_ms parks on the WAL tail, so a quiet primary costs the follower
// one idle request per wait window instead of a busy loop. Shipping reads
// the log outside the session lock and off the ack path entirely — a slow
// follower cannot slow an ack.
func (s *Server) handleReplWAL(w http.ResponseWriter, r *http.Request) {
	if s.roleValue() != RolePrimary {
		s.writeNotPrimary(w)
		return
	}
	lw := s.walRef()
	if lw == nil {
		s.writeError(w, http.StatusServiceUnavailable, wire.CodeUnavailable,
			errors.New("transport: replication requires an attached WAL"))
		return
	}
	q := r.URL.Query()
	from, err := strconv.ParseUint(q.Get("from"), 10, 64)
	if err != nil || from == 0 {
		s.writeError(w, http.StatusBadRequest, wire.CodeBadRequest,
			errors.New("transport: replication pull requires from >= 1"))
		return
	}
	// A follower presenting a higher epoch has seen a promotion this
	// node missed: this node is deposed and must fence itself before it
	// acks anything else.
	if e, err := strconv.ParseUint(q.Get("epoch"), 10, 64); err == nil && e > s.epoch.Load() {
		_ = s.Demote(e, "")
		s.writeNotPrimary(w)
		return
	}
	maxRecords := intParam(q.Get("max"), 1024, 1, 8192)
	maxBytes := int64(intParam(q.Get("max_bytes"), 4<<20, 1<<10, 64<<20))
	waitMS := intParam(q.Get("wait_ms"), 0, 0, 30_000)
	if waitMS > 0 {
		lw.WaitFor(from, time.Duration(waitMS)*time.Millisecond)
	}
	_, sp := trace.Start(r.Context(), "server.repl_ship")
	defer sp.End()
	sp.AttrInt("from", int64(from))
	recs, err := lw.ReadFrom(from, maxRecords, maxBytes)
	if err != nil {
		if errors.Is(err, wal.ErrCompacted) {
			s.shipCheckpoint(w, lw, err)
			return
		}
		s.writeError(w, http.StatusInternalServerError, wire.CodeInternal, err)
		return
	}
	// The follower holds everything before from: compaction keeps the rest
	// for it, so a lagging standby never needs a checkpoint it would refuse.
	lw.KeepFrom(from)
	s.replHeaders(w)
	w.Header().Set("Content-Type", ReplContentType)
	var buf []byte
	for _, rec := range recs {
		buf = appendReplFrame(buf[:0], rec.Seq, rec.Payload)
		if _, err := w.Write(buf); err != nil {
			// The follower hung up mid-stream; it will resume from its
			// applied sequence on the next pull.
			sp.Attr("result", "follower_gone")
			return
		}
		s.metrics.replShippedRecords.Inc()
		s.metrics.replShippedBytes.Add(uint64(len(buf)))
	}
	sp.AttrInt("records", int64(len(recs)))
}

// intParam parses a bounded integer query parameter, falling back to
// def when absent or malformed.
func intParam(v string, def, min, max int) int {
	n, err := strconv.Atoi(v)
	if err != nil {
		return def
	}
	if n < min {
		return min
	}
	if n > max {
		return max
	}
	return n
}

// shipCheckpoint answers a pull whose resume point was compacted away
// (why) with the log's newest checkpoint, read from disk rather than cut
// afresh under the session locks.
func (s *Server) shipCheckpoint(w http.ResponseWriter, lw *wal.WAL, why error) {
	seq, f, err := lw.OpenCheckpoint()
	s.replHeaders(w)
	if f == nil {
		s.writeError(w, http.StatusGone, wire.CodeNotFound,
			fmt.Errorf("transport: replication resume point compacted away, and no checkpoint to serve: %w", errors.Join(why, err)))
		return
	}
	defer f.Close()
	w.Header().Set(ReplHeaderCheckpoint, strconv.FormatUint(seq, 10))
	w.Header().Set("Content-Type", ReplContentType)
	n, _ := io.Copy(w, f) // a follower that hangs up pulls again
	s.metrics.replShippedBytes.Add(uint64(n))
}

// handleReplStatus reports role/epoch/log position; served by every
// role — it is how operators read lag and how a standby's prober
// watches its primary.
func (s *Server) handleReplStatus(w http.ResponseWriter, _ *http.Request) {
	s.replHeaders(w)
	s.writeJSON(w, http.StatusOK, s.ReplicationStatus())
}

// handleReplPromote is the manual promotion verb. On a standby it runs
// the installed promotion hook (salvage + role flip, see SetOnPromote)
// or, bare, bumps the epoch and flips the role. A primary answers
// idempotently; a fenced node refuses — it was deposed for a reason,
// and re-seating it requires an operator who knows the history is
// intact.
func (s *Server) handleReplPromote(w http.ResponseWriter, r *http.Request) {
	switch s.roleValue() {
	case RolePrimary:
		s.writeJSON(w, http.StatusOK, wire.PromoteResponse{Role: RolePrimary.String(), Epoch: s.epoch.Load()})
	case RoleFenced:
		s.writeError(w, http.StatusConflict, wire.CodeBadRequest,
			errors.New("transport: a fenced node cannot be promoted"))
	default:
		_, sp := trace.Start(r.Context(), "server.promote")
		var err error
		if hook := s.onPromote.Load(); hook != nil {
			err = (*hook)(r.Context())
		} else {
			err = s.Promote(s.epoch.Load() + 1)
		}
		sp.AttrBool("failed", err != nil)
		sp.End()
		if err != nil {
			s.writeError(w, http.StatusInternalServerError, wire.CodeInternal, err)
			return
		}
		s.writeJSON(w, http.StatusOK, wire.PromoteResponse{Role: s.roleValue().String(), Epoch: s.epoch.Load()})
	}
}

// handleReplDemote is the fencing verb: POST /v1/replication/demote
// ?epoch=E[&leader=URL]. A freshly promoted primary calls it (best
// effort) on the node it deposed so a surviving-but-partitioned old
// primary stops acking immediately instead of at its next pull.
func (s *Server) handleReplDemote(w http.ResponseWriter, r *http.Request) {
	epoch, err := strconv.ParseUint(r.URL.Query().Get("epoch"), 10, 64)
	if err != nil || epoch == 0 {
		s.writeError(w, http.StatusBadRequest, wire.CodeBadRequest,
			errors.New("transport: demote requires epoch >= 1"))
		return
	}
	if err := s.Demote(epoch, r.URL.Query().Get("leader")); err != nil {
		s.writeError(w, http.StatusConflict, wire.CodeBadRequest, err)
		return
	}
	s.writeJSON(w, http.StatusOK, wire.PromoteResponse{Role: s.roleValue().String(), Epoch: s.epoch.Load()})
}

// ApplyReplicated applies one shipped WAL record to a standby: the
// payload is appended to the local log under the primary's exact
// sequence (mirrored seq space), then applied to the session table.
// Reapplication of an already-applied sequence is a no-op and a gap is
// a hard error — the follower must resume from its applied sequence,
// never skip. Durability batches: call CommitReplicated after a batch
// rather than per record.
func (s *Server) ApplyReplicated(seq uint64, payload []byte) error {
	// The big lock serializes the whole apply stream: gap detection,
	// mirrored append and table application must observe one consistent
	// applied sequence. Apply runs on a standby, off any client ack path,
	// so the serialization costs nothing that matters.
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.roleValue() == RolePrimary {
		return errors.New("transport: a primary does not apply replicated records")
	}
	applied := s.walSeq.Load()
	if seq <= applied {
		return nil
	}
	if seq != applied+1 {
		return fmt.Errorf("transport: replication gap: applied through seq %d, got %d", applied, seq)
	}
	rec, err := decodeRecord(seq, payload)
	if err != nil {
		return err
	}
	if w := s.walRef(); w != nil {
		if _, err := w.AppendAt(seq, payload); err != nil {
			return fmt.Errorf("%w: %v", errDurability, err)
		}
	}
	if err := s.replayLocked(seq, rec); err != nil {
		return err
	}
	s.metrics.replApplied.Inc()
	return nil
}

// CommitReplicated makes everything applied so far durable in the
// standby's own log and refreshes the active-sessions gauge — the
// once-per-batch closing bracket of a pull-and-apply cycle.
func (s *Server) CommitReplicated() error {
	s.mu.Lock()
	seq := s.walSeq.Load()
	s.recomputeActiveLocked()
	s.mu.Unlock()
	return s.walCommit(seq)
}

// BootstrapReplica initializes an empty standby from a primary checkpoint,
// the body of a replication answer: the bytes go verbatim into the
// standby's own WAL directory, so it reboots on that alone, the log is
// aligned so mirrored appends continue after the checkpoint's sequence
// (ReplayWAL aligns it after a crash in between), and the table is
// restored. It refuses to run over existing sessions or log records —
// re-seeding live state is how divergent histories are born; wipe the
// data dir and start over instead.
func (s *Server) BootstrapReplica(checkpoint []byte) error {
	snap, err := ReadSnapshot(bytes.NewReader(checkpoint))
	if err != nil {
		return err
	}
	s.mu.Lock()
	if n := s.table.size(); n > 0 || s.walSeq.Load() != 0 {
		applied := s.walSeq.Load()
		s.mu.Unlock()
		return fmt.Errorf("transport: BootstrapReplica over existing state (%d sessions, applied seq %d)",
			n, applied)
	}
	s.mu.Unlock()
	if lw := s.walRef(); lw != nil && snap.WALSeq > 0 {
		_, err := lw.WriteCheckpoint(snap.WALSeq, checkpoint)
		if err == nil {
			err = lw.AlignTo(snap.WALSeq)
		}
		if err != nil {
			return fmt.Errorf("transport: installing the checkpoint for wal seq %d: %w", snap.WALSeq, err)
		}
	}
	return s.Restore(snap)
}
