package transport

import (
	"bufio"
	"errors"
	"fmt"

	machine "repro/internal/session"
	"repro/internal/wal"
)

// errDurability marks an ack path that could not make its state
// transition durable; surfaced as 503/unavailable so clients retry.
var errDurability = errors.New("transport: write-ahead log unavailable")

// AttachWAL makes every acked state transition durable through w: the
// server appends a record before replying and blocks the ack on the
// WAL's commit (fsync) policy. Attach before the server handles traffic;
// ReplayWAL then recovers the server from the log's directory.
func (s *Server) AttachWAL(w *wal.WAL) {
	s.wal.Store(w)
}

// walRef returns the attached WAL, nil when running without one.
func (s *Server) walRef() *wal.WAL { return s.wal.Load() }

// noteWALSeq advances the applied high-water sequence to seq with a
// CAS-max loop: appends run under the table lock and under different
// session locks, so two appenders can race to record their sequences and
// the larger one must win regardless of arrival order.
func (s *Server) noteWALSeq(seq uint64) {
	for {
		cur := s.walSeq.Load()
		if seq <= cur || s.walSeq.CompareAndSwap(cur, seq) {
			return
		}
	}
}

// walAppend appends one record, advancing the applied sequence. The
// caller holds the lock that orders the record against the state it
// describes — the table's write lock for create/delete (so WAL order and
// table-visible order agree), the session's mutex for everything else —
// and buf is the encoding buffer that lock guards, which Append copies
// out of: logging a report allocates nothing. With no WAL attached it is
// a no-op returning sequence 0. The record is not yet durable — the
// caller must walCommit the sequence (outside its locks) before acking.
// Holding a lock across Append is deliberate and cheap: Append only
// buffers; the fsync happens in walCommit after the lock is released.
func (s *Server) walAppend(buf *[]byte, rec *machine.Record) (uint64, error) {
	w := s.walRef()
	if w == nil {
		return 0, nil
	}
	payload, err := rec.AppendBinary((*buf)[:0])
	if err != nil {
		return 0, fmt.Errorf("%w: %v", errDurability, err)
	}
	if cap(payload) <= maxEncodeBuf {
		*buf = payload
	}
	seq, err := w.Append(payload)
	if err != nil {
		return 0, fmt.Errorf("%w: %v", errDurability, err)
	}
	s.noteWALSeq(seq)
	return seq, nil
}

// maxEncodeBuf caps the encoding buffer walAppend keeps: one grown for a
// larger record is left to the collector.
const maxEncodeBuf = 64 << 10

// logApplyLocked is the live half of every session transition once it is
// decided: append the record, then Apply it — log before mutate, so a
// failed append leaves the state untouched. The caller holds sess.mu and
// commits the returned sequence, outside the lock, before acking.
func (s *Server) logApplyLocked(sess *session, rec *machine.Record) (uint64, error) {
	seq, err := s.walAppend(&sess.enc, rec)
	if err != nil {
		return 0, err
	}
	if err := sess.Apply(rec); err != nil {
		return 0, fmt.Errorf("transport: applying %s to session %s: %w", rec.Op, rec.Session, err)
	}
	if sess.Open() != nil {
		// An ended session keeps its sums only, so not ingest's scratch.
		sess.accepted, sess.chunk, sess.place = machine.Entries{}, machine.Entries{}, nil
	}
	return seq, nil
}

// apply performs one logged transition against the table. Create and
// delete change the map itself, inside its write section; on the live
// route appendLog (Server.walAppend) logs the record there too, encoded
// in the table's buffer, so WAL order and table-visible order agree (the
// invariant Snapshot's frontier-first read relies on). Every other op is
// the named session's Apply under its mutex — the replay, replication and
// restore route; live handlers decide under that mutex first and go
// through logApplyLocked. A record naming a session the table does not
// hold returns errNotFound.
func (t *sessionTable) apply(rec *machine.Record, appendLog func(*[]byte, *machine.Record) (uint64, error)) (seq uint64, err error) {
	switch rec.Op {
	case machine.OpCreate:
		if rec.Config == nil {
			return 0, errors.New("create record without a config")
		}
		m, err := machine.New(rec.Session, *rec.Config, rec.At)
		if err != nil {
			return 0, err
		}
		t.mu.Lock()
		defer t.mu.Unlock()
		if appendLog != nil {
			if seq, err = appendLog(&t.enc, rec); err != nil {
				return 0, err
			}
		}
		t.sessions[rec.Session] = &session{Session: m, place: map[string]int{}}
		return seq, nil
	case machine.OpDelete:
		t.mu.Lock()
		defer t.mu.Unlock()
		if _, ok := t.sessions[rec.Session]; !ok {
			return 0, errNotFound
		}
		if appendLog != nil {
			if seq, err = appendLog(&t.enc, rec); err != nil {
				return 0, err
			}
		}
		delete(t.sessions, rec.Session)
		return seq, nil
	}
	sess := t.get(rec.Session)
	if sess == nil {
		return 0, errNotFound
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	return 0, sess.Apply(rec)
}

// decodeRecord parses the payload of record seq of a log or checkpoint.
func decodeRecord(seq uint64, payload []byte) (*machine.Record, error) {
	rec, err := machine.DecodeRecord(payload)
	if err != nil {
		return nil, fmt.Errorf("transport: decoding record %d: %w", seq, err)
	}
	return rec, nil
}

// replayLocked re-applies one record read back from a log (ReplayWAL) or
// shipped by the primary (ApplyReplicated); the caller holds s.mu.
func (s *Server) replayLocked(seq uint64, rec *machine.Record) error {
	_, err := s.table.apply(rec, nil)
	if rec.Op == machine.OpDelete && errors.Is(err, errNotFound) {
		// The one legal reference to an absent session: the restored
		// snapshot was cut after this delete took effect.
		err = nil
	}
	if err != nil {
		return fmt.Errorf("transport: applying wal record %d (%s %s): %w", seq, rec.Op, rec.Session, err)
	}
	if rec.NextID > s.nextID {
		s.nextID = rec.NextID
	}
	s.noteWALSeq(seq)
	return nil
}

// walCommit blocks until seq is durable under the WAL's fsync policy;
// called outside the table and session locks so fsync latency never
// serializes the session table. A failed commit means the ack must not
// be sent.
func (s *Server) walCommit(seq uint64) error {
	w := s.walRef()
	if w == nil || seq == 0 {
		return nil
	}
	if err := w.Commit(seq); err != nil {
		return fmt.Errorf("%w: %v", errDurability, err)
	}
	return nil
}

// WALSeq returns the sequence of the last WAL record appended or
// applied — the point a snapshot cut now would cover.
func (s *Server) WALSeq() uint64 {
	return s.walSeq.Load()
}

// ReplayWAL recovers the server from the attached WAL's directory: it
// restores the newest checkpoint there (CompactWAL) as Restore does a
// snapshot, then re-applies, in order, every record past the coverage
// point — the checkpoint's, or a snapshot's restored before the call.
// Application is idempotent, so a crash during recovery is harmless.
// Returns how many records were applied, a clients record counting once
// per report it carries: the count a history gives is the same whether
// its reports came singly or in batches.
//
// It fails loudly when log and coverage cannot reconcile — records
// missing between them, a head short of the coverage, a corrupt interior
// record — rather than silently drop accepted reports. A standby's log
// that never held a record under a checkpoint was killed between
// installing its bootstrap checkpoint and aligning on it: aligned (a
// primary's lost its segments: refused).
//
// Replay holds s.mu for the log's whole run — recovery happens before
// the server takes traffic, and the big lock keeps the nextID bookkeeping
// and gauge recompute simple. apply takes the table and session locks
// itself.
func (s *Server) ReplayWAL() (int, error) {
	w := s.walRef()
	if w == nil {
		return 0, errors.New("transport: ReplayWAL without an attached WAL")
	}
	ckpt, f, err := w.OpenCheckpoint()
	if f != nil {
		var snap *Snapshot
		if snap, err = ReadSnapshot(bufio.NewReader(f)); err == nil && snap.WALSeq != ckpt {
			err = fmt.Errorf("it covers through wal seq %d", snap.WALSeq)
		}
		f.Close()
		if err == nil {
			err = s.Restore(snap)
		}
		if err == nil && w.LastSeq() == 0 && ckpt > 0 && s.roleValue() == RoleStandby {
			err = w.AlignTo(ckpt)
		}
		if err != nil {
			err = fmt.Errorf("transport: checkpoint for wal seq %d: %w", ckpt, err)
		}
	}
	if err != nil {
		return 0, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// The oldest record the log can still supply must directly follow
	// what is restored, and its head must have reached it.
	base, oldest, head := s.walSeq.Load(), w.FirstSeq(), w.LastSeq()
	if oldest == 0 {
		oldest = head + 1
	}
	if oldest > base+1 {
		return 0, fmt.Errorf("transport: wal starts at seq %d but the snapshot covers only through %d: %d records missing",
			oldest, base, oldest-base-1)
	}
	if head < base {
		return 0, fmt.Errorf("transport: snapshot covers through wal seq %d but the wal head is %d: snapshot is newer than the log",
			base, head)
	}
	applied := 0
	err = w.Replay(func(seq uint64, payload []byte) error {
		if seq <= base {
			return nil
		}
		rec, err := decodeRecord(seq, payload)
		if err != nil {
			return err
		}
		if err := s.replayLocked(seq, rec); err != nil {
			return err
		}
		applied++
		if rec.Op == machine.OpClients && rec.Entries != nil {
			applied += len(rec.Entries.Clients) - 1
		}
		return nil
	})
	if err != nil {
		return applied, err
	}
	s.recomputeActiveLocked()
	return applied, nil
}

// recomputeActiveLocked resets the active-sessions gauge from the table;
// the caller holds s.mu. Used after wholesale state changes (restore,
// replay) instead of tracking per-transition deltas.
func (s *Server) recomputeActiveLocked() {
	active := 0
	for _, sess := range s.table.all() {
		sess.mu.Lock()
		if sess.Open() == nil {
			active++
		}
		sess.mu.Unlock()
	}
	s.metrics.active.Set(float64(active))
}

// CompactWAL cuts a snapshot and hands its checkpoint to the WAL, which
// writes it durably into its directory and only then reclaims every
// sealed segment and older checkpoint it covers (wal.WriteCheckpoint). A
// crash at any point is safe: ReplayWAL boots from the newest checkpoint
// on disk and skips records it already covers.
func (s *Server) CompactWAL() (removed int, err error) {
	w := s.walRef()
	if w == nil {
		return 0, errors.New("transport: CompactWAL without an attached WAL")
	}
	snap := s.Snapshot()
	data, err := snap.MarshalBinary()
	if err != nil {
		return 0, err
	}
	removed, err = w.WriteCheckpoint(snap.WALSeq, data)
	if err == nil {
		s.metrics.snapshots.Inc()
	}
	return removed, err
}
