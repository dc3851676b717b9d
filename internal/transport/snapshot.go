package transport

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	machine "repro/internal/session"
	"repro/internal/wal"
)

// Snapshot is the server's session table as the records that rebuild it
// (per session, what session.Checkpoint returns): the checkpoint the
// compactor writes into the WAL directory (CompactWAL) and the next boot
// restores (ReplayWAL), so in-flight aggregations survive a restart. The
// RNG stream is not captured: task assignment is deficit-driven off the
// rebuilt issued counts, so the low-discrepancy property holds across the
// restart; only the (secret-free) session-id stream reseeds.
//
// On disk and on the replication route it travels as the replication
// frame stream (appendReplFrame), frames numbered 0, 1, 2, … in their
// sequence field: the header (this struct's own fields, as JSON), one
// frame per record in the log's own encoding (session.Record.AppendBinary),
// and an end frame, a session.OpCheckpointEnd record. The numbering
// catches a dropped, repeated or reordered frame, the end frame a
// checkpoint cut short at a frame boundary.
type Snapshot struct {
	// SavedAt records when the snapshot was cut.
	SavedAt time.Time `json:"saved_at"`
	// NextID continues the session-id sequence.
	NextID int `json:"next_id"`
	// WALSeq is the write-ahead-log sequence this snapshot covers:
	// recovery replays only records after it, and compaction reclaims
	// segments at or below it. Zero on servers running without a WAL.
	WALSeq uint64 `json:"wal_seq,omitempty"`
	// Records rebuild the sessions, in order, through session.Apply.
	Records []machine.Record `json:"-"`
}

// Snapshot captures the current session table.
//
// Consistency without a global lock: the WAL frontier W0 is read FIRST,
// before any session is copied. Every record with seq ≤ W0 finished its
// Append inside a table- or session-level critical section that strictly
// precedes the copy's acquisition of that same lock, so its effects are
// in the copy; records appended after (seq > W0, or concurrent with the
// table walk) may or may not be captured, and replay re-applies them
// idempotently — against the client entries while the session is open,
// and absorbed whole by a session copied after its end, whose sums
// already include them. The copy is therefore not a point-in-time cut of
// the whole table, but it is always a legal recovery base for WALSeq =
// W0 — which is all restore needs.
func (s *Server) Snapshot() *Snapshot {
	w0 := s.walSeq.Load()
	s.mu.Lock()
	nextID := s.nextID
	s.mu.Unlock()
	snap := &Snapshot{SavedAt: s.now(), NextID: nextID, WALSeq: w0}
	for _, sess := range s.table.all() {
		sess.mu.Lock()
		recs := sess.Checkpoint()
		sess.mu.Unlock()
		snap.Records = append(snap.Records, recs...)
	}
	return snap
}

// Restore rebuilds the snapshot's sessions by applying its records, in
// order, to an empty table through the same apply → session.Apply path
// replay and replication use, so Apply's contradiction errors are the
// whole validation; a record that fails refuses the snapshot and restores
// nothing. The rebuilt sessions then replace any the server holds under
// the same ids.
func (s *Server) Restore(snap *Snapshot) error {
	rebuilt := &sessionTable{sessions: make(map[string]*session)}
	for i := range snap.Records {
		rec := &snap.Records[i]
		if _, err := rebuilt.apply(rec, nil); err != nil {
			return fmt.Errorf("transport: snapshot record %d (%s %s): %w", i, rec.Op, rec.Session, err)
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.table.mu.Lock()
	for id, sess := range rebuilt.sessions {
		s.table.sessions[id] = sess
	}
	s.table.mu.Unlock()
	if snap.NextID > s.nextID {
		s.nextID = snap.NextID
	}
	s.noteWALSeq(snap.WALSeq)
	// Restored sessions changed the table wholesale; recompute the active
	// gauge exactly rather than tracking per-overwrite deltas.
	s.recomputeActiveLocked()
	return nil
}

// MarshalBinary encodes the snapshot as a checkpoint, each record in the
// WAL's own payload encoding.
func (snap *Snapshot) MarshalBinary() ([]byte, error) {
	header, err := json.Marshal(snap)
	if err != nil {
		return nil, fmt.Errorf("transport: encoding checkpoint header: %w", err)
	}
	out := appendReplFrame(nil, 0, header)
	var payload []byte
	end := machine.Record{Op: machine.OpCheckpointEnd}
	for i := 0; i <= len(snap.Records); i++ {
		rec := &end
		if i < len(snap.Records) {
			rec = &snap.Records[i]
		}
		if payload, err = rec.AppendBinary(payload[:0]); err != nil {
			return nil, fmt.Errorf("transport: encoding checkpoint frame %d: %w", i+1, err)
		}
		out = appendReplFrame(out, uint64(i+1), payload)
	}
	return out, nil
}

// ReadSnapshot decodes a checkpoint. It is outside input — a file, or a
// replication answer — so every frame is length- and
// checksum-verified (DecodeReplFrames) and must carry the next number, and
// the stream must close with the end frame. What the records say is for
// Restore, that is Apply, to judge.
func ReadSnapshot(r io.Reader) (*Snapshot, error) {
	snap := new(Snapshot)
	frames, ended := uint64(0), false
	err := DecodeReplFrames(r, func(seq uint64, payload []byte) error {
		switch {
		case ended:
			return fmt.Errorf("transport: checkpoint frame %d follows its end frame", seq)
		case seq != frames:
			return fmt.Errorf("transport: checkpoint frame numbered %d where %d belongs", seq, frames)
		}
		frames++
		if seq == 0 {
			if err := json.Unmarshal(payload, snap); err != nil {
				return fmt.Errorf("transport: decoding checkpoint header: %w", err)
			}
			return nil
		}
		rec, err := decodeRecord(seq, payload)
		if err != nil {
			return err
		}
		if ended = rec.Op == machine.OpCheckpointEnd; !ended {
			snap.Records = append(snap.Records, *rec)
		}
		return nil
	})
	if err == nil && !ended {
		err = fmt.Errorf("transport: checkpoint ends after %d frames without its end frame", frames)
	}
	if err != nil {
		return nil, err
	}
	return snap, nil
}

// SaveSnapshot cuts a snapshot of the session table and writes it to
// path as a checkpoint, atomically and durably (wal.WriteFile): the
// persistence of a server running without a log.
func (s *Server) SaveSnapshot(path string) error {
	data, err := s.Snapshot().MarshalBinary()
	if err == nil {
		err = wal.WriteFile(path, data)
	}
	if err != nil {
		return err
	}
	s.metrics.snapshots.Inc()
	return nil
}

// LoadSnapshot reads a checkpoint file written by SaveSnapshot and
// restores it into the server. A missing file is not an error (first
// boot).
func (s *Server) LoadSnapshot(path string) error {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	defer f.Close()
	snap, err := ReadSnapshot(bufio.NewReader(f))
	if err == nil {
		err = s.Restore(snap)
	}
	if err != nil {
		return fmt.Errorf("transport: snapshot %s: %w", path, err)
	}
	return nil
}
