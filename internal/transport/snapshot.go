package transport

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	machine "repro/internal/session"
)

// Snapshot is a serializable image of the server's whole session table,
// written by a draining daemon and restored on the next boot so in-flight
// aggregations survive a restart. The RNG stream is not captured: task
// assignment is deficit-driven off the restored issued counts, so the
// low-discrepancy property holds across the restart; only the (secret-free)
// session-id stream reseeds.
type Snapshot struct {
	// SavedAt records when the snapshot was cut.
	SavedAt time.Time `json:"saved_at"`
	// NextID continues the session-id sequence.
	NextID int `json:"next_id"`
	// WALSeq is the write-ahead-log sequence this snapshot covers:
	// recovery replays only records after it, and compaction reclaims
	// segments at or below it. Zero on servers running without a WAL.
	WALSeq uint64 `json:"wal_seq,omitempty"`
	// Sessions holds every session's image: an open one with its client
	// entries, an ended one as its per-bit sums and result only.
	Sessions []SessionState `json:"sessions"`
}

// SessionState is one session's serializable state.
type SessionState = machine.State

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
		snap.Sessions = append(snap.Sessions, sess.State())
		sess.mu.Unlock()
	}
	return snap
}

// Restore replaces the server's session table with the snapshot's,
// rebuilding each session from its image (session.FromState: derived
// state from the config; an open session's counters checked against its
// client entries, an ended one's against each other and its result).
// Sessions already known to the server under the same id are overwritten.
//
// With a WAL attached (AttachWAL before Restore), a snapshot claiming to
// cover sequences past the WAL head is rejected: it was cut against a
// log that no longer exists, and replaying the present log under it
// would silently diverge.
func (s *Server) Restore(snap *Snapshot) error {
	restored := make([]*session, 0, len(snap.Sessions))
	for _, st := range snap.Sessions {
		m, err := machine.FromState(st)
		if err != nil {
			return fmt.Errorf("transport: snapshot %w", err)
		}
		restored = append(restored, &session{Session: m})
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if w := s.walRef(); w != nil {
		if head := w.LastSeq(); snap.WALSeq > head {
			return fmt.Errorf("transport: snapshot covers through wal seq %d but the wal head is %d: snapshot is newer than the log",
				snap.WALSeq, head)
		}
	}
	s.table.mu.Lock()
	for _, sess := range restored {
		s.table.sessions[sess.ID()] = sess
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

// WriteFile writes the snapshot to path atomically AND durably: the
// temp file is fsynced before the rename and the parent directory after
// it. Rename alone orders nothing on power loss — without the first
// fsync the renamed file can surface empty, and without the second the
// rename itself can vanish.
func (snap *Snapshot) WriteFile(path string) error {
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		return fmt.Errorf("transport: encoding snapshot: %w", err)
	}
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".fednum-snapshot-*")
	if err != nil {
		return err
	}
	cleanup := func(err error) error {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if _, err := tmp.Write(append(data, '\n')); err != nil {
		return cleanup(err)
	}
	if err := tmp.Sync(); err != nil {
		return cleanup(err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// SaveSnapshot cuts a snapshot of the session table and writes it
// durably to path (see Snapshot.WriteFile).
func (s *Server) SaveSnapshot(path string) error {
	if err := s.Snapshot().WriteFile(path); err != nil {
		return err
	}
	s.metrics.snapshots.Inc()
	return nil
}

// LoadSnapshot reads a snapshot file written by SaveSnapshot and restores
// it into the server. A missing file is not an error (first boot).
func (s *Server) LoadSnapshot(path string) error {
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return err
	}
	var snap Snapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return fmt.Errorf("transport: decoding snapshot %s: %w", path, err)
	}
	return s.Restore(&snap)
}
