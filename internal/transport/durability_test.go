package transport

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	machine "repro/internal/session"
	"repro/internal/transport/wire"
	"repro/internal/wal"
)

// newWALServer returns a server logging into a fresh WAL under dir.
func newWALServer(t *testing.T, dir string, seed uint64) (*Server, *wal.WAL) {
	t.Helper()
	w, err := wal.Open(wal.Options{Dir: dir, Policy: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(seed)
	s.AttachWAL(w)
	return s, w
}

// dropCheckpoints deletes every checkpoint in a closed log's directory:
// the layout of a log compacted before checkpoints lived beside it, or of
// one whose checkpoint an operator lost.
func dropCheckpoints(t *testing.T, dir string) {
	t.Helper()
	ckpts, err := filepath.Glob(filepath.Join(dir, "*.ckpt"))
	for _, p := range ckpts {
		if err == nil {
			err = os.Remove(p)
		}
	}
	if err != nil || len(ckpts) == 0 {
		t.Fatalf("dropping checkpoints %v: %v", ckpts, err)
	}
}

// driveTraffic runs a representative mutation mix: a bit session with
// reports and a finalize, plus a second session left in flight.
func driveTraffic(t *testing.T, s *Server) (doneID, openID string) {
	t.Helper()
	doneID, err := s.CreateSession(context.Background(), wire.SessionConfig{Feature: "walled", Bits: 4, Gamma: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		client := fmt.Sprintf("c-%d", i)
		task, err := s.AssignTask(context.Background(), doneID, client)
		if err != nil {
			t.Fatal(err)
		}
		ack, err := s.SubmitReport(context.Background(), doneID, wire.Report{ClientID: client, Bit: task.Bit, Value: uint64(i % 2)})
		if err != nil || !ack.Accepted {
			t.Fatalf("report %d: ack=%+v err=%v", i, ack, err)
		}
	}
	if _, err := s.Finalize(context.Background(), doneID); err != nil {
		t.Fatal(err)
	}
	openID, err = s.CreateSession(context.Background(), wire.SessionConfig{Feature: "inflight", Bits: 4, Gamma: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		client := fmt.Sprintf("o-%d", i)
		task, err := s.AssignTask(context.Background(), openID, client)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.SubmitReport(context.Background(), openID, wire.Report{ClientID: client, Bit: task.Bit, Value: 1}); err != nil {
			t.Fatal(err)
		}
	}
	return doneID, openID
}

// stateFingerprint reduces a server's externally visible state to a
// comparable form: the session listing plus each session's result view.
func stateFingerprint(t *testing.T, s *Server) string {
	t.Helper()
	var b strings.Builder
	for _, row := range s.Sessions() {
		rowJSON, err := json.Marshal(row)
		if err != nil {
			t.Fatal(err)
		}
		res, err := s.Result(row.SessionID)
		if err != nil {
			t.Fatal(err)
		}
		resJSON, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%s %s\n", rowJSON, resJSON)
	}
	return b.String()
}

// TestWALReplayRebuildsState is the core recovery property: a cold
// server replaying the WAL alone (no snapshot) reproduces the crashed
// server's state exactly, including finalized results and the adaptive
// assignment bookkeeping that guards report acceptance.
func TestWALReplayRebuildsState(t *testing.T) {
	dir := t.TempDir()
	s1, w1 := newWALServer(t, dir, 1)
	doneID, openID := driveTraffic(t, s1)
	want := stateFingerprint(t, s1)
	if err := w1.Close(); err != nil {
		t.Fatal(err)
	}

	s2, _ := newWALServer(t, dir, 1)
	applied, err := s2.ReplayWAL()
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if applied == 0 {
		t.Fatal("replay applied no records")
	}
	if got := stateFingerprint(t, s2); got != want {
		t.Fatalf("replayed state differs:\n got %s\nwant %s", got, want)
	}

	// The recovered server keeps honoring the protocol invariants: a
	// pre-crash client retransmitting its exact report is re-acked as a
	// duplicate, and a conflicting value is rejected.
	task, err := s2.AssignTask(context.Background(), openID, "o-0")
	if err != nil {
		t.Fatal(err)
	}
	ack, err := s2.SubmitReport(context.Background(), openID, wire.Report{ClientID: "o-0", Bit: task.Bit, Value: 1})
	if err != nil || !ack.Accepted || !ack.Duplicate {
		t.Fatalf("retransmission after replay: ack=%+v err=%v, want duplicate re-ack", ack, err)
	}
	if ack, _ := s2.SubmitReport(context.Background(), openID, wire.Report{ClientID: "o-0", Bit: task.Bit, Value: 0}); ack.Accepted {
		t.Fatal("conflicting retransmission accepted after replay")
	}
	if _, err := s2.Finalize(context.Background(), doneID); err != nil {
		t.Fatalf("re-finalizing recovered session: %v", err)
	}
}

// TestWALReplayIsIdempotent replays the same log twice into one server:
// the second pass must change nothing (every apply case tolerates
// already-applied records), so a crash mid-recovery is harmless.
func TestWALReplayIsIdempotent(t *testing.T) {
	dir := t.TempDir()
	s1, w1 := newWALServer(t, dir, 1)
	driveTraffic(t, s1)
	want := stateFingerprint(t, s1)
	w1.Close()

	s2, _ := newWALServer(t, dir, 1)
	first, err := s2.ReplayWAL()
	if err != nil {
		t.Fatal(err)
	}
	after1 := stateFingerprint(t, s2)

	// Rewind the applied frontier and replay again over the live state.
	s2.walSeq.Store(0)
	second, err := s2.ReplayWAL()
	if err != nil {
		t.Fatalf("second replay: %v", err)
	}
	if second != first {
		t.Fatalf("second replay applied %d records, first %d", second, first)
	}
	if after2 := stateFingerprint(t, s2); after2 != after1 || after2 != want {
		t.Fatalf("replay not idempotent:\nafter1 %s\nafter2 %s", after1, after2)
	}
}

// TestSnapshotPlusWALTailRecovery exercises the compaction path: cut a
// checkpoint mid-stream, keep appending, then recover from the directory
// alone — checkpoint + replayed tail — and compare against the
// uninterrupted server.
func TestSnapshotPlusWALTailRecovery(t *testing.T) {
	dir := t.TempDir()
	s1, w1 := newWALServer(t, dir, 1)

	first, err := s1.CreateSession(context.Background(), wire.SessionConfig{Feature: "pre", Bits: 4, Gamma: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		client := fmt.Sprintf("pre-%d", i)
		task, _ := s1.AssignTask(context.Background(), first, client)
		if _, err := s1.SubmitReport(context.Background(), first, wire.Report{ClientID: client, Bit: task.Bit, Value: 1}); err != nil {
			t.Fatal(err)
		}
	}
	removed, err := s1.CompactWAL()
	if err != nil {
		t.Fatalf("compact: %v", err)
	}
	if w1.FirstSeq() != 0 && w1.FirstSeq() <= s1.WALSeq() && removed == 0 {
		t.Fatalf("compaction reclaimed nothing: firstSeq=%d walSeq=%d", w1.FirstSeq(), s1.WALSeq())
	}
	// Post-snapshot tail: more reports and a finalize.
	for i := 6; i < 10; i++ {
		client := fmt.Sprintf("pre-%d", i)
		task, _ := s1.AssignTask(context.Background(), first, client)
		if _, err := s1.SubmitReport(context.Background(), first, wire.Report{ClientID: client, Bit: task.Bit, Value: uint64(i % 2)}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s1.Finalize(context.Background(), first); err != nil {
		t.Fatal(err)
	}
	want := stateFingerprint(t, s1)
	w1.Close()

	s2, _ := newWALServer(t, dir, 1)
	applied, err := s2.ReplayWAL()
	if err != nil {
		t.Fatalf("tail replay: %v", err)
	}
	if applied == 0 {
		t.Fatal("tail replay applied nothing")
	}
	if got := stateFingerprint(t, s2); got != want {
		t.Fatalf("snapshot+tail state differs:\n got %s\nwant %s", got, want)
	}
}

// endSession ends session id by "finalize", through the API, or by
// "expire": moving the clock the caller wired into s.Now past a TTL of at
// most a minute and sweeping.
func endSession(t *testing.T, s *Server, id, how string, clock *time.Time) {
	t.Helper()
	if how == "expire" {
		*clock = clock.Add(61 * time.Second)
		s.Sweep()
		return
	}
	if _, err := s.Finalize(context.Background(), id); err != nil {
		t.Fatal(err)
	}
}

// TestReplayOverSnapshotCutAfterEnd: Snapshot reads the WAL frontier
// before it copies the sessions, so under traffic an image can hold a
// session's end while claiming a log position before the session's first
// assign. Replay then meets every assign, report and batch of reports of
// a session that has already released its client entries, and must
// absorb them: the image's sums include them.
func TestReplayOverSnapshotCutAfterEnd(t *testing.T) {
	ctx := context.Background()
	for _, how := range []string{"finalize", "expire"} {
		cfg := wire.SessionConfig{Feature: how, Bits: 4, Gamma: 1, Epsilon: 2}
		if how == "expire" {
			cfg.TTLSeconds = 60
		}
		dir := t.TempDir()
		clock := time.Unix(1700000000, 0)
		now := func() time.Time { return clock }
		s1, w1 := newWALServer(t, dir, 1)
		s1.Now = now
		id, err := s1.CreateSession(ctx, cfg)
		if err != nil {
			t.Fatal(err)
		}
		createSeq := s1.WALSeq()
		var batch []wire.Report
		for i := 0; i < 40; i++ {
			client := fmt.Sprintf("c-%d", i)
			task, err := s1.AssignTask(ctx, id, client)
			if err != nil {
				t.Fatal(err)
			}
			rep := wire.Report{ClientID: client, Bit: task.Bit, Value: uint64(i % 2)}
			switch {
			case i%5 == 4: // assigned, never reports
			case i < 20:
				_, err = s1.SubmitReport(ctx, id, rep)
			default: // in batches of eight, each logged as one record
				if batch = append(batch, rep); len(batch) == 8 {
					_, err = s1.SubmitReportBatch(ctx, id, batch)
					batch = batch[:0]
				}
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		endSession(t, s1, id, how, &clock)
		if open := s1.Sessions()[0]; !open.Done && !open.Expired {
			t.Fatalf("%s: session did not end: %+v", how, open)
		}
		want, wantRes := canonical(s1), stateFingerprint(t, s1)
		late := s1.Snapshot()
		late.WALSeq = createSeq
		if err := w1.Close(); err != nil {
			t.Fatal(err)
		}

		s2, w2 := newWALServer(t, dir, 2)
		s2.Now = now
		if err := s2.Restore(late); err != nil {
			t.Fatalf("%s: restoring the late-cut snapshot: %v", how, err)
		}
		applied, err := s2.ReplayWAL()
		if err != nil {
			t.Fatalf("%s: replaying the session's whole history over its ended image: %v", how, err)
		}
		// Each of the two batches' records counts once per report.
		if wantApplied := int(want.WALSeq-createSeq) + 2*(8-1); applied != wantApplied {
			t.Errorf("%s: replay applied %d records, want %d", how, applied, wantApplied)
		}
		if got := canonical(s2); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: state after replay\n got %+v\nwant %+v", how, got, want)
		}
		if got := stateFingerprint(t, s2); got != wantRes {
			t.Errorf("%s: results after replay\n got %s\nwant %s", how, got, wantRes)
		}
		if err := w2.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestEndedSessionReleasesClients pins what ending a session gives back:
// the client entries leave the heap at finalize and at expiry — all of
// what the cohort cost, about 63 B a client at this size — and neither
// the session nor its checkpoint grows with the cohort: an ended one's
// checkpoint stays under 1 KiB. While the session is open its checkpoint
// is its client entries, at most 16 B a client for this cohort:
// 12-character ids, 90 % of them reported.
func TestEndedSessionReleasesClients(t *testing.T) {
	clients := 300000
	if testing.Short() {
		clients = 30000
	}
	ctx := context.Background()
	heap := func() int64 {
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		return int64(ms.HeapAlloc)
	}
	for _, how := range []string{"finalize", "expire"} {
		cfg := wire.SessionConfig{Feature: "big", Bits: 16, Gamma: 1}
		if how == "expire" {
			cfg.TTLSeconds = 60
		}
		clock := time.Unix(1700000000, 0)
		s := NewServer(1)
		s.Now = func() time.Time { return clock }
		id, err := s.CreateSession(ctx, cfg)
		if err != nil {
			t.Fatal(err)
		}
		empty := heap()
		reps := make([]wire.Report, 0, 256)
		reported := 0
		for i := 0; i < clients; i++ {
			client := fmt.Sprintf("dev-%08x", i)
			task, err := s.AssignTask(ctx, id, client)
			if err != nil {
				t.Fatal(err)
			}
			if i%10 != 9 {
				reps = append(reps, wire.Report{ClientID: client, Bit: task.Bit, Value: uint64(i & 1)})
				reported++
			}
			if len(reps) == cap(reps) || i == clients-1 {
				if _, err := s.SubmitReportBatch(ctx, id, reps); err != nil {
					t.Fatal(err)
				}
				reps = reps[:0]
			}
		}
		open := heap()
		if how == "finalize" {
			checkOpenCheckpoint(t, s, clients)
		}
		endSession(t, s, id, how, &clock)
		ended := heap()
		if res, err := s.Result(id); err != nil || res.Reports != reported {
			t.Fatalf("%s: result %+v, err %v: want %d reports", how, res, err, reported)
		}
		// An entry is a 16-byte string header, a 12-byte id and an 8-byte
		// value before any map overhead: a cohort that cost less was not
		// measured.
		if cost := open - empty; cost < int64(40*clients) {
			t.Fatalf("%s: %d open clients cost %d bytes of heap: not measuring the client entries", how, clients, cost)
		}
		if kept := ended - empty; kept > 64<<10 {
			t.Errorf("%s: heap is %d bytes with the session empty, %d open with %d clients and %d ended: %d bytes outlive the session",
				how, empty, open, clients, ended, kept)
		}
		image, err := s.Snapshot().MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if len(image) >= 1024 {
			t.Errorf("%s: checkpoint of the ended %d-client session is %d bytes, want under 1 KiB", how, clients, len(image))
		}
		t.Logf("%s: %d clients cost %.1f B each while open; %d bytes remain after the end; checkpoint %d bytes",
			how, clients, float64(open-empty)/float64(clients), ended-empty, len(image))
	}
}

// checkOpenCheckpoint cuts, encodes, decodes and restores the checkpoint
// of s, whose one open session has clients entries, and holds its size to
// 16 B a client: in binary records an entry is a 12-byte id, its length,
// an index and a state (JSON records took 19.4).
func checkOpenCheckpoint(t *testing.T, s *Server, clients int) {
	t.Helper()
	t0 := time.Now()
	data, err := s.Snapshot().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	t1 := time.Now()
	snap, err := ReadSnapshot(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	back := NewServer(2)
	if err := back.Restore(snap); err != nil {
		t.Fatal(err)
	}
	t2 := time.Now()
	if got, want := stateFingerprint(t, back), stateFingerprint(t, s); got != want {
		t.Fatalf("restored open session differs:\n got %s\nwant %s", got, want)
	}
	perClient := float64(len(data)) / float64(clients)
	if perClient > 16 {
		t.Errorf("open-session checkpoint is %.1f B a client, want at most 16", perClient)
	}
	t.Logf("open checkpoint: %.1f B/client, cut+encode %.0f ns/client, decode+restore %.0f ns/client",
		perClient, float64(t1.Sub(t0).Nanoseconds())/float64(clients), float64(t2.Sub(t1).Nanoseconds())/float64(clients))
}

// TestReplayRejectsCheckpointNewerThanWALHead: a recovery base claiming
// coverage past the log head — a checkpoint in the directory, or a
// -snapshot file restored before replay — means the log it was cut
// against was lost or swapped: boot must refuse rather than silently
// diverge.
func TestReplayRejectsCheckpointNewerThanWALHead(t *testing.T) {
	dir := t.TempDir()
	s, w := newWALServer(t, dir, 1)
	seedSession(t, s, 1) // records 1..3
	data, err := (&Snapshot{WALSeq: 7}).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Restore(&Snapshot{WALSeq: 7}); err != nil {
		t.Fatalf("Restore checks no log: %v", err)
	}
	if _, err := s.ReplayWAL(); err == nil || !strings.Contains(err.Error(), "newer than the log") {
		t.Fatalf("replay under a snapshot beyond the head = %v, want newer-than-log refusal", err)
	}
	if _, err := w.WriteCheckpoint(7, data); err != nil {
		t.Fatal(err)
	}
	w.Close()
	s2, _ := newWALServer(t, dir, 1)
	if _, err := s2.ReplayWAL(); err == nil || !strings.Contains(err.Error(), "newer than the log") {
		t.Fatalf("replay under a checkpoint beyond the head = %v, want newer-than-log refusal", err)
	}

	// A checkpoint over a log that holds no record at all — every segment
	// lost — is refused on a primary: only a standby's bootstrap leaves
	// that directory behind (TestCheckpointCrashPoints).
	empty := t.TempDir()
	_, ew := newWALServer(t, empty, 1)
	if _, err := ew.WriteCheckpoint(7, data); err != nil {
		t.Fatal(err)
	}
	ew.Close()
	s3, _ := newWALServer(t, empty, 1)
	if _, err := s3.ReplayWAL(); err == nil || !strings.Contains(err.Error(), "newer than the log") {
		t.Fatalf("primary replay under a checkpoint over an empty log = %v, want newer-than-log refusal", err)
	}
}

// TestReplayRejectsMissingHistory: if compaction (or an operator) threw
// away segments past the snapshot's coverage, recovery must fail loudly
// instead of resurrecting partial state.
func TestReplayRejectsMissingHistory(t *testing.T) {
	dir := t.TempDir()
	s1, w1 := newWALServer(t, dir, 1)
	driveTraffic(t, s1)
	// Simulate lost history: compact the log away, so the remaining
	// segments start past seq 1...
	if _, err := w1.WriteCheckpoint(s1.WALSeq(), []byte("thrown away")); err != nil {
		t.Fatal(err)
	}
	w1.Close()
	dropCheckpoints(t, dir)

	// ...then boot WITHOUT the checkpoint that covered them.
	s2, _ := newWALServer(t, dir, 1)
	if _, err := s2.ReplayWAL(); err == nil || !strings.Contains(err.Error(), "missing") {
		t.Fatalf("replay over truncated history = %v, want missing-records error", err)
	}
}

// TestWALDisabledServerUnchanged pins the no-WAL path: servers without
// AttachWAL behave exactly as before (walAppendLocked no-ops at seq 0).
func TestWALDisabledServerUnchanged(t *testing.T) {
	s := NewServer(1)
	doneID, _ := driveTraffic(t, s)
	res, err := s.Result(doneID)
	if err != nil || !res.Done || res.Reports != 12 {
		t.Fatalf("no-WAL traffic: res=%+v err=%v", res, err)
	}
	if got := s.WALSeq(); got != 0 {
		t.Fatalf("WALSeq without WAL = %d, want 0", got)
	}
}

// TestWALAppendReportAllocs pins the durable accept path's logging at zero
// allocations: a report record is encoded into its session's buffer and
// framed in the log's own, all under the session's mutex on the live path.
func TestWALAppendReportAllocs(t *testing.T) {
	s, w := newWALServer(t, t.TempDir(), 1)
	defer w.Close()
	var sess session
	rec := machine.Record{Op: machine.OpReport, Session: "s0123abcd", Client: "dev-0000002a", Bit: 7, Value: 1}
	if _, err := s.walAppend(&sess.enc, &rec); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(500, func() {
		if _, err := s.walAppend(&sess.enc, &rec); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("logging a report record allocates %.1f/op, want 0", allocs)
	}
}

// TestSnapshotCarriesWALSeq: snapshots cut from a WAL-attached server
// record the covered sequence, and restoring them advances the applied
// frontier so replay skips covered records.
func TestSnapshotCarriesWALSeq(t *testing.T) {
	dir := t.TempDir()
	s, w := newWALServer(t, dir, 1)
	driveTraffic(t, s)
	snap := s.Snapshot()
	if snap.WALSeq == 0 || snap.WALSeq != s.WALSeq() {
		t.Fatalf("snapshot WALSeq = %d, server %d", snap.WALSeq, s.WALSeq())
	}
	w.Close()

	s2, _ := newWALServer(t, dir, 1)
	if err := s2.Restore(snap); err != nil {
		t.Fatal(err)
	}
	applied, err := s2.ReplayWAL()
	if err != nil {
		t.Fatal(err)
	}
	if applied != 0 {
		t.Fatalf("replay after full-coverage snapshot applied %d records, want 0", applied)
	}
	if !reflect.DeepEqual(stateFingerprint(t, s2), stateFingerprint(t, s)) {
		t.Fatal("restored state differs from source")
	}
}

// TestExpiryAndDeleteAreLogged: deadline expiry and retention deletion
// go through the WAL too, so a recovered server does not resurrect
// sessions the live one already told clients were gone.
func TestExpiryAndDeleteAreLogged(t *testing.T) {
	dir := t.TempDir()
	s1, w1 := newWALServer(t, dir, 1)
	clock := time.Unix(1700000000, 0)
	s1.Now = func() time.Time { return clock }
	s1.Retention = time.Minute

	expireID, err := s1.CreateSession(context.Background(), wire.SessionConfig{Feature: "ttl", Bits: 4, Gamma: 1, TTLSeconds: 1})
	if err != nil {
		t.Fatal(err)
	}
	keepID, err := s1.CreateSession(context.Background(), wire.SessionConfig{Feature: "keep", Bits: 4, Gamma: 1})
	if err != nil {
		t.Fatal(err)
	}
	clock = clock.Add(2 * time.Second)
	s1.Sweep() // expires expireID
	clock = clock.Add(2 * time.Minute)
	s1.Sweep() // retention-deletes it
	if rows := s1.Sessions(); len(rows) != 1 || rows[0].SessionID != keepID {
		t.Fatalf("live server kept %+v, want only %s", rows, keepID)
	}
	w1.Close()

	s2, _ := newWALServer(t, dir, 1)
	if _, err := s2.ReplayWAL(); err != nil {
		t.Fatal(err)
	}
	if rows := s2.Sessions(); len(rows) != 1 || rows[0].SessionID != keepID {
		t.Fatalf("recovered server has %+v, want only %s", rows, keepID)
	}
	if _, err := s2.AssignTask(context.Background(), expireID, "late"); err == nil {
		t.Fatal("deleted session resurrected after replay")
	}
}

// TestDuplicateAckWaitsForOriginalCommit: a retransmission's original
// enters the client map under the session lock but becomes durable only
// in its own request's commit, after the lock, so a request that acks a
// duplicate must itself commit the log up to the original before it
// replies. Closing the log after the original's ack makes every later
// commit fail (the closed log's sticky error): a retransmission, singly
// or in a batch, must then get a durability error, never a duplicate ack
// that no commit stands behind.
func TestDuplicateAckWaitsForOriginalCommit(t *testing.T) {
	ctx := context.Background()
	s := NewServer(1)
	w, err := wal.Open(wal.Options{Dir: t.TempDir(), Policy: wal.SyncGrouped})
	if err != nil {
		t.Fatal(err)
	}
	s.AttachWAL(w)
	id, err := s.CreateSession(ctx, wire.SessionConfig{Feature: "gap", Bits: 2, Gamma: 1})
	if err != nil {
		t.Fatal(err)
	}
	task, err := s.AssignTask(ctx, id, "c")
	if err != nil {
		t.Fatal(err)
	}
	rep := wire.Report{ClientID: "c", Bit: task.Bit, Value: 1}
	if ack, err := s.SubmitReport(ctx, id, rep); err != nil || !ack.Accepted || ack.Duplicate {
		t.Fatalf("original: ack %+v err %v, want accepted", ack, err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if ack, err := s.SubmitReport(ctx, id, rep); !errors.Is(err, errDurability) {
		t.Fatalf("retransmission over a closed log: ack %+v err %v, want a durability error", ack, err)
	}
	if acks, err := s.SubmitReportBatch(ctx, id, []wire.Report{rep}); !errors.Is(err, errDurability) {
		t.Fatalf("batched retransmission over a closed log: acks %v err %v, want a durability error", acks, err)
	}
}

// reboot closes w and boots a fresh server in role on its directory alone.
func reboot(t *testing.T, w *wal.WAL, dir string, role Role) (*Server, *wal.WAL) {
	t.Helper()
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	s, w := newWALServer(t, dir, 9)
	t.Cleanup(func() { w.Close() })
	s.SetRole(role)
	if _, err := s.ReplayWAL(); err != nil {
		t.Fatalf("booting on %s: %v", dir, err)
	}
	return s, w
}

// ship mirrors primary's log past the standby's applied sequence.
func ship(t *testing.T, primary *wal.WAL, standby *Server) {
	t.Helper()
	recs, err := primary.ReadFrom(standby.WALSeq()+1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if err := standby.ApplyReplicated(rec.Seq, rec.Payload); err != nil {
			t.Fatalf("apply %d: %v", rec.Seq, err)
		}
	}
	if err := standby.CommitReplicated(); err != nil {
		t.Fatal(err)
	}
}

// TestCompactionErasesEndedSessionClients: once a round is finalized, one
// compaction on the primary and one on its standby leave none of its
// clients' ids in any file of either WAL directory — what the disk keeps
// of the round is its per-bit sums — and each node boots from its own
// directory alone to the same result.
func TestCompactionErasesEndedSessionClients(t *testing.T) {
	ctx := context.Background()
	pdir, sdir := t.TempDir(), t.TempDir()
	primary, pw := newWALServer(t, pdir, 1)
	standby, sw := newWALServer(t, sdir, 2)
	standby.SetRole(RoleStandby)
	doneID, err := primary.CreateSession(ctx, wire.SessionConfig{Feature: "erase", Bits: 4, Gamma: 1})
	if err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < 30; i++ {
		c := fmt.Sprintf("erased-client-%03d", i)
		ids = append(ids, c)
		task, err := primary.AssignTask(ctx, doneID, c)
		if err != nil {
			t.Fatal(err)
		}
		if i%4 != 3 { // some are assigned and never report
			if _, err := primary.SubmitReport(ctx, doneID, wire.Report{ClientID: c, Bit: task.Bit, Value: uint64(i % 2)}); err != nil {
				t.Fatal(err)
			}
		}
	}
	want, err := primary.Finalize(ctx, doneID)
	if err != nil {
		t.Fatal(err)
	}
	seedSession(t, primary, 3) // a round still open keeps its clients
	ship(t, pw, standby)
	for _, s := range []*Server{primary, standby} {
		if _, err := s.CompactWAL(); err != nil {
			t.Fatal(err)
		}
	}
	for _, dir := range []string{pdir, sdir} {
		files, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			data, err := os.ReadFile(filepath.Join(dir, f.Name()))
			if err != nil {
				t.Fatal(err)
			}
			for _, c := range ids {
				if bytes.Contains(data, []byte(c)) {
					t.Errorf("%s still holds finalized client %s after compaction", filepath.Join(dir, f.Name()), c)
				}
			}
		}
	}
	for name, node := range map[string]struct {
		w   *wal.WAL
		dir string
	}{"primary": {pw, pdir}, "standby": {sw, sdir}} {
		s, _ := reboot(t, node.w, node.dir, RolePrimary)
		if got, err := s.Result(doneID); err != nil || !reflect.DeepEqual(got, want) {
			t.Errorf("%s rebooted on its directory serves %+v (err %v), want %+v", name, got, err, want)
		}
	}
}

// TestCheckpointCrashPoints boots on the directory a crash leaves at each
// step of a compaction, and of a standby's bootstrap, and must reach the
// acked state every time.
func TestCheckpointCrashPoints(t *testing.T) {
	ctx := context.Background()
	// fixture returns a primary, compacted once, with traffic on either
	// side of the compaction.
	fixture := func() (*Server, *wal.WAL, string) {
		dir := t.TempDir()
		s, w := newWALServer(t, dir, 1)
		id := seedSession(t, s, 6)
		if _, err := s.CompactWAL(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			c := fmt.Sprintf("late-%d", i)
			task, err := s.AssignTask(ctx, id, c)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.SubmitReport(ctx, id, wire.Report{ClientID: c, Bit: task.Bit, Value: 1}); err != nil {
				t.Fatal(err)
			}
		}
		return s, w, dir
	}
	check := func(what string, got, want *Server) {
		t.Helper()
		if g, w := stateFingerprint(t, got), stateFingerprint(t, want); g != w {
			t.Errorf("%s: booted to\n%s\nwant the acked state\n%s", what, g, w)
		}
	}

	t.Run("temp checkpoint left mid-write", func(t *testing.T) {
		s, w, dir := fixture()
		tmp := filepath.Join(dir, fmt.Sprintf(".%020d.ckpt-123.tmp", s.WALSeq()))
		if err := os.WriteFile(tmp, []byte("torn"), 0o644); err != nil {
			t.Fatal(err)
		}
		booted, _ := reboot(t, w, dir, RolePrimary)
		check("leftover temp", booted, s)
		if _, err := os.Stat(tmp); !os.IsNotExist(err) {
			t.Errorf("the temp checkpoint survived Open: %v", err)
		}
	})

	t.Run("between rename and truncate", func(t *testing.T) {
		s, w, dir := fixture()
		snap := s.Snapshot()
		data, err := snap.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if err := wal.WriteFile(filepath.Join(dir, fmt.Sprintf("%020d.ckpt", snap.WALSeq)), data); err != nil {
			t.Fatal(err)
		}
		booted, bw := reboot(t, w, dir, RolePrimary)
		check("two checkpoints, nothing truncated", booted, s)
		if first := bw.FirstSeq(); first == 0 || first > snap.WALSeq {
			t.Fatalf("the log was truncated (first seq %d): not the crash point under test", first)
		}
	})

	t.Run("standby between checkpoint and first mirrored append", func(t *testing.T) {
		primary, pw, _ := fixture()
		for _, aligned := range []bool{false, true} {
			snap := primary.Snapshot()
			data := checkpointOf(t, snap)
			dir := t.TempDir()
			standby, sw := newWALServer(t, dir, 2)
			standby.SetRole(RoleStandby)
			var err error
			if aligned {
				err = standby.BootstrapReplica(data)
			} else { // killed before AlignTo
				_, err = sw.WriteCheckpoint(snap.WALSeq, data)
			}
			if err != nil {
				t.Fatal(err)
			}
			booted, _ := reboot(t, sw, dir, RoleStandby)
			check(fmt.Sprintf("standby rebooted (aligned=%v)", aligned), booted, primary)
			seedSession(t, primary, 2)
			ship(t, pw, booted)
			check(fmt.Sprintf("standby tailing after its reboot (aligned=%v)", aligned), booted, primary)
		}
	})
}
