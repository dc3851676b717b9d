package transport

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
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
// snapshot mid-stream, keep appending, then recover from snapshot +
// replayed tail and compare against the uninterrupted server.
func TestSnapshotPlusWALTailRecovery(t *testing.T) {
	dir := t.TempDir()
	snapPath := filepath.Join(dir, "snap.json")
	s1, w1 := newWALServer(t, filepath.Join(dir, "wal"), 1)

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
	removed, err := s1.CompactWAL(snapPath)
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

	s2, _ := newWALServer(t, filepath.Join(dir, "wal"), 1)
	if err := s2.LoadSnapshot(snapPath); err != nil {
		t.Fatalf("restoring snapshot: %v", err)
	}
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
// assign. Replay then meets every assign and report of a session that has
// already released its client entries, and must absorb them: the image's
// sums include them.
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
		for i := 0; i < 40; i++ {
			client := fmt.Sprintf("c-%d", i)
			task, err := s1.AssignTask(ctx, id, client)
			if err != nil {
				t.Fatal(err)
			}
			if i%5 == 4 {
				continue // assigned, never reports
			}
			if _, err := s1.SubmitReport(ctx, id, wire.Report{ClientID: client, Bit: task.Bit, Value: uint64(i % 2)}); err != nil {
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
		if wantApplied := int(want.WALSeq - createSeq); applied != wantApplied {
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
// the session nor its checkpoint grows with the cohort any more. While
// the session is open its checkpoint is its client entries, and must be
// no larger than the 52.3 B a client the JSON image it replaced took for
// this cohort: 12-character ids, 90 % of them reported.
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
		if len(image) >= 4096 {
			t.Errorf("%s: checkpoint of the ended %d-client session is %d bytes, want under 4 KiB", how, clients, len(image))
		}
		t.Logf("%s: %d clients cost %.1f B each while open; %d bytes remain after the end; checkpoint %d bytes",
			how, clients, float64(open-empty)/float64(clients), ended-empty, len(image))
	}
}

// checkOpenCheckpoint cuts, encodes, decodes and restores the checkpoint
// of s, whose one open session has clients entries, and holds its size to
// the parent's JSON image's.
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
	if perClient > 52.3 {
		t.Errorf("open-session checkpoint is %.1f B a client, larger than the 52.3 B JSON image it replaces", perClient)
	}
	t.Logf("open checkpoint: %.1f B/client, cut+encode %.0f ns/client, decode+restore %.0f ns/client",
		perClient, float64(t1.Sub(t0).Nanoseconds())/float64(clients), float64(t2.Sub(t1).Nanoseconds())/float64(clients))
}

// TestRestoreRejectsSnapshotNewerThanWALHead: a snapshot claiming
// coverage past the log head means the WAL was lost or swapped — boot
// must refuse rather than silently diverge.
func TestRestoreRejectsSnapshotNewerThanWALHead(t *testing.T) {
	dir := t.TempDir()
	s, _ := newWALServer(t, dir, 1) // fresh WAL, head = 0
	err := s.Restore(&Snapshot{WALSeq: 7})
	if err == nil || !strings.Contains(err.Error(), "newer than the log") {
		t.Fatalf("Restore with WALSeq beyond head = %v, want newer-than-log rejection", err)
	}
	// Without a WAL attached the same snapshot restores fine (WALSeq is
	// just carried along).
	s2 := NewServer(1)
	if err := s2.Restore(&Snapshot{WALSeq: 7}); err != nil {
		t.Fatalf("Restore without WAL: %v", err)
	}
}

// TestReplayRejectsMissingHistory: if compaction (or an operator) threw
// away segments past the snapshot's coverage, recovery must fail loudly
// instead of resurrecting partial state.
func TestReplayRejectsMissingHistory(t *testing.T) {
	dir := t.TempDir()
	s1, w1 := newWALServer(t, dir, 1)
	driveTraffic(t, s1)
	// Simulate lost history: compact the log away against a throwaway
	// snapshot, so the remaining segments start past seq 1...
	if err := w1.Rotate(); err != nil {
		t.Fatal(err)
	}
	if _, err := w1.TruncateThrough(s1.WALSeq()); err != nil {
		t.Fatal(err)
	}
	w1.Close()

	// ...then boot WITHOUT the snapshot that covered them.
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

// TestDuplicateAckWaitsForOriginalCommit closes the window between an
// accept entering the client map (under the session lock) and becoming
// durable (in its own request's commit, after the lock): a
// retransmission landing in that gap sees the entry, and must not be
// acked "duplicate" — which promises the report is safe — before the
// flush that makes it so. The WAL's group-commit interval is long enough
// that the test body up to the retransmission runs inside one gap.
func TestDuplicateAckWaitsForOriginalCommit(t *testing.T) {
	ctx := context.Background()
	s := NewServer(1)
	id, err := s.CreateSession(ctx, wire.SessionConfig{Feature: "gap", Bits: 2, Gamma: 1})
	if err != nil {
		t.Fatal(err)
	}
	task, err := s.AssignTask(ctx, id, "c")
	if err != nil {
		t.Fatal(err)
	}
	rep := wire.Report{ClientID: "c", Bit: task.Bit, Value: 1}
	// Attached only now, so the setup above did not wait out two flushes.
	reg := obs.NewRegistry()
	w, err := wal.Open(wal.Options{Dir: t.TempDir(), Policy: wal.SyncGrouped, FlushInterval: 300 * time.Millisecond, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	s.AttachWAL(w)
	fsyncs := reg.Counter(wal.MetricFsyncs, "")

	accepted := make(chan error, 1)
	go func() {
		ack, err := s.SubmitReport(ctx, id, rep)
		if err == nil && (!ack.Accepted || ack.Duplicate) {
			err = fmt.Errorf("original acked %+v", ack)
		}
		accepted <- err
	}()
	waitFor(t, func() bool {
		res, err := s.Result(id)
		return err == nil && res.Reports == 1
	})
	if n := fsyncs.Value(); n != 0 {
		t.Skipf("the flush ran (%d fsyncs) before the retransmission could be sent", n)
	}
	acks, err := s.SubmitReportBatch(ctx, id, []wire.Report{rep})
	if err != nil || len(acks) != 1 || acks[0] != wire.AckDuplicate {
		t.Fatalf("retransmission: acks %v err %v, want one duplicate", acks, err)
	}
	if fsyncs.Value() == 0 {
		t.Error("retransmission acked duplicate while the original was still waiting for its fsync")
	}
	if err := <-accepted; err != nil {
		t.Fatal(err)
	}
}
