package transport

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/transport/wire"
	"repro/internal/wal"
)

// testdata/parent was written by the commit before the session state
// machine was extracted (9e1cb7d): driveFixture's history run on that
// code, with snapshot.json (that build's JSON image) cut where the
// history says, wal/ the whole log, and want.json what that server then
// served. This code must read those files to the same answers and, run
// through the same history, write the same log bytes.
const fixtureDir = "testdata/parent"

type fixtureWant struct {
	Results  map[string]*wire.Result `json:"results"`
	Sessions []SessionSummary        `json:"sessions"`
	Deleted  string                  `json:"deleted"`
	WALSeq   uint64                  `json:"wal_seq"`
}

func readFixtureWant(t *testing.T) fixtureWant {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(fixtureDir, "want.json"))
	if err != nil {
		t.Fatal(err)
	}
	var want fixtureWant
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	return want
}

func checkFixtureState(t *testing.T, s *Server, want fixtureWant) {
	t.Helper()
	if got := s.Sessions(); !reflect.DeepEqual(got, want.Sessions) {
		t.Errorf("sessions = %+v, want %+v", got, want.Sessions)
	}
	for id, res := range want.Results {
		got, err := s.Result(id)
		if err != nil || !reflect.DeepEqual(got, res) {
			t.Errorf("result of %s = %+v (err %v), want %+v", id, got, err, res)
		}
	}
	if _, err := s.Result(want.Deleted); err == nil {
		t.Errorf("retention-deleted session %s is back", want.Deleted)
	}
	if s.WALSeq() != want.WALSeq {
		t.Errorf("wal seq = %d, want %d", s.WALSeq(), want.WALSeq)
	}
}

// fixtureWAL opens a scratch copy of the fixture's log (Open takes over
// the active segment, so the original stays read-only).
func fixtureWAL(t *testing.T) *wal.WAL {
	t.Helper()
	const seg = "00000000000000000001.wal"
	data, err := os.ReadFile(filepath.Join(fixtureDir, "wal", seg))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, seg), data, 0o644); err != nil {
		t.Fatal(err)
	}
	w, err := wal.Open(wal.Options{Dir: dir, Policy: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	return w
}

// TestParentFixtureRecovers boots on the parent commit's files both ways
// a daemon can: snapshot plus the log's tail, and the log alone.
func TestParentFixtureRecovers(t *testing.T) {
	want := readFixtureWant(t)
	for _, withSnapshot := range []bool{true, false} {
		s := NewServer(99)
		s.AttachWAL(fixtureWAL(t))
		if withSnapshot {
			if err := s.LoadSnapshot(filepath.Join(fixtureDir, "snapshot.json")); err != nil {
				t.Fatalf("restoring the parent's snapshot: %v", err)
			}
			if s.WALSeq() == 0 || s.WALSeq() >= want.WALSeq {
				t.Fatalf("snapshot covers through %d of %d records: not a mid-history cut", s.WALSeq(), want.WALSeq)
			}
		}
		if _, err := s.ReplayWAL(); err != nil {
			t.Fatalf("replaying the parent's log (snapshot=%v): %v", withSnapshot, err)
		}
		checkFixtureState(t, s, want)
	}
}

// driveFixture is the history behind testdata/parent, byte for byte the
// one the parent commit ran: five sessions (ε-LDP bits, thresholds, a
// TTL that expires, a TTL that auto-finalizes, one that expires and is
// retention-deleted), clients that take a task and never report, a
// snapshot part-way, deadline sweeps on an injected clock.
func driveFixture(t *testing.T, s *Server, now *time.Time, snapshotPath string) {
	t.Helper()
	ctx := context.Background()
	create := func(cfg wire.SessionConfig) string {
		id, err := s.CreateSession(ctx, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return id
	}
	drive := func(id, prefix string, from, to int) {
		for i := from; i < to; i++ {
			c := fmt.Sprintf("%s-%03d", prefix, i)
			task, err := s.AssignTask(ctx, id, c)
			if err != nil {
				t.Fatal(err)
			}
			if i%7 == 3 {
				continue // assigned, never reports
			}
			ack, err := s.SubmitReport(ctx, id, wire.Report{ClientID: c, Bit: task.Bit, Value: uint64((i*5 + i/3) % 2)})
			if err != nil || !ack.Accepted {
				t.Fatalf("%s: ack=%+v err=%v", c, ack, err)
			}
		}
	}
	bitID := create(wire.SessionConfig{Feature: "bits", Bits: 6, Gamma: 1, Epsilon: 2, MinCohort: 5})
	thrID := create(wire.SessionConfig{Feature: "thr", Bits: 8, Thresholds: []uint64{10, 50, 100, 200}})
	ttlID := create(wire.SessionConfig{Feature: "ttl", Bits: 4, Gamma: 0.5, TTLSeconds: 30, MinCohort: 1000})
	autoID := create(wire.SessionConfig{Feature: "auto", Bits: 3, Gamma: 1, TTLSeconds: 40, AutoFinalize: true, SquashThreshold: 0.05})
	goneID := create(wire.SessionConfig{Feature: "gone", Bits: 2, Gamma: 1, TTLSeconds: 1})
	drive(bitID, "b", 0, 40)
	drive(thrID, "t", 0, 25)
	drive(ttlID, "x", 0, 9)
	drive(autoID, "a", 0, 20)
	drive(goneID, "g", 0, 3)

	if err := s.SaveSnapshot(snapshotPath); err != nil {
		t.Fatal(err)
	}

	drive(bitID, "b", 40, 90)
	drive(thrID, "t", 25, 60)
	drive(autoID, "a", 20, 30)
	for _, step := range []time.Duration{2, 35, 10} { // gone expires; ttl expires; auto finalizes
		*now = now.Add(step * time.Second)
		s.Sweep()
	}
	for _, id := range []string{bitID, thrID} {
		if _, err := s.Finalize(ctx, id); err != nil {
			t.Fatal(err)
		}
	}
	*now = now.Add(30 * time.Second)
	s.Sweep() // gone ages past Retention and is deleted
}

// TestFormatsFrozen runs the fixture's history on this code. The log is
// a format: every WAL payload must be the parent's, in order (the log is
// one segment of length-and-CRC framed payloads, so equal files mean
// equal payloads). The checkpoint cut where the history says, plus the
// log's tail, must recover to what the parent served.
func TestFormatsFrozen(t *testing.T) {
	dir := t.TempDir()
	w, err := wal.Open(wal.Options{Dir: filepath.Join(dir, "wal"), Policy: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	now := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	s := NewServer(7)
	s.Now = func() time.Time { return now }
	s.Retention = time.Minute
	s.AttachWAL(w)
	checkpoint := filepath.Join(dir, "snapshot.json")
	driveFixture(t, s, &now, checkpoint)
	want := readFixtureWant(t)
	checkFixtureState(t, s, want)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	const seg = "wal/00000000000000000001.wal"
	got, err := os.ReadFile(filepath.Join(dir, seg))
	if err != nil {
		t.Fatal(err)
	}
	parent, err := os.ReadFile(filepath.Join(fixtureDir, seg))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, parent) {
		t.Errorf("%s differs from the parent commit's:\n got %q\nwant %q", seg, got, parent)
	}

	w, err = wal.Open(wal.Options{Dir: filepath.Join(dir, "wal"), Policy: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	recovered := NewServer(99)
	recovered.AttachWAL(w)
	if err := recovered.LoadSnapshot(checkpoint); err != nil {
		t.Fatalf("restoring the checkpoint: %v", err)
	}
	if seq := recovered.WALSeq(); seq == 0 || seq >= want.WALSeq {
		t.Fatalf("checkpoint covers through %d of %d records: not a mid-history cut", seq, want.WALSeq)
	}
	if _, err := recovered.ReplayWAL(); err != nil {
		t.Fatalf("replaying the tail over the checkpoint: %v", err)
	}
	checkFixtureState(t, recovered, want)
}
