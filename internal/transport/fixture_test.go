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

// testdata/binary holds driveFixture's history as this code writes it: a
// segment with every record (wal/*.wal) and the checkpoint the history
// cuts part-way (wal/*.ckpt), in the binary record encoding
// (session.Record.AppendBinary), and want.json, what the server then
// served — carried over from the commit before the session state machine
// was extracted (9e1cb7d). This code must go on writing exactly that, and
// boot on it to the same answers.
const (
	binaryFixture = "testdata/binary"
	fixtureSeg    = "00000000000000000001.wal"
	fixtureCkpt   = "00000000000000000185.ckpt"
)

type fixtureWant struct {
	Results  map[string]*wire.Result `json:"results"`
	Sessions []SessionSummary        `json:"sessions"`
	Deleted  string                  `json:"deleted"`
	WALSeq   uint64                  `json:"wal_seq"`
}

func readFixtureWant(t *testing.T) fixtureWant {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(binaryFixture, "want.json"))
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

// bootFixture boots on scratch copies of the fixture's directory (Open
// takes over the active segment, so the original stays read-only) both
// ways a daemon can: the checkpoint plus the log's tail, and the log
// alone.
func bootFixture(t *testing.T, want fixtureWant) {
	t.Helper()
	for _, files := range [][]string{{fixtureSeg, fixtureCkpt}, {fixtureSeg}} {
		dir := t.TempDir()
		for _, name := range files {
			data, err := os.ReadFile(filepath.Join(binaryFixture, "wal", name))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		w, err := wal.Open(wal.Options{Dir: dir, Policy: wal.SyncNever})
		if err != nil {
			t.Fatal(err)
		}
		s := NewServer(99)
		s.AttachWAL(w)
		applied, err := s.ReplayWAL()
		if err != nil {
			t.Fatalf("booting on %v: %v", files, err)
		}
		if replayed := uint64(applied); len(files) == 2 && (replayed == 0 || replayed >= want.WALSeq) {
			t.Fatalf("replayed %d of %d records over the checkpoint: not a mid-history cut", replayed, want.WALSeq)
		}
		checkFixtureState(t, s, want)
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// driveFixture is the history behind the fixture, byte for byte the one
// the parent commit ran: five sessions (ε-LDP bits, thresholds, a TTL that
// expires, a TTL that auto-finalizes, one that expires and is
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

// TestFormatsFrozen runs the fixture's history on this code. The log and
// the checkpoint are formats, read by later builds and by standbys of
// other builds, so they must be testdata/binary's. The log is one segment
// of length-and-CRC framed payloads, so equal files mean equal payloads,
// in order. A checkpoint's sessions and client entries come in map order,
// so it must hold the frozen one's header and records, up to that order
// (its records' bytes are TestRecordEncodingPinned's). Then the frozen
// directory must boot to what the parent served.
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
	checkpoint := filepath.Join(dir, "checkpoint")
	driveFixture(t, s, &now, checkpoint)
	want := readFixtureWant(t)
	checkFixtureState(t, s, want)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	read := func(path string) []byte {
		t.Helper()
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	got, frozen := read(filepath.Join(dir, "wal", fixtureSeg)), read(filepath.Join(binaryFixture, "wal", fixtureSeg))
	if !bytes.Equal(got, frozen) {
		t.Errorf("%s differs from the frozen one:\n got %q\nwant %q", fixtureSeg, got, frozen)
	}

	var snaps [2]*Snapshot
	for i, path := range []string{checkpoint, filepath.Join(binaryFixture, "wal", fixtureCkpt)} {
		if snaps[i], err = ReadSnapshot(bytes.NewReader(read(path))); err != nil {
			t.Fatal(err)
		}
	}
	if cut := snaps[0].SavedAt; !cut.Equal(snaps[1].SavedAt) || !reflect.DeepEqual(canonicalize(snaps[0]), canonicalize(snaps[1])) {
		t.Errorf("checkpoint cut at %v holds\n%+v\nthe frozen one, cut at %v\n%+v", cut, snaps[0], snaps[1].SavedAt, snaps[1])
	}
	bootFixture(t, want)
}
