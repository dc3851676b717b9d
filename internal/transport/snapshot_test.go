package transport

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/internal/transport/wire"
)

// checkpointFixture returns the checkpoint of a small server holding an
// open bit session (reported and assigned-only clients), an open
// threshold session, a finalized and an expired one.
func checkpointFixture(tb testing.TB) []byte {
	tb.Helper()
	ctx := context.Background()
	clock := time.Unix(1700000000, 0)
	s := NewServer(1)
	s.Now = func() time.Time { return clock }
	var ids []string
	for _, cfg := range []wire.SessionConfig{
		{Feature: "open", Bits: 4, Gamma: 1, Epsilon: 2},
		{Feature: "thr", Bits: 8, Thresholds: []uint64{10, 50, 100}},
		{Feature: "done", Bits: 3, Gamma: 1},
		{Feature: "gone", Bits: 2, Gamma: 1, TTLSeconds: 30},
	} {
		id, err := s.CreateSession(ctx, cfg)
		if err != nil {
			tb.Fatal(err)
		}
		ids = append(ids, id)
		for i := 0; i < 5; i++ {
			c := fmt.Sprintf("c%d", i)
			task, err := s.AssignTask(ctx, id, c)
			if err != nil {
				tb.Fatal(err)
			}
			if i < 3 {
				if _, err := s.SubmitReport(ctx, id, wire.Report{ClientID: c, Bit: task.Bit, Value: uint64(i % 2)}); err != nil {
					tb.Fatal(err)
				}
			}
		}
	}
	if _, err := s.Finalize(ctx, ids[2]); err != nil {
		tb.Fatal(err)
	}
	clock = clock.Add(time.Minute)
	s.Sweep()
	data, err := s.Snapshot().MarshalBinary()
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// frameBoundaries returns the offset of every frame in a checkpoint, then
// its length.
func frameBoundaries(data []byte) []int {
	var cuts []int
	for off := 0; off+replFrameHeader <= len(data); off += replFrameHeader + int(binary.LittleEndian.Uint32(data[off+8:])) {
		cuts = append(cuts, off)
	}
	return append(cuts, len(data))
}

// TestDamagedCheckpointRefused: a checkpoint cut short at any frame
// boundary, or with any one byte flipped, is refused — by LoadSnapshot and
// by a follower's bootstrap, BootstrapReplica of the served bytes — and
// restores nothing.
func TestDamagedCheckpointRefused(t *testing.T) {
	data := checkpointFixture(t)
	path := filepath.Join(t.TempDir(), "checkpoint")
	// restore loads b both ways: what each restored, and why not.
	type outcome struct {
		loaded, booted   int
		loadErr, bootErr error
	}
	restore := func(b []byte) outcome {
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		s := NewServer(2)
		var o outcome
		o.loadErr = s.LoadSnapshot(path)
		standby := NewServer(3)
		standby.SetRole(RoleStandby)
		o.bootErr = standby.BootstrapReplica(b)
		o.loaded, o.booted = len(s.Sessions()), len(standby.Sessions())
		return o
	}
	if o := restore(data); o.loadErr != nil || o.bootErr != nil || o.loaded != 4 || o.booted != 4 {
		t.Fatalf("intact checkpoint: %+v", o)
	}
	cuts := frameBoundaries(data)
	if len(cuts) < 8 || cuts[len(cuts)-2] >= len(data) {
		t.Fatalf("fixture frames start at %v of %d bytes", cuts, len(data))
	}
	refused := func(what string, bad []byte) {
		t.Helper()
		if o := restore(bad); o.loadErr == nil || o.bootErr == nil || o.loaded+o.booted != 0 {
			t.Errorf("%s: not refused both ways: %+v", what, o)
		}
	}
	for _, cut := range cuts[:len(cuts)-1] {
		refused(fmt.Sprintf("cut at byte %d of %d", cut, len(data)), data[:cut])
	}
	for i := range data {
		bad := bytes.Clone(data)
		bad[i] ^= 0xff
		refused(fmt.Sprintf("byte %d flipped", i), bad)
	}
}

// FuzzCheckpoint: a checkpoint is outside input, so whatever the bytes,
// ReadSnapshot and the Restore of what it returns end in an error, never
// a panic, and reading allocates in proportion to the bytes there are,
// never to a frame length they only declare.
func FuzzCheckpoint(f *testing.F) {
	data := checkpointFixture(f)
	f.Add(data)
	for _, cut := range frameBoundaries(data) {
		f.Add(data[:cut])
	}
	huge := bytes.Clone(data[:replFrameHeader+8])
	binary.LittleEndian.PutUint32(huge[8:], 16<<20)
	f.Add(huge)
	// The checksums stop nearly every mutation at its frame, so the input's
	// lines are also framed afresh, one payload each: seeded with the
	// fixture's payloads, that hands Restore, and so Apply, hostile records.
	var lines [][]byte
	if err := DecodeReplFrames(bytes.NewReader(data), func(_ uint64, payload []byte) error {
		lines = append(lines, payload)
		return nil
	}); err != nil {
		f.Fatal(err)
	}
	f.Add(bytes.Join(lines, []byte("\n")))
	f.Fuzz(func(t *testing.T, data []byte) {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		snap, err := ReadSnapshot(bytes.NewReader(data))
		runtime.ReadMemStats(&after)
		if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 128*uint64(len(data))+1<<20 {
			t.Fatalf("reading %d bytes allocated %d", len(data), alloc)
		}
		if err == nil {
			_ = NewServer(1).Restore(snap) // may refuse; must not panic
		}
		var framed []byte
		for i, line := range bytes.Split(data, []byte("\n")) {
			if len(line) > 0 {
				framed = appendReplFrame(framed, uint64(i), line)
			}
		}
		if snap, err := ReadSnapshot(bytes.NewReader(framed)); err == nil {
			_ = NewServer(1).Restore(snap)
		}
	})
}
