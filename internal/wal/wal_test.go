package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// appendN appends records "rec-<i>" for i in [0,n), committing each.
func appendN(t *testing.T, w *WAL, start, n int) {
	t.Helper()
	for i := start; i < start+n; i++ {
		seq, err := w.Append([]byte(fmt.Sprintf("rec-%d", i)))
		if err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
		if err := w.Commit(seq); err != nil {
			t.Fatalf("commit %d: %v", i, err)
		}
	}
}

// collect replays the whole log into ordered (seq, payload) pairs.
func collect(t *testing.T, w *WAL) (seqs []uint64, payloads []string) {
	t.Helper()
	err := w.Replay(func(seq uint64, payload []byte) error {
		seqs = append(seqs, seq)
		payloads = append(payloads, string(payload))
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	return seqs, payloads
}

func TestAppendReplayRoundtrip(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Options{Dir: dir, Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 0, 10)
	if got := w.LastSeq(); got != 10 {
		t.Fatalf("LastSeq = %d, want 10", got)
	}
	seqs, payloads := collect(t, w)
	if len(seqs) != 10 || seqs[0] != 1 || seqs[9] != 10 {
		t.Fatalf("replayed seqs %v", seqs)
	}
	if payloads[7] != "rec-7" {
		t.Fatalf("payload[7] = %q", payloads[7])
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen: sequence numbering continues, old records still replay.
	w2, err := Open(Options{Dir: dir, Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if got := w2.LastSeq(); got != 10 {
		t.Fatalf("LastSeq after reopen = %d, want 10", got)
	}
	appendN(t, w2, 10, 2)
	seqs, _ = collect(t, w2)
	if len(seqs) != 12 || seqs[11] != 12 {
		t.Fatalf("after reopen+append, seqs %v", seqs)
	}
}

func TestRotationAndSegmentNaming(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments: every record after the first in a segment trips the
	// size check on the next append.
	w, err := Open(Options{Dir: dir, SegmentBytes: 1, Policy: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 0, 5)
	seqs, _ := collect(t, w)
	if len(seqs) != 5 {
		t.Fatalf("replayed %d records, want 5", len(seqs))
	}
	files, _ := filepath.Glob(filepath.Join(dir, "*"+segSuffix))
	if len(files) < 5 {
		t.Fatalf("expected ≥5 segment files with 1-byte segments, got %d", len(files))
	}
	w.Close()

	w2, err := Open(Options{Dir: dir, SegmentBytes: 1, Policy: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if got := w2.LastSeq(); got != 5 {
		t.Fatalf("LastSeq = %d, want 5", got)
	}
}

func TestTornFinalRecordIsTruncated(t *testing.T) {
	for _, cut := range []struct {
		name  string
		bytes int64 // bytes to keep past the second record's end minus...
	}{
		{"mid_payload", 5},
		{"mid_header", 3},
		{"header_only", 8},
	} {
		t.Run(cut.name, func(t *testing.T) {
			dir := t.TempDir()
			reg := obs.NewRegistry()
			w, err := Open(Options{Dir: dir, Policy: SyncAlways})
			if err != nil {
				t.Fatal(err)
			}
			appendN(t, w, 0, 3)
			w.Close()

			// Tear the tail: drop the last record's end, keeping `bytes`
			// bytes of its frame.
			path := segmentPath(dir, 1)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			frame := int64(headerBytes + len("rec-2"))
			keep := int64(len(data)) - frame + cut.bytes
			if err := os.Truncate(path, keep); err != nil {
				t.Fatal(err)
			}

			w2, err := Open(Options{Dir: dir, Policy: SyncAlways, Registry: reg})
			if err != nil {
				t.Fatalf("open over torn tail: %v", err)
			}
			defer w2.Close()
			seqs, payloads := collect(t, w2)
			if len(seqs) != 2 || payloads[1] != "rec-1" {
				t.Fatalf("recovered %v %v, want the 2 complete records", seqs, payloads)
			}
			if got := reg.Counter(MetricTornTruncations, "").Value(); got != 1 {
				t.Fatalf("torn truncations = %d, want 1", got)
			}
			// The next append reuses the torn record's sequence.
			seq, err := w2.Append([]byte("rec-2b"))
			if err != nil || seq != 3 {
				t.Fatalf("append after torn recovery: seq=%d err=%v, want 3", seq, err)
			}
		})
	}
}

func TestBadCRCInteriorRecordFailsLoudly(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Options{Dir: dir, Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 0, 3)
	w.Close()

	// Flip a payload byte of the FIRST record: complete frame, records
	// behind it — corruption, never a torn tail.
	path := segmentPath(dir, 1)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[headerBytes] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := Open(Options{Dir: dir, Policy: SyncAlways}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("open over interior corruption = %v, want ErrCorrupt", err)
	}
}

func TestBadCRCInSealedSegmentFailsOnReplay(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Options{Dir: dir, SegmentBytes: 1, Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 0, 4) // rotations seal segments behind the head
	w.Close()

	// Corrupt the tail record of the FIRST (sealed) segment: even a
	// tail defect is corruption once the segment is sealed.
	path := segmentPath(dir, 1)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	w2, err := Open(Options{Dir: dir, SegmentBytes: 1, Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if err := w2.Replay(func(uint64, []byte) error { return nil }); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("replay over sealed-segment corruption = %v, want ErrCorrupt", err)
	}
}

func TestZeroLengthTailGarbageIsTorn(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Options{Dir: dir, Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 0, 2)
	w.Close()

	// A crash-recovered filesystem can hand back a zeroed tail; a zero
	// length field must read as torn, not as a valid empty record
	// (crc32("") == 0 would otherwise make all-zeroes verify).
	f, err := os.OpenFile(segmentPath(dir, 1), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(make([]byte, 64)); err != nil {
		t.Fatal(err)
	}
	f.Close()

	w2, err := Open(Options{Dir: dir, Policy: SyncAlways})
	if err != nil {
		t.Fatalf("open over zeroed tail: %v", err)
	}
	defer w2.Close()
	if seqs, _ := collect(t, w2); len(seqs) != 2 {
		t.Fatalf("recovered %d records, want 2", len(seqs))
	}
}

func TestTruncateThroughReclaimsSealedSegments(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	w, err := Open(Options{Dir: dir, SegmentBytes: 1, Policy: SyncNever, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	appendN(t, w, 0, 6)
	removed, err := w.WriteCheckpoint(4, []byte("through 4"))
	if err != nil {
		t.Fatal(err)
	}
	if removed < 3 {
		t.Fatalf("removed %d segments, want ≥3", removed)
	}
	if got := w.FirstSeq(); got != 5 {
		t.Fatalf("FirstSeq after truncate = %d, want 5", got)
	}
	seqs, payloads := collect(t, w)
	if len(seqs) != 2 || seqs[0] != 5 || payloads[1] != "rec-5" {
		t.Fatalf("post-truncate replay %v %v, want seqs 5..6", seqs, payloads)
	}
	if got := reg.Counter(MetricCompactions, "").Value(); got != 1 {
		t.Fatalf("compactions = %d, want 1", got)
	}
	// Appends continue seamlessly and survive a reopen.
	appendN(t, w, 6, 1)
	w.Close()
	w2, err := Open(Options{Dir: dir, SegmentBytes: 1, Policy: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if got := w2.LastSeq(); got != 7 {
		t.Fatalf("LastSeq after reopen = %d, want 7", got)
	}
	if got := w2.FirstSeq(); got != 5 {
		t.Fatalf("FirstSeq after reopen = %d, want 5", got)
	}
}

func TestGroupedCommitIsDurableAndBatched(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	w, err := Open(Options{
		Dir: dir, Policy: SyncGrouped, FlushInterval: time.Millisecond, Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	const n = 50
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			seq, err := w.Append([]byte(fmt.Sprintf("g-%d", i)))
			if err != nil {
				t.Errorf("append: %v", err)
				return
			}
			if err := w.Commit(seq); err != nil {
				t.Errorf("commit: %v", err)
			}
		}(i)
	}
	wg.Wait()
	fsyncs := reg.Counter(MetricFsyncs, "").Value()
	if fsyncs == 0 {
		t.Fatal("grouped policy never fsynced")
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2, err := Open(Options{Dir: dir, Policy: SyncGrouped})
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	if seqs, _ := collect(t, w2); len(seqs) != n {
		t.Fatalf("recovered %d records, want %d", len(seqs), n)
	}
}

func TestConcurrentAppendsAssignDenseSequences(t *testing.T) {
	w, err := Open(Options{Dir: t.TempDir(), SegmentBytes: 256, Policy: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	const n = 200
	var wg sync.WaitGroup
	seqs := make([]uint64, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			seq, err := w.Append([]byte(fmt.Sprintf("c-%d", i)))
			if err != nil {
				t.Errorf("append: %v", err)
				return
			}
			seqs[i] = seq
		}(i)
	}
	wg.Wait()
	seen := make(map[uint64]bool, n)
	for _, s := range seqs {
		if s < 1 || s > n || seen[s] {
			t.Fatalf("sequence %d out of range or duplicated", s)
		}
		seen[s] = true
	}
	count := 0
	if err := w.Replay(func(uint64, []byte) error { count++; return nil }); err != nil {
		t.Fatal(err)
	}
	if count != n {
		t.Fatalf("replayed %d, want %d", count, n)
	}
}

func TestAppendAfterCloseFails(t *testing.T) {
	w, err := Open(Options{Dir: t.TempDir(), Policy: SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	w.Close()
	if _, err := w.Append([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("append after close = %v, want ErrClosed", err)
	}
}

func TestParseSyncPolicy(t *testing.T) {
	for in, want := range map[string]SyncPolicy{
		"always": SyncAlways, "grouped": SyncGrouped, "off": SyncNever, "never": SyncNever,
	} {
		got, err := ParseSyncPolicy(in)
		if err != nil || got != want {
			t.Fatalf("ParseSyncPolicy(%q) = %v, %v", in, got, err)
		}
	}
	if _, err := ParseSyncPolicy("bogus"); err == nil {
		t.Fatal("ParseSyncPolicy(bogus) succeeded")
	}
}

// TestFrameLayout pins the on-disk format so a refactor cannot silently
// change it under existing logs.
func TestFrameLayout(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Options{Dir: dir, Policy: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append([]byte("abc")); err != nil {
		t.Fatal(err)
	}
	w.Close()
	data, err := os.ReadFile(segmentPath(dir, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(data) != headerBytes+3 {
		t.Fatalf("frame is %d bytes, want %d", len(data), headerBytes+3)
	}
	if n := binary.LittleEndian.Uint32(data); n != 3 {
		t.Fatalf("length field = %d, want 3", n)
	}
	if string(data[headerBytes:]) != "abc" {
		t.Fatalf("payload = %q", data[headerBytes:])
	}
}

func TestAppendLatencyObserved(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	w, err := Open(Options{Dir: dir, Policy: SyncNever, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	appendN(t, w, 0, 5)
	if got := w.m.appendSeconds.Count(); got != 5 {
		t.Fatalf("append latency observations = %d, want 5", got)
	}
}

// readCheckpoint returns the newest checkpoint's sequence and bytes.
func readCheckpoint(t *testing.T, w *WAL) (uint64, string) {
	t.Helper()
	seq, f, err := w.OpenCheckpoint()
	if err != nil || f == nil {
		t.Fatalf("OpenCheckpoint: file %v, err %v", f, err)
	}
	defer f.Close()
	data, err := io.ReadAll(f)
	if err != nil {
		t.Fatal(err)
	}
	return seq, string(data)
}

// TestCheckpointReplacesCoveredSegments: a checkpoint is written into the
// directory, the segments it covers and the checkpoints before it go, and
// a reopened log finds it again — while a temp file a crash in the middle
// of writing one leaves is deleted by Open and creates nothing new.
func TestCheckpointReplacesCoveredSegments(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Options{Dir: dir, SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	if _, f, err := w.OpenCheckpoint(); f != nil || err != nil {
		t.Fatalf("a fresh log has a checkpoint: %v, %v", f, err)
	}
	appendN(t, w, 0, 10)
	if _, err := w.WriteCheckpoint(4, []byte("through 4")); err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 10, 5)
	removed, err := w.WriteCheckpoint(12, []byte("through 12"))
	if err != nil {
		t.Fatal(err)
	}
	if removed == 0 || w.FirstSeq() > 13 || w.FirstSeq() == 0 {
		t.Fatalf("second checkpoint removed %d segments, log now starts at %d", removed, w.FirstSeq())
	}
	if seq, data := readCheckpoint(t, w); seq != 12 || data != "through 12" {
		t.Fatalf("newest checkpoint %d %q", seq, data)
	}
	if _, err := os.Stat(checkpointPath(dir, 4)); !os.IsNotExist(err) {
		t.Fatalf("the older checkpoint survived: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	tmp := filepath.Join(dir, ".00000000000000000015.ckpt-77.tmp")
	if err := os.WriteFile(tmp, []byte("torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	w, err = Open(Options{Dir: dir, SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	after, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(tmp); !os.IsNotExist(err) || len(after) != len(before)-1 {
		t.Fatalf("Open left %d of %d entries (temp: %v)", len(after), len(before), err)
	}
	if seq, data := readCheckpoint(t, w); seq != 12 || data != "through 12" {
		t.Fatalf("reopened log's checkpoint %d %q", seq, data)
	}
	if seqs, _ := collect(t, w); len(seqs) == 0 || seqs[len(seqs)-1] != 15 {
		t.Fatalf("reopened log replays %v", seqs)
	}
}

// TestCheckpointConcurrentWithReaders: while checkpoints are written and
// older ones removed, a reader opening the newest never finds it gone and
// always reads one whole checkpoint.
func TestCheckpointConcurrentWithReaders(t *testing.T) {
	w, err := Open(Options{Dir: t.TempDir(), Policy: SyncNever, SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	appendN(t, w, 0, 1)
	if _, err := w.WriteCheckpoint(1, []byte("through 1")); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				seq, f, err := w.OpenCheckpoint()
				if err != nil || f == nil {
					t.Errorf("OpenCheckpoint during compaction: file %v, err %v", f, err)
					return
				}
				data, err := io.ReadAll(f)
				f.Close()
				if want := fmt.Sprintf("through %d", seq); err != nil || string(data) != want {
					t.Errorf("checkpoint %d reads %q (err %v), want %q", seq, data, err, want)
					return
				}
			}
		}()
	}
	for i := 1; i < 40; i++ {
		appendN(t, w, i, 1)
		seq := w.LastSeq()
		if _, err := w.WriteCheckpoint(seq, []byte(fmt.Sprintf("through %d", seq))); err != nil {
			t.Error(err)
			break
		}
	}
	close(stop)
	wg.Wait()
}

// TestCheckpointKeepsWhatAReaderNeeds: WriteCheckpoint reclaims no record
// from the KeepFrom point on — a follower resuming there can still tail
// the log or salvage it from the directory — and reclaims them once the
// point moves past the checkpoint.
func TestCheckpointKeepsWhatAReaderNeeds(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Options{Dir: dir, SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	appendN(t, w, 0, 10)
	w.KeepFrom(6)
	if _, err := w.WriteCheckpoint(10, []byte("through 10")); err != nil {
		t.Fatal(err)
	}
	if first := w.FirstSeq(); first == 0 || first > 6 {
		t.Fatalf("log starts at %d after a checkpoint with a reader at 6", first)
	}
	if recs, err := w.ReadFrom(6, 0, 0); err != nil || len(recs) != 5 {
		t.Fatalf("tailing from 6: %d records, err %v", len(recs), err)
	}
	var salvaged []uint64
	if err := ScanDir(dir, 6, func(seq uint64, _ []byte) error {
		salvaged = append(salvaged, seq)
		return nil
	}); err != nil || len(salvaged) != 5 {
		t.Fatalf("salvaging from 6: %v, err %v", salvaged, err)
	}

	appendN(t, w, 10, 2)
	w.KeepFrom(13)
	if _, err := w.WriteCheckpoint(12, []byte("through 12")); err != nil {
		t.Fatal(err)
	}
	if first := w.FirstSeq(); first != 0 {
		t.Fatalf("log starts at %d once the reader holds everything the checkpoint covers", first)
	}
}
