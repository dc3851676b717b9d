package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"sync/atomic"
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

// TestBadCRCInteriorRecordFailsLoudly: a defect in the active segment
// with an intact record behind it, a flipped payload byte or a length
// field that bounds no frame, is corruption, never a torn tail. Open
// refuses the log and truncates nothing.
func TestBadCRCInteriorRecordFailsLoudly(t *testing.T) {
	for _, row := range []struct {
		name   string
		damage func(data []byte)
	}{
		{"first_payload_byte", func(data []byte) { data[headerBytes] ^= 0xff }},
		{"zero_length", func(data []byte) { setSecondLength(data, 0) }},
		{"max_length", func(data []byte) { setSecondLength(data, 0xFFFFFFFF) }},
		{"past_end", func(data []byte) { setSecondLength(data, uint32(len(data))) }},
	} {
		t.Run(row.name, func(t *testing.T) {
			dir := t.TempDir()
			w, err := Open(Options{Dir: dir, Policy: SyncAlways})
			if err != nil {
				t.Fatal(err)
			}
			appendN(t, w, 0, 3)
			w.Close()
			path := segmentPath(dir, 1)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			row.damage(data)
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			if _, err := Open(Options{Dir: dir, Policy: SyncAlways}); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("open over interior corruption = %v, want ErrCorrupt", err)
			}
			if st, err := os.Stat(path); err != nil || st.Size() != int64(len(data)) {
				t.Fatalf("segment after the refused open: %v, %v; want %d bytes untouched", st, err, len(data))
			}
		})
	}
}

// setSecondLength overwrites the length field of the second of
// appendN's records.
func setSecondLength(data []byte, n uint32) {
	binary.LittleEndian.PutUint32(data[headerBytes+len("rec-0"):], n)
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

// TestGroupedCommitIsDurableAndBatched: one fsync covers every record
// appended before it started. Commit of the last of n appends makes
// exactly one fsync, committing each earlier sequence then makes none,
// and every record survives a reopen.
func TestGroupedCommitIsDurableAndBatched(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	w, err := Open(Options{Dir: dir, Policy: SyncGrouped, Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	fsyncs := reg.Counter(MetricFsyncs, "")
	const n = 50
	var last uint64
	for i := 0; i < n; i++ {
		if last, err = w.Append([]byte(fmt.Sprintf("g-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Commit(last); err != nil {
		t.Fatal(err)
	}
	if got := fsyncs.Value(); got != 1 {
		t.Fatalf("Commit(%d) after %d appends made %d fsyncs, want 1", last, n, got)
	}
	for seq := uint64(1); seq < last; seq++ {
		if err := w.Commit(seq); err != nil {
			t.Fatal(err)
		}
	}
	if got := fsyncs.Value(); got != 1 {
		t.Fatalf("committing the covered sequences made %d more fsyncs, want 0", got-1)
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

// TestCommitsBehindAnInFlightFsyncShareTheNext: commits that arrive while
// an fsync runs wait for it, none returning before an fsync covering its
// record has ended, and then one fsync covers them all.
func TestCommitsBehindAnInFlightFsyncShareTheNext(t *testing.T) {
	var stall atomic.Bool
	entered, release := make(chan struct{}), make(chan struct{})
	fsyncFile = func(f *os.File) error {
		if stall.CompareAndSwap(true, false) {
			close(entered)
			<-release
		}
		return f.Sync()
	}
	t.Cleanup(func() { fsyncFile = (*os.File).Sync })
	reg := obs.NewRegistry()
	w, err := Open(Options{Dir: t.TempDir(), Registry: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	fsyncs := reg.Counter(MetricFsyncs, "")

	stall.Store(true)
	first, err := w.Append([]byte("leader"))
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1+8)
	go func() { done <- w.Commit(first) }()
	<-entered
	const k = 8
	for i := 0; i < k; i++ {
		go func(i int) {
			seq, err := w.Append([]byte(fmt.Sprintf("behind-%d", i)))
			if err == nil {
				err = w.Commit(seq)
			}
			done <- err
		}(i)
	}
	for w.LastSeq() != first+k {
		time.Sleep(time.Millisecond)
	}
	select {
	case err := <-done:
		t.Fatalf("a commit returned (err %v) while the only fsync was stalled", err)
	case <-time.After(20 * time.Millisecond):
	}
	close(release)
	for i := 0; i < 1+k; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if got := fsyncs.Value(); got != 2 {
		t.Fatalf("fsyncs = %d, want 2: the stalled one and one for the %d commits behind it", got, k)
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

// FuzzSegment: scanSegment, the reader every boot runs on the active
// segment, never panics. The payloads it accepts, framed again, are the
// file's good prefix byte for byte. A defect it calls a torn tail has no
// CRC-valid frame starting after it, and one it calls ErrCorrupt has one.
// Read as sealed, the same bytes pass only if they hold no defect at all.
func FuzzSegment(f *testing.F) {
	var valid []byte
	for _, p := range []string{"rec-0", "rec-1", "rec-2"} {
		valid = appendFrame(valid, []byte(p))
	}
	f.Add([]byte{})
	f.Add(valid)
	f.Add(valid[:len(valid)-3])
	f.Add(append(slices.Clone(valid), make([]byte, 64)...))
	for _, n := range []uint32{0, 0xFFFFFFFF, uint32(len(valid))} {
		bad := slices.Clone(valid)
		setSecondLength(bad, n)
		f.Add(bad)
	}
	path := filepath.Join(f.TempDir(), "segment")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		var reframed []byte
		var accepted uint64
		res, err := scanSegment(path, false, func(p []byte) error {
			reframed = appendFrame(reframed, p)
			accepted++
			return nil
		})
		if res.goodBytes > int64(len(data)) || !bytes.Equal(reframed, data[:res.goodBytes]) {
			t.Fatalf("accepted payloads frame to %x, the good prefix of %d bytes is %x",
				reframed, res.goodBytes, data[:min(res.goodBytes, int64(len(data)))])
		}
		if accepted != res.records {
			t.Fatalf("%d records counted, %d accepted", res.records, accepted)
		}
		next := validFrameAfter(data, res.goodBytes)
		switch {
		case err == nil && res.goodBytes+res.tornBytes != int64(len(data)):
			t.Fatalf("%d good and %d torn bytes of %d", res.goodBytes, res.tornBytes, len(data))
		case err == nil && res.tornBytes > 0 && next >= 0:
			t.Fatalf("defect at %d read as a torn tail, with a valid frame at %d behind it", res.goodBytes, next)
		case errors.Is(err, ErrCorrupt) && next < 0:
			t.Fatalf("defect at %d read as corrupt (%v), with no valid frame behind it", res.goodBytes, err)
		case err != nil && !errors.Is(err, ErrCorrupt):
			t.Fatal(err)
		}
		sealed, serr := scanSegment(path, true, nil)
		if err == nil && res.tornBytes == 0 {
			if serr != nil || sealed != res {
				t.Fatalf("intact segment read sealed: %+v, %v; unsealed %+v", sealed, serr, res)
			}
		} else if !errors.Is(serr, ErrCorrupt) || sealed.tornBytes != 0 {
			t.Fatalf("defective sealed segment: %+v, %v; want ErrCorrupt", sealed, serr)
		}
	})
}

// appendFrame frames payload as Append does.
func appendFrame(dst, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.Checksum(payload, crcTable))
	return append(dst, payload...)
}

// validFrameAfter returns the first offset past off at which a whole,
// CRC-valid frame starts, or -1.
func validFrameAfter(data []byte, off int64) int64 {
	for p := off + 1; p+headerBytes < int64(len(data)); p++ {
		n := int64(binary.LittleEndian.Uint32(data[p:]))
		body := data[p+headerBytes:]
		if n > 0 && n <= MaxRecordBytes && n <= int64(len(body)) &&
			crc32.Checksum(body[:n], crcTable) == binary.LittleEndian.Uint32(data[p+4:]) {
			return p
		}
	}
	return -1
}
