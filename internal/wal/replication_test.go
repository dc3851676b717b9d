package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"sync"
	"testing"
	"time"
)

// smallSegs opens a WAL with tiny segments so tests cross segment
// boundaries cheaply.
func smallSegs(t *testing.T, dir string) *WAL {
	t.Helper()
	w, err := Open(Options{Dir: dir, Policy: SyncAlways, SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestReadFromReturnsSuffix(t *testing.T) {
	w := smallSegs(t, t.TempDir())
	defer w.Close()
	appendN(t, w, 0, 20)

	recs, err := w.ReadFrom(7, 100, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 14 {
		t.Fatalf("got %d records, want 14", len(recs))
	}
	for i, r := range recs {
		wantSeq := uint64(7 + i)
		if r.Seq != wantSeq {
			t.Fatalf("record %d has seq %d, want %d", i, r.Seq, wantSeq)
		}
		if want := fmt.Sprintf("rec-%d", wantSeq-1); string(r.Payload) != want {
			t.Fatalf("record %d payload %q, want %q", i, r.Payload, want)
		}
	}
}

func TestReadFromPastHeadReturnsNothing(t *testing.T) {
	w := smallSegs(t, t.TempDir())
	defer w.Close()
	appendN(t, w, 0, 3)
	recs, err := w.ReadFrom(4, 10, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if recs != nil {
		t.Fatalf("got %d records past head, want none", len(recs))
	}
}

func TestReadFromHonorsBatchCaps(t *testing.T) {
	w := smallSegs(t, t.TempDir())
	defer w.Close()
	appendN(t, w, 0, 20)

	recs, err := w.ReadFrom(1, 5, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 5 || recs[0].Seq != 1 || recs[4].Seq != 5 {
		t.Fatalf("maxRecords cap: got %d records starting %d", len(recs), recs[0].Seq)
	}
	// A byte cap below one frame still yields exactly one record —
	// progress is guaranteed whatever the record size.
	recs, err = w.ReadFrom(1, 100, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 {
		t.Fatalf("maxBytes cap: got %d records, want 1", len(recs))
	}
}

func TestReadFromCompactedSeqErrs(t *testing.T) {
	w := smallSegs(t, t.TempDir())
	defer w.Close()
	appendN(t, w, 0, 12)
	head := w.LastSeq()
	if _, err := w.WriteCheckpoint(head, []byte("through the head")); err != nil {
		t.Fatal(err)
	}
	first := w.FirstSeq()
	if first != 0 {
		t.Fatalf("log should be empty after full truncation, FirstSeq = %d", first)
	}
	if _, err := w.ReadFrom(1, 10, 1<<20); !errors.Is(err, ErrCompacted) {
		t.Fatalf("ReadFrom(1) after compaction: err = %v, want ErrCompacted", err)
	}
	// The head itself is still resumable: from = head+1 means "caught
	// up", not "lost history".
	recs, err := w.ReadFrom(head+1, 10, 1<<20)
	if err != nil || recs != nil {
		t.Fatalf("ReadFrom(head+1) = %d records, %v; want none, nil", len(recs), err)
	}
}

func TestWaitForReturnsOnAppend(t *testing.T) {
	w := smallSegs(t, t.TempDir())
	defer w.Close()
	appendN(t, w, 0, 2)

	done := make(chan uint64, 1)
	go func() { done <- w.WaitFor(3, 5*time.Second) }()
	// Give the waiter a moment to park, then append the record it wants.
	time.Sleep(10 * time.Millisecond)
	seq, err := w.Append([]byte("wake"))
	if err != nil {
		t.Fatal(err)
	}
	select {
	case head := <-done:
		if head < seq {
			t.Fatalf("WaitFor returned head %d, want >= %d", head, seq)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("WaitFor did not wake on append")
	}
	// Already-satisfied waits return immediately.
	if head := w.WaitFor(1, time.Millisecond); head != seq {
		t.Fatalf("satisfied WaitFor head = %d, want %d", head, seq)
	}
}

func TestWaitForTimesOut(t *testing.T) {
	w := smallSegs(t, t.TempDir())
	defer w.Close()
	appendN(t, w, 0, 1)
	start := time.Now()
	head := w.WaitFor(99, 20*time.Millisecond)
	if head != 1 {
		t.Fatalf("timed-out WaitFor head = %d, want 1", head)
	}
	if time.Since(start) < 20*time.Millisecond {
		t.Fatal("WaitFor returned before its timeout without the sequence arriving")
	}
}

func TestAppendAtMirrorsSequencesAndRejectsGaps(t *testing.T) {
	src := smallSegs(t, t.TempDir())
	defer src.Close()
	appendN(t, src, 0, 10)

	dstDir := t.TempDir()
	dst := smallSegs(t, dstDir)
	recs, err := src.ReadFrom(1, 100, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		seq, err := dst.AppendAt(r.Seq, r.Payload)
		if err != nil {
			t.Fatalf("AppendAt(%d): %v", r.Seq, err)
		}
		if seq != r.Seq {
			t.Fatalf("AppendAt(%d) assigned %d", r.Seq, seq)
		}
	}
	if err := dst.Commit(dst.LastSeq()); err != nil {
		t.Fatal(err)
	}
	// A gap (skipping seq 11 for 12) must refuse, not silently renumber.
	if _, err := dst.AppendAt(12, []byte("gap")); err == nil {
		t.Fatal("AppendAt with a sequence gap succeeded")
	}
	// Mirror survives reopen with identical sequences.
	if err := dst.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(Options{Dir: dstDir, SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	seqs, payloads := collect(t, re)
	if len(seqs) != 10 || seqs[0] != 1 || seqs[9] != 10 || payloads[9] != "rec-9" {
		t.Fatalf("mirrored replay seqs %v payload[9] %q", seqs, payloads[9])
	}
}

func TestAlignToPositionsEmptyLog(t *testing.T) {
	dir := t.TempDir()
	w := smallSegs(t, dir)
	if err := w.AlignTo(41); err != nil {
		t.Fatal(err)
	}
	seq, err := w.AppendAt(42, []byte("first-after-snapshot"))
	if err != nil {
		t.Fatal(err)
	}
	if seq != 42 {
		t.Fatalf("first append after AlignTo(41) got seq %d, want 42", seq)
	}
	if err := w.Commit(seq); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(Options{Dir: dir, SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.FirstSeq() != 42 || re.LastSeq() != 42 {
		t.Fatalf("reopened aligned log spans [%d,%d], want [42,42]", re.FirstSeq(), re.LastSeq())
	}
}

func TestAlignToRefusesNonEmptyLog(t *testing.T) {
	w := smallSegs(t, t.TempDir())
	defer w.Close()
	appendN(t, w, 0, 1)
	if err := w.AlignTo(100); err == nil {
		t.Fatal("AlignTo on a log holding records succeeded")
	}
}

func TestScanDirSalvagesTornDeadLog(t *testing.T) {
	dir := t.TempDir()
	w := smallSegs(t, dir)
	appendN(t, w, 0, 12)
	// Simulate SIGKILL: the process dies without Close; the OS still has
	// the file contents, plus a torn half-written record at the tail.
	w.mu.Lock()
	active := segmentPath(dir, w.segBase)
	w.mu.Unlock()
	f, err := os.OpenFile(active, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write([]byte{9, 0, 0, 0, 1, 2}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	var seqs []uint64
	err = ScanDir(dir, 5, func(seq uint64, payload []byte) error {
		seqs = append(seqs, seq)
		if want := fmt.Sprintf("rec-%d", seq-1); string(payload) != want {
			t.Fatalf("seq %d payload %q, want %q", seq, payload, want)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(seqs) != 8 || seqs[0] != 5 || seqs[7] != 12 {
		t.Fatalf("salvaged seqs %v, want 5..12", seqs)
	}
	// Salvage reads only: the torn tail must still be on disk untouched.
	st, err := os.Stat(active)
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() == 0 {
		t.Fatal("salvage modified the dead log")
	}
	// A resume point beyond everything present yields nothing.
	err = ScanDir(dir, 13, func(seq uint64, payload []byte) error {
		t.Fatalf("unexpected record %d", seq)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// A resume point before the oldest segment is missing history.
	sub := t.TempDir()
	w2 := smallSegs(t, sub)
	appendN(t, w2, 0, 8)
	if n, err := w2.WriteCheckpoint(5, []byte("through 5")); err != nil || n == 0 {
		t.Fatalf("WriteCheckpoint(5) removed %d segments, err %v", n, err)
	}
	w2.Close()
	if err := ScanDir(sub, 1, func(uint64, []byte) error { return nil }); !errors.Is(err, ErrCompacted) {
		t.Fatalf("ScanDir below oldest = %v, want ErrCompacted", err)
	}
}

// TestTruncateThroughAtExactSegmentSeal pins the snapshot/WAL boundary
// case where the checkpoint's WALSeq lands exactly on a segment seal:
// compaction must reclaim every sealed segment, the survivor set must
// start exactly at WALSeq+1, and both replay and ReadFrom must resume
// there after a reopen.
func TestTruncateThroughAtExactSegmentSeal(t *testing.T) {
	dir := t.TempDir()
	w := smallSegs(t, dir)
	appendN(t, w, 0, 9)
	// Checkpoint at exactly seq 9, which seals the segment there, then
	// write the tail the checkpoint does not cover.
	sealSeq := w.LastSeq()
	if _, err := w.WriteCheckpoint(sealSeq, []byte("through 9")); err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 9, 4)
	if got := w.FirstSeq(); got != sealSeq+1 {
		t.Fatalf("FirstSeq after boundary truncation = %d, want %d", got, sealSeq+1)
	}
	// Exactly-at-boundary resume: from = WALSeq+1 must succeed, from =
	// WALSeq must report compacted.
	recs, err := w.ReadFrom(sealSeq+1, 100, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 || recs[0].Seq != 10 {
		t.Fatalf("post-seal ReadFrom got %d records starting %d", len(recs), recs[0].Seq)
	}
	if _, err := w.ReadFrom(sealSeq, 100, 1<<20); !errors.Is(err, ErrCompacted) {
		t.Fatalf("ReadFrom(sealSeq) = %v, want ErrCompacted", err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(Options{Dir: dir, SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	seqs, _ := collect(t, re)
	if len(seqs) != 4 || seqs[0] != 10 || seqs[3] != 13 {
		t.Fatalf("reopened replay seqs %v, want 10..13", seqs)
	}
}

// TestReplayResumesMidSegmentAfterTornTail pins the other boundary
// case: a crash tears the final record mid-segment, the reopen
// truncates the tear, and both replay and new appends resume mid-
// segment at the exact next sequence — no renumbering, no gap.
func TestReplayResumesMidSegmentAfterTornTail(t *testing.T) {
	dir := t.TempDir()
	w, err := Open(Options{Dir: dir, Policy: SyncAlways, SegmentBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, w, 0, 7)
	w.mu.Lock()
	active := segmentPath(dir, w.segBase)
	w.mu.Unlock()
	// Abandon the handle (crash) and tear the last record: chop 3 bytes
	// off the file so record 7's frame is incomplete.
	st, err := os.Stat(active)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(active, st.Size()-3); err != nil {
		t.Fatal(err)
	}

	re, err := Open(Options{Dir: dir, Policy: SyncAlways, SegmentBytes: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.LastSeq(); got != 6 {
		t.Fatalf("LastSeq after torn-tail reopen = %d, want 6", got)
	}
	// Mid-segment resume: the next append lands at seq 7, in the same
	// segment file, and replay sees a dense 1..8.
	seq, err := re.Append([]byte("rec-after-tear"))
	if err != nil {
		t.Fatal(err)
	}
	if seq != 7 {
		t.Fatalf("post-tear append got seq %d, want 7", seq)
	}
	if err := re.Commit(seq); err != nil {
		t.Fatal(err)
	}
	seqs, payloads := collect(t, re)
	if len(seqs) != 7 || seqs[0] != 1 || seqs[6] != 7 {
		t.Fatalf("replay seqs %v, want dense 1..7", seqs)
	}
	if payloads[6] != "rec-after-tear" {
		t.Fatalf("payload[6] = %q", payloads[6])
	}
	if payloads[5] != "rec-5" {
		t.Fatalf("payload[5] = %q (pre-tear record lost?)", payloads[5])
	}
	// And ReadFrom resumes mid-segment too.
	recs, err := re.ReadFrom(6, 100, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 || recs[0].Seq != 6 || recs[1].Seq != 7 {
		t.Fatalf("mid-segment ReadFrom got %v", recs)
	}
}

func TestReadFromConcurrentWithAppends(t *testing.T) {
	w := smallSegs(t, t.TempDir())
	defer w.Close()
	appendN(t, w, 0, 1)

	var wg sync.WaitGroup
	stop := make(chan struct{})
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 1; i < 200; i++ {
			seq, err := w.Append([]byte(fmt.Sprintf("rec-%d", i)))
			if err != nil {
				t.Errorf("append: %v", err)
				return
			}
			if err := w.Commit(seq); err != nil {
				t.Errorf("commit: %v", err)
				return
			}
		}
		close(stop)
	}()
	// Follow the tail while the writer runs; sequences must arrive dense.
	next := uint64(1)
	for {
		select {
		case <-stop:
		default:
		}
		recs, err := w.ReadFrom(next, 64, 1<<20)
		if err != nil {
			t.Fatalf("ReadFrom(%d): %v", next, err)
		}
		for _, r := range recs {
			if r.Seq != next {
				t.Fatalf("got seq %d, want %d", r.Seq, next)
			}
			next++
		}
		if next > 200 {
			break
		}
		w.WaitFor(next, 50*time.Millisecond)
	}
	wg.Wait()
	if next != 201 {
		t.Fatalf("followed through seq %d, want 200", next-1)
	}
}

func TestSizeBytesGrowsAndSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	w := smallSegs(t, dir)
	if got := w.SizeBytes(); got != 0 {
		t.Fatalf("fresh SizeBytes = %d", got)
	}
	appendN(t, w, 0, 10)
	size := w.SizeBytes()
	if size <= 0 {
		t.Fatalf("SizeBytes after appends = %d", size)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	re, err := Open(Options{Dir: dir, SegmentBytes: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if got := re.SizeBytes(); got != size {
		t.Fatalf("reopened SizeBytes = %d, want %d", got, size)
	}
}

// TestScanDirRefusesInteriorCorruption pins the salvage hard-error path:
// a flipped byte inside a record that has intact records behind it is
// damage, not a torn tail. ScanDir must refuse with ErrCorrupt rather
// than silently truncating committed history at the defect — a standby
// promoted over a quietly shortened log would ack data it never saw.
func TestScanDirRefusesInteriorCorruption(t *testing.T) {
	dir := t.TempDir()
	w := smallSegs(t, dir)
	appendN(t, w, 0, 12)
	w.mu.Lock()
	active := segmentPath(dir, w.segBase)
	w.mu.Unlock()
	// The log belongs to a "dead" process: no Close, files as the OS left
	// them.

	data, err := os.ReadFile(active)
	if err != nil {
		t.Fatal(err)
	}
	// First frame: 4-byte length, 4-byte CRC, payload. Flip a payload
	// byte; the frame stays boundable and the records behind it intact,
	// so the defect is interior, not torn.
	n := int64(binary.LittleEndian.Uint32(data))
	if int64(len(data)) <= headerBytes+n {
		t.Fatalf("active segment holds a single record (%d bytes); corruption would look torn", len(data))
	}
	data[headerBytes] ^= 0xFF
	if err := os.WriteFile(active, data, 0o644); err != nil {
		t.Fatal(err)
	}

	var got []uint64
	err = ScanDir(dir, 1, func(seq uint64, payload []byte) error {
		got = append(got, seq)
		return nil
	})
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("ScanDir over interior damage = %v (delivered seqs %v), want ErrCorrupt", err, got)
	}
	// Refusal is read-only: the damaged evidence stays on disk untouched.
	after, err := os.ReadFile(active)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, data) {
		t.Fatal("ScanDir modified the damaged segment")
	}
}
