// Package wal is a segmented, checksummed write-ahead log: the durability
// substrate under the aggregation server's ack ⇒ durable contract. The
// paper's deployment setting (§1, §3.3) is a long-lived server collecting
// one-bit reports from millions of intermittently connected clients;
// silently losing accepted reports biases the bit-sum estimators in
// exactly the way the accuracy analysis assumes cannot happen, so every
// acked state transition is appended here — and committed to stable
// storage — before the reply leaves the server.
//
// Records are length-prefixed and CRC32C-framed, written to segment files
// named by the sequence number of their first record. Replay is
// torn-tail tolerant: a record cut short by a crash at the very end of
// the newest segment is truncated away, while a defective record with a
// CRC-valid one anywhere behind it is a hard error — silent skips would
// resurface as unexplained state divergence. Two fsync policies are
// supported: SyncAlways (fsync before every commit returns, with group
// commit: one fsync covers every append made before it started, and a
// commit that arrives while one is in flight fsyncs as soon as it ends)
// and SyncNever (benchmarks only; a crash may lose the page-cache tail).
//
// Beside the segments lies the log's checkpoint (WriteCheckpoint), so the
// directory alone is the recovery input: checkpoint plus later segments.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// Frame layout: [length uint32le][crc32c(payload) uint32le][payload].
const (
	headerBytes = 8
	// MaxRecordBytes bounds one record's payload; anything larger is a
	// framing error (and on disk, evidence of corruption).
	MaxRecordBytes = 16 << 20
	maxFrameBuf    = 64 << 10

	segSuffix  = ".wal"
	ckptSuffix = ".ckpt"
	tmpSuffix  = ".tmp"
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Errors returned by the WAL.
var (
	// ErrCorrupt marks an interior record whose checksum or framing is
	// invalid with further data behind it — not a torn tail, and never
	// skipped silently.
	ErrCorrupt = errors.New("wal: corrupt record")
	// ErrClosed is returned by operations on a closed WAL.
	ErrClosed = errors.New("wal: closed")
)

// SyncPolicy selects when appended records are fsynced.
type SyncPolicy int

const (
	// SyncAlways fsyncs before every Commit returns: zero loss window
	// even under power failure. Concurrent commits share fsyncs (syncTo).
	SyncAlways SyncPolicy = iota
	// SyncNever performs no fsyncs on the append path (segment seals and
	// Close still sync). For benchmarks; a crash can lose the tail that
	// was still in the page cache.
	SyncNever
	// SyncGrouped is a synonym of SyncAlways, whose commits already share
	// fsyncs.
	SyncGrouped = SyncAlways
)

// ParseSyncPolicy maps the -wal-fsync flag spellings to a policy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch strings.ToLower(s) {
	case "always", "record", "per-record", "grouped", "group", "batch":
		return SyncAlways, nil
	case "never", "off", "none":
		return SyncNever, nil
	}
	return 0, fmt.Errorf("wal: unknown sync policy %q (want always, grouped or never)", s)
}

// String returns the canonical flag spelling.
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncNever:
		return "never"
	}
	return fmt.Sprintf("SyncPolicy(%d)", int(p))
}

// Options configures Open.
type Options struct {
	// Dir holds the segment files; created if missing.
	Dir string
	// SegmentBytes rolls to a new segment once the active one reaches
	// this size. Zero means 16 MiB.
	SegmentBytes int64
	// Policy is the fsync policy; the zero value is SyncAlways.
	Policy SyncPolicy
	// Registry, when non-nil, receives the fednum_wal_* metrics.
	Registry *obs.Registry
}

func (o Options) segmentBytes() int64 {
	if o.SegmentBytes <= 0 {
		return 16 << 20
	}
	return o.SegmentBytes
}

// segment is one sealed (no longer written) segment file.
type segment struct {
	base  uint64 // sequence number of the first record
	count uint64 // records in the segment
	path  string
}

// WAL is an open write-ahead log. All methods are safe for concurrent
// use.
type WAL struct {
	opts Options
	m    *walMetrics

	// mu serializes appends, rotation and truncation, and guards the
	// active-segment file state. Lock ordering: mu before flushMu.
	mu       sync.Mutex
	f        *os.File
	segBase  uint64 // first seq of the active segment
	segCount uint64 // records written to the active segment
	segSize  int64  // bytes written to the active segment
	sealed   []segment
	firstSeq uint64 // first seq present on disk, 0 when empty
	nextSeq  uint64 // seq the next Append receives
	closed   bool
	failed   error // sticky append-path failure (unrecoverable torn state)
	// frame is the buffer appends build their frame in; a frame larger
	// than maxFrameBuf gets its own and is not kept.
	frame []byte
	// appended counts frame bytes over the log's life within this
	// process, seeded with the on-disk bytes found at Open. Monotonic
	// (WriteCheckpoint does not roll it back): it is the byte analogue of
	// the sequence head, which replication lag is measured against.
	appended int64
	// tailWait, when non-nil, is closed by the next append — the
	// tail-following hand-off WaitFor blocks on. Lazily created so the
	// append fast path pays nothing when nobody is following.
	tailWait chan struct{}
	// ckptSeq is the sequence the newest checkpoint covers, when hasCkpt.
	ckptSeq  uint64
	hasCkpt  bool
	keepFrom uint64 // the oldest record a reader still needs (KeepFrom), 0 for none

	// flushMu guards the durability frontier and the group-commit
	// hand-off.
	flushMu   sync.Mutex
	flushCond *sync.Cond
	syncedSeq uint64
	syncErr   error
	flushing  bool // a commit leader is running fsync
}

// fsyncFile is the fsync every commit runs; tests stall it.
var fsyncFile = (*os.File).Sync

// Open scans dir, truncates a torn tail off the newest segment, deletes a
// checkpoint temp file a crash in the middle of WriteCheckpoint left, and
// returns a WAL ready for appends. The first boot (empty dir) starts the
// sequence at 1.
func Open(opts Options) (*WAL, error) {
	if opts.Dir == "" {
		return nil, errors.New("wal: Options.Dir is required")
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, err
	}
	w := &WAL{opts: opts, m: newWALMetrics(opts.Registry)}
	w.flushCond = sync.NewCond(&w.flushMu)
	segs, ckpts, err := listDir(opts.Dir, true)
	if err != nil {
		return nil, err
	}
	if len(ckpts) > 0 {
		w.ckptSeq, w.hasCkpt = ckpts[len(ckpts)-1], true
	}
	if len(segs) == 0 {
		if err := w.startSegment(1); err != nil {
			return nil, err
		}
	} else {
		// The newest segment is scanned (and its torn tail cut).
		last := &segs[len(segs)-1]
		res, err := scanSegment(last.path, false, nil)
		if err != nil {
			return nil, err
		}
		if res.tornBytes > 0 {
			if err := os.Truncate(last.path, res.goodBytes); err != nil {
				return nil, fmt.Errorf("wal: truncating torn tail of %s: %w", last.path, err)
			}
			w.m.tornTruncations.Inc()
		}
		last.count = res.records
		w.sealed = segs[:len(segs)-1]
		for _, s := range w.sealed {
			st, err := os.Stat(s.path)
			if err != nil {
				return nil, err
			}
			w.appended += st.Size()
		}
		w.appended += res.goodBytes
		w.firstSeq = segs[0].base
		w.segBase = last.base
		w.segCount = last.count
		w.segSize = res.goodBytes
		w.nextSeq = last.base + last.count
		f, err := os.OpenFile(last.path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, err
		}
		w.f = f
		if w.firstSeq == w.nextSeq {
			// Every segment is empty (e.g. fresh post-compaction tail
			// with no appends yet): nothing on disk.
			w.firstSeq = 0
		}
	}
	w.flushMu.Lock()
	w.syncedSeq = w.nextSeq - 1
	w.flushMu.Unlock()
	w.m.segments.Set(float64(len(w.sealed) + 1))
	return w, nil
}

// listDir returns dir's segments by base, each but the newest counted from
// the next one's base, and its checkpoints' sequences, ascending. clean
// (Open, before any write) deletes the temp files a crashed WriteFile left.
func listDir(dir string, clean bool) (segs []segment, ckpts []uint64, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, err
	}
	for _, e := range entries {
		name, seq := e.Name(), uint64(0)
		switch {
		case e.IsDir():
		case clean && strings.HasSuffix(name, tmpSuffix) && strings.Contains(name, ckptSuffix):
			err = os.Remove(filepath.Join(dir, name))
		case strings.HasSuffix(name, segSuffix):
			if seq, err = strconv.ParseUint(strings.TrimSuffix(name, segSuffix), 10, 64); seq == 0 {
				err = errors.New("alien file")
			}
			segs = append(segs, segment{base: seq, path: filepath.Join(dir, name)})
		case strings.HasSuffix(name, ckptSuffix):
			seq, err = strconv.ParseUint(strings.TrimSuffix(name, ckptSuffix), 10, 64)
			ckpts = append(ckpts, seq)
		}
		if err != nil {
			return nil, nil, fmt.Errorf("wal: %s in wal dir: %w", name, err)
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].base < segs[j].base })
	for i := 0; i+1 < len(segs); i++ {
		if segs[i+1].base == segs[i].base {
			return nil, nil, fmt.Errorf("wal: segments %s and %s share a base", segs[i].path, segs[i+1].path)
		}
		segs[i].count = segs[i+1].base - segs[i].base
	}
	slices.Sort(ckpts)
	return segs, ckpts, nil
}

func segmentPath(dir string, base uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%020d%s", base, segSuffix))
}

func checkpointPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%020d%s", seq, ckptSuffix))
}

// WriteFile writes data to path atomically and durably: the temp file is
// fsynced before the rename and the directory after it. Rename alone
// orders nothing on power loss — without the first fsync the renamed file
// can surface empty, and without the second the rename itself can vanish.
func WriteFile(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, "."+filepath.Base(path)+"-*"+tmpSuffix)
	if err != nil {
		return err
	}
	_, err = tmp.Write(data)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return syncDir(dir)
}

// WriteCheckpoint makes data, the caller's encoding of the state records
// 1..seq produced, the recovery base: it is written durably as the
// checkpoint for seq, then the active segment is sealed and the sealed
// segments and older checkpoints it covers are removed — except the
// records from the KeepFrom point on. After a crash between any two steps
// the newest checkpoint plus the segments after it still boot. Returns
// how many segment files were removed.
func (w *WAL) WriteCheckpoint(seq uint64, data []byte) (removed int, err error) {
	if err := WriteFile(checkpointPath(w.opts.Dir, seq), data); err != nil {
		return 0, err
	}
	// Under mu throughout, so OpenCheckpoint never races the removal of the
	// file it is about to open.
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return 0, ErrClosed
	}
	if !w.hasCkpt || seq > w.ckptSeq {
		w.ckptSeq, w.hasCkpt = seq, true
	}
	if w.segCount > 0 {
		if err := w.rotateLocked(); err != nil {
			return 0, err
		}
	}
	through := min(seq, w.keepFrom-1) // keepFrom 0 wraps: keeps nothing
	for ; len(w.sealed) > 0 && w.sealed[0].base+w.sealed[0].count-1 <= through; removed++ {
		if err := os.Remove(w.sealed[0].path); err != nil {
			return removed, err
		}
		w.sealed = w.sealed[1:]
	}
	if removed > 0 {
		if err := syncDir(w.opts.Dir); err != nil {
			return removed, err
		}
		w.firstSeq = 0 // the active segment is empty: just sealed
		if len(w.sealed) > 0 {
			w.firstSeq = w.sealed[0].base
		}
		w.m.segments.Set(float64(len(w.sealed) + 1))
		w.m.segmentsRemoved.Add(uint64(removed))
		w.m.compactions.Inc()
	}
	_, seqs, err := listDir(w.opts.Dir, false)
	for _, s := range seqs {
		if s < w.ckptSeq && err == nil {
			err = os.Remove(checkpointPath(w.opts.Dir, s))
		}
	}
	return removed, err
}

// KeepFrom records that a reader — a replication follower resuming at seq
// — still needs the records from seq on, so WriteCheckpoint leaves them on
// disk for it to tail or salvage. The latest call wins, and the point is
// not persisted: after Open nothing is kept until a reader sets it again.
func (w *WAL) KeepFrom(seq uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.keepFrom = seq
}

// OpenCheckpoint opens the newest checkpoint and returns the sequence it
// covers; f is nil when the directory holds none. The caller closes f,
// which stays readable even if a later compaction removes the file.
func (w *WAL) OpenCheckpoint() (seq uint64, f *os.File, err error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if !w.hasCkpt {
		return 0, nil, nil
	}
	f, err = os.Open(checkpointPath(w.opts.Dir, w.ckptSeq))
	return w.ckptSeq, f, err
}

// startSegment creates the active segment whose first record will carry
// seq base; the caller holds mu (or is Open, single-threaded).
func (w *WAL) startSegment(base uint64) error {
	f, err := os.OpenFile(segmentPath(w.opts.Dir, base), os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := syncDir(w.opts.Dir); err != nil {
		f.Close()
		return err
	}
	w.f = f
	w.segBase = base
	w.segCount = 0
	w.segSize = 0
	if w.nextSeq < base {
		w.nextSeq = base
	}
	return nil
}

// scanResult reports what one segment scan found.
type scanResult struct {
	records   uint64
	goodBytes int64 // offset just past the last valid record
	tornBytes int64 // trailing bytes belonging to a torn write
}

// scanSegment walks a segment's records, calling fn (when non-nil) with
// each payload. With sealed set, any framing or checksum defect is
// ErrCorrupt. Otherwise a defect is a torn tail — what a crashed append
// leaves — only if no CRC-valid frame starts anywhere after it; one that
// does means intact records lie behind the defect, and that is
// ErrCorrupt, never truncated away. A zero-filled tail reads as torn in
// one pass: a zero length field bounds no frame.
func scanSegment(path string, sealed bool, fn func(payload []byte) error) (scanResult, error) {
	var res scanResult
	data, err := os.ReadFile(path)
	if err != nil {
		return res, err
	}
	size := int64(len(data))
	for off := int64(0); off < size; {
		end, ok := frameAt(data, off)
		if !ok {
			if sealed {
				return res, fmt.Errorf("%w: %s: defective record at offset %d inside a sealed segment", ErrCorrupt, path, off)
			}
			for next := off + 1; next < size; next++ {
				if _, ok := frameAt(data, next); ok {
					return res, fmt.Errorf("%w: %s: defective record at offset %d with an intact record at offset %d behind it",
						ErrCorrupt, path, off, next)
				}
			}
			res.tornBytes = size - off
			return res, nil
		}
		if fn != nil {
			if err := fn(data[off+headerBytes : end]); err != nil {
				return res, err
			}
		}
		res.records++
		res.goodBytes = end
		off = end
	}
	return res, nil
}

// frameAt reports whether a whole, CRC-valid frame starts at off in data,
// and where it ends. A zero length bounds no frame: crc32c of nothing is
// 0, so zeroes would otherwise verify.
func frameAt(data []byte, off int64) (end int64, ok bool) {
	if int64(len(data))-off < headerBytes {
		return 0, false
	}
	n := int64(binary.LittleEndian.Uint32(data[off:]))
	end = off + headerBytes + n
	if n == 0 || n > MaxRecordBytes || end > int64(len(data)) {
		return 0, false
	}
	return end, crc32.Checksum(data[off+headerBytes:end], crcTable) == binary.LittleEndian.Uint32(data[off+4:])
}

// syncDir fsyncs a directory so entry creations/removals survive power
// loss.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}

// Append frames payload and writes it to the active segment, returning
// the record's sequence number. The record is NOT durable until a Commit
// covering the sequence returns (under SyncAlways) — callers must
// not ack external effects before then.
func (w *WAL) Append(payload []byte) (uint64, error) {
	return w.append1(payload, 0)
}

// AppendAt appends payload asserting it will receive exactly sequence
// seq — the replication apply path, where a standby mirrors the
// primary's sequence space record for record and a gap means records
// were lost in flight. The durability contract is Append's.
func (w *WAL) AppendAt(seq uint64, payload []byte) (uint64, error) {
	if seq == 0 {
		return 0, errors.New("wal: AppendAt requires seq >= 1")
	}
	return w.append1(payload, seq)
}

// append1 is the shared append path; want, when non-zero, asserts the
// sequence the record must receive.
func (w *WAL) append1(payload []byte, want uint64) (uint64, error) {
	if len(payload) == 0 {
		return 0, errors.New("wal: empty payload")
	}
	if len(payload) > MaxRecordBytes {
		return 0, fmt.Errorf("wal: payload %d bytes exceeds limit %d", len(payload), MaxRecordBytes)
	}
	var hdr [headerBytes]byte
	binary.LittleEndian.PutUint32(hdr[:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[4:], crc32.Checksum(payload, crcTable))

	start := time.Now()
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return 0, ErrClosed
	}
	if w.failed != nil {
		err := w.failed
		w.mu.Unlock()
		return 0, err
	}
	if want != 0 && want != w.nextSeq {
		next := w.nextSeq
		w.mu.Unlock()
		return 0, fmt.Errorf("wal: append gap: next sequence is %d, caller asserts %d", next, want)
	}
	if w.segSize >= w.opts.segmentBytes() && w.segCount > 0 {
		if err := w.rotateLocked(); err != nil {
			w.mu.Unlock()
			return 0, err
		}
	}
	// Header and payload go out in one write, built in a buffer reused
	// under mu.
	frame := append(append(w.frame[:0], hdr[:]...), payload...)
	if cap(frame) <= maxFrameBuf {
		w.frame = frame
	}
	if _, err := w.f.Write(frame); err != nil {
		// A short write leaves an unframed tail; roll the file back to
		// the last good offset so later appends stay parseable. If even
		// that fails the log is poisoned and every append must error.
		if terr := w.f.Truncate(w.segSize); terr != nil {
			w.failed = fmt.Errorf("wal: append failed (%v) and truncate-back failed: %w", err, terr)
		}
		w.mu.Unlock()
		return 0, fmt.Errorf("wal: append: %w", err)
	}
	seq := w.nextSeq
	w.nextSeq++
	w.segCount++
	w.segSize += int64(len(frame))
	w.appended += int64(len(frame))
	if w.firstSeq == 0 {
		w.firstSeq = seq
	}
	if w.tailWait != nil {
		close(w.tailWait)
		w.tailWait = nil
	}
	w.mu.Unlock()

	w.m.appends.Inc()
	w.m.appendBytes.Add(uint64(len(frame)))
	w.m.appendSeconds.Observe(time.Since(start).Seconds())
	return seq, nil
}

// Commit blocks until the record with sequence seq is durable under the
// configured policy (a no-op for SyncNever). An error means durability
// could not be established and the caller must not ack.
func (w *WAL) Commit(seq uint64) error {
	if w.opts.Policy == SyncNever {
		return nil
	}
	return w.syncTo(seq)
}

// syncTo is group commit: the first waiter becomes the flush leader and
// fsyncs on behalf of everyone who appended before it. A commit arriving
// while that fsync runs waits for it, and the first such commit then
// leads the next fsync at once, covering every append made meanwhile.
func (w *WAL) syncTo(seq uint64) error {
	w.flushMu.Lock()
	for {
		if w.syncErr != nil {
			err := w.syncErr
			w.flushMu.Unlock()
			return err
		}
		if w.syncedSeq >= seq {
			w.flushMu.Unlock()
			return nil
		}
		if !w.flushing {
			break
		}
		w.flushCond.Wait()
	}
	w.flushing = true
	w.flushMu.Unlock()

	covered, err := w.fsyncActive()

	w.flushMu.Lock()
	w.flushing = false
	if err != nil {
		w.syncErr = err
	} else if covered > w.syncedSeq {
		w.syncedSeq = covered
	}
	w.flushCond.Broadcast()
	w.flushMu.Unlock()
	return err
}

// fsyncActive syncs the active segment and returns the highest sequence
// the sync covers. Racing a rotation is benign: rotation itself fsyncs
// the sealed file before reopening, so if the file we held was swapped
// out underneath us the covered records are durable regardless.
func (w *WAL) fsyncActive() (uint64, error) {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return 0, ErrClosed
	}
	f := w.f
	covered := w.nextSeq - 1
	w.mu.Unlock()

	start := time.Now()
	err := fsyncFile(f)
	w.m.flushSeconds.Observe(time.Since(start).Seconds())
	if err != nil {
		w.mu.Lock()
		rotated := w.f != f
		w.mu.Unlock()
		if rotated {
			// The handle was sealed (fsynced) and closed by a rotation
			// after we captured it; everything we meant to cover is
			// already durable.
			w.m.fsyncs.Inc()
			return covered, nil
		}
		w.m.fsyncErrors.Inc()
		return 0, fmt.Errorf("wal: fsync: %w", err)
	}
	w.m.fsyncs.Inc()
	return covered, nil
}

// rotateLocked seals the active segment (fsync + close) and starts the
// next one; the caller holds mu.
func (w *WAL) rotateLocked() error {
	if err := w.f.Sync(); err != nil {
		w.m.fsyncErrors.Inc()
		return fmt.Errorf("wal: sealing segment: %w", err)
	}
	w.m.fsyncs.Inc()
	if err := w.f.Close(); err != nil {
		return err
	}
	w.sealed = append(w.sealed, segment{base: w.segBase, count: w.segCount, path: segmentPath(w.opts.Dir, w.segBase)})
	sealedThrough := w.nextSeq - 1
	if err := w.startSegment(w.nextSeq); err != nil {
		w.failed = fmt.Errorf("wal: rotate: %w", err)
		return w.failed
	}
	// Everything in the sealed file is on stable storage now.
	w.flushMu.Lock()
	if sealedThrough > w.syncedSeq {
		w.syncedSeq = sealedThrough
	}
	w.flushCond.Broadcast()
	w.flushMu.Unlock()
	w.m.segments.Set(float64(len(w.sealed) + 1))
	w.m.rotations.Inc()
	return nil
}

// Replay streams every record on disk, oldest first, to fn with its
// sequence number. Defects in sealed segments, or interior defects in
// the active one, return ErrCorrupt; call Replay before concurrent
// appends start (boot-time recovery).
func (w *WAL) Replay(fn func(seq uint64, payload []byte) error) error {
	w.mu.Lock()
	segs := w.segmentsLocked()
	w.mu.Unlock()
	n := uint64(0)
	err := scanFrom(segs, 0, func(seq uint64, payload []byte) error {
		n++
		return fn(seq, payload)
	})
	w.m.replayed.Add(n)
	return err
}

// segmentsLocked copies the segment list, the active segment last; the
// caller holds mu.
func (w *WAL) segmentsLocked() []segment {
	segs := append([]segment(nil), w.sealed...)
	return append(segs, segment{base: w.segBase, count: w.segCount, path: segmentPath(w.opts.Dir, w.segBase)})
}

// scanFrom streams the records of segs with sequence >= from to fn, in
// order; the last segment is the active one, whose torn tail is not
// returned. A sealed segment off its indexed record count is ErrCorrupt.
func scanFrom(segs []segment, from uint64, fn func(seq uint64, payload []byte) error) error {
	for i, s := range segs {
		sealed := i < len(segs)-1
		if sealed && s.base+s.count <= from {
			continue
		}
		seq := s.base
		res, err := scanSegment(s.path, sealed, func(payload []byte) error {
			seq++
			if seq <= from {
				return nil
			}
			return fn(seq-1, payload)
		})
		if err != nil {
			return err
		}
		if sealed && res.records != s.count {
			return fmt.Errorf("%w: segment %s holds %d records, expected %d from the segment index",
				ErrCorrupt, s.path, res.records, s.count)
		}
	}
	return nil
}

// FirstSeq returns the oldest sequence still on disk, 0 when the log is
// empty.
func (w *WAL) FirstSeq() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.firstSeq
}

// LastSeq returns the newest appended sequence — the WAL head — or
// base-1 when nothing was ever appended (0 on a fresh log).
func (w *WAL) LastSeq() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.nextSeq - 1
}

// Close flushes and closes the log. Further appends return ErrClosed.
func (w *WAL) Close() error {
	w.mu.Lock()
	if w.closed {
		w.mu.Unlock()
		return ErrClosed
	}
	w.closed = true
	if w.tailWait != nil {
		close(w.tailWait)
		w.tailWait = nil
	}
	// Seal outside the lock: once closed is set every other path returns
	// ErrClosed before touching the file, so holding mu across the final
	// fsync would only stall those callers on a disk wait.
	f, dirty := w.f, w.segCount > 0
	w.mu.Unlock()

	var err error
	if dirty {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	w.flushMu.Lock()
	if w.syncErr == nil {
		w.syncErr = ErrClosed
	}
	w.flushCond.Broadcast()
	w.flushMu.Unlock()
	return err
}
