// Replication support: the read side of WAL shipping. A primary serves
// its log to a standby as (seq, payload) records resumable from any
// sequence number (ReadFrom + WaitFor), the standby mirrors the
// primary's sequence space into its own log (AppendAt, AlignTo), and a
// promoting standby drains the unshipped tail of a dead primary's log
// directly from its directory (ScanDir) so that nothing a client was
// ever acked can be lost to a failover.
package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"time"
)

// ErrCompacted reports a ReadFrom/ScanDir start sequence that has been
// compacted away: the caller's resume point predates the oldest record
// still on disk, so it must start from the checkpoint (OpenCheckpoint)
// instead of tailing the log.
var ErrCompacted = errors.New("wal: sequence compacted away")

// errStopRead is the internal sentinel a ReadFrom scan callback returns
// to stop early once the batch caps are met; never escapes the package.
var errStopRead = errors.New("wal: stop read")

// Record is one shipped log record: the payload plus the sequence
// number it holds in the primary's log.
type Record struct {
	Seq     uint64
	Payload []byte
}

// ReadFrom returns records starting at sequence from, bounded by
// maxRecords and maxBytes (payload plus framing; at least one record is
// returned when any is available, whatever its size). An empty, non-nil
// result never occurs: a from past the head returns (nil, nil) — poll
// again after WaitFor — and a from below the oldest on-disk sequence
// returns ErrCompacted, telling a follower to start from the
// checkpoint. Payloads are fresh copies, safe to retain.
//
// ReadFrom is safe against concurrent appends: it scans a point-in-time
// copy of the segment list and tolerates a mid-write tail in the active
// segment the way Open does (the torn suffix is simply not returned
// yet).
func (w *WAL) ReadFrom(from uint64, maxRecords int, maxBytes int64) ([]Record, error) {
	if from == 0 {
		return nil, errors.New("wal: ReadFrom requires from >= 1")
	}
	if maxRecords <= 0 {
		maxRecords = 1024
	}
	if maxBytes <= 0 {
		maxBytes = 4 << 20
	}
	w.mu.Lock()
	closed, first, head, segs := w.closed, w.firstSeq, w.nextSeq-1, w.segmentsLocked()
	w.mu.Unlock()
	switch {
	case closed:
		return nil, ErrClosed
	case from > head:
		return nil, nil
	case first == 0 || from < first:
		return nil, fmt.Errorf("%w: want seq %d, oldest on disk is %d", ErrCompacted, from, first)
	}
	var out []Record
	var outBytes int64
	err := scanFrom(segs, from, func(seq uint64, payload []byte) error {
		if len(out) >= maxRecords || (len(out) > 0 && outBytes+int64(len(payload))+headerBytes > maxBytes) {
			return errStopRead
		}
		out = append(out, Record{Seq: seq, Payload: bytes.Clone(payload)})
		outBytes += int64(len(payload)) + headerBytes
		return nil
	})
	if err != nil && !errors.Is(err, errStopRead) {
		return nil, err
	}
	return out, nil
}

// WaitFor blocks until the log head reaches at least seq, the timeout
// elapses, or the log closes, and returns the head it observed last —
// the long-poll primitive behind tail-following replication. It costs
// the append path nothing until a waiter is actually parked.
func (w *WAL) WaitFor(seq uint64, timeout time.Duration) uint64 {
	deadline := time.NewTimer(timeout)
	defer deadline.Stop()
	for {
		w.mu.Lock()
		if w.closed {
			w.mu.Unlock()
			return 0
		}
		head := w.nextSeq - 1
		if head >= seq {
			w.mu.Unlock()
			return head
		}
		if w.tailWait == nil {
			w.tailWait = make(chan struct{})
		}
		ch := w.tailWait
		w.mu.Unlock()
		select {
		case <-ch:
		case <-deadline.C:
			return head
		}
	}
}

// SizeBytes returns the frame bytes appended over the log's life within
// this process, seeded with what was on disk at Open. Monotonic — the
// byte analogue of LastSeq, which replication lag-in-bytes is measured
// against.
func (w *WAL) SizeBytes() int64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.appended
}

// AlignTo repositions an empty, never-appended log so that the next
// append receives seq+1: the bootstrap step for a standby that just
// installed a primary checkpoint covering history through seq and will
// mirror everything after it via AppendAt. A log that holds (or within
// this process ever held) records refuses to move — realigning live
// history is how silent divergence starts.
func (w *WAL) AlignTo(seq uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return ErrClosed
	}
	if w.failed != nil {
		return w.failed
	}
	if w.firstSeq != 0 || len(w.sealed) > 0 || w.segCount > 0 || w.nextSeq != w.segBase {
		return fmt.Errorf("wal: AlignTo(%d): log is not empty (next seq %d)", seq, w.nextSeq)
	}
	if seq+1 == w.segBase {
		return nil
	}
	old := segmentPath(w.opts.Dir, w.segBase)
	if err := w.f.Close(); err != nil {
		return err
	}
	if err := os.Remove(old); err != nil {
		return err
	}
	if err := w.startSegment(seq + 1); err != nil {
		w.failed = fmt.Errorf("wal: align: %w", err)
		return w.failed
	}
	w.nextSeq = seq + 1
	w.flushMu.Lock()
	w.syncedSeq = seq
	w.flushMu.Unlock()
	return nil
}

// ScanDir reads a WAL directory no live process owns — the
// promotion-time salvage path, where a standby drains the unapplied
// tail of a dead primary's log straight from (shared) disk before
// taking over. Records with sequence >= from stream to fn in order; a
// torn tail on the newest segment is tolerated (a torn record was never
// committed, hence never acked), while interior defects and sealed-
// segment damage are ErrCorrupt. When from predates the oldest record
// present, ErrCompacted is returned: the caller is missing history this
// directory cannot supply. The directory is only read, never modified.
func ScanDir(dir string, from uint64, fn func(seq uint64, payload []byte) error) error {
	if from == 0 {
		return errors.New("wal: ScanDir requires from >= 1")
	}
	segs, _, err := listDir(dir, false)
	if err != nil || len(segs) == 0 {
		return err
	}
	if from < segs[0].base {
		return fmt.Errorf("%w: want seq %d, oldest in %s is %d", ErrCompacted, from, dir, segs[0].base)
	}
	return scanFrom(segs, from, fn)
}
