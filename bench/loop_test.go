package main

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// One connection, one 200 ms stall: every request that fell due during
// the stall must carry the rest of it in its latency, because latency
// runs from the due time and not from when the connection came free.
func TestOpenLoopChargesStallToQueuedRequests(t *testing.T) {
	const (
		rate    = 200.0 // one request every 5 ms
		stallAt = 10
		stall   = 200 * time.Millisecond
	)
	st := openLoop(1, rate, 600*time.Millisecond, func(_, k int) (int, error) {
		if k == stallAt {
			time.Sleep(stall)
		}
		return 1, nil
	})
	if st.Err != nil {
		t.Fatal(st.Err)
	}
	if st.MaxInFlight != 1 {
		t.Fatalf("max in flight = %d on one connection", st.MaxInFlight)
	}
	if len(st.AckMs) < stallAt+30 {
		t.Fatalf("only %d requests completed", len(st.AckMs))
	}
	// With one connection requests complete in order, so AckMs[k] is
	// request k. Request k > stallAt fell due (k-stallAt)*5 ms into the
	// stall and cannot have been acked before the stall ended.
	for k := stallAt; k < stallAt+30; k++ {
		want := ms(stall) - float64(k-stallAt)*5
		if st.AckMs[k] < want-1 {
			t.Errorf("request %d: latency %.1f ms hides the stall, want >= %.1f", k, st.AckMs[k], want)
		}
	}
	if before := st.AckMs[stallAt-1]; before > 50 {
		t.Errorf("request before the stall took %.1f ms", before)
	}
	// The generator must own up to having sent those requests late.
	if late := quantile(st.LateMs, 1); late < 150 {
		t.Errorf("worst lateness %.1f ms, want the stall to show", late)
	}
	if st.Units != len(st.AckMs) {
		t.Errorf("units = %d, acks = %d", st.Units, len(st.AckMs))
	}
}

// A target slower than the schedule: never more requests in flight than
// connections, and what was due but never sent is reported as backlog.
func TestOpenLoopBoundsInFlightAndReportsBacklog(t *testing.T) {
	const conns = 2
	var now, worst atomic.Int32
	st := openLoop(conns, 400, 300*time.Millisecond, func(_, _ int) (int, error) {
		n := now.Add(1)
		for {
			w := worst.Load()
			if n <= w || worst.CompareAndSwap(w, n) {
				break
			}
		}
		time.Sleep(20 * time.Millisecond) // 2 connections carry 100/s of the 400/s due
		now.Add(-1)
		return 1, nil
	})
	if st.Err != nil {
		t.Fatal(st.Err)
	}
	if worst.Load() > conns || st.MaxInFlight > conns {
		t.Fatalf("%d requests in flight (scheduler saw %d) on %d connections", worst.Load(), st.MaxInFlight, conns)
	}
	sent := len(st.AckMs)
	if st.Backlog <= 0 || sent+st.Backlog != 120 {
		t.Fatalf("sent %d, backlog %d, want them to add up to the 120 due", sent, st.Backlog)
	}
	// The last requests sent were due long before they went out.
	if last := st.AckMs[sent-1]; last < 100 {
		t.Errorf("last request's latency %.1f ms does not include its queueing", last)
	}
}

func TestClosedLoopSlicesAndTruncation(t *testing.T) {
	var mu sync.Mutex
	calls := 0
	st := closedLoop(2, 100*time.Millisecond, 5, func(_, _ int) (int, error) {
		mu.Lock()
		calls++
		mu.Unlock()
		time.Sleep(time.Millisecond)
		return 3, nil
	})
	if st.Err != nil || st.Truncated {
		t.Fatalf("err=%v truncated=%v", st.Err, st.Truncated)
	}
	if len(st.SliceRates) != 5 || st.Ops != calls || st.Units != 3*calls {
		t.Fatalf("slices=%d ops=%d units=%d calls=%d", len(st.SliceRates), st.Ops, st.Units, calls)
	}
	for i, r := range st.SliceRates {
		if r <= 0 {
			t.Errorf("slice %d rate %v", i, r)
		}
	}

	// Input that runs out ends the phase early and drops the unfinished slice.
	left := 30
	st = closedLoop(1, 500*time.Millisecond, 5, func(_, _ int) (int, error) {
		if left == 0 {
			return 0, errExhausted
		}
		left--
		time.Sleep(5 * time.Millisecond)
		return 1, nil
	})
	if !st.Truncated || st.Err != nil || st.Ops != 30 {
		t.Fatalf("truncated=%v err=%v ops=%d", st.Truncated, st.Err, st.Ops)
	}
	if n := len(st.SliceRates); n < 1 || n > 2 {
		t.Fatalf("%d complete slices from 150 ms of a 500 ms phase", n)
	}
}
