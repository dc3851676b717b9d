package main

import (
	"errors"
	"math"
	"sync"
	"time"

	"repro/internal/stats"
)

// doFunc sends request k on connection conn and returns how many units
// (reports, participations) the daemon finally acked for it. It returns
// errExhausted when the workload has no input left for request k.
type doFunc func(conn, k int) (units int, err error)

var errExhausted = errors.New("bench: workload input exhausted")

// satStats is the outcome of one closed-loop phase.
type satStats struct {
	// SliceRates are units per second in each completed time slice.
	SliceRates []float64
	Ops, Units int
	Elapsed    time.Duration
	Truncated  bool // input ran out before the phase's time did
	Err        error
}

// closedLoop keeps one request outstanding per connection for dur and
// counts what each of the phase's equal time slices completed, so the
// result shows how even the rate was and not only what it came to.
func closedLoop(conns int, dur time.Duration, slices int, do doFunc) satStats {
	var (
		mu         sync.Mutex
		next       int
		sliceUnits = make([]int, slices)
		st         satStats
		wg         sync.WaitGroup
	)
	sliceDur := dur / time.Duration(slices)
	t0 := time.Now()
	end := t0.Add(dur)
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(conn int) {
			defer wg.Done()
			for {
				mu.Lock()
				if st.Err != nil || st.Truncated || !time.Now().Before(end) {
					mu.Unlock()
					return
				}
				k := next
				next++
				mu.Unlock()
				units, err := do(conn, k)
				done := time.Now()
				mu.Lock()
				switch {
				case errors.Is(err, errExhausted):
					st.Truncated = true
				case err != nil:
					st.Err = err
				default:
					st.Ops++
					st.Units += units
					if i := int(done.Sub(t0) / sliceDur); i < slices {
						sliceUnits[i] += units
					}
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	st.Elapsed = time.Since(t0)
	full := slices
	if st.Truncated {
		full = int(st.Elapsed / sliceDur)
	}
	for i := 0; i < full && i < slices; i++ {
		st.SliceRates = append(st.SliceRates, float64(sliceUnits[i])/sliceDur.Seconds())
	}
	return st
}

// openStats is the outcome of one open-loop phase.
type openStats struct {
	// AckMs is each request's latency from the time it was due, so a
	// request that waited behind a stalled one carries that wait.
	AckMs []float64
	// LateMs is how long after its due time each request was sent.
	LateMs      []float64
	Units       int
	Backlog     int // requests due before the phase ended and never sent
	MaxInFlight int
	Err         error
}

// openLoop sends request k at t0 + k/rate whatever the target does: each
// due request goes to the first free connection, at most conns are in
// flight, and only requests due before the phase's end are sent.
func openLoop(conns int, rate float64, dur time.Duration, do doFunc) openStats {
	var (
		mu       sync.Mutex
		next     int
		inFlight int
		st       openStats
		wg       sync.WaitGroup
	)
	interval := time.Duration(float64(time.Second) / rate)
	planned := int((dur + interval - 1) / interval)
	t0 := time.Now()
	end := t0.Add(dur)
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(conn int) {
			defer wg.Done()
			for {
				mu.Lock()
				if st.Err != nil || next >= planned || !time.Now().Before(end) {
					mu.Unlock()
					return
				}
				k := next
				next++
				mu.Unlock()
				due := t0.Add(time.Duration(k) * interval)
				if wait := time.Until(due); wait > 0 {
					time.Sleep(wait)
				}
				sent := time.Now()
				mu.Lock()
				inFlight++
				st.MaxInFlight = max(st.MaxInFlight, inFlight)
				mu.Unlock()
				units, err := do(conn, k)
				done := time.Now()
				mu.Lock()
				inFlight--
				if err != nil {
					st.Err = err
				} else {
					st.Units += units
					st.AckMs = append(st.AckMs, ms(done.Sub(due)))
					st.LateMs = append(st.LateMs, ms(sent.Sub(due)))
				}
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	st.Backlog = planned - next
	return st
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// quantile is stats.Percentile, and NaN where that would panic on an
// empty sample: a phase that completed nothing must surface as a metric
// without samples, not as a crash.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return stats.Percentile(xs, q)
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func minOf(xs []float64) float64 { return quantile(xs, 0) }

// mean is stats.Mean, and NaN for an empty sample.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	return stats.Mean(xs)
}

// countOver returns how many samples exceed limit.
func countOver(xs []float64, limit float64) int {
	n := 0
	for _, x := range xs {
		if x > limit {
			n++
		}
	}
	return n
}
