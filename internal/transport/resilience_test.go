package transport

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/frand"
	"repro/internal/transport/wire"
)

// --- RetryPolicy unit tests -------------------------------------------------

func TestRetryBackoffDoublesAndCaps(t *testing.T) {
	rp := &RetryPolicy{BaseDelay: 100 * time.Millisecond, MaxDelay: 500 * time.Millisecond}
	for i, want := range []time.Duration{100, 200, 400, 500, 500} {
		if got := rp.Backoff(i + 1); got != want*time.Millisecond {
			t.Errorf("Backoff(%d) = %v, want %v", i+1, got, want*time.Millisecond)
		}
	}
	var nilPolicy *RetryPolicy
	if got := nilPolicy.Backoff(3); got != 0 {
		t.Errorf("nil policy Backoff = %v", got)
	}
}

func TestRetryBackoffJitterRange(t *testing.T) {
	rp := &RetryPolicy{BaseDelay: time.Second, MaxDelay: time.Second, Jitter: 0.5, Seed: 9}
	for i := 0; i < 100; i++ {
		d := rp.Backoff(1)
		if d < 500*time.Millisecond || d > time.Second {
			t.Fatalf("jittered backoff %v outside [0.5s, 1s]", d)
		}
	}
}

func TestRetryDoRetriesOnlyTransientFailures(t *testing.T) {
	noSleep := func(context.Context, time.Duration) error { return nil }
	transient := &StatusError{Status: 503, Code: wire.CodeUnavailable, Msg: "chaos"}
	fatal := &StatusError{Status: 404, Code: wire.CodeNotFound, Msg: "gone"}

	rp := &RetryPolicy{MaxAttempts: 4, BaseDelay: time.Millisecond, sleep: noSleep}
	calls := 0
	err := rp.Do(context.Background(), func(context.Context) error { calls++; return transient })
	if !errors.Is(err, transient) || calls != 4 {
		t.Errorf("transient: %d calls, err %v; want 4 calls", calls, err)
	}

	calls = 0
	err = rp.Do(context.Background(), func(context.Context) error { calls++; return fatal })
	if !errors.Is(err, fatal) || calls != 1 {
		t.Errorf("fatal: %d calls, err %v; want 1 call", calls, err)
	}

	calls = 0
	err = rp.Do(context.Background(), func(context.Context) error {
		calls++
		if calls < 3 {
			return transient
		}
		return nil
	})
	if err != nil || calls != 3 {
		t.Errorf("recovery: %d calls, err %v; want success on call 3", calls, err)
	}
}

func TestRetryDoHonorsCancellation(t *testing.T) {
	rp := &RetryPolicy{MaxAttempts: 100, BaseDelay: time.Hour}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	calls := 0
	err := rp.Do(ctx, func(context.Context) error { calls++; return fmt.Errorf("boom") })
	if err == nil || calls != 1 {
		t.Errorf("cancelled: %d calls, err %v; want 1 call then stop", calls, err)
	}
}

func TestNilRetryPolicySingleAttempt(t *testing.T) {
	var rp *RetryPolicy
	calls := 0
	err := rp.Do(context.Background(), func(context.Context) error { calls++; return fmt.Errorf("x") })
	if err == nil || calls != 1 {
		t.Errorf("nil policy: %d calls, err %v", calls, err)
	}
}

func TestRetryableClassification(t *testing.T) {
	cases := []struct {
		err  error
		want bool
	}{
		{nil, false},
		{context.Canceled, false},
		{fmt.Errorf("dial tcp: connection refused"), true},
		{&StatusError{Status: 503}, true},
		{&StatusError{Status: 429}, true},
		{&StatusError{Status: 500, Code: wire.CodeInternal}, true},
		{&StatusError{Status: 404, Code: wire.CodeNotFound}, false},
		{&StatusError{Status: 409, Code: wire.CodeFinalized}, false},
		{&StatusError{Status: 410, Code: wire.CodeExpired}, false},
		{&StatusError{Status: 400, Code: wire.CodeBadRequest}, false},
	}
	for _, c := range cases {
		if got := Retryable(c.err); got != c.want {
			t.Errorf("Retryable(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}

// TestParticipantRetriesThroughFlakyServer fronts the aggregation server
// with a wrapper that 503s the first attempts of every path; only clients
// with a retry policy get through.
func TestParticipantRetriesThroughFlakyServer(t *testing.T) {
	inner := NewServer(1)
	var calls atomic.Int64
	flaky := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1)%3 != 0 { // two failures, then one success, repeating
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, `{"error":"flaky","code":"unavailable"}`)
			return
		}
		inner.ServeHTTP(w, r)
	})
	srv := httptest.NewServer(flaky)
	defer srv.Close()
	ctx := context.Background()

	rp := &RetryPolicy{MaxAttempts: 5, BaseDelay: time.Millisecond, MaxDelay: 5 * time.Millisecond, Seed: 3}
	admin := &Admin{BaseURL: srv.URL, Retry: rp}
	id, err := admin.CreateSession(ctx, wire.SessionConfig{Feature: "f", Bits: 4, Gamma: 1})
	if err != nil {
		t.Fatalf("create through flaky server: %v", err)
	}
	p := &Participant{BaseURL: srv.URL, ClientID: "c", RNG: frand.New(1), Retry: rp}
	if err := p.Participate(ctx, id, 9); err != nil {
		t.Fatalf("participate through flaky server: %v", err)
	}
	// Without a policy, the next 503 is terminal and typed.
	bare := &Participant{BaseURL: srv.URL, ClientID: "bare", RNG: frand.New(2)}
	for {
		_, err := bare.FetchTask(ctx, id)
		if err == nil {
			continue // happened to hit the healthy request in the cycle
		}
		var se *StatusError
		if !errors.As(err, &se) || se.Status != http.StatusServiceUnavailable || se.Code != wire.CodeUnavailable {
			t.Fatalf("unretried failure = %v, want typed 503/unavailable", err)
		}
		break
	}
}

// --- machine-readable error codes -------------------------------------------

func TestStatusErrorCodes(t *testing.T) {
	srv, admin := newTestStack(t)
	ctx := context.Background()

	wantCode := func(err error, status int, code wire.Code) {
		t.Helper()
		var se *StatusError
		if !errors.As(err, &se) {
			t.Fatalf("error %v (%T) is not a *StatusError", err, err)
		}
		if se.Status != status || se.Code != code {
			t.Fatalf("status/code = %d/%q, want %d/%q", se.Status, se.Code, status, code)
		}
	}

	_, err := admin.Result(ctx, "missing")
	wantCode(err, http.StatusNotFound, wire.CodeNotFound)

	_, err = admin.CreateSession(ctx, wire.SessionConfig{Feature: "f", Bits: 0})
	wantCode(err, http.StatusBadRequest, wire.CodeBadRequest)

	id, err := admin.CreateSession(ctx, wire.SessionConfig{Feature: "f", Bits: 4, Gamma: 1, MinCohort: 5})
	if err != nil {
		t.Fatal(err)
	}
	_, err = admin.Finalize(ctx, id)
	wantCode(err, http.StatusConflict, wire.CodeCohortTooSmall)

	id2, err := admin.CreateSession(ctx, wire.SessionConfig{Feature: "f", Bits: 4, Gamma: 1})
	if err != nil {
		t.Fatal(err)
	}
	p := &Participant{BaseURL: srv.URL, ClientID: "a", RNG: frand.New(1)}
	if err := p.Participate(ctx, id2, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := admin.Finalize(ctx, id2); err != nil {
		t.Fatal(err)
	}
	_, err = p.FetchTask(ctx, id2)
	wantCode(err, http.StatusConflict, wire.CodeFinalized)
}

// --- session deadlines and TTL GC -------------------------------------------

// fakeClock is a manually advanced clock safe for concurrent reads.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1_700_000_000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func newClockedStack(t *testing.T) (*Server, *httptest.Server, *Admin, *fakeClock) {
	t.Helper()
	clock := newFakeClock()
	s := NewServer(1)
	s.Now = clock.Now
	srv := httptest.NewServer(s)
	t.Cleanup(srv.Close)
	return s, srv, &Admin{BaseURL: srv.URL}, clock
}

func TestSessionExpiresAtDeadline(t *testing.T) {
	s, srv, admin, clock := newClockedStack(t)
	ctx := context.Background()
	id, err := admin.CreateSession(ctx, wire.SessionConfig{Feature: "f", Bits: 4, Gamma: 1, TTLSeconds: 60})
	if err != nil {
		t.Fatal(err)
	}
	p := &Participant{BaseURL: srv.URL, ClientID: "early", RNG: frand.New(1)}
	if err := p.Participate(ctx, id, 5); err != nil {
		t.Fatal(err)
	}
	clock.Advance(61 * time.Second)
	s.Sweep()

	late := &Participant{BaseURL: srv.URL, ClientID: "late", RNG: frand.New(2)}
	_, err = late.FetchTask(ctx, id)
	var se *StatusError
	if !errors.As(err, &se) || se.Status != http.StatusGone || se.Code != wire.CodeExpired {
		t.Fatalf("task on expired session = %v, want typed 410/expired", err)
	}
	if _, err := admin.Finalize(ctx, id); !errors.As(err, &se) || se.Code != wire.CodeExpired {
		t.Fatalf("finalize on expired session = %v, want expired", err)
	}
	// An expired session is terminal, not retryable.
	if Retryable(err) {
		t.Fatal("expired classified as retryable")
	}
}

func TestSessionAutoFinalizesAtDeadline(t *testing.T) {
	s, srv, admin, clock := newClockedStack(t)
	ctx := context.Background()
	id, err := admin.CreateSession(ctx, wire.SessionConfig{
		Feature: "f", Bits: 4, Gamma: 1, TTLSeconds: 60, AutoFinalize: true, MinCohort: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		p := &Participant{BaseURL: srv.URL, ClientID: fmt.Sprintf("c%d", i), RNG: frand.New(uint64(i))}
		if err := p.Participate(ctx, id, uint64(i)); err != nil {
			t.Fatal(err)
		}
	}
	clock.Advance(61 * time.Second)
	s.Sweep()

	res, err := admin.Result(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Done || res.Reports != 5 {
		t.Fatalf("auto-finalized result = %+v, want Done with 5 reports", res)
	}
	// Finalize stays idempotent after the GC finalized it.
	if res, err = admin.Finalize(ctx, id); err != nil || !res.Done {
		t.Fatalf("finalize after auto-finalize: %v %+v", err, res)
	}
}

func TestAutoFinalizeBelowCohortExpires(t *testing.T) {
	s, srv, admin, clock := newClockedStack(t)
	ctx := context.Background()
	id, err := admin.CreateSession(ctx, wire.SessionConfig{
		Feature: "f", Bits: 4, Gamma: 1, TTLSeconds: 60, AutoFinalize: true, MinCohort: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	p := &Participant{BaseURL: srv.URL, ClientID: "only", RNG: frand.New(1)}
	if err := p.Participate(ctx, id, 5); err != nil {
		t.Fatal(err)
	}
	clock.Advance(61 * time.Second)
	s.Sweep()
	var se *StatusError
	if _, err := admin.Finalize(ctx, id); !errors.As(err, &se) || se.Code != wire.CodeExpired {
		t.Fatalf("under-cohort auto-finalize should expire, got %v", err)
	}
	_ = srv
}

func TestRetentionDropsEndedSessions(t *testing.T) {
	s, _, admin, clock := newClockedStack(t)
	s.Retention = time.Minute
	ctx := context.Background()
	id, err := admin.CreateSession(ctx, wire.SessionConfig{Feature: "f", Bits: 4, Gamma: 1, TTLSeconds: 10})
	if err != nil {
		t.Fatal(err)
	}
	clock.Advance(11 * time.Second)
	s.Sweep() // expires
	clock.Advance(2 * time.Minute)
	s.Sweep() // retention drops it
	var se *StatusError
	if _, err := admin.Result(ctx, id); !errors.As(err, &se) || se.Code != wire.CodeNotFound {
		t.Fatalf("retained session answered %v, want not_found after GC", err)
	}
}

// --- snapshot / restore -----------------------------------------------------

func TestSnapshotRoundTrip(t *testing.T) {
	ctx := context.Background()
	s1 := NewServer(1)
	srv1 := httptest.NewServer(s1)
	admin1 := &Admin{BaseURL: srv1.URL}

	// A live bit session with reports and assignments in flight.
	live, err := admin1.CreateSession(ctx, wire.SessionConfig{Feature: "live", Bits: 6, Gamma: 1, Epsilon: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		p := &Participant{BaseURL: srv1.URL, ClientID: fmt.Sprintf("c%d", i), RNG: frand.New(uint64(i))}
		if err := p.Participate(ctx, live, uint64(i*2)); err != nil {
			t.Fatal(err)
		}
	}
	// A client with an assignment but no report yet.
	pending := &Participant{BaseURL: srv1.URL, ClientID: "pending", RNG: frand.New(99)}
	pendingTask, err := pending.FetchTask(ctx, live)
	if err != nil {
		t.Fatal(err)
	}
	// A finalized threshold session.
	thr, err := admin1.CreateSession(ctx, wire.SessionConfig{
		Feature: "thr", Bits: 6, Thresholds: []uint64{8, 16, 32},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 12; i++ {
		p := &Participant{BaseURL: srv1.URL, ClientID: fmt.Sprintf("t%d", i), RNG: frand.New(uint64(i))}
		if err := p.Participate(ctx, thr, uint64(i*5)); err != nil {
			t.Fatal(err)
		}
	}
	thrRes, err := admin1.Finalize(ctx, thr)
	if err != nil {
		t.Fatal(err)
	}
	srv1.Close()

	// Save to disk and restore into a fresh server, as fednumd does.
	path := t.TempDir() + "/snap.json"
	if err := s1.SaveSnapshot(path); err != nil {
		t.Fatal(err)
	}
	s2 := NewServer(2)
	if err := s2.LoadSnapshot(path); err != nil {
		t.Fatal(err)
	}
	srv2 := httptest.NewServer(s2)
	defer srv2.Close()
	admin2 := &Admin{BaseURL: srv2.URL}

	// The pending client keeps its assignment across the restart.
	pending2 := &Participant{BaseURL: srv2.URL, ClientID: "pending", RNG: frand.New(99)}
	task2, err := pending2.FetchTask(ctx, live)
	if err != nil {
		t.Fatal(err)
	}
	if task2.Bit != pendingTask.Bit || task2.Epsilon != pendingTask.Epsilon {
		t.Fatalf("assignment changed across restart: %+v vs %+v", task2, pendingTask)
	}
	if err := pending2.Participate(ctx, live, 40); err != nil {
		t.Fatal(err)
	}
	// A pre-restart reporter retransmitting is still a duplicate.
	dup := &Participant{BaseURL: srv2.URL, ClientID: "c3", RNG: frand.New(3)}
	if err := dup.Participate(ctx, live, 6); err != nil {
		t.Fatalf("pre-restart client retransmitting: %v", err)
	}
	res, err := admin2.Finalize(ctx, live)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reports != 31 { // 30 before restart + pending, duplicate excluded
		t.Fatalf("reports after restart = %d, want 31", res.Reports)
	}
	// The finalized threshold session restored its result verbatim.
	thrRes2, err := admin2.Result(ctx, thr)
	if err != nil {
		t.Fatal(err)
	}
	if !thrRes2.Done || len(thrRes2.TailProbs) != len(thrRes.TailProbs) {
		t.Fatalf("threshold result lost in restart: %+v", thrRes2)
	}
	for i := range thrRes.TailProbs {
		if thrRes.TailProbs[i] != thrRes2.TailProbs[i] {
			t.Fatalf("tail probs drifted: %v vs %v", thrRes.TailProbs, thrRes2.TailProbs)
		}
	}
}

func TestLoadSnapshotMissingFileIsFirstBoot(t *testing.T) {
	s := NewServer(1)
	if err := s.LoadSnapshot(t.TempDir() + "/nope.json"); err != nil {
		t.Fatalf("missing snapshot file: %v", err)
	}
}

// --- concurrency: swarm and dropout -----------------------------------------

// TestSwarmConcurrentOps hammers one session with participants, result
// polls, health checks and racing finalizes at once; every accepted report
// must be in the final cohort exactly once and every failure must be a
// typed protocol rejection, not a race artifact. Run under -race in CI.
func TestSwarmConcurrentOps(t *testing.T) {
	srv, admin := newTestStack(t)
	ctx := context.Background()
	id, err := admin.CreateSession(ctx, wire.SessionConfig{Feature: "swarm", Bits: 8, Gamma: 1})
	if err != nil {
		t.Fatal(err)
	}
	const clients = 150
	var wg sync.WaitGroup
	var accepted atomic.Int64
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p := &Participant{BaseURL: srv.URL, ClientID: fmt.Sprintf("c%d", i), RNG: frand.New(uint64(i))}
			err := p.Participate(ctx, id, uint64(i%256))
			switch {
			case err == nil:
				accepted.Add(1)
			default:
				// Once a racing finalize wins, latecomers get typed
				// finalized errors (directly or via a rejected report).
				var se *StatusError
				if errors.As(err, &se) && se.Code == wire.CodeFinalized {
					return
				}
				t.Errorf("client %d: unexpected failure %v", i, err)
			}
		}(i)
	}
	// Concurrent result polls and health checks.
	for i := 0; i < 10; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := admin.Result(ctx, id); err != nil {
				t.Errorf("result poll: %v", err)
			}
			resp, err := http.Get(srv.URL + "/healthz")
			if err != nil {
				t.Errorf("healthz: %v", err)
				return
			}
			resp.Body.Close()
		}()
	}
	// Racing finalizes, held until part of the cohort has landed so the
	// aggregate is well-defined.
	finalErrs := make(chan error, 3)
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				res, err := admin.Result(ctx, id)
				if err != nil {
					finalErrs <- err
					return
				}
				if res.Done || res.Reports >= clients/4 {
					break
				}
				time.Sleep(time.Millisecond)
			}
			_, err := admin.Finalize(ctx, id)
			finalErrs <- err
		}()
	}
	wg.Wait()
	close(finalErrs)
	for err := range finalErrs {
		if err != nil {
			t.Fatalf("finalize: %v", err)
		}
	}
	res, err := admin.Result(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Done {
		t.Fatal("session not finalized")
	}
	if int64(res.Reports) != accepted.Load() {
		t.Fatalf("cohort %d != %d accepted participations", res.Reports, accepted.Load())
	}
}

// TestDropoutStillFinalizes assigns tasks to the whole fleet but has a
// fraction never report (§4.3 dropouts); finalize succeeds above MinCohort
// with exactly the reports that arrived.
func TestDropoutStillFinalizes(t *testing.T) {
	srv, admin := newTestStack(t)
	ctx := context.Background()
	const fleet = 120
	id, err := admin.CreateSession(ctx, wire.SessionConfig{Feature: "drop", Bits: 6, Gamma: 1, MinCohort: 70})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	reportersDone := make(chan error, fleet)
	for i := 0; i < fleet; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p := &Participant{BaseURL: srv.URL, ClientID: fmt.Sprintf("c%d", i), RNG: frand.New(uint64(i))}
			if i%3 == 0 { // a third of the fleet drops out after assignment
				_, err := p.FetchTask(ctx, id)
				reportersDone <- err
				return
			}
			reportersDone <- p.Participate(ctx, id, uint64(i%64))
		}(i)
	}
	wg.Wait()
	close(reportersDone)
	for err := range reportersDone {
		if err != nil {
			t.Fatal(err)
		}
	}
	res, err := admin.Finalize(ctx, id)
	if err != nil {
		t.Fatalf("finalize with dropouts: %v", err)
	}
	want := fleet - fleet/3 // ceil division: i%3==0 hits 40 of 120
	if res.Reports != want {
		t.Fatalf("reports = %d, want %d (dropouts excluded)", res.Reports, want)
	}
}
