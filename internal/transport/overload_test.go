package transport

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/transport/wire"
)

func TestParseRetryAfter(t *testing.T) {
	now := time.Date(2026, 2, 3, 12, 0, 0, 0, time.UTC)
	cases := []struct {
		in   string
		want time.Duration
	}{
		{"", 0},
		{"3", 3 * time.Second},
		{"0", 0},
		{"-5", 0},
		{"garbage", 0},
		{"3.5", 0}, // delay-seconds is an integer per RFC 9110
		{now.Add(10 * time.Second).Format(http.TimeFormat), 10 * time.Second},
		{now.Add(-time.Minute).Format(http.TimeFormat), 0}, // past date
		{"Wed, 32 Feb 2026 99:00:00 GMT", 0},               // unparseable date
	}
	for _, c := range cases {
		if got := parseRetryAfter(c.in, now); got != c.want {
			t.Errorf("parseRetryAfter(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

// TestRetryDoHonorsRetryAfter checks the retry loop stretches its pause to
// the server's advice, capped by MaxDelay so a confused server cannot park
// a client forever.
func TestRetryDoHonorsRetryAfter(t *testing.T) {
	cases := []struct {
		name      string
		hint      time.Duration
		wantPause time.Duration
	}{
		{"no hint uses local backoff", 0, 10 * time.Millisecond},
		{"hint beats shorter backoff", 500 * time.Millisecond, 500 * time.Millisecond},
		{"hint capped by MaxDelay", time.Hour, 2 * time.Second},
		{"hint below backoff ignored", time.Millisecond, 10 * time.Millisecond},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			rp := &RetryPolicy{
				MaxAttempts: 2, BaseDelay: 10 * time.Millisecond,
				MaxDelay: 2 * time.Second, Seed: 1, Metrics: reg,
			}
			var pauses []time.Duration
			rp.sleep = func(ctx context.Context, d time.Duration) error {
				pauses = append(pauses, d)
				return nil
			}
			rp.Do(context.Background(), func(ctx context.Context) error {
				return &StatusError{
					Status: http.StatusServiceUnavailable,
					Code:   wire.CodeUnavailable, RetryAfter: c.hint,
				}
			})
			if len(pauses) != 1 || pauses[0] != c.wantPause {
				t.Fatalf("pauses = %v, want [%v]", pauses, c.wantPause)
			}
			wantWaits := uint64(0)
			if c.hint > 10*time.Millisecond {
				wantWaits = 1
			}
			if got := reg.Counter(MetricClientRetryAfterWaits, "").Value(); got != wantWaits {
				t.Fatalf("retry_after_waits = %d, want %d", got, wantWaits)
			}
		})
	}
}

// TestClientParsesRetryAfter checks both client codecs surface the
// server's advice on a StatusError, preferring the envelope's precise
// seconds over the whole-second header.
func TestClientParsesRetryAfter(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "5")
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		json.NewEncoder(w).Encode(wire.Error{
			Error: "busy", Code: wire.CodeUnavailable, RetryAfter: 0.25,
		})
	}))
	defer srv.Close()
	for _, codec := range clientCodecs {
		err := codec.roundTrip(context.Background(), NewEndpointList(srv.URL), nil, "s1")
		var se *StatusError
		if !errors.As(err, &se) {
			t.Fatalf("%s: err = %v, want *StatusError", codec.name, err)
		}
		if se.RetryAfter != 250*time.Millisecond {
			t.Fatalf("%s: RetryAfter = %v, want 250ms (envelope beats header)", codec.name, se.RetryAfter)
		}
		if !se.Retryable() {
			t.Fatalf("%s: unavailable must be retryable", codec.name)
		}
	}
}

func testDepthGauge() *obs.Gauge {
	return obs.NewRegistry().GaugeVec("test_depth", "", "class").With("x")
}

func TestGateQueueFullAndTimeout(t *testing.T) {
	depth := testDepthGauge()
	g := newGate("report", 1, 1, 40*time.Millisecond, depth)
	if err := g.acquire(context.Background()); err != nil {
		t.Fatalf("first acquire: %v", err)
	}
	// Second acquire takes the single queue ticket and waits.
	queued := make(chan error, 1)
	go func() { queued <- g.acquire(context.Background()) }()
	waitFor(t, func() bool { return int(depth.Value()) == 1 })
	// Third arrival finds the queue full and sheds outright.
	err := g.acquire(context.Background())
	var shed *errShed
	if !errors.As(err, &shed) || shed.reason != ShedQueueFull {
		t.Fatalf("third acquire = %v, want queue_full shed", err)
	}
	// The queued waiter times out when no slot frees.
	if err := <-queued; !errors.As(err, &shed) || shed.reason != ShedQueueTimeout {
		t.Fatalf("queued acquire = %v, want queue_timeout shed", err)
	}
	if int(depth.Value()) != 0 {
		t.Fatalf("queue depth = %v after timeout, want 0", depth.Value())
	}
	// A freed slot admits the next acquire immediately.
	g.release()
	if err := g.acquire(context.Background()); err != nil {
		t.Fatalf("acquire after release: %v", err)
	}
	g.release()
}

func TestGateQueuedWaiterGetsFreedSlot(t *testing.T) {
	g := newGate("report", 1, 4, time.Second, testDepthGauge())
	if err := g.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	got := make(chan error, 1)
	go func() { got <- g.acquire(context.Background()) }()
	time.Sleep(10 * time.Millisecond)
	g.release()
	if err := <-got; err != nil {
		t.Fatalf("queued acquire after release: %v", err)
	}
	g.release()
}

func TestGateAbandonedOnDisconnect(t *testing.T) {
	depth := testDepthGauge()
	g := newGate("report", 1, 4, time.Minute, depth)
	if err := g.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	queued := make(chan error, 1)
	go func() { queued <- g.acquire(ctx) }()
	waitFor(t, func() bool { return int(depth.Value()) == 1 })
	cancel()
	err := <-queued
	var shed *errShed
	if !errors.As(err, &shed) || shed.reason != ShedAbandoned {
		t.Fatalf("canceled acquire = %v, want abandoned shed", err)
	}
	if int(depth.Value()) != 0 {
		t.Fatalf("queue depth = %v after abandon, want 0", depth.Value())
	}
	g.release()
}

func TestNilGateAdmitsEverything(t *testing.T) {
	var g *gate
	for i := 0; i < 100; i++ {
		if err := g.acquire(context.Background()); err != nil {
			t.Fatal(err)
		}
		g.release()
	}
}

func TestShedStateAdaptiveAdvice(t *testing.T) {
	st := newShedState(time.Second, 8*time.Second)
	t0 := time.Unix(1_700_000_000, 0)
	if got := st.advise(t0); got != time.Second {
		t.Fatalf("first advice = %v, want 1s", got)
	}
	// Sheds landing inside the advised window double the advice.
	if got := st.advise(t0.Add(500 * time.Millisecond)); got != 2*time.Second {
		t.Fatalf("advice under pressure = %v, want 2s", got)
	}
	if got := st.advise(t0.Add(2 * time.Second)); got != 4*time.Second {
		t.Fatalf("sustained pressure advice = %v, want 4s", got)
	}
	// The doubling caps at max.
	now := t0.Add(3 * time.Second)
	for i := 0; i < 10; i++ {
		if got := st.advise(now); got > 8*time.Second {
			t.Fatalf("advice %v exceeds max 8s", got)
		}
		now = now.Add(time.Millisecond)
	}
	if !st.shedding(now) {
		t.Fatal("just shed, shedding() must report true")
	}
	// A quiet spell of twice the advice resets to base.
	quiet := now.Add(17 * time.Second)
	if st.shedding(quiet) {
		t.Fatal("window elapsed, shedding() must report false")
	}
	if got := st.advise(quiet); got != time.Second {
		t.Fatalf("advice after quiet spell = %v, want base 1s", got)
	}
}

// TestServerShedsTyped503 saturates the report gate and checks a shed
// request is answered 503 with wire.CodeUnavailable, Retry-After advice in
// both header and envelope, a shed metric — and that the ungated probe
// endpoints keep answering throughout.
func TestServerShedsTyped503(t *testing.T) {
	s := NewServer(1)
	s.SetOverload(OverloadPolicy{ReportInFlight: 1})
	srv := httptest.NewServer(s)
	defer srv.Close()
	// Saturate the class from the inside: no queue, so the next arrival
	// sheds immediately.
	g := s.overload().gates[gateReport]
	if err := g.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer g.release()

	resp, err := http.Post(srv.URL+"/v1/sessions/s1/reports", "application/json",
		strings.NewReader(`{"client_id":"c1","bit":0,"value":1}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra == "" || parseRetryAfter(ra, time.Now()) < time.Second {
		t.Fatalf("Retry-After header = %q, want ≥ 1s", ra)
	}
	var e wire.Error
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if e.Code != wire.CodeUnavailable {
		t.Fatalf("code = %q, want unavailable", e.Code)
	}
	if !(e.RetryAfter > 0) {
		t.Fatalf("retry_after_seconds = %v, want > 0", e.RetryAfter)
	}
	shed := s.Registry().CounterVec(MetricOverloadShed, "", "class", "reason")
	if got := shed.With(gateReport, string(ShedQueueFull)).Value(); got != 1 {
		t.Fatalf("shed{report,queue_full} = %d, want 1", got)
	}
	// Liveness and readiness are never gated: both answer while the
	// report class is saturated (readiness says 503-not-ready because the
	// server just shed, but it answers).
	for _, probe := range []string{"/healthz", "/readyz"} {
		pr, err := http.Get(srv.URL + probe)
		if err != nil {
			t.Fatalf("GET %s while saturated: %v", probe, err)
		}
		pr.Body.Close()
	}
}

// TestOversizedBodyRejected is the request-size satellite: an oversized
// report draws 413 with the typed, non-retryable CodeTooLarge and leaves
// zero partial session state behind.
func TestOversizedBodyRejected(t *testing.T) {
	s := NewServer(1)
	s.SetOverload(OverloadPolicy{MaxBodyBytes: 256})
	srv := httptest.NewServer(s)
	defer srv.Close()
	id, err := s.CreateSession(context.Background(), wire.SessionConfig{Feature: "f", Bits: 4, Gamma: 1})
	if err != nil {
		t.Fatal(err)
	}
	task, err := s.AssignTask(context.Background(), id, "c1")
	if err != nil {
		t.Fatal(err)
	}

	big := fmt.Sprintf(`{"client_id":"c1","bit":%d,"value":1,"pad":%q}`,
		task.Bit, strings.Repeat("x", 4096))
	resp, err := http.Post(srv.URL+"/v1/sessions/"+id+"/reports", "application/json",
		strings.NewReader(big))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413", resp.StatusCode)
	}
	var e wire.Error
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if e.Code != wire.CodeTooLarge {
		t.Fatalf("code = %q, want payload_too_large", e.Code)
	}
	se := &StatusError{Status: resp.StatusCode, Code: e.Code}
	if se.Retryable() {
		t.Fatal("payload_too_large must not be retryable: the same body would just bounce again")
	}
	// No partial state: the session took nothing from the oversized
	// request, and a well-formed retry from the same client still lands.
	if res, err := s.Result(id); err != nil || res.Reports != 0 {
		t.Fatalf("session has %d reports after a 413, want 0 (err %v)", res.Reports, err)
	}
	if got := s.Registry().CounterVec(MetricBodyTooLarge, "", "route").
		With("/v1/sessions/" + id + "/reports").Value(); got != 1 {
		t.Fatalf("body_too_large = %d, want 1", got)
	}
	ack, err := s.SubmitReport(context.Background(), id, wire.Report{ClientID: "c1", Bit: task.Bit, Value: 1})
	if err != nil || !ack.Accepted {
		t.Fatalf("well-formed retry after 413: ack=%+v err=%v", ack, err)
	}
}

// TestReportRateLimit checks the per-session token bucket: excess
// submissions draw a retryable 429 with precise Retry-After advice,
// commit no state, and succeed after the bucket refills.
func TestReportRateLimit(t *testing.T) {
	clk := newFakeClock()
	s := NewServer(1)
	s.Now = clk.Now
	s.SetOverload(OverloadPolicy{ReportRate: 1, ReportBurst: 1})
	srv := httptest.NewServer(s)
	defer srv.Close()
	id, err := s.CreateSession(context.Background(), wire.SessionConfig{Feature: "f", Bits: 4, Gamma: 1})
	if err != nil {
		t.Fatal(err)
	}
	bits := make(map[string]int)
	for _, c := range []string{"c1", "c2"} {
		task, err := s.AssignTask(context.Background(), id, c)
		if err != nil {
			t.Fatal(err)
		}
		bits[c] = task.Bit
	}
	if ack, err := s.SubmitReport(context.Background(), id, wire.Report{ClientID: "c1", Bit: bits["c1"], Value: 1}); err != nil || !ack.Accepted {
		t.Fatalf("first report: ack=%+v err=%v", ack, err)
	}
	// The bucket is empty; the next submission bounces over HTTP with the
	// full typed treatment.
	body, _ := json.Marshal(wire.Report{ClientID: "c2", Bit: bits["c2"], Value: 1})
	resp, err := http.Post(srv.URL+"/v1/sessions/"+id+"/reports", "application/json",
		bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status = %d, want 429", resp.StatusCode)
	}
	var e wire.Error
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatal(err)
	}
	if e.Code != wire.CodeUnavailable {
		t.Fatalf("code = %q, want unavailable", e.Code)
	}
	if math.Abs(e.RetryAfter-1) > 0.01 {
		t.Fatalf("retry_after_seconds = %v, want ≈1 (one token at 1/s)", e.RetryAfter)
	}
	se := &StatusError{Status: resp.StatusCode, Code: e.Code}
	if !se.Retryable() {
		t.Fatal("rate-limited submissions must be retryable")
	}
	if got := s.Registry().Counter(MetricReportRateLimited, "").Value(); got != 1 {
		t.Fatalf("ratelimited = %d, want 1", got)
	}
	// Nothing committed: after the bucket refills the same client's
	// report is accepted fresh, not as a duplicate or conflict.
	clk.Advance(2 * time.Second)
	ack, err := s.SubmitReport(context.Background(), id, wire.Report{ClientID: "c2", Bit: bits["c2"], Value: 1})
	if err != nil || !ack.Accepted || ack.Duplicate {
		t.Fatalf("post-refill report: ack=%+v err=%v", ack, err)
	}
	if res, err := s.Result(id); err != nil || res.Reports != 2 {
		t.Fatalf("cohort = %d, want 2 (err %v)", res.Reports, err)
	}
}

// TestReadyzSplitsFromHealthz checks readiness flips with draining and
// shedding while liveness stays green.
func TestReadyzSplitsFromHealthz(t *testing.T) {
	clk := newFakeClock()
	s := NewServer(1)
	s.Now = clk.Now
	s.SetOverload(OverloadPolicy{})
	srv := httptest.NewServer(s)
	defer srv.Close()

	readyz := func() (int, map[string]any) {
		resp, err := http.Get(srv.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, body
	}
	if code, body := readyz(); code != http.StatusOK || body["ready"] != true {
		t.Fatalf("fresh server readyz = %d %v, want 200 ready", code, body)
	}
	// Shedding flips readiness until the advised window passes.
	s.shedder().advise(clk.Now())
	if code, body := readyz(); code != http.StatusServiceUnavailable || body["shedding"] != true {
		t.Fatalf("shedding readyz = %d %v, want 503 shedding", code, body)
	}
	clk.Advance(10 * time.Second)
	if code, _ := readyz(); code != http.StatusOK {
		t.Fatalf("readyz = %d after quiet spell, want 200", code)
	}
	// Draining flips readiness for good, but liveness stays green: the
	// daemon is healthy, it just should not receive new work.
	s.SetDraining(true)
	if code, body := readyz(); code != http.StatusServiceUnavailable || body["draining"] != true {
		t.Fatalf("draining readyz = %d %v, want 503 draining", code, body)
	}
	resp, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz = %d while draining, want 200", resp.StatusCode)
	}
	s.SetDraining(false)
	if code, _ := readyz(); code != http.StatusOK {
		t.Fatalf("readyz = %d after drain lifted, want 200", code)
	}
}

// waitFor polls cond for up to two seconds.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in time")
		}
		time.Sleep(time.Millisecond)
	}
}
