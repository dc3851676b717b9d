package transport

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/transport/wire"
)

// Endpoint classes, the values of the overload metrics' class label. Each
// class gets its own in-flight cap and wait queue so a report storm
// cannot starve task polls or the control plane (and vice versa); the
// operator endpoints (/healthz, /readyz, /metrics) are never gated.
const (
	gateReport = "report" // POST /v1/sessions/{id}/reports
	gateTask   = "task"   // GET  /v1/sessions/{id}/task
	gateAdmin  = "admin"  // POST /v1/sessions, POST .../finalize
	gateQuery  = "query"  // GET  /v1/sessions, GET .../result
)

// ShedReason classifies why admission control refused a request. It is
// a distinct type so switches over it are exhaustiveness-checked
// (fedlint exhaustenum): a dashboard or renderer that forgets a newly
// added reason fails the lint instead of silently dropping the label.
type ShedReason string

// Overload-shedding reasons, the values of the shed metric's reason label.
const (
	// ShedQueueFull marks a request refused because the class's wait
	// queue was already at capacity.
	ShedQueueFull ShedReason = "queue_full"
	// ShedQueueTimeout marks a waiter that timed out before a slot freed.
	ShedQueueTimeout ShedReason = "queue_timeout"
	// ShedAbandoned marks a waiter whose client disconnected while
	// queued.
	ShedAbandoned ShedReason = "abandoned"
)

// DefaultMaxBodyBytes caps POST bodies when OverloadPolicy.MaxBodyBytes
// is zero. A report is a few dozen bytes and a session config under a
// kilobyte, so a megabyte leaves three orders of magnitude of headroom
// while still bounding what a hostile client can make the decoder chew.
const DefaultMaxBodyBytes = 1 << 20

// OverloadPolicy configures the server's admission control. The zero
// value gates nothing (beyond the default body cap); fednumd wires the
// knobs to flags. Install with SetOverload before the server handles
// traffic.
type OverloadPolicy struct {
	// MaxBodyBytes caps every POST body; oversized requests get 413 with
	// wire.CodeTooLarge (not retryable). 0 means DefaultMaxBodyBytes;
	// negative disables the cap.
	MaxBodyBytes int64
	// ReportInFlight, TaskInFlight, AdminInFlight and QueryInFlight cap
	// concurrently handled requests per endpoint class; 0 leaves the
	// class ungated.
	ReportInFlight int
	TaskInFlight   int
	AdminInFlight  int
	QueryInFlight  int
	// QueueDepth is how many requests may wait for a slot per gated
	// class before new arrivals are shed outright; 0 sheds immediately
	// at the cap.
	QueueDepth int
	// QueueWait bounds how long a queued request waits for a slot before
	// being shed; 0 means DefaultQueueWait. Waiters also give up when
	// the client disconnects, so the queue drains instead of piling up.
	QueueWait time.Duration
	// ReportRate, when positive, token-buckets report submissions per
	// session at this sustained rate (reports/second); excess gets 429
	// with wire.CodeUnavailable and precise Retry-After advice.
	ReportRate float64
	// ReportBurst is the bucket capacity; 0 means ReportRate.
	ReportBurst float64
	// RetryAfterBase and RetryAfterMax bound the adaptive Retry-After
	// advice on shed responses: the hint starts at base and doubles
	// while sheds keep arriving inside the advised window, so a
	// sustained overload pushes the fleet further away instead of
	// re-absorbing it every second. 0 means 1s / 30s.
	RetryAfterBase time.Duration
	RetryAfterMax  time.Duration
	// RequestTimeout, when positive, arms per-request read and write
	// deadlines on the connection, cutting off slow-loris request bodies
	// and stalled response readers that the listener-wide timeouts would
	// let linger.
	RequestTimeout time.Duration
}

// DefaultQueueWait bounds queued waiters when QueueWait is zero.
const DefaultQueueWait = 250 * time.Millisecond

// maxBody resolves the effective body cap; <0 disables.
func (p OverloadPolicy) maxBody() int64 {
	if p.MaxBodyBytes == 0 {
		return DefaultMaxBodyBytes
	}
	return p.MaxBodyBytes
}

// errShed is the typed admission-control failure; reason is one of the
// Shed* constants.
type errShed struct {
	class  string
	reason ShedReason
}

func (e *errShed) Error() string {
	return fmt.Sprintf("transport: %s overloaded (%s), retry later", e.class, e.reason)
}

// rateLimitedError reports a per-session report-rate rejection, carrying
// the exact wait until the bucket refills one token.
type rateLimitedError struct {
	wait time.Duration
}

func (e *rateLimitedError) Error() string {
	return fmt.Sprintf("transport: session report rate exceeded, retry in %v", e.wait)
}

// gate is one endpoint class's concurrency limiter: a slot semaphore plus
// a bounded ticket queue for waiters. Acquisition is deadline-aware —
// waiters hold a queue ticket and give up on timeout or client
// disconnect, so the queue cannot grow without bound or outlive its
// callers.
type gate struct {
	class string
	slots chan struct{}
	queue chan struct{}
	wait  time.Duration
	depth *obs.Gauge
}

func newGate(class string, inFlight, queueDepth int, wait time.Duration, depth *obs.Gauge) *gate {
	if inFlight <= 0 {
		return nil
	}
	if wait <= 0 {
		wait = DefaultQueueWait
	}
	g := &gate{
		class: class,
		slots: make(chan struct{}, inFlight),
		wait:  wait,
		depth: depth,
	}
	if queueDepth > 0 {
		g.queue = make(chan struct{}, queueDepth)
	}
	return g
}

// acquire claims a handling slot, queueing within the gate's bounds. A
// nil gate admits everything. The caller must release() after the handler
// returns when acquire reports nil.
func (g *gate) acquire(ctx context.Context) error {
	if g == nil {
		return nil
	}
	select {
	case g.slots <- struct{}{}:
		return nil
	default:
	}
	if g.queue == nil {
		return &errShed{class: g.class, reason: ShedQueueFull}
	}
	select {
	case g.queue <- struct{}{}:
	default:
		return &errShed{class: g.class, reason: ShedQueueFull}
	}
	g.depth.Add(1)
	defer func() {
		<-g.queue
		g.depth.Add(-1)
	}()
	t := time.NewTimer(g.wait)
	defer t.Stop()
	select {
	case g.slots <- struct{}{}:
		return nil
	case <-t.C:
		return &errShed{class: g.class, reason: ShedQueueTimeout}
	case <-ctx.Done():
		return &errShed{class: g.class, reason: ShedAbandoned}
	}
}

// release frees the slot claimed by a successful acquire.
func (g *gate) release() {
	if g != nil {
		<-g.slots
	}
}

// shedState computes the adaptive Retry-After advice. Sheds landing
// inside the currently advised window double the advice (the fleet is
// not backing off enough); a quiet spell of twice the advice resets it.
type shedState struct {
	base, max time.Duration

	mu       sync.Mutex
	hint     time.Duration
	lastShed time.Time
}

func newShedState(base, max time.Duration) *shedState {
	if base <= 0 {
		base = time.Second
	}
	if max < base {
		max = 30 * time.Second
		if max < base {
			max = base
		}
	}
	return &shedState{base: base, max: max}
}

// advise records one shed at now and returns the backoff the client
// should be told.
func (st *shedState) advise(now time.Time) time.Duration {
	st.mu.Lock()
	defer st.mu.Unlock()
	switch {
	case st.hint == 0 || now.Sub(st.lastShed) > 2*st.hint:
		st.hint = st.base
	case now.Sub(st.lastShed) <= st.hint:
		st.hint *= 2
		if st.hint > st.max {
			st.hint = st.max
		}
	}
	st.lastShed = now
	return st.hint
}

// shedding reports whether the server shed recently enough that a
// fronting router should drain traffic away (the advised window has not
// yet elapsed since the last shed).
func (st *shedState) shedding(now time.Time) bool {
	st.mu.Lock()
	defer st.mu.Unlock()
	return !st.lastShed.IsZero() && now.Sub(st.lastShed) <= st.hint
}

// overloadState is the installed admission-control plane: the policy and
// its per-class gates.
type overloadState struct {
	policy OverloadPolicy
	gates  map[string]*gate
}

// SetOverload installs the admission-control policy: per-class in-flight
// gates, body caps, per-session report-rate buckets, Retry-After bounds
// and per-request deadlines. Call before the server handles traffic;
// installing a zero policy removes all gating but keeps the default body
// cap.
func (s *Server) SetOverload(p OverloadPolicy) {
	ov := &overloadState{policy: p, gates: make(map[string]*gate)}
	for _, c := range []struct {
		class string
		cap   int
	}{
		{gateReport, p.ReportInFlight},
		{gateTask, p.TaskInFlight},
		{gateAdmin, p.AdminInFlight},
		{gateQuery, p.QueryInFlight},
	} {
		if g := newGate(c.class, c.cap, p.QueueDepth, p.QueueWait, s.metrics.queueDepth.With(c.class)); g != nil {
			ov.gates[c.class] = g
		}
	}
	s.shed = newShedState(p.RetryAfterBase, p.RetryAfterMax)
	s.ovl.Store(ov)
}

// overload returns the installed state, nil when SetOverload was never
// called.
func (s *Server) overload() *overloadState {
	return s.ovl.Load()
}

// SetDraining flips the readiness drain flag: while true, GET /readyz
// answers 503 so a fronting router stops routing new work here, without
// affecting in-flight traffic or liveness. fednumd sets it at the start
// of graceful shutdown.
func (s *Server) SetDraining(v bool) {
	s.draining.Store(v)
}

// gated wraps a protocol handler with the admission-control middleware:
// per-request connection deadlines, then the class gate. Shed requests
// are answered 503 + CodeUnavailable with adaptive Retry-After advice
// and never reach the handler.
func (s *Server) gated(class string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		// Role first, before any gate or queue: a standby or fenced node
		// refuses client traffic outright (one atomic load on the hot
		// path), pointing the caller at the leader. This is the fencing
		// teeth — a deposed primary cannot ack a late report.
		if s.roleValue() != RolePrimary {
			s.writeNotPrimary(w)
			return
		}
		ov := s.overload()
		if ov == nil {
			h(w, r)
			return
		}
		if d := ov.policy.RequestTimeout; d > 0 {
			// Connection deadlines take wall-clock time; errors are
			// ignored because some ResponseWriters (test recorders,
			// HTTP/2 under some configs) do not support them, and the
			// listener-wide timeouts still apply there.
			rc := http.NewResponseController(w)
			deadline := time.Now().Add(d)
			_ = rc.SetReadDeadline(deadline)
			_ = rc.SetWriteDeadline(deadline)
		}
		g := ov.gates[class]
		// The admission span measures only the gate wait (plus shed
		// outcome); it ends before the handler runs so handler-side spans
		// stay children of the request span, not of the wait.
		_, sp := trace.Start(r.Context(), "server.admit")
		sp.Attr("class", class)
		err := g.acquire(r.Context())
		reason := ShedReason("")
		if err != nil {
			var shed *errShed
			reason = ShedQueueFull
			if errors.As(err, &shed) {
				reason = shed.reason
			}
			sp.Attr("shed", string(reason))
		}
		sp.End()
		if err != nil {
			s.metrics.shed.With(class, string(reason)).Inc()
			s.roundEvent(r.PathValue("id"), RoundShed, "", string(reason), 0, class)
			s.writeUnavailable(w, http.StatusServiceUnavailable, wire.CodeUnavailable,
				err, s.shedder().advise(s.now()))
			return
		}
		defer g.release()
		h(w, r)
	}
}

// shedder returns the Retry-After advisor, defaulting bounds when no
// policy was installed (durability 503s advise too).
func (s *Server) shedder() *shedState {
	s.shedOnce.Do(func() {
		if s.shed == nil {
			s.shed = newShedState(0, 0)
		}
	})
	return s.shed
}

// writeUnavailable answers a retryable rejection: Retry-After advice goes
// out both as the HTTP header (whole seconds, rounded up, minimum 1) and
// as the envelope's precise retry_after_seconds field.
func (s *Server) writeUnavailable(w http.ResponseWriter, status int, code wire.Code, err error, retryAfter time.Duration) {
	secs := int(math.Ceil(retryAfter.Seconds()))
	if secs < 1 {
		secs = 1
	}
	w.Header().Set("Retry-After", strconv.Itoa(secs))
	s.writeJSON(w, status, wire.Error{
		Error: err.Error(), Code: code, RetryAfter: retryAfter.Seconds(),
	})
}

// writeProtoError maps a protocol error onto the wire: retryable
// unavailable/rate-limit answers carry Retry-After advice, everything
// else is a plain typed envelope.
func (s *Server) writeProtoError(w http.ResponseWriter, err error) {
	status, code := errorStatus(err)
	var rl *rateLimitedError
	switch {
	case errors.As(err, &rl):
		s.metrics.rateLimited.Inc()
		s.writeUnavailable(w, status, code, err, rl.wait)
	case code == wire.CodeUnavailable:
		s.writeUnavailable(w, status, code, err, s.shedder().advise(s.now()))
	default:
		s.writeError(w, status, code, err)
	}
}

// decodeBody decodes a capped JSON request body into v. An oversized body
// is a typed, non-retryable protocol error (413, CodeTooLarge); malformed
// JSON is a plain bad request. The cap applies before any session state
// is touched, so an oversized request leaves nothing behind.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) error {
	limit := int64(DefaultMaxBodyBytes)
	if ov := s.overload(); ov != nil {
		limit = ov.policy.maxBody()
	}
	if limit > 0 {
		r.Body = http.MaxBytesReader(w, r.Body, limit)
	}
	if err := json.NewDecoder(r.Body).Decode(v); err != nil {
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			s.metrics.bodyRejected.With(r.URL.Path).Inc()
			s.writeError(w, http.StatusRequestEntityTooLarge, wire.CodeTooLarge,
				fmt.Errorf("transport: request body over %d bytes", mbe.Limit))
			return err
		}
		s.writeError(w, http.StatusBadRequest, wire.CodeBadRequest, err)
		return err
	}
	return nil
}

// reportRateLocked enforces the per-session report token bucket for a
// submission carrying n reports; the caller holds sess.mu, which guards
// the bucket. It returns nil when the submission may proceed (n tokens
// consumed) and a *rateLimitedError carrying the exact refill wait
// otherwise. With no policy or a zero rate it admits everything.
//
// Batch semantics: a batch is admitted when the bucket holds
// min(n, burst) tokens — requiring the full n would permanently starve
// batches larger than the burst — and then charged the full n, driving
// the bucket into bounded debt so the sustained rate still converges to
// ReportRate. With n=1 this is exactly the old single-report bucket.
func (s *Server) reportRateLocked(sess *session, now time.Time, n float64) error {
	ov := s.overload()
	if ov == nil || ov.policy.ReportRate <= 0 {
		return nil
	}
	rate, burst := ov.policy.ReportRate, ov.policy.ReportBurst
	if burst <= 0 {
		burst = rate
	}
	need := n
	if need > burst {
		need = burst
	}
	if need < 1 {
		need = 1
	}
	if sess.bucketLast.IsZero() {
		sess.bucketTokens = burst
	} else if dt := now.Sub(sess.bucketLast).Seconds(); dt > 0 {
		sess.bucketTokens += dt * rate
		if sess.bucketTokens > burst {
			sess.bucketTokens = burst
		}
	}
	sess.bucketLast = now
	if sess.bucketTokens >= need {
		sess.bucketTokens -= n
		return nil
	}
	wait := time.Duration((need - sess.bucketTokens) / rate * float64(time.Second))
	if wait < time.Millisecond {
		wait = time.Millisecond
	}
	return &rateLimitedError{wait: wait}
}

// handleReady is the readiness probe: 200 while the daemon should keep
// receiving traffic, 503 while it is draining (SetDraining) or actively
// shedding load, with the state spelled out so a fronting router can
// tell "back off" from "dead". Liveness stays on /healthz.
func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	now := s.now()
	draining := s.draining.Load()
	shedding := s.shedder().shedding(now)
	queued := 0
	if ov := s.overload(); ov != nil {
		for _, g := range ov.gates {
			if g != nil && g.queue != nil {
				queued += len(g.queue)
			}
		}
	}
	// A standby is healthy but not ready: load balancers must not route
	// client traffic to a node that will 421 every request.
	role := s.roleValue()
	body := map[string]any{
		"ready":    !draining && !shedding && role == RolePrimary,
		"draining": draining,
		"shedding": shedding,
		"queued":   queued,
		"role":     role.String(),
	}
	status := http.StatusOK
	if draining || shedding || role != RolePrimary {
		status = http.StatusServiceUnavailable
	}
	s.writeJSON(w, status, body)
}
