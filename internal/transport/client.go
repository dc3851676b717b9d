package transport

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"time"

	"repro/internal/frand"
	"repro/internal/ldp"
	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/transport/wire"
)

// Participant plays the client side of the protocol over HTTP. The ε-LDP
// randomized-response transform runs here, on the client, before the bit
// leaves the "device" — the trust boundary of local differential privacy.
//
// Edge devices are flaky by assumption (§4.3): set Retry to survive
// connection resets, lost acks and transient 5xx answers. Retransmitted
// reports are safe — the server acks an exact duplicate instead of
// rejecting it.
type Participant struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Endpoints, when non-nil, overrides BaseURL with a failover list of
	// server roots: requests go to the list's current endpoint, dead
	// nodes are skipped, and a standby's not_primary answer redirects to
	// the leader it names. Share one list across the fleet's clients so
	// the first redirect teaches everyone.
	Endpoints *EndpointList
	// ClientID identifies this device to the server.
	ClientID string
	// HTTPClient defaults to http.DefaultClient.
	HTTPClient *http.Client
	// RNG drives the local randomizer; required.
	RNG *frand.RNG
	// Retry, when non-nil, retries transient failures with backoff; nil
	// makes a single attempt per request.
	Retry *RetryPolicy
	// Metrics, when non-nil, counts protocol-level client outcomes:
	// duplicate re-acks after a lost ack (MetricClientDuplicateAcks) and
	// rejected reports (MetricClientRejections). Attempt/retry counters
	// ride on Retry.Metrics.
	Metrics *obs.Registry
	// Tracer, when non-nil, records client-side spans (participate,
	// fetch_task, submit_report, per-attempt) and propagates the trace to
	// the server via the traceparent header, so server spans parent to
	// the attempt that caused them. Nil costs nothing.
	Tracer *trace.Recorder
}

func (p *Participant) client() *http.Client {
	if p.HTTPClient != nil {
		return p.HTTPClient
	}
	return http.DefaultClient
}

func (p *Participant) endpoints() *EndpointList {
	if p.Endpoints != nil {
		return p.Endpoints
	}
	return NewEndpointList(p.BaseURL)
}

// FetchTask polls the server for this client's bit assignment. Re-polling
// is idempotent: the server replays the original assignment.
func (p *Participant) FetchTask(ctx context.Context, sessionID string) (wire.Task, error) {
	ctx, sp := trace.Start(trace.WithRecorder(ctx, p.Tracer), "client.fetch_task")
	defer sp.End()
	sp.Attr("session", sessionID)
	sp.Attr("client", p.ClientID)
	path := fmt.Sprintf("/v1/sessions/%s/task?client=%s",
		url.PathEscape(sessionID), url.QueryEscape(p.ClientID))
	var task wire.Task
	if err := doJSON(ctx, p.client(), p.Retry, p.endpoints(), http.MethodGet, path, nil, http.StatusOK, &task); err != nil {
		return wire.Task{}, err
	}
	return task, nil
}

// Participate runs the client's whole protocol for one session: fetch the
// task, extract the assigned bit of the private value, apply randomized
// response locally when the session demands it, and submit the single-bit
// report. Only that one perturbed bit is ever serialized. The randomized
// bit is drawn once, so retransmissions carry the identical report and
// cannot be double-counted or averaged against the privacy noise.
func (p *Participant) Participate(ctx context.Context, sessionID string, value uint64) error {
	if p.RNG == nil {
		return fmt.Errorf("transport: participant %q has no RNG", p.ClientID)
	}
	// One trace spans the whole protocol run: fetch_task and
	// submit_report (and their per-attempt children) parent here. The
	// private value is deliberately never a span attribute.
	ctx, sp := trace.Start(trace.WithRecorder(ctx, p.Tracer), "client.participate")
	defer sp.End()
	sp.Attr("session", sessionID)
	sp.Attr("client", p.ClientID)
	task, err := p.FetchTask(ctx, sessionID)
	if err != nil {
		return err
	}
	var bit uint64
	if task.Kind == wire.TaskKindThreshold {
		if value >= task.Threshold {
			bit = 1
		}
	} else {
		bit = (value >> uint(task.Bit)) & 1
	}
	if task.Epsilon > 0 {
		rr, err := ldp.NewRandomizedResponse(task.Epsilon)
		if err != nil {
			return err
		}
		bit = rr.Apply(bit, p.RNG)
	}
	ack, err := p.SubmitReport(ctx, sessionID, wire.Report{
		ClientID: p.ClientID, Bit: task.Bit, Value: bit,
	})
	if err != nil {
		return err
	}
	if p.Metrics != nil && ack.Duplicate {
		p.Metrics.Counter(MetricClientDuplicateAcks,
			"Reports re-acked as duplicates (retransmission after a lost ack).").Inc()
	}
	if !ack.Accepted {
		if p.Metrics != nil {
			p.Metrics.Counter(MetricClientRejections,
				"Reports the server refused to accept.").Inc()
		}
		return fmt.Errorf("transport: report rejected: %s", ack.Reason)
	}
	return nil
}

// SubmitReport posts a report to the server.
func (p *Participant) SubmitReport(ctx context.Context, sessionID string, rep wire.Report) (wire.ReportAck, error) {
	ctx, sp := trace.Start(trace.WithRecorder(ctx, p.Tracer), "client.submit_report")
	defer sp.End()
	sp.Attr("session", sessionID)
	sp.Attr("client", p.ClientID)
	sp.AttrInt("bit", int64(rep.Bit))
	body, err := json.Marshal(rep)
	if err != nil {
		return wire.ReportAck{}, err
	}
	path := fmt.Sprintf("/v1/sessions/%s/reports", url.PathEscape(sessionID))
	var ack wire.ReportAck
	if err := doJSON(ctx, p.client(), p.Retry, p.endpoints(), http.MethodPost, path, body, http.StatusOK, &ack); err != nil {
		return wire.ReportAck{}, err
	}
	return ack, nil
}

// exchange is the one client request path, shared by the JSON and binary
// codecs: it runs one HTTP exchange under the retry policy against the
// endpoint list. Each attempt builds a fresh request (bodies cannot be
// replayed) against the list's current endpoint and hands a wantStatus
// answer's body to decode, or turns the server's error envelope into a
// *StatusError carrying the machine-readable code and Retry-After advice.
//
// Failover lives here: a transport-level failure (dial refused, reset)
// advances the list past the dead node before the error is returned,
// and a not_primary answer repoints the list — at the leader the
// replica named when it knew one, at the next endpoint otherwise — and
// marks the error retryable (Failover) when the retry will actually
// reach somewhere new. The retry loop needs no endpoint awareness; it
// just tries again and lands on the repointed target.
func exchange(ctx context.Context, hc *http.Client, rp *RetryPolicy, eps *EndpointList,
	method, path, contentType string, body []byte, wantStatus int, decode func(io.Reader) error) error {
	// Validate the request shape once; per-attempt rebuilds cannot fail
	// differently with identical inputs.
	if _, err := http.NewRequest(method, eps.Current()+path, nil); err != nil {
		return err
	}
	return rp.Do(ctx, func(ctx context.Context) error {
		base := eps.Current()
		var rd io.Reader
		if body != nil {
			rd = bytes.NewReader(body)
		}
		req, err := http.NewRequestWithContext(ctx, method, base+path, rd)
		if err != nil {
			return err
		}
		if body != nil {
			req.Header.Set("Content-Type", contentType)
		}
		// Propagate the active span (the per-attempt span RetryPolicy.Do
		// opens) so the server's span parents to exactly this attempt —
		// duplicates and retries each carry their own parent.
		trace.Inject(ctx, req.Header)
		resp, err := hc.Do(req)
		if err != nil {
			// The node may be gone entirely; let the next attempt try
			// elsewhere.
			eps.Advance(base)
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode == wantStatus {
			return decode(resp.Body)
		}
		se := &StatusError{Status: resp.StatusCode}
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		var e wire.Error
		if json.Unmarshal(data, &e) == nil {
			se.Code, se.Msg, se.Leader = e.Code, e.Error, e.Leader
			if e.RetryAfter > 0 {
				// The envelope's float seconds beat the header's
				// whole-second granularity when both are present.
				se.RetryAfter = time.Duration(e.RetryAfter * float64(time.Second))
			}
		}
		if se.RetryAfter == 0 {
			se.RetryAfter = parseRetryAfter(resp.Header.Get("Retry-After"), time.Now())
		}
		if se.Code == wire.CodeNotPrimary {
			if se.Leader != "" {
				eps.SetLeader(se.Leader)
			} else {
				eps.Advance(base)
			}
			se.Failover = eps.Current() != base
		}
		return se
	})
}

// doJSON is exchange for a JSON body in and a JSON payload out.
func doJSON(ctx context.Context, hc *http.Client, rp *RetryPolicy, eps *EndpointList, method, path string, body []byte, wantStatus int, out any) error {
	return exchange(ctx, hc, rp, eps, method, path, "application/json", body, wantStatus,
		func(r io.Reader) error { return json.NewDecoder(r).Decode(out) })
}

// BinaryReporter submits batches of reports over the compact binary
// codec — the client side of the Content-Type-negotiated batch leg of
// the report route. It accumulates records with Add and ships them with
// Flush; the frame and ack buffers are reused across flushes, so a
// steady-state load generator encodes and decodes without per-batch
// allocations. One BinaryReporter is not safe for concurrent use; give
// each submitting goroutine its own.
//
// Retrying a flush after a lost ack is safe end to end: accepted
// records re-ack as duplicates, and per-record statuses come back in
// submission order either way.
type BinaryReporter struct {
	// BaseURL is the server root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// Endpoints, when non-nil, overrides BaseURL with a failover list;
	// see Participant.Endpoints.
	Endpoints *EndpointList
	// HTTPClient defaults to http.DefaultClient.
	HTTPClient *http.Client
	// Retry, when non-nil, retries transient failures with backoff.
	Retry *RetryPolicy
	// Tracer, when non-nil, records client-side spans and propagates the
	// trace to the server.
	Tracer *trace.Recorder

	w    wire.BatchWriter
	acks []wire.AckStatus
	resp []byte
}

func (b *BinaryReporter) client() *http.Client {
	if b.HTTPClient != nil {
		return b.HTTPClient
	}
	return http.DefaultClient
}

func (b *BinaryReporter) endpoints() *EndpointList {
	if b.Endpoints != nil {
		return b.Endpoints
	}
	return NewEndpointList(b.BaseURL)
}

// Add buffers one report for the next Flush. It fails when the record
// does not fit the frame fields or the batch is at the frame cap
// (wire.MaxBatchReports) — flush and re-add in that case.
func (b *BinaryReporter) Add(clientID string, bit int, value uint64) error {
	return b.w.Add(clientID, bit, value)
}

// Pending returns how many reports are buffered for the next Flush.
func (b *BinaryReporter) Pending() int { return b.w.Count() }

// Flush posts the buffered batch and returns one ack status per report
// in submission order; the returned slice is valid until the next
// Flush. An empty buffer flushes to an empty ack list without touching
// the network. On success the buffer resets for the next batch; on
// error it is preserved so a retrying caller can Flush again.
func (b *BinaryReporter) Flush(ctx context.Context, sessionID string) ([]wire.AckStatus, error) {
	if b.w.Count() == 0 {
		return b.acks[:0], nil
	}
	ctx, sp := trace.Start(trace.WithRecorder(ctx, b.Tracer), "client.submit_batch")
	defer sp.End()
	sp.Attr("session", sessionID)
	sp.AttrInt("count", int64(b.w.Count()))
	frame := b.w.Bytes()
	path := fmt.Sprintf("/v1/sessions/%s/reports", url.PathEscape(sessionID))
	var acks []wire.AckStatus
	err := exchange(ctx, b.client(), b.Retry, b.endpoints(), http.MethodPost, path,
		wire.ReportBatchContentType, frame, http.StatusOK, func(r io.Reader) error {
			body, err := readAllInto(b.resp[:0], r)
			b.resp = body
			if err != nil {
				return err
			}
			acks, err = wire.DecodeAckFrame(body, b.acks[:0])
			b.acks = acks
			return err
		})
	if err != nil {
		return nil, err
	}
	if len(acks) != b.w.Count() {
		return nil, fmt.Errorf("transport: batch of %d reports acked %d statuses", b.w.Count(), len(acks))
	}
	b.w.Reset()
	return acks, nil
}

// TailQuantile reads the q-quantile off a finalized threshold session's
// result: the smallest threshold whose tail probability drops to 1-q or
// below.
func TailQuantile(res *wire.Result, q float64) (uint64, error) {
	if len(res.Thresholds) == 0 || len(res.TailProbs) != len(res.Thresholds) {
		return 0, fmt.Errorf("transport: result has no threshold data")
	}
	if !(q > 0 && q < 1) {
		return 0, fmt.Errorf("transport: quantile %v out of (0,1)", q)
	}
	for i, tail := range res.TailProbs {
		if tail <= 1-q {
			return res.Thresholds[i], nil
		}
	}
	return res.Thresholds[len(res.Thresholds)-1], nil
}

// Admin drives the server's control-plane endpoints (session creation and
// finalization), as used by cmd/fednumd clients and tests. It shares the
// Participant retry semantics via the same RetryPolicy type.
type Admin struct {
	BaseURL string
	// Endpoints, when non-nil, overrides BaseURL with a failover list;
	// see Participant.Endpoints.
	Endpoints  *EndpointList
	HTTPClient *http.Client
	// Retry, when non-nil, retries transient failures with backoff.
	Retry *RetryPolicy
	// Tracer, when non-nil, records control-plane spans and propagates
	// the trace to the server.
	Tracer *trace.Recorder
}

func (a *Admin) client() *http.Client {
	if a.HTTPClient != nil {
		return a.HTTPClient
	}
	return http.DefaultClient
}

func (a *Admin) endpoints() *EndpointList {
	if a.Endpoints != nil {
		return a.Endpoints
	}
	return NewEndpointList(a.BaseURL)
}

// CreateSession creates an aggregation session and returns its id.
// Creation is not idempotent on the server: retrying a lost-ack create may
// leave an orphan session behind, which the TTL garbage collector reaps.
func (a *Admin) CreateSession(ctx context.Context, cfg wire.SessionConfig) (string, error) {
	ctx, sp := trace.Start(trace.WithRecorder(ctx, a.Tracer), "client.create_session")
	defer sp.End()
	sp.Attr("feature", cfg.Feature)
	body, err := json.Marshal(cfg)
	if err != nil {
		return "", err
	}
	var out wire.CreateSessionResponse
	if err := doJSON(ctx, a.client(), a.Retry, a.endpoints(), http.MethodPost, "/v1/sessions", body, http.StatusCreated, &out); err != nil {
		return "", err
	}
	return out.SessionID, nil
}

// Finalize closes the session and returns the aggregate. Finalize is
// idempotent on the server, so retrying through a lost ack is safe.
func (a *Admin) Finalize(ctx context.Context, sessionID string) (*wire.Result, error) {
	ctx, sp := trace.Start(trace.WithRecorder(ctx, a.Tracer), "client.finalize")
	defer sp.End()
	sp.Attr("session", sessionID)
	path := fmt.Sprintf("/v1/sessions/%s/finalize", url.PathEscape(sessionID))
	var out wire.Result
	if err := doJSON(ctx, a.client(), a.Retry, a.endpoints(), http.MethodPost, path, nil, http.StatusOK, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Result fetches the session's current aggregate view.
func (a *Admin) Result(ctx context.Context, sessionID string) (*wire.Result, error) {
	path := fmt.Sprintf("/v1/sessions/%s/result", url.PathEscape(sessionID))
	var out wire.Result
	if err := doJSON(ctx, a.client(), a.Retry, a.endpoints(), http.MethodGet, path, nil, http.StatusOK, &out); err != nil {
		return nil, err
	}
	return &out, nil
}
