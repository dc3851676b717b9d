package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"strconv"
	"strings"

	"repro/internal/trace"
)

// pullSpans reads the daemon's span ring from /debug/trace on the admin
// listener and takes the generator's own spans out of its recorder.
func (r *runner) pullSpans(res *roundResult) error {
	resp, err := r.d.HTTP.Get(r.d.Debug + "/debug/trace")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET /debug/trace: status %d", resp.StatusCode)
	}
	var tr trace.TraceResponse
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		return fmt.Errorf("decoding /debug/trace: %w", err)
	}
	res.ServerSpans = tr.Spans
	res.SpansDropped = tr.Dropped + r.tracer.Dropped()
	res.ClientSpans = r.tracer.Spans()
	return nil
}

// attrUs reads a duration attribute (fractional milliseconds, the unit
// every duration attribute in this repository uses) as microseconds.
func attrUs(d trace.SpanData, key string) (float64, bool) {
	v := d.Attr(key)
	if v == "" {
		return 0, false
	}
	f, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, false
	}
	return f * 1000, true
}

// spanLayers joins the generator's spans with the daemon's by trace id
// and reduces them to per-layer medians, in microseconds. A layer's self
// time is its span minus the child span it covers: the client call minus
// the daemon's HTTP span is net/http, loopback and the client codec; the
// HTTP span minus the transport span inside it is reading the body and
// writing the ack.
func spanLayers(spec workloadSpec, res *roundResult) map[string]float64 {
	reportSpan := "server.submit_batch"
	if spec.Kind == kindParticipate {
		reportSpan = "server.submit_report"
	}
	var (
		total, lockWait, tableHold, walCommit []float64
		assignTotal, assignCommit             []float64
		handlerSelf                           []float64
	)
	httpByTrace := make(map[string]float64) // the daemon's HTTP span per trace, µs
	innerByTrace := make(map[string]float64)
	for _, d := range res.ServerSpans {
		us := d.DurationMS * 1000
		switch {
		case d.Name == reportSpan:
			total = append(total, us)
			innerByTrace[d.TraceID] = us
			if v, ok := attrUs(d, "lock_wait"); ok {
				lockWait = append(lockWait, v)
			}
			if v, ok := attrUs(d, "table_hold"); ok {
				tableHold = append(tableHold, v)
			}
			if v, ok := attrUs(d, "wal_commit"); ok {
				walCommit = append(walCommit, v)
			}
		case d.Name == "server.assign_task":
			assignTotal = append(assignTotal, us)
			innerByTrace[d.TraceID] = us
			if v, ok := attrUs(d, "wal_commit"); ok {
				assignCommit = append(assignCommit, v)
			}
		case strings.HasSuffix(d.Name, "/reports") || strings.HasSuffix(d.Name, "/task"):
			httpByTrace[d.TraceID] = us
		}
	}
	for id, outer := range httpByTrace {
		if inner, ok := innerByTrace[id]; ok {
			handlerSelf = append(handlerSelf, outer-inner)
		}
	}
	var flush, fetch, submit, rttSelf []float64
	for _, d := range res.ClientSpans {
		us := d.DurationMS * 1000
		switch d.Name {
		case "client.submit_batch":
			flush = append(flush, us)
		case "client.fetch_task":
			fetch = append(fetch, us)
		case "client.submit_report":
			submit = append(submit, us)
		default:
			continue
		}
		if server, ok := httpByTrace[d.TraceID]; ok {
			rttSelf = append(rttSelf, us-server)
		}
	}
	out := make(map[string]float64)
	// A span that does not occur on this workload reads 0.
	p50 := func(name string, xs []float64) {
		out[name] = 0
		if len(xs) > 0 {
			out[name] = median(xs)
		}
	}
	p50("transport.span_total_p50_us", total)
	p50("transport.span_lock_wait_p50_us", lockWait)
	p50("transport.span_table_hold_p50_us", tableHold)
	p50("transport.span_wal_commit_p50_us", walCommit)
	p50("transport.span_handler_self_p50_us", handlerSelf)
	p50("transport.assign_span_total_p50_us", assignTotal)
	p50("transport.assign_span_wal_commit_p50_us", assignCommit)
	p50("client.flush_p50_us", flush)
	p50("client.fetch_task_p50_us", fetch)
	p50("client.submit_p50_us", submit)
	p50("client.rtt_self_p50_us", rttSelf)
	out["trace.spans_dropped"] = float64(res.SpansDropped)
	return out
}

// traceFile is what the traced run leaves in bench/out/trace-<workload>.json.
type traceFile struct {
	Workload    string             `json:"workload"`
	Seed        uint64             `json:"seed"`
	Layers      map[string]float64 `json:"layers"`
	ClientSpans []trace.SpanData   `json:"client_spans"`
	ServerSpans []trace.SpanData   `json:"server_spans"`
}

func writeTraceFile(path string, tf traceFile) error {
	data, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
