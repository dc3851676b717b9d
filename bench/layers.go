package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/transport"
	"repro/internal/transport/wire"
	"repro/internal/wal"
)

// Layer timings taken in the generator's process, by calling each
// package's exported functions directly: no socket, no second process.
// They say what one layer costs on its own; the end-to-end metrics say
// what that is worth. Sizes are for scale 1.
const (
	layerClients = 100000 // clients already accepted in the big session
	layerBatches = 400    // fresh batches per timed accept path
)

// nsPer times f once and divides by the operations it performed.
func nsPer(ops int, f func() error) (float64, error) {
	t0 := time.Now()
	if err := f(); err != nil {
		return 0, err
	}
	return float64(time.Since(t0).Nanoseconds()) / float64(ops), nil
}

// layerBench owns the in-process servers the timings run against.
type layerBench struct {
	ctx  context.Context
	dir  string
	srv  *transport.Server
	sid  string
	next int // next unused client number
	out  map[string]float64
}

// freshBatches assigns n*batchSize new clients in session sid of srv and
// returns their first-time reports, batch by batch.
func (b *layerBench) freshBatches(srv *transport.Server, sid string, n int) ([][]wire.Report, error) {
	out := make([][]wire.Report, n)
	for i := range out {
		out[i] = make([]wire.Report, batchSize)
		for j := range out[i] {
			id := fmt.Sprintf("dev-%08x", b.next)
			b.next++
			task, err := srv.AssignTask(b.ctx, sid, id)
			if err != nil {
				return nil, err
			}
			out[i][j] = wire.Report{ClientID: id, Bit: task.Bit, Value: uint64(b.next & 1)}
		}
	}
	return out, nil
}

func submitAll(ctx context.Context, srv *transport.Server, sid string, batches [][]wire.Report, want wire.AckStatus) error {
	for _, reps := range batches {
		acks, err := srv.SubmitReportBatch(ctx, sid, reps)
		if err != nil {
			return err
		}
		for _, a := range acks {
			if a != want {
				return fmt.Errorf("layer bench: got %s, want %s", a, want)
			}
		}
	}
	return nil
}

// measureLayers runs every in-process layer timing. scale shrinks the
// sizes for the smoke test.
func measureLayers(tmpRoot string, scale float64) (map[string]float64, error) {
	dir, err := os.MkdirTemp(tmpRoot, "layers-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	b := &layerBench{ctx: context.Background(), dir: dir, out: make(map[string]float64)}
	clients := max(batchSize, int(layerClients*scale)/batchSize*batchSize)
	batches := max(2, int(layerBatches*scale))
	for _, step := range []func(clients, batches int) error{
		b.transportAccept, b.transportHTTP, b.finalize, b.snapshot, b.walAndReplay, b.wireCodec,
	} {
		if err := step(clients, batches); err != nil {
			return nil, err
		}
	}
	return b.out, nil
}

var bigSession = wire.SessionConfig{Feature: "device-metric", Bits: 16, Gamma: 1}

// transportAccept times the session table's programmatic entry points
// on a session that already holds `clients` accepted clients, so the
// client maps have a realistic size.
func (b *layerBench) transportAccept(clients, batches int) (err error) {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	b.srv = transport.NewServer(1)
	if b.sid, err = b.srv.CreateSession(b.ctx, bigSession); err != nil {
		return err
	}
	var seeded [][]wire.Report
	if b.out["transport.assign_fresh_ns"], err = nsPer(clients, func() error {
		seeded, err = b.freshBatches(b.srv, b.sid, clients/batchSize)
		return err
	}); err != nil {
		return err
	}
	if err := submitAll(b.ctx, b.srv, b.sid, seeded, wire.AckAccepted); err != nil {
		return err
	}
	dup := seeded[:min(len(seeded), batches)]
	seeded = nil
	runtime.GC()
	runtime.ReadMemStats(&m1)
	b.out["transport.heap_bytes_per_client"] = float64(m1.HeapAlloc-m0.HeapAlloc) / float64(clients)

	fresh, err := b.freshBatches(b.srv, b.sid, batches)
	if err != nil {
		return err
	}
	if b.out["transport.accept_batch_ns_per_report"], err = nsPer(batches*batchSize, func() error {
		return submitAll(b.ctx, b.srv, b.sid, fresh, wire.AckAccepted)
	}); err != nil {
		return err
	}
	const passes = 5
	if b.out["transport.duplicate_batch_ns_per_report"], err = nsPer(passes*len(dup)*batchSize, func() error {
		for p := 0; p < passes; p++ {
			if err := submitAll(b.ctx, b.srv, b.sid, dup, wire.AckDuplicate); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	bad := make([][]wire.Report, len(dup))
	for i, reps := range dup {
		bad[i] = append([]wire.Report(nil), reps...)
		for j := range bad[i] {
			bad[i][j].Bit = (bad[i][j].Bit + 1) % bigSession.Bits
		}
	}
	if b.out["transport.reject_batch_ns_per_report"], err = nsPer(passes*len(bad)*batchSize, func() error {
		for p := 0; p < passes; p++ {
			if err := submitAll(b.ctx, b.srv, b.sid, bad, wire.AckWrongBit); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}

	single, err := b.freshBatches(b.srv, b.sid, batches)
	if err != nil {
		return err
	}
	if b.out["transport.accept_single_ns"], err = nsPer(batches*batchSize, func() error {
		for _, reps := range single {
			for _, rep := range reps {
				ack, err := b.srv.SubmitReport(b.ctx, b.sid, rep)
				if err != nil || !ack.Accepted || ack.Duplicate {
					return fmt.Errorf("layer bench: single report: %+v %v", ack, err)
				}
			}
		}
		return nil
	}); err != nil {
		return err
	}
	return nil
}

// transportHTTP times Server.ServeHTTP against a recorder: handler,
// request decode, the session table and response encode, with no socket.
func (b *layerBench) transportHTTP(_, batches int) error {
	serve := func(method, path, contentType string, body []byte) error {
		req := httptest.NewRequest(method, path, bytes.NewReader(body))
		if contentType != "" {
			req.Header.Set("Content-Type", contentType)
		}
		rec := httptest.NewRecorder()
		b.srv.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			return fmt.Errorf("layer bench: %s %s: status %d: %s", method, path, rec.Code, rec.Body)
		}
		return nil
	}
	fresh, err := b.freshBatches(b.srv, b.sid, batches)
	if err != nil {
		return err
	}
	frames := make([][]byte, len(fresh))
	for i, reps := range fresh {
		if frames[i], err = wire.AppendReportBatch(nil, reps); err != nil {
			return err
		}
	}
	reports := "/v1/sessions/" + b.sid + "/reports"
	if b.out["transport.http_batch_ns_per_report"], err = nsPer(batches*batchSize, func() error {
		for _, f := range frames {
			if err := serve(http.MethodPost, reports, wire.ReportBatchContentType, f); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	// One request per report from here on, so a quarter as many.
	batches = max(2, batches/4)
	single, err := b.freshBatches(b.srv, b.sid, batches)
	if err != nil {
		return err
	}
	var bodies [][]byte
	for _, reps := range single {
		for _, rep := range reps {
			body, err := json.Marshal(rep)
			if err != nil {
				return err
			}
			bodies = append(bodies, body)
		}
	}
	if b.out["transport.http_single_ns"], err = nsPer(len(bodies), func() error {
		for _, body := range bodies {
			if err := serve(http.MethodPost, reports, "application/json", body); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	n := batches * batchSize
	first := b.next
	b.next += n
	b.out["transport.http_task_ns"], err = nsPer(n, func() error {
		for i := 0; i < n; i++ {
			path := fmt.Sprintf("/v1/sessions/%s/task?client=dev-%08x", b.sid, first+i)
			if err := serve(http.MethodGet, path, "", nil); err != nil {
				return err
			}
		}
		return nil
	})
	return err
}

// finalize times Server.Finalize on the big session, and core.Pool on
// the per-bit counts it produced.
func (b *layerBench) finalize(_, _ int) error {
	t0 := time.Now()
	res, err := b.srv.Finalize(b.ctx, b.sid)
	if err != nil {
		return err
	}
	b.out["transport.finalize_ns"] = float64(time.Since(t0).Nanoseconds())
	probs, err := core.GeometricProbs(bigSession.Bits, bigSession.Gamma)
	if err != nil {
		return err
	}
	part := &core.Result{Counts: res.Counts, Sums: res.Sums, Reports: res.Reports}
	const pools = 20000
	b.out["core.pool_ns"], err = nsPer(pools, func() error {
		for i := 0; i < pools; i++ {
			if _, err := core.Pool(core.Config{Bits: bigSession.Bits, Probs: probs}, part); err != nil {
				return err
			}
		}
		return nil
	})
	return err
}

// snapshot times writing the big session's table to disk and restoring
// it into an empty server.
func (b *layerBench) snapshot(_, _ int) (err error) {
	path := filepath.Join(b.dir, "snapshot.json")
	n := b.next // every client so far was assigned in b.srv
	if b.out["transport.snapshot_write_ns_per_client"], err = nsPer(n, func() error {
		return b.srv.SaveSnapshot(path)
	}); err != nil {
		return err
	}
	info, err := os.Stat(path)
	if err != nil {
		return err
	}
	b.out["transport.snapshot_bytes_per_client"] = float64(info.Size()) / float64(n)
	b.out["transport.restore_ns_per_client"], err = nsPer(n, func() error {
		return transport.NewServer(1).LoadSnapshot(path)
	})
	return err
}

// walAndReplay times the log on its own (append, the two commit
// policies, a raw replay) and under the server (the accept path with a
// log attached, and ReplayWAL, whose excess over the raw replay is the
// cost of applying a record).
func (b *layerBench) walAndReplay(clients, batches int) error {
	open := func(name string, policy wal.SyncPolicy) (*wal.WAL, error) {
		return wal.Open(wal.Options{Dir: filepath.Join(b.dir, name), Policy: policy})
	}
	payload := bytes.Repeat([]byte("x"), 104) // one JSON report record at the seed commit
	log, err := open("append", wal.SyncNever)
	if err != nil {
		return err
	}
	appends := 2 * clients
	if b.out["wal.append_ns"], err = nsPer(appends, func() error {
		for i := 0; i < appends; i++ {
			if _, err := log.Append(payload); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	if err := log.Close(); err != nil {
		return err
	}
	for _, c := range []struct {
		name    string
		policy  wal.SyncPolicy
		commits int
	}{
		{"wal.commit_always_ms", wal.SyncAlways, 200},
		{"wal.commit_grouped_ms", wal.SyncGrouped, 60},
	} {
		log, err := open(c.name, c.policy)
		if err != nil {
			return err
		}
		var took []float64
		for i := 0; i < c.commits; i++ {
			t0 := time.Now()
			seq, err := log.Append(payload)
			if err == nil {
				err = log.Commit(seq)
			}
			if err != nil {
				return err
			}
			took = append(took, ms(time.Since(t0)))
		}
		b.out[c.name] = median(took)
		if err := log.Close(); err != nil {
			return err
		}
	}

	// A server with a log attached from its first record, so that the
	// log replays into an empty server afterwards.
	log, err = open("server", wal.SyncNever)
	if err != nil {
		return err
	}
	srv := transport.NewServer(1)
	srv.AttachWAL(log)
	sid, err := srv.CreateSession(b.ctx, bigSession)
	if err != nil {
		return err
	}
	seeded, err := b.freshBatches(srv, sid, clients/batchSize)
	if err != nil {
		return err
	}
	timed := seeded[len(seeded)-min(len(seeded), batches):]
	if err := submitAll(b.ctx, srv, sid, seeded[:len(seeded)-len(timed)], wire.AckAccepted); err != nil {
		return err
	}
	if b.out["transport.accept_batch_wal_ns_per_report"], err = nsPer(len(timed)*batchSize, func() error {
		return submitAll(b.ctx, srv, sid, timed, wire.AckAccepted)
	}); err != nil {
		return err
	}
	// Exact allocation counts with the log attached: one fresh batch per
	// run, then the same batch again as duplicates.
	const runs = 20
	forAllocs, err := b.freshBatches(srv, sid, runs+1)
	if err != nil {
		return err
	}
	seeded = append(seeded, forAllocs...)
	i := 0
	var allocErr error
	b.out["transport.accept_allocs_per_report"] = testing.AllocsPerRun(runs, func() {
		if err := submitAll(b.ctx, srv, sid, forAllocs[i:i+1], wire.AckAccepted); err != nil {
			allocErr = err
		}
		i++
	}) / batchSize
	b.out["transport.duplicate_allocs_per_report"] = testing.AllocsPerRun(runs, func() {
		if err := submitAll(b.ctx, srv, sid, forAllocs[:1], wire.AckDuplicate); err != nil {
			allocErr = err
		}
	}) / batchSize
	if allocErr != nil {
		return allocErr
	}
	if err := log.Close(); err != nil {
		return err
	}
	records := 1 + 2*len(seeded)*batchSize
	if log, err = open("server", wal.SyncNever); err != nil {
		return err
	}
	if b.out["wal.replay_ns_per_record"], err = nsPer(records, func() error {
		return log.Replay(func(uint64, []byte) error { return nil })
	}); err != nil {
		return err
	}
	srv = transport.NewServer(1)
	srv.AttachWAL(log)
	if b.out["transport.replay_ns_per_record"], err = nsPer(records, func() error {
		applied, err := srv.ReplayWAL()
		if err == nil && applied != records {
			err = fmt.Errorf("layer bench: replayed %d of %d records", applied, records)
		}
		return err
	}); err != nil {
		return err
	}
	return log.Close()
}

// wireCodec times the binary batch codec on a 256-report frame with the
// workloads' client-id shape.
func (b *layerBench) wireCodec(_, _ int) error {
	const frames = 2000
	ids := make([]string, batchSize)
	for i := range ids {
		ids[i] = fmt.Sprintf("dev-%08x", i)
	}
	var w wire.BatchWriter
	var err error
	if b.out["wire.encode_ns_per_report"], err = nsPer(frames*batchSize, func() error {
		for f := 0; f < frames; f++ {
			w.Reset()
			for i, id := range ids {
				if err := w.Add(id, i%16, uint64(i&1)); err != nil {
					return err
				}
			}
		}
		return nil
	}); err != nil {
		return err
	}
	frame := w.Bytes()
	b.out["wire.frame_bytes_per_report"] = float64(len(frame)) / batchSize
	var r wire.BatchReader
	var v wire.ReportView
	if b.out["wire.decode_ns_per_report"], err = nsPer(frames*batchSize, func() error {
		for f := 0; f < frames; f++ {
			if err := r.Reset(frame); err != nil {
				return err
			}
			for {
				ok, err := r.Next(&v)
				if err != nil {
					return err
				}
				if !ok {
					break
				}
			}
		}
		return nil
	}); err != nil {
		return err
	}
	statuses := make([]wire.AckStatus, batchSize)
	var ack []byte
	if b.out["wire.ack_encode_ns_per_report"], err = nsPer(frames*batchSize, func() error {
		for f := 0; f < frames; f++ {
			ack = wire.AppendAckFrame(ack[:0], statuses)
		}
		return nil
	}); err != nil {
		return err
	}
	b.out["wire.ack_decode_ns_per_report"], err = nsPer(frames*batchSize, func() error {
		for f := 0; f < frames; f++ {
			if statuses, err = wire.DecodeAckFrame(ack, statuses[:0]); err != nil {
				return err
			}
		}
		return nil
	})
	return err
}
