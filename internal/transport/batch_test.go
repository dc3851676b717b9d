package transport

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/frand"
	machine "repro/internal/session"
	"repro/internal/transport/wire"
	"repro/internal/wal"
)

// postBinary posts body as a binary batch frame and returns the HTTP
// status.
func postBinary(t *testing.T, base, sessionID string, body []byte) int {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, base+"/v1/sessions/"+sessionID+"/reports", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", wire.ReportBatchContentType)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	_, _ = io.Copy(io.Discard, resp.Body)
	return resp.StatusCode
}

// TestMixedCodecSession interleaves JSON single-report submissions and
// binary batches against one session over the real HTTP stack, checking
// that the two codecs share one acceptance machine: a report accepted
// on either codec re-acks as a duplicate on the other, a conflicting
// value is rejected on both, and the per-record rejections come back as
// the matching ack statuses.
func TestMixedCodecSession(t *testing.T) {
	srv, admin := newTestStack(t)
	ctx := context.Background()
	id, err := admin.CreateSession(ctx, wire.SessionConfig{Feature: "mixed", Bits: 2, Gamma: 1})
	if err != nil {
		t.Fatal(err)
	}
	bits := make(map[string]int)
	for i := 0; i < 4; i++ {
		c := fmt.Sprintf("c%d", i)
		p := &Participant{BaseURL: srv.URL, ClientID: c, RNG: frand.New(uint64(i) + 1)}
		task, err := p.FetchTask(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		bits[c] = task.Bit
	}

	// JSON first: c0 reports 1.
	p0 := &Participant{BaseURL: srv.URL, ClientID: "c0", RNG: frand.New(9)}
	ack, err := p0.SubmitReport(ctx, id, wire.Report{ClientID: "c0", Bit: bits["c0"], Value: 1})
	if err != nil || !ack.Accepted || ack.Duplicate {
		t.Fatalf("JSON accept ack %+v, err %v", ack, err)
	}

	// One binary batch exercising every per-record outcome against the
	// same session state the JSON report just created.
	br := &BinaryReporter{BaseURL: srv.URL}
	adds := []struct {
		client string
		bit    int
		value  uint64
		want   wire.AckStatus
	}{
		{"c0", bits["c0"], 1, wire.AckDuplicate},    // JSON-accepted, binary retransmission
		{"c0", bits["c0"], 0, wire.AckConflict},     // JSON-accepted, conflicting value
		{"c1", bits["c1"], 1, wire.AckAccepted},     // fresh accept via binary
		{"ghost", 0, 1, wire.AckNoTask},             // never assigned
		{"c2", bits["c2"] ^ 1, 1, wire.AckWrongBit}, // off-assignment bit
		{"c3", bits["c3"], 7, wire.AckInvalidValue}, // not a bit
	}
	for _, a := range adds {
		if err := br.Add(a.client, a.bit, a.value); err != nil {
			t.Fatal(err)
		}
	}
	acks, err := br.Flush(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if len(acks) != len(adds) {
		t.Fatalf("got %d acks for %d records", len(acks), len(adds))
	}
	for i, a := range adds {
		if acks[i] != a.want {
			t.Errorf("record %d (%s bit=%d value=%d): ack %v, want %v",
				i, a.client, a.bit, a.value, acks[i], a.want)
		}
	}

	// Back to JSON: the binary-accepted report must re-ack as a duplicate
	// and its conflicting retransmission must be rejected — identical
	// idempotency whichever codec accepted it.
	p1 := &Participant{BaseURL: srv.URL, ClientID: "c1", RNG: frand.New(10)}
	ack, err = p1.SubmitReport(ctx, id, wire.Report{ClientID: "c1", Bit: bits["c1"], Value: 1})
	if err != nil || !ack.Accepted || !ack.Duplicate {
		t.Fatalf("cross-codec duplicate ack %+v, err %v", ack, err)
	}
	ack, err = p1.SubmitReport(ctx, id, wire.Report{ClientID: "c1", Bit: bits["c1"], Value: 0})
	if err != nil || ack.Accepted {
		t.Fatalf("cross-codec conflict ack %+v, err %v", ack, err)
	}

	// Finish the stragglers on the binary codec and finalize: exactly the
	// four accepted reports count, whichever codec carried them.
	if err := br.Add("c2", bits["c2"], 0); err != nil {
		t.Fatal(err)
	}
	if err := br.Add("c3", bits["c3"], 1); err != nil {
		t.Fatal(err)
	}
	if acks, err = br.Flush(ctx, id); err != nil {
		t.Fatal(err)
	}
	for i, st := range acks {
		if st != wire.AckAccepted {
			t.Fatalf("straggler %d ack %v", i, st)
		}
	}
	res, err := admin.Finalize(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Done || res.Reports != 4 {
		t.Fatalf("finalized result %+v, want 4 reports", res)
	}
}

// TestBatchFramingRejected drives malformed binary bodies through the
// negotiated route: framing violations must come back as plain 400s
// without touching session state.
func TestBatchFramingRejected(t *testing.T) {
	srv, admin := newTestStack(t)
	ctx := context.Background()
	id, err := admin.CreateSession(ctx, wire.SessionConfig{Feature: "f", Bits: 2, Gamma: 1})
	if err != nil {
		t.Fatal(err)
	}
	frame, err := wire.AppendReportBatch(nil, []wire.Report{{ClientID: "c", Bit: 0, Value: 1}})
	if err != nil {
		t.Fatal(err)
	}
	for name, body := range map[string][]byte{
		"truncated":   frame[:len(frame)-2],
		"bad magic":   append([]byte("XXXX"), frame[4:]...),
		"corrupt crc": append(append([]byte(nil), frame[:len(frame)-1]...), frame[len(frame)-1]^0xff),
	} {
		resp := postBinary(t, srv.URL, id, body)
		if resp != 400 {
			t.Errorf("%s: status %d, want 400", name, resp)
		}
	}
	res, err := admin.Result(ctx, id)
	if err != nil || res.Reports != 0 {
		t.Fatalf("malformed frames left state behind: %+v, err %v", res, err)
	}
}

// TestBatchUnknownSession checks whole-batch failures use the JSON
// error envelope and its status codes.
func TestBatchUnknownSession(t *testing.T) {
	srv, _ := newTestStack(t)
	frame, err := wire.AppendReportBatch(nil, []wire.Report{{ClientID: "c", Bit: 0, Value: 1}})
	if err != nil {
		t.Fatal(err)
	}
	if status := postBinary(t, srv.URL, "nope", frame); status != 404 {
		t.Fatalf("unknown session batch status %d, want 404", status)
	}
}

// TestBatchConcurrentSwarm hammers a small set of hot sessions from
// many goroutines mixing both codecs — fresh accepts, retransmissions,
// snapshot and listing readers — and then checks no accepted report was
// lost or double-counted. Run under -race this is the striped table's
// interleaving certificate.
func TestBatchConcurrentSwarm(t *testing.T) {
	s := NewServer(11)
	ctx := context.Background()
	const sessions = 3
	const workers = 8
	const perWorker = 40
	ids := make([]string, sessions)
	for i := range ids {
		id, err := s.CreateSession(ctx, wire.SessionConfig{Feature: fmt.Sprintf("f%d", i), Bits: 3, Gamma: 1})
		if err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	var wg sync.WaitGroup
	errc := make(chan error, workers*sessions+4)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for si, id := range ids {
				var reports []wire.Report
				for k := 0; k < perWorker; k++ {
					c := fmt.Sprintf("w%d-s%d-c%d", w, si, k)
					task, err := s.AssignTask(ctx, id, c)
					if err != nil {
						errc <- err
						return
					}
					reports = append(reports, wire.Report{ClientID: c, Bit: task.Bit, Value: uint64(k & 1)})
				}
				if w%2 == 0 {
					// Binary batch, submitted twice: second pass must be
					// all duplicates.
					frame, err := wire.AppendReportBatch(nil, reports)
					if err != nil {
						errc <- err
						return
					}
					for pass := 0; pass < 2; pass++ {
						acks, err := s.ingestBatchFrame(ctx, id, frame, nil)
						if err != nil {
							errc <- err
							return
						}
						for _, st := range acks {
							if !st.OK() {
								errc <- fmt.Errorf("swarm ack %v", st)
								return
							}
						}
					}
				} else {
					// JSON singles, each retransmitted once.
					for _, rep := range reports {
						for pass := 0; pass < 2; pass++ {
							ack, err := s.SubmitReport(ctx, id, rep)
							if err != nil {
								errc <- err
								return
							}
							if !ack.Accepted {
								errc <- fmt.Errorf("swarm rejection %+v", ack)
								return
							}
						}
					}
				}
			}
		}(w)
	}
	// Concurrent readers: listings, progress views and snapshots must
	// never tear or race against the striped writers.
	stopRead := make(chan struct{})
	var rg sync.WaitGroup
	rg.Add(1)
	go func() {
		defer rg.Done()
		for {
			select {
			case <-stopRead:
				return
			default:
			}
			s.Sessions()
			_ = s.Snapshot()
			for _, id := range ids {
				if _, err := s.Result(id); err != nil {
					errc <- err
					return
				}
			}
		}
	}()
	wg.Wait()
	close(stopRead)
	rg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
	for _, id := range ids {
		res, err := s.Finalize(ctx, id)
		if err != nil {
			t.Fatal(err)
		}
		if want := workers * perWorker; res.Reports != want {
			t.Fatalf("session %s finalized with %d reports, want %d", id, res.Reports, want)
		}
	}
}

// TestBatchIngestAllocs pins the warm binary submit path at zero
// allocations per batch with tracing off: a retransmitted frame (every
// record a duplicate) must run the decoder, the acceptance machine and
// the ack assembly without touching the heap.
func TestBatchIngestAllocs(t *testing.T) {
	s := NewServer(5)
	ctx := context.Background()
	id, err := s.CreateSession(ctx, wire.SessionConfig{Feature: "f", Bits: 4, Gamma: 1})
	if err != nil {
		t.Fatal(err)
	}
	const n = 64
	var reports []wire.Report
	for i := 0; i < n; i++ {
		c := fmt.Sprintf("client-%03d", i)
		task, err := s.AssignTask(ctx, id, c)
		if err != nil {
			t.Fatal(err)
		}
		reports = append(reports, wire.Report{ClientID: c, Bit: task.Bit, Value: 1})
	}
	frame, err := wire.AppendReportBatch(nil, reports)
	if err != nil {
		t.Fatal(err)
	}
	acks := make([]wire.AckStatus, 0, n)
	// First pass accepts (and allocates — map inserts, key strings); the
	// guard measures the warm path.
	acks, err = s.ingestBatchFrame(ctx, id, frame, acks[:0])
	if err != nil || len(acks) != n {
		t.Fatalf("warmup: %d acks, err %v", len(acks), err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		acks, err = s.ingestBatchFrame(ctx, id, frame, acks[:0])
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range acks {
			if st != wire.AckDuplicate {
				t.Fatalf("warm ack %v", st)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("warm binary batch ingest allocates %.1f/op, want 0", allocs)
	}
}

// TestBatchRepeatsClient: a request naming one client twice gets the
// second copy decided as the session would decide it after the first — the
// same value a duplicate, the other a conflict — and the one record the
// request logs names each client once, so the log reboots to the live
// state. Both batch entry points, each on its own session.
func TestBatchRepeatsClient(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	s, w := newWALServer(t, dir, 1)
	s.Now = func() time.Time { return time.Unix(1700000000, 0).UTC() }
	var ids []string
	for _, binary := range []bool{false, true} {
		id, err := s.CreateSession(ctx, wire.SessionConfig{Feature: "twice", Bits: 2, Gamma: 1})
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
		bits := map[string]int{}
		for _, c := range []string{"a", "b", "c"} {
			task, err := s.AssignTask(ctx, id, c)
			if err != nil {
				t.Fatal(err)
			}
			bits[c] = task.Bit
		}
		reps := []wire.Report{
			{ClientID: "a", Bit: bits["a"], Value: 1},
			{ClientID: "b", Bit: bits["b"], Value: 0},
			{ClientID: "a", Bit: bits["a"], Value: 1},
			{ClientID: "b", Bit: bits["b"], Value: 1},
			{ClientID: "c", Bit: bits["c"], Value: 1},
		}
		want := []wire.AckStatus{wire.AckAccepted, wire.AckAccepted, wire.AckDuplicate, wire.AckConflict, wire.AckAccepted}
		before := s.WALSeq()
		var acks []wire.AckStatus
		if binary {
			frame, ferr := wire.AppendReportBatch(nil, reps)
			if ferr != nil {
				t.Fatal(ferr)
			}
			acks, err = s.ingestBatchFrame(ctx, id, frame, nil)
		} else {
			acks, err = s.SubmitReportBatch(ctx, id, reps)
		}
		if err != nil || !reflect.DeepEqual(acks, want) {
			t.Fatalf("binary=%v: acks %v (err %v), want %v", binary, acks, err, want)
		}
		recs, err := w.ReadFrom(before+1, 0, 0)
		if err != nil || len(recs) != 1 {
			t.Fatalf("binary=%v: the request logged %d records (err %v), want one", binary, len(recs), err)
		}
		rec, err := machine.DecodeRecord(recs[0].Payload)
		if err != nil {
			t.Fatal(err)
		}
		wantEntries := &machine.Entries{Clients: []string{"a", "b", "c"},
			Indexes: []int{bits["a"], bits["b"], bits["c"]}, States: []uint8{2, 1, 2}}
		if rec.Op != machine.OpClients || !reflect.DeepEqual(rec.Entries, wantEntries) {
			t.Fatalf("binary=%v: logged %s %+v, want the clients once each: %+v", binary, rec.Op, rec.Entries, wantEntries)
		}
	}
	want, wantRes := canonical(s), stateFingerprint(t, s)
	rebooted, _ := reboot(t, w, dir, RolePrimary)
	if got := canonical(rebooted); !reflect.DeepEqual(got, want) {
		t.Errorf("rebooted to\n%+v\nwant\n%+v", got, want)
	}
	if got := stateFingerprint(t, rebooted); got != wantRes {
		t.Errorf("rebooted results\n%s\nwant\n%s", got, wantRes)
	}
	for _, id := range ids {
		if res, err := rebooted.Result(id); err != nil || res.Reports != 3 {
			t.Errorf("session %s rebooted with %+v (err %v), want 3 reports", id, res, err)
		}
	}
}

// TestBatchPastChunkBoundLogsSeveralRecords: ids from the JSON and
// programmatic paths have no length cap, so one request's accepted ids can
// pass the 1 MiB bound of one record. Five 300 KiB ids are logged as a
// clients record of the four that fit and a report record for the fifth,
// and the log reboots to the live state.
func TestBatchPastChunkBoundLogsSeveralRecords(t *testing.T) {
	ctx := context.Background()
	dir := t.TempDir()
	s, w := newWALServer(t, dir, 1)
	s.Now = func() time.Time { return time.Unix(1700000000, 0).UTC() }
	id, err := s.CreateSession(ctx, wire.SessionConfig{Feature: "long", Bits: 4, Gamma: 1})
	if err != nil {
		t.Fatal(err)
	}
	reps := make([]wire.Report, 5)
	for i := range reps {
		c := fmt.Sprintf("%d-%s", i, bytes.Repeat([]byte("x"), 300<<10))
		task, err := s.AssignTask(ctx, id, c)
		if err != nil {
			t.Fatal(err)
		}
		reps[i] = wire.Report{ClientID: c, Bit: task.Bit, Value: uint64(i & 1)}
	}
	before := s.WALSeq()
	acks, err := s.SubmitReportBatch(ctx, id, reps)
	if allAccepted := make([]wire.AckStatus, len(reps)); err != nil || !reflect.DeepEqual(acks, allAccepted) {
		t.Fatalf("acks %v (err %v), want all accepted", acks, err)
	}
	recs, err := w.ReadFrom(before+1, 0, 0)
	if err != nil || len(recs) != 2 {
		t.Fatalf("the request logged %d records (err %v), want two", len(recs), err)
	}
	var got [2]*machine.Record
	for i, r := range recs {
		if got[i], err = machine.DecodeRecord(r.Payload); err != nil {
			t.Fatal(err)
		}
	}
	var first []string
	for _, r := range reps[:4] {
		first = append(first, r.ClientID)
	}
	if got[0].Op != machine.OpClients || !reflect.DeepEqual(got[0].Entries.Clients, first) {
		t.Errorf("first record is not a clients record of the first four reports")
	}
	if got[1].Op != machine.OpReport || got[1].Client != reps[4].ClientID {
		t.Errorf("second record is not the fifth report")
	}
	want := canonical(s)
	rebooted, _ := reboot(t, w, dir, RolePrimary)
	if got := canonical(rebooted); !reflect.DeepEqual(got, want) {
		t.Errorf("rebooted to a state other than the live one")
	}
}

// assignedBatch assigns n fresh clients of session id, named from prefix,
// and returns their reports as a binary batch frame.
func assignedBatch(t *testing.T, s *Server, id, prefix string, n int) []byte {
	t.Helper()
	reps := make([]wire.Report, n)
	for i := range reps {
		c := fmt.Sprintf("%s-%07d", prefix, i)
		task, err := s.AssignTask(context.Background(), id, c)
		if err != nil {
			t.Fatal(err)
		}
		reps[i] = wire.Report{ClientID: c, Bit: task.Bit, Value: uint64(i & 1)}
	}
	frame, err := wire.AppendReportBatch(nil, reps)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

// TestBatchAppendFailureAppliesNothing: a batch is one record, so one
// whose append fails is refused whole — 503, no count moved — and its
// retry is accepted whole rather than acked as duplicates of reports no
// log holds.
func TestBatchAppendFailureAppliesNothing(t *testing.T) {
	ctx := context.Background()
	s, w := newWALServer(t, t.TempDir(), 1)
	srv := httptest.NewServer(s)
	defer srv.Close()
	id, err := s.CreateSession(ctx, wire.SessionConfig{Feature: "f", Bits: 4, Gamma: 1})
	if err != nil {
		t.Fatal(err)
	}
	const n = 256
	frame := assignedBatch(t, s, id, "c", n)
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if status := postBinary(t, srv.URL, id, frame); status != http.StatusServiceUnavailable {
		t.Fatalf("batch over a failing log: status %d, want 503", status)
	}
	if res, err := s.Result(id); err != nil || res.Reports != 0 {
		t.Fatalf("the refused batch left %+v (err %v)", res, err)
	}
	if c := s.metrics.reports.With(ReportAccepted).Value(); c != 0 {
		t.Fatalf("the refused batch counted %d accepted reports", c)
	}
	fresh, err := wal.Open(wal.Options{Dir: t.TempDir(), Policy: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	s.AttachWAL(fresh)
	acks, err := s.ingestBatchFrame(ctx, id, frame, nil)
	if err != nil || len(acks) != n {
		t.Fatalf("retry: %d acks, err %v", len(acks), err)
	}
	for i, st := range acks {
		if st != wire.AckAccepted {
			t.Fatalf("retry ack %d is %v, want accepted", i, st)
		}
	}
	if res, err := s.Result(id); err != nil || res.Reports != n {
		t.Fatalf("after the retry: %+v (err %v), want %d reports", res, err, n)
	}
}

// TestBatchAcceptWALAllocs pins the durable first-time accept path: a warm
// 256-report binary batch of fresh clients, logged as one record, costs
// at most one allocation a report — the accepted client id's string, which
// the session keeps.
func TestBatchAcceptWALAllocs(t *testing.T) {
	s, w := newWALServer(t, t.TempDir(), 5)
	defer w.Close()
	ctx := context.Background()
	id, err := s.CreateSession(ctx, wire.SessionConfig{Feature: "f", Bits: 8, Gamma: 1})
	if err != nil {
		t.Fatal(err)
	}
	const n, runs = 256, 20
	frames := make([][]byte, runs+1)
	for i := range frames {
		frames[i] = assignedBatch(t, s, id, fmt.Sprintf("r%02d", i), n)
	}
	acks := make([]wire.AckStatus, 0, n)
	next := 0
	allocs := testing.AllocsPerRun(runs, func() {
		acks, err = s.ingestBatchFrame(ctx, id, frames[next], acks[:0])
		next++
		if err != nil || len(acks) != n || acks[n-1] != wire.AckAccepted {
			t.Fatalf("batch %d: %d acks, err %v", next, len(acks), err)
		}
	})
	if perReport := allocs / n; perReport > 1 {
		t.Errorf("a warm accepted batch allocates %.2f a report, want at most 1", perReport)
	}
}
