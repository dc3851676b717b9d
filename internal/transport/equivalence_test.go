package transport

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/frand"
	machine "repro/internal/session"
	"repro/internal/transport/wire"
	"repro/internal/wal"
)

// A history is a seeded random run of every transition a session can
// take, driven through a live server's three report entry points. The
// driver knows what each submission must come back as, so every step is
// also checked against that expectation.
type histClient struct {
	id       string
	bit      int
	reported bool
	value    uint64
}

type histSession struct {
	id      string
	nBits   int
	closed  error // nil while open, else the error traffic must get
	clients []*histClient
}

type history struct {
	t        *testing.T
	rng      *frand.RNG
	now      time.Time
	s        *Server
	sessions []*histSession
	nClients int
}

var histConfigs = []wire.SessionConfig{
	{Feature: "plain", Bits: 5, Gamma: 1},
	{Feature: "ldp", Bits: 7, Gamma: 0.5, Epsilon: 1.5, SquashThreshold: 0.02, MinCohort: 3},
	{Feature: "probs", Bits: 3, Probs: []float64{1, 2, 5}},
	{Feature: "thr", Bits: 8, Thresholds: []uint64{3, 40, 41, 250}, Epsilon: 3},
	{Feature: "ttl", Bits: 4, Gamma: 1, TTLSeconds: 20, MinCohort: 4},
	{Feature: "auto", Bits: 4, Gamma: 1, TTLSeconds: 15, AutoFinalize: true, MinCohort: 2},
}

func (h *history) create() {
	cfg := histConfigs[h.rng.Intn(len(histConfigs))]
	id, err := h.s.CreateSession(context.Background(), cfg)
	if err != nil {
		h.t.Fatal(err)
	}
	n := cfg.Bits
	if len(cfg.Thresholds) > 0 {
		n = len(cfg.Thresholds)
	}
	h.sessions = append(h.sessions, &histSession{id: id, nBits: n})
}

// sync re-reads which sessions a sweep closed or retired.
func (h *history) sync() {
	live := h.sessions[:0]
	for _, hs := range h.sessions {
		res, err := h.s.Result(hs.id)
		if errors.Is(err, errNotFound) {
			continue // retention delete
		}
		if err != nil {
			h.t.Fatal(err)
		}
		if hs.closed == nil && res.Done {
			hs.closed = machine.ErrFinalized
		}
		live = append(live, hs)
	}
	h.sessions = live
	for _, row := range h.s.Sessions() {
		for _, hs := range h.sessions {
			if hs.id == row.SessionID && row.Expired {
				hs.closed = machine.ErrExpired
			}
		}
	}
}

func (h *history) assign(hs *histSession) {
	ctx := context.Background()
	if len(hs.clients) > 0 && h.rng.Intn(4) == 0 {
		// Re-poll: the original task, whatever the deficit says now.
		c := hs.clients[h.rng.Intn(len(hs.clients))]
		task, err := h.s.AssignTask(ctx, hs.id, c.id)
		if hs.closed != nil {
			if !errors.Is(err, hs.closed) {
				h.t.Fatalf("re-poll on closed session: %v, want %v", err, hs.closed)
			}
			return
		}
		if err != nil || task.Bit != c.bit {
			h.t.Fatalf("re-poll of %s: bit %d err %v, want bit %d", c.id, task.Bit, err, c.bit)
		}
		return
	}
	h.nClients++
	c := &histClient{id: fmt.Sprintf("c%04d", h.nClients)}
	task, err := h.s.AssignTask(ctx, hs.id, c.id)
	if hs.closed != nil {
		if !errors.Is(err, hs.closed) {
			h.t.Fatalf("assign on closed session: %v, want %v", err, hs.closed)
		}
		return
	}
	if err != nil {
		h.t.Fatal(err)
	}
	c.bit = task.Bit
	hs.clients = append(hs.clients, c)
}

// submission builds one report from c (nil: a client the session never
// assigned) and the status it must come back with, updating the driver's
// model for a first-time accept.
func (h *history) submission(hs *histSession, c *histClient) (wire.Report, wire.AckStatus) {
	if c == nil {
		return wire.Report{ClientID: "stranger", Bit: 0, Value: 1}, wire.AckNoTask
	}
	switch k := h.rng.Intn(10); {
	case k == 0:
		return wire.Report{ClientID: c.id, Bit: c.bit, Value: 2}, wire.AckInvalidValue
	case k == 1 && hs.nBits > 1:
		return wire.Report{ClientID: c.id, Bit: (c.bit + 1) % hs.nBits, Value: 1}, wire.AckWrongBit
	case c.reported && k < 5:
		return wire.Report{ClientID: c.id, Bit: c.bit, Value: 1 - c.value}, wire.AckConflict
	case c.reported:
		return wire.Report{ClientID: c.id, Bit: c.bit, Value: c.value}, wire.AckDuplicate
	}
	v := uint64(h.rng.Intn(2))
	if hs.closed == nil {
		c.reported, c.value = true, v
	}
	return wire.Report{ClientID: c.id, Bit: c.bit, Value: v}, wire.AckAccepted
}

// report submits one to six reports from distinct clients through one of
// the three entry points, one time in four followed by a second report
// from one of those clients: it must come back as the session decides it
// once the first is in, whether the two share a request or not.
func (h *history) report(hs *histSession) {
	ctx := context.Background()
	n := 1
	if h.rng.Intn(3) > 0 {
		n = 1 + h.rng.Intn(6)
	}
	var reps []wire.Report
	var want []wire.AckStatus
	var from []*histClient
	for _, i := range h.rng.Perm(len(hs.clients) + 1) {
		if len(reps) == n {
			break
		}
		var c *histClient
		if i < len(hs.clients) {
			c = hs.clients[i]
		}
		from = append(from, c)
	}
	if h.rng.Intn(4) == 0 {
		from = append(from, from[h.rng.Intn(len(from))])
	}
	for _, c := range from {
		rep, st := h.submission(hs, c)
		reps = append(reps, rep)
		want = append(want, st)
	}
	var got []wire.AckStatus
	var err error
	switch h.rng.Intn(3) {
	case 0:
		got, err = h.s.SubmitReportBatch(ctx, hs.id, reps)
	case 1:
		var frame []byte
		if frame, err = wire.AppendReportBatch(nil, reps); err != nil {
			h.t.Fatal(err)
		}
		got, err = h.s.ingestBatchFrame(ctx, hs.id, frame, nil)
	default:
		for _, rep := range reps {
			var ack wire.ReportAck
			if ack, err = h.s.SubmitReport(ctx, hs.id, rep); err != nil {
				break
			}
			st := want[len(got)]
			if ack.Accepted != st.OK() || ack.Duplicate != (st == wire.AckDuplicate) || (ack.Reason == "") != st.OK() {
				h.t.Fatalf("report %+v acked %+v, want %v", rep, ack, st)
			}
			got = append(got, st)
		}
	}
	if hs.closed != nil {
		if !errors.Is(err, hs.closed) {
			h.t.Fatalf("report on closed session: %v, want %v", err, hs.closed)
		}
		return
	}
	if err != nil || !reflect.DeepEqual(got, want) {
		h.t.Fatalf("reports %+v: got %v err %v, want %v", reps, got, err, want)
	}
}

func (h *history) finalize(hs *histSession) {
	_, err := h.s.Finalize(context.Background(), hs.id)
	switch {
	case errors.Is(hs.closed, machine.ErrExpired):
		if !errors.Is(err, machine.ErrExpired) {
			h.t.Fatalf("finalize of expired session: %v", err)
		}
	case err == nil:
		hs.closed = machine.ErrFinalized
	case !errors.Is(err, machine.ErrCohort):
		h.t.Fatal(err)
	}
}

// run drives steps random operations, calling mid once along the way.
func (h *history) run(steps int, mid func()) {
	at := h.rng.Intn(steps)
	for i := 0; i < steps; i++ {
		if i == at {
			mid()
		}
		if len(h.sessions) == 0 || h.rng.Intn(25) == 0 {
			h.create()
			continue
		}
		hs := h.sessions[h.rng.Intn(len(h.sessions))]
		switch k := h.rng.Intn(40); {
		case k < 16:
			h.assign(hs)
		case k < 36:
			h.report(hs)
		case k == 36:
			h.finalize(hs)
		default:
			// Deadlines (expire, auto-finalize) and retention deletes.
			h.now = h.now.Add(time.Duration(1+h.rng.Intn(8)) * time.Second)
			h.s.Sweep()
			h.sync()
		}
	}
}

// canonical returns the server's snapshot, canonicalized.
func canonical(s *Server) *Snapshot { return canonicalize(s.Snapshot()) }

// canonicalize normalizes, in place, the parts of a snapshot that may
// differ between equivalent servers: the cut time, the order the table's
// map yields sessions in, and how an open session's client entries fall
// into chunks and in what order — they are merged into one clients
// record sorted by client.
func canonicalize(snap *Snapshot) *Snapshot {
	snap.SavedAt = time.Time{}
	recs := snap.Records
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].Session < recs[j].Session })
	snap.Records = recs[:0]
	for _, rec := range recs {
		if last := len(snap.Records) - 1; rec.Op == machine.OpClients && snap.Records[last].Op == machine.OpClients {
			merged := snap.Records[last].Entries
			merged.Clients = append(merged.Clients, rec.Entries.Clients...)
			merged.Indexes = append(merged.Indexes, rec.Entries.Indexes...)
			merged.States = append(merged.States, rec.Entries.States...)
			continue
		}
		snap.Records = append(snap.Records, rec)
	}
	for _, rec := range snap.Records {
		e := rec.Entries
		if e == nil {
			continue
		}
		order := make([]int, len(e.Clients))
		for i := range order {
			order[i] = i
		}
		sort.Slice(order, func(a, b int) bool { return e.Clients[order[a]] < e.Clients[order[b]] })
		clients, indexes, states := slices.Clone(e.Clients), slices.Clone(e.Indexes), slices.Clone(e.States)
		for i, j := range order {
			e.Clients[i], e.Indexes[i], e.States[i] = clients[j], indexes[j], states[j]
		}
	}
	return snap
}

// checkpointOf encodes snap as a file or the replication route carries it.
func checkpointOf(t *testing.T, snap *Snapshot) []byte {
	t.Helper()
	data, err := snap.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// follow is a follower's pull loop run in process against primary: pull
// from the standby's applied sequence on — installing an answer that is a
// checkpoint, applying one that is records — until a pull brings nothing.
// It reports whether it was served a checkpoint.
func follow(t *testing.T, primary, standby *Server) (bootstrapped bool) {
	t.Helper()
	for {
		rw := httptest.NewRecorder()
		primary.ServeHTTP(rw, httptest.NewRequest(http.MethodGet, fmt.Sprintf("/v1/replication/wal?from=%d", standby.WALSeq()+1), nil))
		if rw.Code != http.StatusOK {
			t.Fatalf("pull from %d: status %d: %s", standby.WALSeq()+1, rw.Code, rw.Body)
		}
		var err error
		switch {
		case rw.Header().Get(ReplHeaderCheckpoint) != "":
			err = standby.BootstrapReplica(rw.Body.Bytes())
			bootstrapped = true
		case rw.Body.Len() == 0:
			return bootstrapped
		default:
			err = DecodeReplFrames(rw.Body, standby.ApplyReplicated)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestApplyEquivalence is the property the single Apply exists for: the
// state a live server reaches through its handlers is the state every
// other route to it rebuilds — WAL replay from nothing, record-by-record
// replication onto a standby, a mid-history checkpoint in the log's
// directory plus the segments after it, and a follower that joins after
// that compaction, is served the checkpoint, tails the rest and then
// reboots on its own directory.
func TestApplyEquivalence(t *testing.T) {
	histories := 250
	if testing.Short() {
		histories = 40
	}
	served := 0
	for seed := 1; seed <= histories; seed++ {
		// Small segments, so compaction has whole segments to reclaim: at
		// 704 bytes about three in four late followers are served the
		// checkpoint, and the rest tail a log still whole.
		opts := wal.Options{Dir: t.TempDir(), Policy: wal.SyncNever, SegmentBytes: 704}
		w, err := wal.Open(opts)
		if err != nil {
			t.Fatal(err)
		}
		h := &history{t: t, rng: frand.New(uint64(seed)), now: time.Date(2026, 3, 1, 0, 0, 0, 0, time.UTC)}
		clock := func() time.Time { return h.now }
		h.s = NewServer(uint64(seed))
		h.s.Now, h.s.Retention = clock, 12*time.Second
		h.s.AttachWAL(w)
		var mid *Snapshot
		h.run(150+h.rng.Intn(150), func() { mid = h.s.Snapshot() })

		rebuilt := map[string]*Server{}
		fresh := func(name string, log *wal.WAL) *Server {
			s := NewServer(uint64(1000 + seed))
			s.Now = clock
			if log != nil {
				s.AttachWAL(log)
			}
			rebuilt[name] = s
			return s
		}
		if _, err := fresh("replay", w).ReplayWAL(); err != nil {
			t.Fatalf("seed %d: replay: %v", seed, err)
		}
		standby := fresh("replication", nil)
		standby.SetRole(RoleStandby)
		if err := w.Replay(standby.ApplyReplicated); err != nil {
			t.Fatalf("seed %d: replication: %v", seed, err)
		}
		// A checkpoint cut under traffic may hold transitions past the WAL
		// frontier it records (Snapshot reads the frontier first), and
		// replay then meets them a second time. Model that by claiming a
		// frontier a few session transitions earlier than the true one.
		ops := []string{""}
		if err := w.Replay(func(seq uint64, payload []byte) error {
			rec, err := decodeRecord(seq, payload)
			if err == nil {
				ops = append(ops, rec.Op)
			}
			return err
		}); err != nil {
			t.Fatal(err)
		}
		early := mid.WALSeq
		for n := h.rng.Intn(12); n > 0 && early > 0 && ops[early] != machine.OpCreate && ops[early] != machine.OpDelete; n-- {
			early--
		}
		mid.WALSeq = early
		data, err := mid.MarshalBinary()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.WriteCheckpoint(early, data); err != nil {
			t.Fatalf("seed %d: writing the mid-history checkpoint: %v", seed, err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		if w, err = wal.Open(opts); err != nil {
			t.Fatal(err)
		}
		if _, err := fresh("checkpoint+tail", w).ReplayWAL(); err != nil {
			t.Fatalf("seed %d: booting on the mid-history checkpoint and the tail: %v", seed, err)
		}

		h.s.AttachWAL(w)
		joinOpts := wal.Options{Dir: t.TempDir(), Policy: wal.SyncNever}
		jw, err := wal.Open(joinOpts)
		if err != nil {
			t.Fatal(err)
		}
		joined := fresh("follower after compaction", jw)
		joined.SetRole(RoleStandby)
		if follow(t, h.s, joined) {
			served++
		}
		if err := jw.Close(); err != nil {
			t.Fatal(err)
		}
		if jw, err = wal.Open(joinOpts); err != nil {
			t.Fatal(err)
		}
		if _, err := fresh("follower rebooted", jw).ReplayWAL(); err != nil {
			t.Fatalf("seed %d: rebooting the follower on its own directory: %v", seed, err)
		}

		want := canonical(h.s)
		// An ended session is its sums by every route: the live server's
		// checkpoint holds its create record and its end record with the
		// counters, and each rebuild must equal it.
		for i, rec := range want.Records {
			if (rec.Op == machine.OpFinalize || rec.Op == machine.OpExpire) && (rec.Counters == nil || want.Records[i-1].Op != machine.OpCreate) {
				t.Fatalf("seed %d: ended session %s is not its create and end records: %+v", seed, rec.Session, want.Records[i-1:i+1])
			}
		}
		wantJSON, err := json.Marshal(want)
		if err != nil {
			t.Fatal(err)
		}
		for name, s := range rebuilt {
			got := canonical(s)
			gotJSON, err := json.Marshal(got)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) || string(gotJSON) != string(wantJSON) {
				t.Fatalf("seed %d: state rebuilt by %s differs from the live server's:\n got %s\nwant %s", seed, name, gotJSON, wantJSON)
			}
			// The finalized results are recomputed, not stored: compare them
			// through their encoding too, which tells -0 from 0 where ==
			// does not.
			for _, rec := range want.Records {
				if rec.Op != machine.OpCreate {
					continue
				}
				a, _ := h.s.Result(rec.Session)
				b, err := s.Result(rec.Session)
				aJSON, _ := json.Marshal(a)
				bJSON, _ := json.Marshal(b)
				if err != nil || !reflect.DeepEqual(a, b) || string(aJSON) != string(bJSON) {
					t.Fatalf("seed %d: %s serves result %s (err %v) for %s, live serves %s", seed, name, bJSON, err, rec.Session, aJSON)
				}
			}
		}
		for _, log := range []*wal.WAL{w, jw} {
			if err := log.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
	// A mid-history cut that reclaims no whole segment leaves the log
	// whole, and the late follower simply tails it.
	if served < histories/2 {
		t.Errorf("only %d of %d late followers were served a checkpoint", served, histories)
	}
	t.Logf("%d of %d late followers were served a checkpoint", served, histories)
}
