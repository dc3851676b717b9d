package transport

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"testing"
	"time"

	machine "repro/internal/session"
	"repro/internal/transport/wire"
	"repro/internal/wal"
)

// replServer builds a server with a WAL attached in dir.
func replServer(t *testing.T, dir string, seed uint64) (*Server, *wal.WAL) {
	t.Helper()
	w, err := wal.Open(wal.Options{Dir: dir, Policy: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	s := NewServer(seed)
	s.AttachWAL(w)
	return s, w
}

// seedSession creates a session on s and pushes n accepted reports.
func seedSession(t *testing.T, s *Server, n int) string {
	t.Helper()
	ctx := context.Background()
	id, err := s.CreateSession(ctx, wire.SessionConfig{Feature: "f", Bits: 4, Gamma: 1})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		client := "c" + strconv.Itoa(i)
		task, err := s.AssignTask(ctx, id, client)
		if err != nil {
			t.Fatal(err)
		}
		ack, err := s.SubmitReport(ctx, id, wire.Report{ClientID: client, Bit: task.Bit, Value: uint64(i % 2)})
		if err != nil || !ack.Accepted {
			t.Fatalf("report %d: ack=%+v err=%v", i, ack, err)
		}
	}
	return id
}

func TestRoleGatingRejectsNonPrimary(t *testing.T) {
	s := NewServer(1)
	ts := httptest.NewServer(s)
	defer ts.Close()

	s.SetRole(RoleStandby)
	s.SetLeaderHint("http://primary.example:8080")

	body := bytes.NewBufferString(`{"feature":"f","bits":4,"gamma":1}`)
	resp, err := http.Post(ts.URL+"/v1/sessions", "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMisdirectedRequest {
		t.Fatalf("standby create status = %d, want 421", resp.StatusCode)
	}
	var env wire.Error
	if err := json.NewDecoder(resp.Body).Decode(&env); err != nil {
		t.Fatal(err)
	}
	if env.Code != wire.CodeNotPrimary {
		t.Errorf("code = %q, want %q", env.Code, wire.CodeNotPrimary)
	}
	if env.Leader != "http://primary.example:8080" {
		t.Errorf("leader hint = %q, want the primary URL", env.Leader)
	}

	// readyz must go not-ready so routers stop sending traffic here.
	resp2, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("standby readyz = %d, want 503", resp2.StatusCode)
	}
	var ready map[string]any
	if err := json.NewDecoder(resp2.Body).Decode(&ready); err != nil {
		t.Fatal(err)
	}
	if ready["role"] != "standby" || ready["ready"] != false {
		t.Errorf("readyz body = %v, want role=standby ready=false", ready)
	}

	// A fenced node refuses identically.
	s.SetRole(RoleFenced)
	resp3, err := http.Get(ts.URL + "/v1/sessions")
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != http.StatusMisdirectedRequest {
		t.Errorf("fenced list status = %d, want 421", resp3.StatusCode)
	}
}

func TestReplStatusAndShipEndpoints(t *testing.T) {
	s, w := replServer(t, t.TempDir(), 1)
	seedSession(t, s, 3)
	ts := httptest.NewServer(s)
	defer ts.Close()

	// Status: primary, epoch 1, head equals the WAL head.
	resp, err := http.Get(ts.URL + "/v1/replication/status")
	if err != nil {
		t.Fatal(err)
	}
	var st wire.ReplStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Role != "primary" || st.Epoch != 1 {
		t.Fatalf("status = %+v, want primary epoch 1", st)
	}
	if st.HeadSeq != w.LastSeq() || st.AppliedSeq != st.HeadSeq {
		t.Fatalf("status seqs = %+v, wal head %d", st, w.LastSeq())
	}

	// Ship the whole log and decode the frame stream.
	resp, err = http.Get(ts.URL + "/v1/replication/wal?from=1")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("wal pull status = %d", resp.StatusCode)
	}
	if got := resp.Header.Get(ReplHeaderEpoch); got != "1" {
		t.Errorf("epoch header = %q, want 1", got)
	}
	if got := resp.Header.Get(ReplHeaderRole); got != "primary" {
		t.Errorf("role header = %q", got)
	}
	var seqs []uint64
	err = DecodeReplFrames(resp.Body, func(seq uint64, payload []byte) error {
		seqs = append(seqs, seq)
		_, err := decodeRecord(seq, payload)
		return err
	})
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if uint64(len(seqs)) != w.LastSeq() {
		t.Fatalf("shipped %d records, wal head %d", len(seqs), w.LastSeq())
	}
	for i, seq := range seqs {
		if seq != uint64(i+1) {
			t.Fatalf("seqs not dense from 1: %v", seqs)
		}
	}

	// Past the head: 200 with an empty stream.
	resp, err = http.Get(ts.URL + "/v1/replication/wal?from=" + strconv.FormatUint(w.LastSeq()+1, 10))
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(b) != 0 {
		t.Fatalf("past-head pull = %d with %d bytes, want empty 200", resp.StatusCode, len(b))
	}

	// Compact, then ask for a pre-compaction sequence: the answer is the
	// checkpoint, named in its header, and the follower resumes after it.
	if _, err := s.CompactWAL(); err != nil {
		t.Fatal(err)
	}
	covered := s.WALSeq()
	seedSession(t, s, 1) // move the head past the compaction point
	resp, err = http.Get(ts.URL + "/v1/replication/wal?from=1")
	if err != nil {
		t.Fatal(err)
	}
	snap, err := ReadSnapshot(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("compacted pull: status %d, checkpoint %v", resp.StatusCode, err)
	}
	if got := resp.Header.Get(ReplHeaderCheckpoint); got != strconv.FormatUint(covered, 10) || snap.WALSeq != covered {
		t.Fatalf("compacted pull served checkpoint header %q for wal seq %d, want %d", got, snap.WALSeq, covered)
	}

	// A log compacted with no checkpoint in its directory (against a
	// -snapshot file, before checkpoints moved there) has nothing to
	// serve: 410.
	bareDir := t.TempDir()
	old, ow := replServer(t, bareDir, 1)
	seedSession(t, old, 1)
	if _, err := ow.WriteCheckpoint(ow.LastSeq(), []byte("not kept")); err != nil {
		t.Fatal(err)
	}
	ow.Close()
	dropCheckpoints(t, bareDir)
	bare, _ := replServer(t, bareDir, 1)
	bts := httptest.NewServer(bare)
	defer bts.Close()
	resp, err = http.Get(bts.URL + "/v1/replication/wal?from=1")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("compacted pull with no checkpoint: status %d, want 410", resp.StatusCode)
	}
}

func TestReplWALFencesOnHigherRequestEpoch(t *testing.T) {
	s, _ := replServer(t, t.TempDir(), 1)
	seedSession(t, s, 1)
	ts := httptest.NewServer(s)
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/v1/replication/wal?from=1&epoch=5")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMisdirectedRequest {
		t.Fatalf("pull with higher epoch = %d, want 421", resp.StatusCode)
	}
	if s.Role() != RoleFenced {
		t.Errorf("role after higher-epoch pull = %v, want fenced", s.Role())
	}
	if s.Epoch() != 5 {
		t.Errorf("epoch = %d, want adopted 5", s.Epoch())
	}
	// Fenced: the promote verb refuses.
	resp, err = http.Post(ts.URL+"/v1/replication/promote", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("promote on fenced node = %d, want 409", resp.StatusCode)
	}
}

// TestApplyReplicatedMirrorsPrimary drives the full follower apply path
// in-process: ship A's log into B, verify B mirrors state and sequence
// space, survives re-application, and rejects gaps.
func TestApplyReplicatedMirrorsPrimary(t *testing.T) {
	a, aw := replServer(t, t.TempDir(), 1)
	id := seedSession(t, a, 4)

	b, bw := replServer(t, t.TempDir(), 2)
	b.SetRole(RoleStandby)

	recs, err := aw.ReadFrom(1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if err := b.ApplyReplicated(rec.Seq, rec.Payload); err != nil {
			t.Fatalf("apply %d: %v", rec.Seq, err)
		}
	}
	if err := b.CommitReplicated(); err != nil {
		t.Fatal(err)
	}
	if b.WALSeq() != a.WALSeq() {
		t.Fatalf("standby applied seq %d, primary %d", b.WALSeq(), a.WALSeq())
	}
	if bw.LastSeq() != aw.LastSeq() {
		t.Fatalf("standby wal head %d, primary %d — mirrored seq space broken", bw.LastSeq(), aw.LastSeq())
	}

	// Re-applying an old record is a no-op; skipping ahead is a hard error.
	if err := b.ApplyReplicated(recs[0].Seq, recs[0].Payload); err != nil {
		t.Errorf("idempotent re-apply errored: %v", err)
	}
	last := recs[len(recs)-1]
	if err := b.ApplyReplicated(last.Seq+2, last.Payload); err == nil {
		t.Error("gap apply succeeded, want error")
	}

	// Promote the standby and finalize the session it inherited: the
	// result must match what the primary would have computed.
	if err := b.Promote(2); err != nil {
		t.Fatal(err)
	}
	resB, err := b.Finalize(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	resA, err := a.Finalize(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if resB.Reports != resA.Reports || resB.Estimate != resA.Estimate {
		t.Errorf("promoted standby result %+v, primary %+v", resB, resA)
	}
}

func TestBootstrapReplicaAlignsAndResumes(t *testing.T) {
	a, aw := replServer(t, t.TempDir(), 1)
	seedSession(t, a, 2)
	snap := a.Snapshot()
	data := checkpointOf(t, snap)

	b, bw := replServer(t, t.TempDir(), 2)
	b.SetRole(RoleStandby)
	if err := b.BootstrapReplica(data); err != nil {
		t.Fatal(err)
	}
	if b.WALSeq() != snap.WALSeq {
		t.Fatalf("bootstrapped applied seq %d, snapshot covers %d", b.WALSeq(), snap.WALSeq)
	}

	// New primary traffic after the snapshot ships incrementally.
	seedSession(t, a, 1)
	recs, err := aw.ReadFrom(snap.WALSeq+1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 {
		t.Fatal("no records after snapshot point")
	}
	for _, rec := range recs {
		if err := b.ApplyReplicated(rec.Seq, rec.Payload); err != nil {
			t.Fatalf("apply %d: %v", rec.Seq, err)
		}
	}
	if err := b.CommitReplicated(); err != nil {
		t.Fatal(err)
	}
	if bw.LastSeq() != aw.LastSeq() {
		t.Fatalf("standby head %d, primary head %d", bw.LastSeq(), aw.LastSeq())
	}

	// Bootstrap refuses to run twice — re-seeding live state is divergence.
	if err := b.BootstrapReplica(data); err == nil {
		t.Error("second bootstrap succeeded, want refusal")
	}
}

// TestBootstrapReplicaFromEndedImage: a standby seeded after the round
// finalized receives the round as its create record and its sums — no
// client entry crosses the wire — and, promoted, serves the primary's result and answers the
// round's clients as the primary would: finalized.
func TestBootstrapReplicaFromEndedImage(t *testing.T) {
	ctx := context.Background()
	a, _ := replServer(t, t.TempDir(), 1)
	id := seedSession(t, a, 20)
	task, err := a.AssignTask(ctx, id, "c0") // re-poll: c0's original task
	if err != nil {
		t.Fatal(err)
	}
	want, err := a.Finalize(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	// Off the route a follower bootstraps from, once compaction has
	// taken the round's records out of the log.
	if _, err := a.CompactWAL(); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(a)
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/replication/wal?from=1")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || resp.Header.Get(ReplHeaderCheckpoint) == "" {
		t.Fatalf("compacted pull: status %d, checkpoint header %q, err %v", resp.StatusCode, resp.Header.Get(ReplHeaderCheckpoint), err)
	}
	if bytes.Contains(body, []byte(`"c0"`)) || len(body) >= 4096 {
		t.Fatalf("bootstrap checkpoint of a finalized round is %d bytes or names a client: %q", len(body), body)
	}
	b, _ := replServer(t, t.TempDir(), 2)
	b.SetRole(RoleStandby)
	if err := b.BootstrapReplica(body); err != nil {
		t.Fatal(err)
	}
	if err := b.Promote(2); err != nil {
		t.Fatal(err)
	}
	if got, err := b.Result(id); err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("promoted standby serves %+v (err %v), primary finalized %+v", got, err, want)
	}
	if got, err := b.Finalize(ctx, id); err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("finalize retried on the promoted standby: %+v (err %v), want %+v", got, err, want)
	}
	if _, err := b.SubmitReport(ctx, id, wire.Report{ClientID: "c0", Bit: task.Bit, Value: 0}); !errors.Is(err, machine.ErrFinalized) {
		t.Errorf("retransmission to the promoted standby: %v, want %v", err, machine.ErrFinalized)
	}
	if _, err := b.AssignTask(ctx, id, "c0"); !errors.Is(err, machine.ErrFinalized) {
		t.Errorf("task re-poll on the promoted standby: %v, want %v", err, machine.ErrFinalized)
	}
}

func TestPromoteDemoteEpochRules(t *testing.T) {
	s := NewServer(1)
	s.SetRole(RoleStandby)
	if err := s.Promote(1); err == nil {
		t.Error("promote with non-advancing epoch succeeded")
	}
	if err := s.Promote(2); err != nil {
		t.Fatal(err)
	}
	if s.Role() != RolePrimary || s.Epoch() != 2 {
		t.Fatalf("after promote: role %v epoch %d", s.Role(), s.Epoch())
	}
	// A stale demote bounces; a current-or-higher one fences.
	if err := s.Demote(1, ""); err == nil {
		t.Error("stale demote succeeded")
	}
	if err := s.Demote(3, "http://new-primary:1"); err != nil {
		t.Fatal(err)
	}
	if s.Role() != RoleFenced || s.Epoch() != 3 {
		t.Fatalf("after demote: role %v epoch %d", s.Role(), s.Epoch())
	}
	if s.LeaderHint() != "http://new-primary:1" {
		t.Errorf("leader hint = %q", s.LeaderHint())
	}
	// Demote is idempotent at the same epoch.
	if err := s.Demote(3, ""); err != nil {
		t.Errorf("same-epoch demote re-delivery errored: %v", err)
	}
}

// TestStandbyDoesNotSweep pins the mirrored-sequence-space invariant: a
// standby past a session's TTL deadline must not log its own expire
// record — that transition arrives from the primary's stream.
func TestStandbyDoesNotSweep(t *testing.T) {
	a, aw := replServer(t, t.TempDir(), 1)
	ctx := context.Background()
	now := time.Unix(1000, 0)
	a.Now = func() time.Time { return now }
	if _, err := a.CreateSession(ctx, wire.SessionConfig{Feature: "f", Bits: 4, Gamma: 1, TTLSeconds: 1}); err != nil {
		t.Fatal(err)
	}

	b, bw := replServer(t, t.TempDir(), 2)
	b.SetRole(RoleStandby)
	b.Now = a.Now
	recs, err := aw.ReadFrom(1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if err := b.ApplyReplicated(rec.Seq, rec.Payload); err != nil {
			t.Fatal(err)
		}
	}

	// Push the shared clock past the deadline and poke the standby's
	// sweep path via a query; its WAL head must not move.
	now = now.Add(time.Hour)
	before := bw.LastSeq()
	b.Sessions()
	b.sweep(now, true)
	if bw.LastSeq() != before {
		t.Fatalf("standby sweep appended records (head %d -> %d)", before, bw.LastSeq())
	}

	// The primary does expire it, and the standby learns by replication.
	a.sweep(now, true)
	tail, err := aw.ReadFrom(before+1, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(tail) == 0 {
		t.Fatal("primary sweep logged nothing past the deadline")
	}
	for _, rec := range tail {
		if err := b.ApplyReplicated(rec.Seq, rec.Payload); err != nil {
			t.Fatal(err)
		}
	}
}

// TestReplicationReportAllocs extends the 0-alloc fast-path guarantee to
// a replicated deployment: with a WAL attached, the role machine active
// and replication routes mounted, the duplicate-submit path still
// allocates nothing.
func TestReplicationReportAllocs(t *testing.T) {
	s, _ := replServer(t, t.TempDir(), 1)
	ctx := context.Background()
	id, err := s.CreateSession(ctx, wire.SessionConfig{Feature: "f", Bits: 4, Gamma: 1})
	if err != nil {
		t.Fatal(err)
	}
	task, err := s.AssignTask(ctx, id, "c1")
	if err != nil {
		t.Fatal(err)
	}
	rep := wire.Report{ClientID: "c1", Bit: task.Bit, Value: 1}
	if _, err := s.SubmitReport(ctx, id, rep); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := s.SubmitReport(ctx, id, rep); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("duplicate submit on a replicated server allocates %.1f/op, want 0", allocs)
	}
}
