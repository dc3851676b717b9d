package replica

import (
	"context"
	"net/http/httptest"
	"reflect"
	"strconv"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/transport/wire"
	"repro/internal/wal"
)

// node is one server with a WAL and an HTTP listener.
type node struct {
	srv *transport.Server
	w   *wal.WAL
	ts  *httptest.Server
	dir string
}

func newNode(t *testing.T, seed uint64) *node {
	t.Helper()
	dir := t.TempDir()
	w, err := wal.Open(wal.Options{Dir: dir, Policy: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	s := transport.NewServer(seed)
	s.AttachWAL(w)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return &node{srv: s, w: w, ts: ts, dir: dir}
}

func seedReports(t *testing.T, s *transport.Server, id string, start, n int) {
	t.Helper()
	ctx := context.Background()
	for i := start; i < start+n; i++ {
		client := "c" + strconv.Itoa(i)
		task, err := s.AssignTask(ctx, id, client)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.SubmitReport(ctx, id, wire.Report{ClientID: client, Bit: task.Bit, Value: 1}); err != nil {
			t.Fatal(err)
		}
	}
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func follower(t *testing.T, standby, primary *node, opts func(*Options)) (*Follower, context.CancelFunc, chan struct{}) {
	t.Helper()
	standby.srv.SetRole(transport.RoleStandby)
	o := Options{
		Server:       standby.srv,
		Primary:      transport.NewEndpointList(primary.ts.URL),
		SelfURL:      standby.ts.URL,
		Registry:     obs.NewRegistry(),
		WaitMS:       50,
		PollInterval: 10 * time.Millisecond,
		SalvageDir:   primary.dir,
	}
	if opts != nil {
		opts(&o)
	}
	f, err := New(o)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := f.Run(ctx); err != nil {
			t.Errorf("follower run: %v", err)
		}
	}()
	t.Cleanup(func() { cancel(); <-done })
	return f, cancel, done
}

// TestFollowerReplicatesSalvagesAndPromotes is the whole failover story
// in-process: live replication keeps the standby warm, the follower is
// stopped (network loss analog), the primary acks more traffic and
// dies, and promotion drains that unshipped tail from the dead
// primary's log so the promoted node's result counts every acked
// report.
func TestFollowerReplicatesSalvagesAndPromotes(t *testing.T) {
	primary := newNode(t, 1)
	standby := newNode(t, 2)

	ctx := context.Background()
	id, err := primary.srv.CreateSession(ctx, wire.SessionConfig{Feature: "f", Bits: 4, Gamma: 1})
	if err != nil {
		t.Fatal(err)
	}
	seedReports(t, primary.srv, id, 0, 3)

	f, cancel, done := follower(t, standby, primary, nil)
	waitFor(t, "standby catch-up", func() bool {
		return standby.srv.WALSeq() == primary.srv.WALSeq()
	})
	if standby.w.LastSeq() != primary.w.LastSeq() {
		t.Fatalf("standby log head %d, primary %d", standby.w.LastSeq(), primary.w.LastSeq())
	}

	// Cut replication, then ack more traffic the standby never sees.
	cancel()
	<-done
	seedReports(t, primary.srv, id, 3, 2)
	if standby.srv.WALSeq() == primary.srv.WALSeq() {
		t.Fatal("test needs an unshipped tail")
	}
	primary.ts.Close() // the primary "dies"

	if err := f.Promote(ctx); err != nil {
		t.Fatalf("promote: %v", err)
	}
	if standby.srv.Role() != transport.RolePrimary {
		t.Fatalf("role after promote = %v", standby.srv.Role())
	}
	if got, want := standby.srv.Epoch(), uint64(2); got != want {
		t.Fatalf("epoch = %d, want %d", got, want)
	}
	if standby.srv.WALSeq() != primary.srv.WALSeq() {
		t.Fatalf("salvage missed records: standby %d, primary %d",
			standby.srv.WALSeq(), primary.srv.WALSeq())
	}
	res, err := standby.srv.Finalize(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	if res.Reports != 5 {
		t.Fatalf("promoted node counts %d reports, 5 were acked", res.Reports)
	}
}

// TestFollowerBootstrapsAfterCompaction starts a follower against a
// primary whose early log was compacted away: the pull must
// answer with the primary's checkpoint, after which tailing resumes
// normally.
func TestFollowerBootstrapsAfterCompaction(t *testing.T) {
	primary := newNode(t, 1)
	ctx := context.Background()
	id, err := primary.srv.CreateSession(ctx, wire.SessionConfig{Feature: "f", Bits: 4, Gamma: 1})
	if err != nil {
		t.Fatal(err)
	}
	seedReports(t, primary.srv, id, 0, 3)
	if _, err := primary.srv.CompactWAL(); err != nil {
		t.Fatal(err)
	}
	seedReports(t, primary.srv, id, 3, 2)

	standby := newNode(t, 2)
	follower(t, standby, primary, nil)
	waitFor(t, "bootstrap + catch-up", func() bool {
		return standby.srv.WALSeq() == primary.srv.WALSeq()
	})
	// Post-bootstrap traffic still ships record by record.
	seedReports(t, primary.srv, id, 5, 1)
	waitFor(t, "incremental after bootstrap", func() bool {
		return standby.srv.WALSeq() == primary.srv.WALSeq()
	})
}

// TestBootstrappedStandbyReboots: a standby bootstrapped from the
// primary's checkpoint, which then mirrors more records, must reboot on
// its own WAL directory alone to the primary's state — the checkpoint it
// was served is part of that directory, not only of its memory.
func TestBootstrappedStandbyReboots(t *testing.T) {
	primary := newNode(t, 1)
	ctx := context.Background()
	id, err := primary.srv.CreateSession(ctx, wire.SessionConfig{Feature: "f", Bits: 4, Gamma: 1})
	if err != nil {
		t.Fatal(err)
	}
	seedReports(t, primary.srv, id, 0, 3)
	if _, err := primary.srv.CompactWAL(); err != nil {
		t.Fatal(err)
	}
	standby := newNode(t, 2)
	_, cancel, done := follower(t, standby, primary, nil)
	waitFor(t, "bootstrap", func() bool { return standby.srv.WALSeq() == primary.srv.WALSeq() })
	seedReports(t, primary.srv, id, 3, 2) // mirrored records after the checkpoint
	waitFor(t, "mirroring", func() bool { return standby.srv.WALSeq() == primary.srv.WALSeq() })
	cancel()
	<-done
	want, err := primary.srv.Result(id)
	if err != nil {
		t.Fatal(err)
	}

	if err := standby.w.Close(); err != nil {
		t.Fatal(err)
	}
	w, err := wal.Open(wal.Options{Dir: standby.dir, Policy: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	rebooted := transport.NewServer(3)
	rebooted.AttachWAL(w)
	if _, err := rebooted.ReplayWAL(); err != nil {
		t.Fatalf("standby rebooting on its own directory: %v", err)
	}
	if got, err := rebooted.Result(id); err != nil || !reflect.DeepEqual(got, want) || rebooted.WALSeq() != primary.srv.WALSeq() {
		t.Fatalf("rebooted standby serves %+v at seq %d (err %v), primary %+v at seq %d",
			got, rebooted.WALSeq(), err, want, primary.srv.WALSeq())
	}
}

// TestAutoPromoteOnProbeFailure kills the primary and lets the prober
// take over without any operator involvement.
func TestAutoPromoteOnProbeFailure(t *testing.T) {
	primary := newNode(t, 1)
	ctx := context.Background()
	id, err := primary.srv.CreateSession(ctx, wire.SessionConfig{Feature: "f", Bits: 4, Gamma: 1})
	if err != nil {
		t.Fatal(err)
	}
	seedReports(t, primary.srv, id, 0, 2)

	standby := newNode(t, 2)
	f, _, _ := follower(t, standby, primary, func(o *Options) {
		o.FailoverAfter = 2
		o.ProbeInterval = 20 * time.Millisecond
	})
	waitFor(t, "catch-up", func() bool {
		return standby.srv.WALSeq() == primary.srv.WALSeq()
	})
	primary.ts.Close()
	waitFor(t, "automatic promotion", f.Promoted)
	waitFor(t, "role flip", func() bool {
		return standby.srv.Role() == transport.RolePrimary
	})
	if standby.srv.Epoch() != 2 {
		t.Errorf("epoch = %d, want 2", standby.srv.Epoch())
	}
	if _, err := standby.srv.Finalize(ctx, id); err != nil {
		t.Errorf("finalize on auto-promoted node: %v", err)
	}
}

// TestFollowerFencesZombiePrimary gives the follower a higher epoch
// than the primary: the pull itself must fence the stale primary (the
// request carries our epoch) and no records from it may be applied.
func TestFollowerFencesZombiePrimary(t *testing.T) {
	primary := newNode(t, 1)
	ctx := context.Background()
	id, err := primary.srv.CreateSession(ctx, wire.SessionConfig{Feature: "f", Bits: 4, Gamma: 1})
	if err != nil {
		t.Fatal(err)
	}
	seedReports(t, primary.srv, id, 0, 2)

	standby := newNode(t, 2)
	standby.srv.SetEpoch(7) // this follower has seen a newer world
	follower(t, standby, primary, nil)
	waitFor(t, "primary fenced by pull epoch", func() bool {
		return primary.srv.Role() == transport.RoleFenced
	})
	if primary.srv.Epoch() != 7 {
		t.Errorf("fenced primary epoch = %d, want adopted 7", primary.srv.Epoch())
	}
	if standby.srv.WALSeq() != 0 {
		t.Errorf("follower applied %d records from a stale-epoch primary", standby.srv.WALSeq())
	}
}

// TestPrimaryShutdownKeepsUnshippedTail: a primary shut down gracefully —
// what fednumd does on SIGTERM: stop serving, compact, close the log —
// while its standby lags by two reports leaves the standby able to go on:
// it resumes tailing once the primary boots again, with no checkpoint
// (which it would refuse, holding state), and while the primary stays
// down it salvages the tail from the primary's directory and promotes.
func TestPrimaryShutdownKeepsUnshippedTail(t *testing.T) {
	ctx := context.Background()
	// lagging returns a standby two reports behind a primary that has just
	// shut down, and the session.
	lagging := func(t *testing.T) (primary, standby *node, f *Follower, id string) {
		primary, standby = newNode(t, 1), newNode(t, 2)
		id, err := primary.srv.CreateSession(ctx, wire.SessionConfig{Feature: "f", Bits: 4, Gamma: 1})
		if err != nil {
			t.Fatal(err)
		}
		seedReports(t, primary.srv, id, 0, 3)
		f, cancel, done := follower(t, standby, primary, nil)
		waitFor(t, "standby catch-up", func() bool { return standby.srv.WALSeq() == primary.srv.WALSeq() })
		cancel()
		<-done
		seedReports(t, primary.srv, id, 3, 2)
		primary.ts.Close()
		if _, err := primary.srv.CompactWAL(); err != nil {
			t.Fatal(err)
		}
		if err := primary.w.Close(); err != nil {
			t.Fatal(err)
		}
		if standby.srv.WALSeq() == primary.srv.WALSeq() {
			t.Fatal("test needs an unshipped tail")
		}
		return primary, standby, f, id
	}

	t.Run("primary restarts", func(t *testing.T) {
		primary, standby, _, id := lagging(t)
		w, err := wal.Open(wal.Options{Dir: primary.dir, Policy: wal.SyncAlways})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { w.Close() })
		back := transport.NewServer(3)
		back.AttachWAL(w)
		if _, err := back.ReplayWAL(); err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(back)
		t.Cleanup(ts.Close)
		reg := obs.NewRegistry()
		follower(t, standby, &node{srv: back, w: w, ts: ts, dir: primary.dir}, func(o *Options) { o.Registry = reg })
		waitFor(t, "standby tailing the restarted primary", func() bool { return standby.srv.WALSeq() == back.WALSeq() })
		seedReports(t, back, id, 5, 1)
		waitFor(t, "standby tailing new traffic", func() bool { return standby.srv.WALSeq() == back.WALSeq() })
		if n := reg.Counter(MetricBootstraps, "").Value(); n != 0 {
			t.Errorf("the standby was served %d checkpoints, want the log", n)
		}
		if got, err := standby.srv.Result(id); err != nil || got.Reports != 6 {
			t.Errorf("standby counts %+v (err %v), 6 reports were acked", got, err)
		}
	})

	t.Run("primary stays down", func(t *testing.T) {
		_, standby, f, id := lagging(t)
		if err := f.Promote(ctx); err != nil {
			t.Fatalf("promote with salvage: %v", err)
		}
		res, err := standby.srv.Finalize(ctx, id)
		if err != nil || res.Reports != 5 {
			t.Fatalf("promoted node counts %+v (err %v), 5 reports were acked", res, err)
		}
	})
}
