package chaos_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sync"
	"testing"
	"time"

	"repro/internal/chaos"
	"repro/internal/frand"
	"repro/internal/transport"
	"repro/internal/transport/wire"
)

var debugListenRe = regexp.MustCompile(`debug endpoint on (http://[\d.]+:\d+)`)

// fnode is one fednumd slot in the failover pair: a fixed client address,
// a fixed debug address, its own WAL directory, and whatever process
// currently occupies the slot.
type fnode struct {
	t         *testing.T
	bin       string
	walDir    string
	addr      string // "" until the first start picks a port
	debugAddr string
	proc      *chaos.Proc
	base      string
	debugBase string
}

// start launches the slot's binary with the given role flags appended to
// the slot's fixed identity flags, and waits for both listeners.
func (n *fnode) start(roleArgs ...string) {
	n.t.Helper()
	addr, debugAddr := n.addr, n.debugAddr
	if addr == "" {
		addr, debugAddr = "127.0.0.1:0", "127.0.0.1:0"
	}
	args := append([]string{
		"-addr", addr,
		"-debug-addr", debugAddr,
		"-wal-dir", n.walDir,
		"-wal-fsync", "grouped",
		"-gc-interval", "100ms",
		"-trace-buf", "2048",
		"-shutdown-grace", "5s",
	}, roleArgs...)
	p, err := chaos.StartProc(chaos.ProcSpec{
		Bin:  n.bin,
		Args: args,
		WaitFor: map[string]*regexp.Regexp{
			"listen": crashListenRe,
			"debug":  debugListenRe,
		},
	})
	if err != nil {
		n.t.Fatal(err)
	}
	base, err := p.Expect("listen", 10*time.Second)
	if err != nil {
		n.t.Fatalf("fednumd not ready: %v", err)
	}
	debugBase, err := p.Expect("debug", 10*time.Second)
	if err != nil {
		n.t.Fatalf("fednumd debug listener not ready: %v", err)
	}
	n.proc, n.base, n.debugBase = p, base, debugBase
	// Later restarts rebind the same ports so endpoint lists stay valid
	// across kills.
	n.addr, n.debugAddr = base[len("http://"):], debugBase[len("http://"):]
}

// replStatus asks a node who it thinks it is. The endpoint answers on
// every role, so this works on primaries, standbys and fenced zombies.
func (n *fnode) replStatus() (wire.ReplStatus, error) {
	var st wire.ReplStatus
	resp, err := http.Get(n.base + "/v1/replication/status")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return st, fmt.Errorf("replication status: http %d", resp.StatusCode)
	}
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

func soakRetry(seed uint64) *transport.RetryPolicy {
	return &transport.RetryPolicy{
		MaxAttempts: 80, BaseDelay: 25 * time.Millisecond, MaxDelay: 200 * time.Millisecond,
		Jitter: 0.5, PerTryTimeout: 2 * time.Second, Seed: seed,
	}
}

func soakValue(id int) uint64 { return uint64(id*53) % 256 }

// TestFailoverSoakNoAckedReportLost is the replication acceptance soak:
// a primary/standby pair under live ingest, with the primary SIGKILLed
// mid-round every cycle. The standby auto-promotes (salvaging the dead
// primary's unshipped WAL tail), the fleet fails over through the shared
// endpoint list, and the dead node is rebooted as the new standby — so
// the roles ping-pong for ≥10 kill cycles against one long-lived session.
//
// Invariants held every cycle, against client-side ground truth:
//
//   - zero acked-then-lost: every report acked by any primary that ever
//     lived re-acks as Accepted+Duplicate on the current primary;
//   - zero double-acks: the primary's report count exactly equals the
//     number of distinct clients that ever got an ack — a deposed
//     primary double-accepting the same report would overshoot it;
//   - fencing: a rebooted ex-primary answers client traffic with a typed
//     not_primary rejection pointing at the real leader, and the fencing
//     epoch observed on the winner strictly increases across promotions.
func TestFailoverSoakNoAckedReportLost(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and repeatedly kills the daemon binary")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "fednumd")
	if out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/fednumd").CombinedOutput(); err != nil {
		t.Fatalf("building fednumd: %v\n%s", err, out)
	}

	const (
		cycles   = 11 // ISSUE asks for ≥10 kill -9 primary cycles
		perCycle = 6  // clients ingesting while each kill lands
	)
	a := &fnode{t: t, bin: bin, walDir: filepath.Join(dir, "wal-a")}
	b := &fnode{t: t, bin: bin, walDir: filepath.Join(dir, "wal-b")}

	// A boots as the seed primary; B replicates from it. Neither node
	// snapshots: compaction never outruns salvage, so promotion can always
	// drain the dead primary's full tail.
	a.start("-seed", "1")
	// The advertise URL (the leader hint a promoted standby hands out)
	// defaults to the node's own listen address, which is exactly right
	// here — no flag needed.
	b.start("-seed", "2",
		"-replica-of", a.base,
		"-salvage-dir", a.walDir,
		"-failover-after", "3",
		"-probe-interval", "50ms")
	defer func() {
		a.proc.Kill()
		b.proc.Kill()
	}()

	ctx := context.Background()
	// One endpoint list shared by the admin and every device: the first
	// client to be redirected repoints the whole fleet at the new primary.
	eps := transport.NewEndpointList(a.base + "," + b.base)
	admin := &transport.Admin{Endpoints: eps, Retry: soakRetry(99)}
	session, err := admin.CreateSession(ctx, wire.SessionConfig{Feature: "failover", Bits: 8, Gamma: 1})
	if err != nil {
		t.Fatalf("create session: %v", err)
	}

	participant := func(id int) *transport.Participant {
		return &transport.Participant{
			Endpoints: eps,
			ClientID:  fmt.Sprintf("dev-%d", id),
			RNG:       frand.New(uint64(id + 1)),
			Retry:     soakRetry(uint64(id + 1)),
		}
	}
	// probe asserts client id's acked report survived the failover: the
	// current primary must re-ack it as a duplicate — a fresh accept means
	// the report was lost, a conflict means the assignment was.
	probe := func(id int) {
		t.Helper()
		p := participant(id)
		task, err := p.FetchTask(ctx, session)
		if err != nil {
			t.Fatalf("probe client %d: fetch task: %v", id, err)
		}
		bit := (soakValue(id) >> uint(task.Bit)) & 1
		ack, err := p.SubmitReport(ctx, session, wire.Report{ClientID: p.ClientID, Bit: task.Bit, Value: bit})
		if err != nil {
			t.Fatalf("probe client %d: resubmit: %v", id, err)
		}
		if !ack.Accepted || !ack.Duplicate {
			t.Fatalf("acked report of client %d lost across failover: resubmission ack=%+v (want accepted duplicate)", id, ack)
		}
	}
	waitStatus := func(n *fnode, what string, cond func(wire.ReplStatus) bool) wire.ReplStatus {
		t.Helper()
		deadline := time.Now().Add(20 * time.Second)
		var last wire.ReplStatus
		for time.Now().Before(deadline) {
			st, err := n.replStatus()
			if err == nil {
				last = st
				if cond(st) {
					return st
				}
			}
			time.Sleep(10 * time.Millisecond)
		}
		t.Fatalf("timed out waiting for %s (last status %+v)", what, last)
		return last
	}

	rng := frand.New(11)
	primary, standby := a, b
	acked := 0
	lastEpoch := uint64(0)
	for cycle := 0; cycle < cycles; cycle++ {
		// Ingest: perCycle fresh devices report while the axe hangs over
		// the primary. Their retry budgets span the promotion window.
		var wg sync.WaitGroup
		errs := make([]error, perCycle)
		for i := 0; i < perCycle; i++ {
			id := cycle*perCycle + i
			wg.Add(1)
			go func(slot int) {
				defer wg.Done()
				errs[slot] = participant(id).Participate(ctx, session, soakValue(id))
			}(i)
		}

		// SIGKILL the primary at a random point mid-ingest. No flush, no
		// drain: anything acked must already be durable and shipped — or
		// salvageable from the corpse's log.
		time.Sleep(time.Duration(20+rng.Intn(120)) * time.Millisecond)
		primary.proc.Kill()

		// The standby's prober notices (3 failures × 50ms) and promotes,
		// salvaging the dead primary's unshipped tail first.
		st := waitStatus(standby, "automatic promotion", func(st wire.ReplStatus) bool {
			return st.Role == "primary"
		})
		if st.Epoch <= lastEpoch {
			t.Fatalf("cycle %d: fencing epoch did not advance: %d after %d", cycle, st.Epoch, lastEpoch)
		}
		lastEpoch = st.Epoch

		wg.Wait()
		for i, err := range errs {
			if err != nil {
				t.Fatalf("cycle %d client %d failed to land its report through the failover: %v",
					cycle, cycle*perCycle+i, err)
			}
		}
		acked += perCycle

		// Invariant 1: everything acked — by the corpse or the winner —
		// survived. Probe this cycle's cohort plus an older spot-check.
		for i := 0; i < perCycle; i++ {
			probe(cycle*perCycle + i)
		}
		if cycle > 0 {
			probe(rng.Intn(cycle * perCycle))
		}

		// Invariant 2: zero double-acks — the winner holds exactly one
		// report per acked client, never an extra from a deposed primary.
		res, err := admin.Result(ctx, session)
		if err != nil {
			t.Fatalf("cycle %d: result: %v", cycle, err)
		}
		if res.Reports != acked {
			t.Fatalf("cycle %d: primary holds %d reports, want exactly %d acked (double-ack or loss)",
				cycle, res.Reports, acked)
		}

		// Reboot the corpse as the new standby. It replays its own WAL (a
		// strict prefix of the shared sequence space), then resumes pulling
		// from the new primary and adopts the higher fencing epoch.
		dead := primary
		dead.start("-seed", "1",
			"-replica-of", standby.base,
			"-salvage-dir", standby.walDir,
			"-failover-after", "3",
			"-probe-interval", "50ms")

		// Invariant 3: the rebooted ex-primary is fenced out of the client
		// path — a late ack attempt gets a typed not_primary rejection with
		// a leader hint, never a second accept.
		direct := &transport.Participant{
			BaseURL:  dead.base,
			ClientID: "late-acker",
			RNG:      frand.New(7),
			Retry:    &transport.RetryPolicy{MaxAttempts: 1, Seed: 7},
		}
		var se *transport.StatusError
		if _, err := direct.FetchTask(ctx, session); !errors.As(err, &se) || se.Code != wire.CodeNotPrimary {
			t.Fatalf("cycle %d: rebooted ex-primary answered client traffic with %v, want %s",
				cycle, err, wire.CodeNotPrimary)
		}

		// Wait for the new standby to catch up (and adopt the epoch) so the
		// next cycle's kill has a warm node to fail over to.
		head := waitStatus(standby, "primary status", func(wire.ReplStatus) bool { return true })
		waitStatus(dead, "standby catch-up", func(st wire.ReplStatus) bool {
			return st.Role == "standby" && st.Epoch == head.Epoch && st.AppliedSeq >= head.HeadSeq
		})
		primary, standby = standby, dead
	}

	res, err := admin.Finalize(ctx, session)
	if err != nil {
		t.Fatalf("finalize after %d failovers: %v", cycles, err)
	}
	if !res.Done || res.Reports != cycles*perCycle {
		t.Fatalf("final result %+v, want done with exactly %d reports", res, cycles*perCycle)
	}

	// CI artifact: the surviving primary's per-round timeline — every
	// ingest burst, promotion stamp and finalize across the whole soak.
	if out := os.Getenv("FAILOVER_ROUNDS_OUT"); out != "" {
		resp, err := http.Get(primary.debugBase + "/debug/rounds")
		if err != nil {
			t.Fatalf("fetching rounds timeline: %v", err)
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("reading rounds timeline: %v", err)
		}
		if err := os.WriteFile(out, data, 0o644); err != nil {
			t.Fatalf("writing rounds artifact %s: %v", out, err)
		}
		t.Logf("wrote rounds timeline (%d bytes) to %s", len(data), out)
	}
}
