package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/frand"
	"repro/internal/obs"
	"repro/internal/transport"
	"repro/internal/transport/wire"
)

var (
	listenRe = regexp.MustCompile(`listening on (http://[\d.]+:\d+)`)
	debugRe  = regexp.MustCompile(`debug endpoint on (http://[\d.]+:\d+)`)
)

// daemon is one fednumd process under test.
type daemon struct {
	cmd      *exec.Cmd
	baseURL  string
	debugURL string
	done     chan error
}

// startDaemon launches the built binary with any extra flags appended and
// waits for its listen line (and, when -debug-addr is among the extras,
// the debug-endpoint line too).
func startDaemon(t *testing.T, bin, addr, snapshot string, extra ...string) *daemon {
	t.Helper()
	wantDebug := false
	for _, a := range extra {
		if a == "-debug-addr" {
			wantDebug = true
		}
	}
	args := append([]string{"-addr", addr, "-seed", "1", "-snapshot", snapshot, "-shutdown-grace", "5s"}, extra...)
	cmd := exec.Command(bin, args...)
	stderr, err := cmd.StderrPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting fednumd: %v", err)
	}
	d := &daemon{cmd: cmd, done: make(chan error, 1)}
	urlc := make(chan string, 1)
	debugc := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(stderr)
		for sc.Scan() {
			if m := listenRe.FindStringSubmatch(sc.Text()); m != nil {
				select {
				case urlc <- m[1]:
				default:
				}
			}
			if m := debugRe.FindStringSubmatch(sc.Text()); m != nil {
				select {
				case debugc <- m[1]:
				default:
				}
			}
		}
	}()
	go func() { d.done <- cmd.Wait() }()
	select {
	case d.baseURL = <-urlc:
	case err := <-d.done:
		t.Fatalf("fednumd exited before listening: %v", err)
	case <-time.After(10 * time.Second):
		cmd.Process.Kill()
		t.Fatal("fednumd never reported its listen address")
	}
	if wantDebug {
		select {
		case d.debugURL = <-debugc:
		case <-time.After(10 * time.Second):
			cmd.Process.Kill()
			t.Fatal("fednumd never reported its debug address")
		}
	}
	return d
}

// sigterm stops the daemon and waits for the graceful exit that writes the
// snapshot.
func (d *daemon) sigterm(t *testing.T) {
	t.Helper()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-d.done:
		if err != nil {
			t.Fatalf("fednumd exit after SIGTERM: %v", err)
		}
	case <-time.After(15 * time.Second):
		d.cmd.Process.Kill()
		t.Fatal("fednumd did not exit after SIGTERM")
	}
}

// TestRestartRecoversSession is the crash-safety acceptance test: kill
// fednumd with SIGTERM mid-session, restart it from the snapshot, and
// check (a) the session and its accepted reports survive, (b) clients that
// retried straight through the restart land exactly one accepted report
// each, and (c) a client that re-participates after the restart is re-acked
// as a duplicate, not double-counted.
func TestRestartRecoversSession(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the daemon binary")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "fednumd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building fednumd: %v\n%s", err, out)
	}
	snap := filepath.Join(dir, "sessions.json")

	d := startDaemon(t, bin, "127.0.0.1:0", snap)
	// The kernel already released the port when the first process exited,
	// so the restart can bind the same address and retrying clients
	// converge on it.
	addr := d.baseURL[len("http://"):]

	ctx := context.Background()
	retry := &transport.RetryPolicy{
		MaxAttempts: 40, BaseDelay: 50 * time.Millisecond, MaxDelay: 250 * time.Millisecond,
		Jitter: 0.5, PerTryTimeout: 2 * time.Second, Seed: 5,
	}
	admin := &transport.Admin{BaseURL: d.baseURL, Retry: retry}
	session, err := admin.CreateSession(ctx, wire.SessionConfig{Feature: "restart", Bits: 8, Gamma: 1})
	if err != nil {
		t.Fatalf("create session: %v", err)
	}

	// Phase 1: 20 clients report before the crash.
	const before, through = 20, 10
	participant := func(i int) *transport.Participant {
		return &transport.Participant{
			BaseURL:  d.baseURL,
			ClientID: fmt.Sprintf("dev-%d", i),
			RNG:      frand.New(uint64(i)),
			Retry: &transport.RetryPolicy{
				MaxAttempts: 40, BaseDelay: 50 * time.Millisecond, MaxDelay: 250 * time.Millisecond,
				Jitter: 0.5, PerTryTimeout: 2 * time.Second, Seed: uint64(i),
			},
		}
	}
	for i := 0; i < before; i++ {
		if err := participant(i).Participate(ctx, session, uint64(i*12%256)); err != nil {
			t.Fatalf("client %d before restart: %v", i, err)
		}
	}

	// Phase 2: kill the daemon, then launch clients that retry through the
	// outage while it is down.
	d.sigterm(t)
	var wg sync.WaitGroup
	errs := make([]error, through)
	for i := 0; i < through; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = participant(before+i).Participate(ctx, session, uint64(i*7%256))
		}(i)
	}
	// Give the retry loops time to hit connection-refused at least once.
	time.Sleep(400 * time.Millisecond)

	// Phase 3: restart on the same address from the snapshot.
	d2 := startDaemon(t, bin, addr, snap)
	defer func() { d2.sigterm(t) }()
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d retrying through restart: %v", before+i, err)
		}
	}

	// A pre-crash client re-participating must be re-acked as a duplicate
	// (same assignment, same deterministic bit), not double-counted.
	if err := participant(3).Participate(ctx, session, uint64(3*12%256)); err != nil {
		t.Fatalf("pre-crash client re-participating after restart: %v", err)
	}

	res, err := admin.Finalize(ctx, session)
	if err != nil {
		t.Fatalf("finalize after restart: %v", err)
	}
	if !res.Done {
		t.Fatal("session not finalized")
	}
	if want := before + through; res.Reports != want {
		t.Fatalf("final cohort = %d, want exactly %d (pre-crash %d + retried-through %d, duplicates excluded)",
			res.Reports, want, before, through)
	}
}

// TestMetricsDebugEndpoint is the live observability acceptance test: run
// the real daemon with -debug-addr, drive a session over its public port,
// and scrape the admin listener for Prometheus metrics, expvar and pprof.
func TestMetricsDebugEndpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the daemon binary")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "fednumd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building fednumd: %v\n%s", err, out)
	}

	d := startDaemon(t, bin, "127.0.0.1:0", filepath.Join(dir, "snap.json"),
		"-debug-addr", "127.0.0.1:0", "-log-format", "json", "-log-level", "debug")
	defer d.sigterm(t)

	const n = 3
	ctx := context.Background()
	admin := &transport.Admin{BaseURL: d.baseURL}
	session, err := admin.CreateSession(ctx, wire.SessionConfig{Feature: "dbg", Bits: 8, Gamma: 1})
	if err != nil {
		t.Fatalf("create session: %v", err)
	}
	for i := 0; i < n; i++ {
		p := &transport.Participant{
			BaseURL:  d.baseURL,
			ClientID: fmt.Sprintf("dev-%d", i),
			RNG:      frand.New(uint64(i + 1)),
		}
		if err := p.Participate(ctx, session, uint64(i*10)); err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	if _, err := admin.Finalize(ctx, session); err != nil {
		t.Fatalf("finalize: %v", err)
	}

	get := func(path string) (string, string) {
		t.Helper()
		resp, err := http.Get(d.debugURL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d", path, resp.StatusCode)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body), resp.Header.Get("Content-Type")
	}

	metrics, ct := get("/metrics")
	if ct != obs.ContentType {
		t.Fatalf("/metrics content type = %q, want %q", ct, obs.ContentType)
	}
	for _, want := range []string{
		transport.MetricSessionsCreated + " 1",
		transport.MetricReports + `{result="accepted"} ` + fmt.Sprint(n),
		transport.MetricSessionsFinalized + `{trigger="api"} 1`,
		"# TYPE " + transport.MetricHTTPLatency + " histogram",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("/metrics missing %q; got:\n%s", want, metrics)
		}
	}
	if vars, _ := get("/debug/vars"); !strings.Contains(vars, `"fednum"`) {
		t.Errorf("/debug/vars does not publish the fednum registry:\n%s", vars)
	}
	if _, ct := get("/debug/pprof/cmdline"); ct == "" {
		t.Error("/debug/pprof/cmdline served no content type")
	}
	if prof, _ := get("/debug/pprof/"); !strings.Contains(prof, "goroutine") {
		t.Error("/debug/pprof/ index does not list profiles")
	}
}

// TestSnapshotIntervalWithoutWAL: a daemon with -snapshot but no log
// rewrites its checkpoint file every -snapshot-interval, so a session
// created before a kill -9 comes back on the next boot.
func TestSnapshotIntervalWithoutWAL(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the daemon binary")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "fednumd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("building fednumd: %v\n%s", err, out)
	}
	snap := filepath.Join(dir, "sessions.ckpt")
	d := startDaemon(t, bin, "127.0.0.1:0", snap, "-snapshot-interval", "50ms")
	ctx := context.Background()
	session, err := (&transport.Admin{BaseURL: d.baseURL}).CreateSession(ctx, wire.SessionConfig{Feature: "tick", Bits: 4, Gamma: 1})
	if err != nil {
		t.Fatalf("create session: %v", err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		s := transport.NewServer(1)
		if err := s.LoadSnapshot(snap); err == nil && len(s.Sessions()) == 1 {
			break
		}
		if time.Now().After(deadline) {
			d.cmd.Process.Kill()
			t.Fatal("no periodic checkpoint holds the session")
		}
		time.Sleep(20 * time.Millisecond)
	}
	d.cmd.Process.Kill()
	<-d.done

	d2 := startDaemon(t, bin, "127.0.0.1:0", snap)
	defer d2.sigterm(t)
	if _, err := (&transport.Admin{BaseURL: d2.baseURL}).Result(ctx, session); err != nil {
		t.Fatalf("session %s after kill -9: %v", session, err)
	}
}
