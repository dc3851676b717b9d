package main

import (
	"bufio"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemonOpts describes one boot of the child fednumd.
type daemonOpts struct {
	Bin      string // path of the built fednumd
	WALDir   string
	Fsync    string // -wal-fsync policy
	Snapshot string // -snapshot path, empty for none
	Seed     uint64
	Procs    int    // the child's GOMAXPROCS
	TraceBuf int    // -trace-buf; also opens the admin listener
	Stderr   string // file the child's stderr is appended to
}

// daemon is a running child fednumd.
type daemon struct {
	cmd    *exec.Cmd
	Base   string // aggregation listener, http://127.0.0.1:port
	Debug  string // admin listener, set when tracing is armed
	HTTP   *http.Client
	waited chan struct{}
}

var (
	listenRe = regexp.MustCompile(`aggregation server listening on (http://[0-9.:]+)`)
	debugRe  = regexp.MustCompile(`debug endpoint on (http://[0-9.:]+)`)
)

// live holds every child not yet reaped, so the signal handler and the
// exit path can kill whatever a failed run left behind.
var live struct {
	sync.Mutex
	set map[*daemon]struct{}
}

func killAllDaemons() {
	live.Lock()
	ds := make([]*daemon, 0, len(live.set))
	for d := range live.set {
		ds = append(ds, d)
	}
	live.Unlock()
	for _, d := range ds {
		d.kill()
	}
}

// startDaemon execs fednumd and returns once /readyz answers 200; boot
// is the time from exec to that answer. The port comes from the child's
// own "listening on" log line, which it prints only after the snapshot
// restore and WAL replay are done.
func startDaemon(o daemonOpts, conns int) (d *daemon, boot time.Duration, err error) {
	args := []string{
		"-addr", "127.0.0.1:0",
		"-wal-dir", o.WALDir,
		"-wal-fsync", o.Fsync,
		"-seed", strconv.FormatUint(o.Seed, 10),
		// info, not warn: the listen addresses are logged at info, and
		// nothing on the request path logs above debug.
		"-log-level", "info",
	}
	if o.Snapshot != "" {
		args = append(args, "-snapshot", o.Snapshot)
	}
	if o.TraceBuf > 0 {
		args = append(args, "-trace-buf", strconv.Itoa(o.TraceBuf), "-debug-addr", "127.0.0.1:0")
	}
	logf, err := os.OpenFile(o.Stderr, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, 0, err
	}
	fmt.Fprintf(logf, "--- fednumd %s\n", strings.Join(args, " "))

	cmd := exec.Command(o.Bin, args...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(o.Procs))
	// The child dies with the generator even if the generator is killed.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	pr, pw, err := os.Pipe()
	if err != nil {
		logf.Close()
		return nil, 0, err
	}
	cmd.Stderr = pw
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		pr.Close()
		pw.Close()
		logf.Close()
		return nil, 0, fmt.Errorf("starting %s: %w", o.Bin, err)
	}
	pw.Close()
	d = &daemon{cmd: cmd, waited: make(chan struct{})}
	live.Lock()
	if live.set == nil {
		live.set = make(map[*daemon]struct{})
	}
	live.set[d] = struct{}{}
	live.Unlock()

	// One goroutine owns the pipe: it copies every line to the stderr
	// file, reports the two listen addresses, and reaps the child at EOF.
	addrs := make(chan [2]string, 1)
	go func() {
		defer close(d.waited)
		defer logf.Close()
		defer pr.Close()
		var found [2]string
		sent := false
		sc := bufio.NewScanner(pr)
		sc.Buffer(make([]byte, 64<<10), 1<<20)
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(logf, line)
			if sent {
				continue
			}
			if m := listenRe.FindStringSubmatch(line); m != nil {
				found[0] = m[1]
			}
			if m := debugRe.FindStringSubmatch(line); m != nil {
				found[1] = m[1]
			}
			if found[0] != "" && (o.TraceBuf == 0 || found[1] != "") {
				addrs <- found
				sent = true
			}
		}
		if !sent {
			close(addrs)
		}
		_ = cmd.Wait() // the exit status of a killed child is not news
		live.Lock()
		delete(live.set, d)
		live.Unlock()
	}()

	select {
	case a, ok := <-addrs:
		if !ok {
			d.kill()
			return nil, 0, fmt.Errorf("fednumd exited before listening; see %s", o.Stderr)
		}
		d.Base, d.Debug = a[0], a[1]
	case <-time.After(60 * time.Second):
		d.kill()
		return nil, 0, fmt.Errorf("fednumd did not listen within 60s; see %s", o.Stderr)
	}
	d.HTTP = &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
	for {
		resp, err := d.HTTP.Get(d.Base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, time.Since(t0), nil
			}
		}
		if time.Since(t0) > 60*time.Second {
			d.kill()
			return nil, 0, fmt.Errorf("fednumd not ready within 60s: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
}

// kill SIGKILLs the child and waits until it is reaped. Safe to call on
// a child that already exited.
func (d *daemon) kill() {
	_ = d.cmd.Process.Kill() // "already finished" is fine
	<-d.waited
	if d.HTTP != nil {
		d.HTTP.CloseIdleConnections()
	}
}

// terminate SIGTERMs the child — a graceful drain, and with -snapshot a
// shutdown snapshot plus WAL compaction — and waits for it to exit.
func (d *daemon) terminate() error {
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	select {
	case <-d.waited:
	case <-time.After(60 * time.Second):
		d.kill()
		return fmt.Errorf("fednumd did not exit within 60s of SIGTERM")
	}
	d.HTTP.CloseIdleConnections()
	if !d.cmd.ProcessState.Success() {
		return fmt.Errorf("fednumd exited %s after SIGTERM", d.cmd.ProcessState)
	}
	return nil
}

// cpu returns the child's user and system CPU time so far, from
// /proc/<pid>/stat (fields 14 and 15, in clock ticks).
func (d *daemon) cpu() (user, sys time.Duration, err error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return 0, 0, err
	}
	// The command name may hold spaces; fields are counted after ")".
	s := string(data)
	f := strings.Fields(s[strings.LastIndexByte(s, ')')+1:])
	if len(f) < 13 {
		return 0, 0, fmt.Errorf("short /proc stat line %q", s)
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	stt, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, 0, fmt.Errorf("unparsable /proc stat line %q", s)
	}
	const tick = time.Second / 100 // USER_HZ is 100 on every Linux ABI Go supports
	return time.Duration(ut) * tick, time.Duration(stt) * tick, nil
}

// peakRSSMB returns the child's peak resident set (VmHWM) in MiB.
func (d *daemon) peakRSSMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("unparsable %q", line)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc status")
}
