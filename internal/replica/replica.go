// Package replica implements the standby side of WAL-shipping
// replication: a Follower long-polls a primary's /v1/replication/wal
// endpoint, applies every shipped record into a warm local session
// table (mirroring the primary's exact sequence space into its own
// log), and tracks applied-sequence and lag. When its resume point was
// compacted away the same route answers with the primary's checkpoint,
// which the follower installs in its own WAL directory before tailing on
// from it. On promotion — manual via the admin endpoint or automatic when
// the primary's health probe fails repeatedly — it first drains the
// unshipped tail of the dead primary's log straight from disk (salvage),
// then flips the local server to primary under the next fencing epoch and
// best-effort fences whatever is left of the old one.
//
// The protocol is deliberately consensus-free: one primary, one or more
// standbys, and a fencing epoch that makes the loser of any race
// harmless rather than impossible. Operators (or the chaos soak) are
// responsible for not promoting two standbys at once; the epoch
// guarantees that even if they do, every client-visible ack names
// exactly one lineage.
package replica

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/wal"
)

// Replica-side metric names; the server-side fednum_repl_* instruments
// live in internal/transport.
const (
	MetricAppliedSeq     = "fednum_replica_applied_seq"
	MetricHeadSeq        = "fednum_replica_head_seq"
	MetricLagRecords     = "fednum_replica_lag_records"
	MetricLagBytes       = "fednum_replica_lag_bytes"
	MetricLagSeconds     = "fednum_replica_lag_seconds"
	MetricPulls          = "fednum_replica_pulls_total"
	MetricPullErrors     = "fednum_replica_pull_errors_total"
	MetricBootstraps     = "fednum_replica_bootstraps_total"
	MetricSalvaged       = "fednum_replica_salvaged_records_total"
	MetricStaleEpochDrop = "fednum_replica_stale_epoch_drops_total"
)

// Options configures a Follower. Server and Primary are required.
type Options struct {
	// Server is the local standby (role RoleStandby, WAL attached).
	Server *transport.Server
	// Primary lists the endpoint(s) to replicate from. With several, the
	// follower pulls from whichever currently answers — useful when the
	// "primary" is itself a failover pair.
	Primary *transport.EndpointList
	// SelfURL is this node's advertised base URL, sent as the leader
	// hint when fencing the old primary after a promotion.
	SelfURL string
	// HTTPClient defaults to http.DefaultClient.
	HTTPClient *http.Client
	// Logger defaults to slog.Default().
	Logger *slog.Logger
	// Registry, when non-nil, receives the fednum_replica_* instruments.
	Registry *obs.Registry
	// Tracer, when non-nil, records apply/salvage/promote spans.
	Tracer *trace.Recorder
	// WaitMS is the long-poll window the primary parks our pull on when
	// the log is quiet; default 2000, 0 forced to the default (a
	// replication loop without a wait would spin).
	WaitMS int
	// PollInterval is the pause after a failed pull; default 200ms.
	PollInterval time.Duration
	// MaxBatch and MaxBatchBytes bound one pull; defaults 1024 / 4MiB.
	MaxBatch      int
	MaxBatchBytes int64
	// SalvageDir, when set, is the primary's WAL directory as visible
	// from this host (shared volume or same machine). At promotion the
	// follower drains every record past its applied sequence from there,
	// so acks the primary sent but never shipped survive the failover.
	SalvageDir string
	// FailoverAfter enables automatic promotion after this many
	// consecutive primary health-probe failures; 0 disables the prober
	// (promotion is manual only).
	FailoverAfter int
	// ProbeInterval is the health-probe cadence; default 1s.
	ProbeInterval time.Duration
}

// Follower replicates a primary into a local standby server. Create
// with New, drive with Run, and wire Promote to the server's promote
// hook (transport.Server.SetOnPromote) so the admin verb and the
// automatic prober share one promotion path.
type Follower struct {
	opts Options
	hc   *http.Client
	log  *slog.Logger

	appliedSeq *obs.Gauge
	headSeq    *obs.Gauge
	lagRecords *obs.Gauge
	lagBytes   *obs.Gauge
	lagSeconds *obs.Gauge
	pulls      *obs.Counter
	pullErrs   *obs.Counter
	bootstraps *obs.Counter
	salvaged   *obs.Counter
	staleDrops *obs.Counter

	// appliedBytes mirrors the primary's SizeBytes counter, re-anchored
	// to the primary's exact value every time the follower fully catches
	// up, so lag-bytes stays meaningful across bootstraps and restarts.
	appliedBytes atomic.Int64
	// caughtUpAt is the last instant lag was zero (unix nanos), the base
	// of the lag-seconds gauge.
	caughtUpAt atomic.Int64

	promoteOnce sync.Once
	promoteErr  error
	promoted    atomic.Bool
	cancel      context.CancelFunc
}

// New validates opts and builds a Follower.
func New(opts Options) (*Follower, error) {
	if opts.Server == nil {
		return nil, errors.New("replica: Options.Server is required")
	}
	if opts.Primary == nil || opts.Primary.Len() == 0 {
		return nil, errors.New("replica: Options.Primary is required")
	}
	if opts.WaitMS <= 0 {
		opts.WaitMS = 2000
	}
	if opts.PollInterval <= 0 {
		opts.PollInterval = 200 * time.Millisecond
	}
	if opts.ProbeInterval <= 0 {
		opts.ProbeInterval = time.Second
	}
	f := &Follower{opts: opts, hc: opts.HTTPClient, log: opts.Logger}
	if f.hc == nil {
		f.hc = http.DefaultClient
	}
	if f.log == nil {
		f.log = slog.Default()
	}
	if reg := opts.Registry; reg != nil {
		f.appliedSeq = reg.Gauge(MetricAppliedSeq, "Last WAL sequence applied to the standby session table.")
		f.headSeq = reg.Gauge(MetricHeadSeq, "Primary log head as of the last pull.")
		f.lagRecords = reg.Gauge(MetricLagRecords, "Records the standby is behind the primary head.")
		f.lagBytes = reg.Gauge(MetricLagBytes, "Log bytes the standby is behind the primary.")
		f.lagSeconds = reg.Gauge(MetricLagSeconds, "Seconds since the standby was last fully caught up.")
		f.pulls = reg.Counter(MetricPulls, "Replication pull requests issued.")
		f.pullErrs = reg.Counter(MetricPullErrors, "Replication pulls that failed (transport or protocol).")
		f.bootstraps = reg.Counter(MetricBootstraps, "Checkpoint bootstraps performed.")
		f.salvaged = reg.Counter(MetricSalvaged, "Records drained from the dead primary's log at promotion.")
		f.staleDrops = reg.Counter(MetricStaleEpochDrop, "Pull batches dropped because the primary's epoch was stale (zombie primary).")
	}
	return f, nil
}

// Run drives the follower until ctx is cancelled or the node promotes:
// pull, verify epoch, apply, commit, update lag — forever. A transport
// failure backs off PollInterval and retries (the primary being briefly
// unreachable is the normal failover prelude, not an error), and so
// does a 410 (a resume point no checkpoint covers). With
// FailoverAfter > 0 a prober goroutine watches the primary's /healthz
// and calls Promote after enough consecutive failures.
func (f *Follower) Run(ctx context.Context) error {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	f.cancel = cancel
	if f.opts.FailoverAfter > 0 {
		go f.probeLoop(ctx)
	}
	f.caughtUpAt.Store(time.Now().UnixNano())
	for {
		if ctx.Err() != nil || f.promoted.Load() {
			return nil
		}
		err := f.syncOnce(ctx)
		switch {
		case err == nil:
			continue
		case ctx.Err() != nil || f.promoted.Load():
			return nil
		default:
			if f.pullErrs != nil {
				f.pullErrs.Inc()
			}
			f.log.Debug("replica: pull failed, backing off", "error", err)
			if !sleepCtx(ctx, f.opts.PollInterval) {
				return nil
			}
		}
	}
}

// errStaleEpoch marks a pull answered by a primary whose epoch is below
// ours — a zombie that has not yet learned it was deposed. Its records
// must not be applied.
var errStaleEpoch = errors.New("replica: primary epoch is stale")

// syncOnce issues one pull and applies what it returns.
func (f *Follower) syncOnce(ctx context.Context) error {
	srv := f.opts.Server
	from := srv.WALSeq() + 1
	base := f.opts.Primary.Current()
	q := url.Values{}
	q.Set("from", strconv.FormatUint(from, 10))
	q.Set("wait_ms", strconv.Itoa(f.opts.WaitMS))
	q.Set("epoch", strconv.FormatUint(srv.Epoch(), 10))
	if f.opts.MaxBatch > 0 {
		q.Set("max", strconv.Itoa(f.opts.MaxBatch))
	}
	if f.opts.MaxBatchBytes > 0 {
		q.Set("max_bytes", strconv.FormatInt(f.opts.MaxBatchBytes, 10))
	}
	if f.pulls != nil {
		f.pulls.Inc()
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, base+"/v1/replication/wal?"+q.Encode(), nil)
	if err != nil {
		return err
	}
	resp, err := f.hc.Do(req)
	if err != nil {
		f.opts.Primary.Advance(base)
		return err
	}
	defer resp.Body.Close()

	switch resp.StatusCode {
	case http.StatusOK:
	case http.StatusMisdirectedRequest:
		// The node we pull from is itself a standby or was fenced; go ask
		// the next endpoint.
		f.opts.Primary.Advance(base)
		return fmt.Errorf("replica: %s is not a primary", base)
	default:
		return fmt.Errorf("replica: pull from %s: status %d", base, resp.StatusCode)
	}

	// Epoch discipline before a single byte is applied: a lower epoch is
	// a zombie primary (drop the batch), a higher one is news (adopt).
	primaryEpoch, err := strconv.ParseUint(resp.Header.Get(transport.ReplHeaderEpoch), 10, 64)
	if err != nil {
		return fmt.Errorf("replica: pull answer carries no epoch header")
	}
	if ours := srv.Epoch(); primaryEpoch < ours {
		if f.staleDrops != nil {
			f.staleDrops.Inc()
		}
		f.opts.Primary.Advance(base)
		return fmt.Errorf("%w: primary %s at epoch %d, we know %d", errStaleEpoch, base, primaryEpoch, ours)
	}
	srv.SetEpoch(primaryEpoch)

	head, _ := strconv.ParseUint(resp.Header.Get(transport.ReplHeaderHeadSeq), 10, 64)
	primaryBytes, _ := strconv.ParseInt(resp.Header.Get(transport.ReplHeaderWALBytes), 10, 64)

	if resp.Header.Get(transport.ReplHeaderCheckpoint) != "" {
		// Our resume point was compacted away: the answer is the primary's
		// checkpoint, and the next pull tails the log from just after it.
		checkpoint, err := io.ReadAll(resp.Body)
		if err == nil {
			err = srv.BootstrapReplica(checkpoint)
		}
		if err != nil {
			f.log.Error("replica: bootstrap failed", "primary", base, "error", err)
			return err
		}
		if f.bootstraps != nil {
			f.bootstraps.Inc()
		}
		f.log.Info("replica: bootstrapped from checkpoint", "primary", base, "wal_seq", srv.WALSeq())
		return nil
	}
	_, sp := trace.Start(trace.WithRecorder(ctx, f.opts.Tracer), "replica.apply")
	defer sp.End()
	applied := 0
	appliedBytes := int64(0)
	err = transport.DecodeReplFrames(resp.Body, func(seq uint64, payload []byte) error {
		if aerr := srv.ApplyReplicated(seq, payload); aerr != nil {
			return aerr
		}
		applied++
		// 8 bytes of on-disk framing per record, mirroring WAL.SizeBytes
		// accounting on the primary.
		appliedBytes += int64(len(payload)) + 8
		return nil
	})
	sp.AttrInt("applied", int64(applied))
	if applied > 0 {
		if cerr := srv.CommitReplicated(); cerr != nil {
			return cerr
		}
		f.appliedBytes.Add(appliedBytes)
	}
	if err != nil {
		return err
	}
	f.observeLag(head, primaryBytes)
	return nil
}

// observeLag refreshes the lag gauges against the primary's head as
// reported on the last pull.
func (f *Follower) observeLag(primaryHead uint64, primaryBytes int64) {
	applied := f.opts.Server.WALSeq()
	if applied >= primaryHead {
		// Fully caught up: re-anchor the byte counter to the primary's
		// authoritative value and reset the staleness clock.
		f.appliedBytes.Store(primaryBytes)
		f.caughtUpAt.Store(time.Now().UnixNano())
	}
	if f.appliedSeq == nil {
		return
	}
	f.appliedSeq.Set(float64(applied))
	f.headSeq.Set(float64(primaryHead))
	lagRec := float64(0)
	if primaryHead > applied {
		lagRec = float64(primaryHead - applied)
	}
	f.lagRecords.Set(lagRec)
	lagB := primaryBytes - f.appliedBytes.Load()
	if lagB < 0 {
		lagB = 0
	}
	f.lagBytes.Set(float64(lagB))
	f.lagSeconds.Set(time.Since(time.Unix(0, f.caughtUpAt.Load())).Seconds())
}

// probeLoop watches the primary's /healthz and promotes after
// FailoverAfter consecutive failures. A pull endpoint rotation (several
// primary URLs) resets nothing: the probe always follows the list's
// current endpoint, so it measures whoever we would replicate from.
func (f *Follower) probeLoop(ctx context.Context) {
	t := time.NewTicker(f.opts.ProbeInterval)
	defer t.Stop()
	failures := 0
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
		}
		if f.promoted.Load() {
			return
		}
		if f.probeOnce(ctx) {
			failures = 0
			continue
		}
		failures++
		if failures < f.opts.FailoverAfter {
			continue
		}
		f.log.Warn("replica: primary failed its health probe, promoting",
			"failures", failures, "primary", f.opts.Primary.Current())
		if err := f.Promote(ctx); err != nil {
			f.log.Error("replica: automatic promotion failed", "error", err)
		}
		return
	}
}

// probeOnce reports whether the primary answered its liveness probe.
func (f *Follower) probeOnce(ctx context.Context) bool {
	pctx, cancel := context.WithTimeout(ctx, f.opts.ProbeInterval)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, f.opts.Primary.Current()+"/healthz", nil)
	if err != nil {
		return false
	}
	resp, err := f.hc.Do(req)
	if err != nil {
		return false
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 256))
	resp.Body.Close()
	return resp.StatusCode == http.StatusOK
}

// Promote executes the takeover exactly once: stop following, drain the
// dead primary's unshipped log tail from disk (SalvageDir), flip the
// local server to primary under epoch+1, and best-effort fence the old
// primary. Safe to call from the admin endpoint (via SetOnPromote) and
// the prober concurrently; later calls return the first outcome.
func (f *Follower) Promote(ctx context.Context) error {
	f.promoteOnce.Do(func() { f.promoteErr = f.promote(ctx) })
	return f.promoteErr
}

func (f *Follower) promote(ctx context.Context) error {
	f.promoted.Store(true)
	if f.cancel != nil {
		f.cancel()
	}
	srv := f.opts.Server
	_, sp := trace.Start(trace.WithRecorder(ctx, f.opts.Tracer), "replica.promote")
	defer sp.End()

	// Salvage before the flip: every record the dead primary acked but
	// never shipped is on its disk, and a SIGKILL loses at worst a torn
	// tail frame that was never committed, hence never acked. After
	// this, our log is a superset of everything any client was told.
	if dir := f.opts.SalvageDir; dir != "" {
		from := srv.WALSeq() + 1
		salvaged := 0
		err := wal.ScanDir(dir, from, func(seq uint64, payload []byte) error {
			if aerr := srv.ApplyReplicated(seq, payload); aerr != nil {
				return aerr
			}
			salvaged++
			return nil
		})
		if err != nil && !errors.Is(err, wal.ErrCompacted) {
			return fmt.Errorf("replica: salvaging %s from seq %d: %w", dir, from, err)
		}
		// ErrCompacted here means the primary compacted past our applied
		// point and then died before we caught up: its checkpoint has state
		// we never saw, so taking over would drop acks. Refuse.
		if errors.Is(err, wal.ErrCompacted) {
			return fmt.Errorf("replica: cannot promote, primary log %s starts past our applied seq %d: %w",
				dir, srv.WALSeq(), err)
		}
		if salvaged > 0 {
			if cerr := srv.CommitReplicated(); cerr != nil {
				return cerr
			}
		}
		if f.salvaged != nil {
			f.salvaged.Add(uint64(salvaged))
		}
		sp.AttrInt("salvaged", int64(salvaged))
		f.log.Info("replica: salvaged dead primary's tail", "dir", dir, "records", salvaged)
	}

	epoch := srv.Epoch() + 1
	if err := srv.Promote(epoch); err != nil {
		return err
	}
	sp.AttrInt("epoch", int64(epoch))

	// Best-effort fence: tell whatever is left of the old primary that
	// it is deposed, so a paused-not-dead process stops acking the
	// moment it wakes instead of at its next pull.
	base := f.opts.Primary.Current()
	q := url.Values{}
	q.Set("epoch", strconv.FormatUint(epoch, 10))
	if f.opts.SelfURL != "" {
		q.Set("leader", f.opts.SelfURL)
	}
	dctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(dctx, http.MethodPost, base+"/v1/replication/demote?"+q.Encode(), nil)
	if err == nil {
		if resp, derr := f.hc.Do(req); derr == nil {
			io.Copy(io.Discard, io.LimitReader(resp.Body, 256))
			resp.Body.Close()
		}
	}
	f.log.Info("replica: promoted to primary", "epoch", epoch, "old_primary", base)
	return nil
}

// Promoted reports whether this follower has taken over as primary.
func (f *Follower) Promoted() bool { return f.promoted.Load() }

// sleepCtx pauses for d, returning false when ctx ended first.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
