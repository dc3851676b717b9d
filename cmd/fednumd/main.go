// Command fednumd runs the standalone aggregation server: an HTTP service
// that creates bit-pushing sessions, hands out single-bit tasks, ingests
// randomized-response-protected reports and serves the aggregates. It is
// the deployable counterpart of the paper's Federated Analytics stack
// (§4.3); pair it with cmd/fednum-client.
//
// The daemon is crash-safe: SIGINT/SIGTERM trigger a graceful drain, and
// the session table survives a restart as a checkpoint of the log's own
// records. Sessions created with a TTL are garbage-collected by a sweeper.
//
// With -wal-dir set the daemon is kill-9 durable: every acked transition
// is committed to a write-ahead log before the reply, and that directory
// is the whole recovery input. Shutdown, and every -snapshot-interval,
// cut a checkpoint into it and reclaim the segments it covers, so an ended
// round's client ids leave the disk; records a standby has yet to pull
// stay until a later compaction. -wal-fsync "always" (default) and
// "grouped" survive power loss, "never" only process crashes. Without
// -wal-dir, the -snapshot file holds the checkpoint.
//
// Overload control: the -*-in-flight, -queue-depth/-queue-wait,
// -report-rate/-report-burst, -max-body-bytes and -request-timeout flags
// arm per-endpoint-class admission control — excess load is shed with a
// typed 503 and adaptive Retry-After advice instead of queueing without
// bound. GET /healthz answers liveness; GET /readyz flips to 503 while
// the daemon is draining or actively shedding, so a fronting router can
// tell "back off" from "dead".
//
// Observability: logs are structured (-log-format text|json, -log-level),
// and -debug-addr starts a second, operator-only listener serving
// GET /metrics (Prometheus text format), /debug/vars (expvar) and
// /debug/pprof/* — kept off the aggregation port so profiling and
// scraping are never exposed to participant traffic.
//
// Tracing: -trace-buf N arms zero-dependency request tracing — every
// request gets a span (continuing the client's W3C traceparent when
// present), the last N finished spans are served at /debug/trace on the
// admin listener, per-session round timelines at /debug/rounds, and log
// lines carry the matching trace_id/span_id. cmd/fedtrace renders both.
package main

import (
	"context"
	"errors"
	"expvar"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/obs"
	"repro/internal/replica"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/wal"
)

func main() {
	// Subcommands are checked before flag.Parse so `fednumd promote URL`
	// works without the daemon flag set.
	if len(os.Args) > 1 && os.Args[1] == "promote" {
		os.Exit(runPromote(os.Args[2:]))
	}
	addr := flag.String("addr", "127.0.0.1:8377", "listen address (port 0 picks a free port)")
	debugAddr := flag.String("debug-addr", "", "admin listen address for /metrics, /debug/vars and /debug/pprof (empty = disabled)")
	seed := flag.Uint64("seed", uint64(time.Now().UnixNano()), "task-assignment seed")
	snapshot := flag.String("snapshot", "", "without -wal-dir: checkpoint file restored on boot and written on shutdown; with -wal-dir (deprecated): read once, only while the WAL directory holds no checkpoint")
	logFormat := flag.String("log-format", "text", "log output format: text or json")
	logLevel := flag.String("log-level", "info", "minimum log level: debug, info, warn or error")
	readTimeout := flag.Duration("read-timeout", 30*time.Second, "http.Server ReadTimeout")
	writeTimeout := flag.Duration("write-timeout", 30*time.Second, "http.Server WriteTimeout")
	idleTimeout := flag.Duration("idle-timeout", 2*time.Minute, "http.Server IdleTimeout")
	grace := flag.Duration("shutdown-grace", 10*time.Second, "drain window for in-flight requests on shutdown")
	gcInterval := flag.Duration("gc-interval", time.Second, "session TTL sweep interval")
	retention := flag.Duration("retention", 0, "drop finalized/expired sessions this long after they end (0 = keep)")
	walDir := flag.String("wal-dir", "", "write-ahead log directory: acked transitions are committed here before replying (empty = disabled)")
	walFsync := flag.String("wal-fsync", "always", "WAL commit policy: always (no ack before an fsync covers it; concurrent acks share one; grouped is a synonym) or never (benchmarks only)")
	snapInterval := flag.Duration("snapshot-interval", 0, "cut a checkpoint this often: into -wal-dir, compacting the WAL, or without one into the -snapshot file; 0 = shutdown only")
	maxBodyBytes := flag.Int64("max-body-bytes", 0, "POST body cap in bytes; oversized requests get 413 (0 = 1MiB default, negative = uncapped)")
	reportInFlight := flag.Int("report-in-flight", 0, "max concurrently handled report submissions (0 = ungated)")
	taskInFlight := flag.Int("task-in-flight", 0, "max concurrently handled task polls (0 = ungated)")
	adminInFlight := flag.Int("admin-in-flight", 0, "max concurrently handled session create/finalize calls (0 = ungated)")
	queryInFlight := flag.Int("query-in-flight", 0, "max concurrently handled session/result queries (0 = ungated)")
	queueDepth := flag.Int("queue-depth", 0, "waiters allowed per gated endpoint class before shedding outright")
	queueWait := flag.Duration("queue-wait", 0, "max time a queued request waits for a slot before being shed (0 = 250ms default)")
	reportRate := flag.Float64("report-rate", 0, "per-session sustained report rate in reports/second; excess gets 429 (0 = unlimited)")
	reportBurst := flag.Float64("report-burst", 0, "per-session report token-bucket capacity (0 = -report-rate)")
	retryAfterBase := flag.Duration("retry-after-base", 0, "initial Retry-After advice on shed responses; doubles under sustained overload (0 = 1s default)")
	retryAfterMax := flag.Duration("retry-after-max", 0, "Retry-After advice cap (0 = 30s default)")
	requestTimeout := flag.Duration("request-timeout", 0, "per-request read/write deadline cutting off slow-loris bodies on gated routes (0 = listener timeouts only)")
	traceBuf := flag.Int("trace-buf", 0, "spans kept in the in-memory trace ring served at /debug/trace on the admin listener; also records per-session round timelines at /debug/rounds (0 = tracing disabled)")
	replicaOf := flag.String("replica-of", "", "run as a standby replicating from this primary base URL (comma-separated list tries each); requires -wal-dir")
	epoch := flag.Uint64("epoch", 1, "initial fencing epoch; a promoted node serves epoch+1, and replication frames from a lower epoch are rejected")
	failoverAfter := flag.Int("failover-after", 0, "standby auto-promotes after this many consecutive primary health-probe failures (0 = manual promotion only)")
	probeInterval := flag.Duration("probe-interval", time.Second, "primary health-probe cadence on a standby")
	salvageDir := flag.String("salvage-dir", "", "the primary's WAL directory as visible from this host; at promotion the standby drains its unshipped tail so no acked report is lost")
	advertiseURL := flag.String("advertise-url", "", "this node's base URL as other nodes should reach it, used as the leader hint after promotion (default http://<addr>)")
	flag.Parse()

	level, err := obs.ParseLevel(*logLevel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fednumd: %v\n", err)
		os.Exit(2)
	}
	logger, err := obs.NewLogger(os.Stderr, *logFormat, level)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fednumd: %v\n", err)
		os.Exit(2)
	}
	fatalf := func(format string, args ...any) {
		logger.Error(fmt.Sprintf("fednumd: "+format, args...))
		os.Exit(1)
	}

	if *snapInterval > 0 && *walDir == "" && *snapshot == "" {
		fatalf("-snapshot-interval requires -wal-dir or -snapshot")
	}
	if *replicaOf != "" && *walDir == "" {
		fatalf("-replica-of requires -wal-dir: the standby mirrors the primary's log sequence space")
	}

	if *traceBuf < 0 {
		fatalf("-trace-buf must be >= 0")
	}
	if *traceBuf > 0 {
		// Stamp trace_id/span_id onto every context-carrying log line, so
		// slog output and /debug/trace correlate on the same ids.
		logger = obs.WithTraceContext(logger)
	}

	agg := transport.NewServer(*seed)
	agg.Logger = logger
	agg.Retention = *retention
	if *traceBuf > 0 {
		agg.SetTracer(trace.NewRecorder(*traceBuf))
	}
	agg.SetOverload(transport.OverloadPolicy{
		MaxBodyBytes:   *maxBodyBytes,
		ReportInFlight: *reportInFlight,
		TaskInFlight:   *taskInFlight,
		AdminInFlight:  *adminInFlight,
		QueryInFlight:  *queryInFlight,
		QueueDepth:     *queueDepth,
		QueueWait:      *queueWait,
		ReportRate:     *reportRate,
		ReportBurst:    *reportBurst,
		RetryAfterBase: *retryAfterBase,
		RetryAfterMax:  *retryAfterMax,
		RequestTimeout: *requestTimeout,
	})
	agg.SetEpoch(*epoch)
	// The role must be standby before the GC loop or any traffic starts:
	// a standby never generates its own WAL records (deadline sweeps
	// arrive from the primary's stream), and the role gate refuses
	// client traffic from the first request.
	if *replicaOf != "" {
		agg.SetRole(transport.RoleStandby)
		agg.SetLeaderHint(transport.NewEndpointList(*replicaOf).Current())
	}

	// Recovery is ReplayWAL over the WAL directory; a -snapshot file beside
	// it is read only to upgrade a log compacted against that file.
	var log *wal.WAL
	if *walDir != "" {
		policy, err := wal.ParseSyncPolicy(*walFsync)
		if err != nil {
			fatalf("%v", err)
		}
		log, err = wal.Open(wal.Options{Dir: *walDir, Policy: policy, Registry: agg.Registry()})
		if err != nil {
			fatalf("opening wal %s: %v", *walDir, err)
		}
		agg.AttachWAL(log)
	}
	loadSnapshot := *snapshot != ""
	if log != nil && loadSnapshot {
		logger.Warn("fednumd: -snapshot is deprecated with -wal-dir: checkpoints are written into the WAL directory, and the file is read only while it holds none",
			"path", *snapshot)
		_, f, err := log.OpenCheckpoint() // an error is ReplayWAL's to report
		if f != nil {
			f.Close()
		}
		loadSnapshot = f == nil && err == nil
	}
	if loadSnapshot {
		if err := agg.LoadSnapshot(*snapshot); err != nil {
			fatalf("restoring snapshot %s: %v", *snapshot, err)
		}
		if n := len(agg.Sessions()); n > 0 {
			logger.Info("fednumd: restored sessions from snapshot", "sessions", n, "path", *snapshot)
		}
	}
	if log != nil {
		applied, err := agg.ReplayWAL()
		if err != nil {
			fatalf("replaying wal %s: %v", *walDir, err)
		}
		logger.Info("fednumd: recovered from wal", "records", applied,
			"through_seq", agg.WALSeq(), "sessions", len(agg.Sessions()))
	}
	stopGC := agg.StartGC(*gcInterval)
	defer stopGC()

	// checkpoint serves the periodic ticker and shutdown: with a log it
	// compacts the log into its directory, without one it writes the
	// -snapshot file.
	checkpoint := func(reason string) (err error) {
		if log != nil {
			_, err = agg.CompactWAL()
		} else {
			err = agg.SaveSnapshot(*snapshot)
		}
		if err == nil {
			logger.Info("fednumd: checkpoint cut", "reason", reason, "through_seq", agg.WALSeq())
		}
		return err
	}
	stopSnap := make(chan struct{})
	snapDone := make(chan struct{})
	if *snapInterval > 0 {
		go func() {
			defer close(snapDone)
			tick := time.NewTicker(*snapInterval)
			defer tick.Stop()
			lastSeq := agg.WALSeq()
			for {
				select {
				case <-stopSnap:
					return
				case <-tick.C:
				}
				// Skip idle ticks: with a log the applied sequence tells us
				// whether anything changed since the last cut.
				seq := agg.WALSeq()
				if log != nil && seq == lastSeq {
					continue
				}
				lastSeq = seq
				if err := checkpoint("interval"); err != nil {
					logger.Warn("fednumd: periodic checkpoint failed", "error", err)
				}
			}
		}()
	} else {
		close(snapDone)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatalf("listen %s: %v", *addr, err)
	}
	srv := &http.Server{
		Handler:           agg,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       *readTimeout,
		WriteTimeout:      *writeTimeout,
		IdleTimeout:       *idleTimeout,
	}
	logger.Info(fmt.Sprintf("fednumd: aggregation server listening on http://%s", ln.Addr()))

	var debugSrv *http.Server
	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			fatalf("debug listen %s: %v", *debugAddr, err)
		}
		agg.Registry().Publish("fednum")
		debugSrv = &http.Server{
			Handler:           debugMux(agg),
			ReadHeaderTimeout: 5 * time.Second,
		}
		go debugSrv.Serve(dln)
		logger.Info(fmt.Sprintf("fednumd: debug endpoint on http://%s", dln.Addr()))
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *replicaOf != "" {
		self := *advertiseURL
		if self == "" {
			self = "http://" + ln.Addr().String()
		}
		fol, ferr := replica.New(replica.Options{
			Server:        agg,
			Primary:       transport.NewEndpointList(*replicaOf),
			SelfURL:       self,
			Logger:        logger,
			Registry:      agg.Registry(),
			Tracer:        agg.Tracer(),
			SalvageDir:    *salvageDir,
			FailoverAfter: *failoverAfter,
			ProbeInterval: *probeInterval,
		})
		if ferr != nil {
			fatalf("replica: %v", ferr)
		}
		// The admin promote verb and the automatic prober share one
		// promotion path: salvage the dead primary's tail, then flip.
		agg.SetOnPromote(fol.Promote)
		go fol.Run(ctx)
		logger.Info("fednumd: standby replicating from primary",
			"primary", *replicaOf, "salvage_dir", *salvageDir,
			"failover_after", *failoverAfter, "epoch", agg.Epoch())
	}

	errc := make(chan error, 1)
	go func() { errc <- srv.Serve(ln) }()

	select {
	case err := <-errc:
		fatalf("serve: %v", err)
	case <-ctx.Done():
	}
	stop()
	// Flip readiness first so a fronting router routes new work elsewhere
	// while the in-flight requests drain; /healthz keeps answering 200.
	agg.SetDraining(true)
	logger.Info("fednumd: signal received, draining connections", "grace", grace.String())
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *grace)
	defer cancel()
	if err := srv.Shutdown(shutdownCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Warn("fednumd: drain incomplete, closing", "error", err)
		srv.Close()
	}
	if debugSrv != nil {
		debugSrv.Close()
	}
	stopGC()
	close(stopSnap)
	<-snapDone
	if log != nil || *snapshot != "" {
		if err := checkpoint("shutdown"); err != nil {
			fatalf("shutdown checkpoint: %v", err)
		}
	}
	if log != nil {
		if err := log.Close(); err != nil {
			fatalf("closing wal: %v", err)
		}
	}
}

// runPromote implements `fednumd promote <standby-url>`: the
// operator-facing failover verb. It POSTs the standby's promotion
// endpoint (which salvages the dead primary's log tail before flipping
// roles) and prints the answer.
func runPromote(args []string) int {
	fs := flag.NewFlagSet("promote", flag.ExitOnError)
	timeout := fs.Duration("timeout", 10*time.Second, "request timeout")
	fs.Parse(args)
	if fs.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: fednumd promote [-timeout d] <standby-base-url>")
		return 2
	}
	base := strings.TrimRight(strings.TrimSpace(fs.Arg(0)), "/")
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, base+"/v1/replication/promote", nil)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fednumd: %v\n", err)
		return 1
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		fmt.Fprintf(os.Stderr, "fednumd: promote %s: %v\n", base, err)
		return 1
	}
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
	resp.Body.Close()
	fmt.Printf("%s\n", body)
	if resp.StatusCode != http.StatusOK {
		fmt.Fprintf(os.Stderr, "fednumd: promote failed with status %d\n", resp.StatusCode)
		return 1
	}
	return 0
}

// debugMux assembles the operator-only admin handler: the server's
// metrics registry in Prometheus text format, the expvar dump, and the
// standard pprof profile endpoints.
func debugMux(agg *transport.Server) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("GET /metrics", agg.Registry().Handler())
	if rec := agg.Tracer(); rec != nil {
		mux.Handle("GET /debug/trace", rec.Handler())
		rounds := agg.RoundsHandler()
		mux.Handle("GET /debug/rounds", rounds)
		mux.Handle("GET /debug/rounds/{session}", rounds)
	}
	mux.Handle("GET /debug/vars", expvar.Handler())
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
