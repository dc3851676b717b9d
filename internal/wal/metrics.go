package wal

import "repro/internal/obs"

// Metric names published into the registry passed via Options.Registry,
// exported as constants so tests and dashboards reference one spelling.
const (
	// MetricAppends counts records appended.
	MetricAppends = "fednum_wal_appends_total"
	// MetricAppendBytes counts framed bytes appended.
	MetricAppendBytes = "fednum_wal_append_bytes_total"
	// MetricFsyncs counts successful fsyncs of segment files.
	MetricFsyncs = "fednum_wal_fsyncs_total"
	// MetricFsyncErrors counts failed fsyncs (each poisons the commit
	// path until restart — an acked report is never backed by one).
	MetricFsyncErrors = "fednum_wal_fsync_errors_total"
	// MetricFlushSeconds is the flush (fsync) latency histogram.
	MetricFlushSeconds = "fednum_wal_flush_seconds"
	// MetricAppendSeconds is the append (frame + segment write) latency
	// histogram — the in-lock cost of Append, as distinct from the
	// commit-to-durable wait MetricFlushSeconds measures. Together the two
	// split "where does a report's durability wait go": writing the
	// record, or fsyncing it.
	MetricAppendSeconds = "fednum_wal_append_seconds"
	// MetricReplayed counts records streamed by Replay.
	MetricReplayed = "fednum_wal_replayed_records_total"
	// MetricTornTruncations counts torn tails cut off at Open.
	MetricTornTruncations = "fednum_wal_torn_truncations_total"
	// MetricRotations counts segment seals.
	MetricRotations = "fednum_wal_rotations_total"
	// MetricCompactions counts WriteCheckpoint calls that removed at
	// least one sealed segment.
	MetricCompactions = "fednum_wal_compactions_total"
	// MetricSegmentsRemoved counts sealed segment files reclaimed.
	MetricSegmentsRemoved = "fednum_wal_segments_removed_total"
	// MetricSegments gauges segment files currently on disk (sealed +
	// active).
	MetricSegments = "fednum_wal_segments"
)

// walMetrics bundles the registered instruments. A nil Options.Registry
// still gets working instruments, registered into a private registry
// nobody scrapes.
type walMetrics struct {
	appends         *obs.Counter
	appendBytes     *obs.Counter
	fsyncs          *obs.Counter
	fsyncErrors     *obs.Counter
	flushSeconds    *obs.Histogram
	appendSeconds   *obs.Histogram
	replayed        *obs.Counter
	tornTruncations *obs.Counter
	rotations       *obs.Counter
	compactions     *obs.Counter
	segmentsRemoved *obs.Counter
	segments        *obs.Gauge
}

func newWALMetrics(reg *obs.Registry) *walMetrics {
	if reg == nil {
		reg = obs.NewRegistry()
	}
	return &walMetrics{
		appends:     reg.Counter(MetricAppends, "WAL records appended."),
		appendBytes: reg.Counter(MetricAppendBytes, "Framed WAL bytes appended."),
		fsyncs:      reg.Counter(MetricFsyncs, "Successful WAL fsyncs."),
		fsyncErrors: reg.Counter(MetricFsyncErrors, "Failed WAL fsyncs."),
		flushSeconds: reg.Histogram(MetricFlushSeconds,
			"WAL flush (fsync) latency in seconds.", obs.LatencyBuckets),
		appendSeconds: reg.Histogram(MetricAppendSeconds,
			"WAL append (frame + write) latency in seconds.", obs.LatencyBuckets),
		replayed: reg.Counter(MetricReplayed, "WAL records streamed by replay."),
		tornTruncations: reg.Counter(MetricTornTruncations,
			"Torn segment tails truncated during recovery."),
		rotations: reg.Counter(MetricRotations, "WAL segments sealed."),
		compactions: reg.Counter(MetricCompactions,
			"WAL compactions that reclaimed at least one sealed segment."),
		segmentsRemoved: reg.Counter(MetricSegmentsRemoved,
			"Sealed WAL segment files removed by compaction."),
		segments: reg.Gauge(MetricSegments, "WAL segment files on disk."),
	}
}
