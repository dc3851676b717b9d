package policy

// This file is the concurrency half of the policy: the manually curated
// facts the lock analyzers (lockorder, lockheld) need about calls that
// cross a package boundary, where fedlint's intra-package type information
// ends. Keys are go/types full names — "(*repro/internal/wal.WAL).Commit",
// "time.Sleep" — exactly what (*types.Func).FullName returns.

// LockFacts maps an exported callee to the lock classes it may acquire,
// so lockorder can extend the acquisition graph across package
// boundaries (e.g. transport code appending to the WAL under Server.mu
// creates the Server.mu → WAL.mu edge even though WAL.mu is private to
// internal/wal).
var LockFacts = map[string][]string{
	"(*repro/internal/wal.WAL).Append":          {"repro/internal/wal.WAL.mu"},
	"(*repro/internal/wal.WAL).AppendAt":        {"repro/internal/wal.WAL.mu"},
	"(*repro/internal/wal.WAL).Commit":          {"repro/internal/wal.WAL.flushMu", "repro/internal/wal.WAL.mu"},
	"(*repro/internal/wal.WAL).WaitFor":         {"repro/internal/wal.WAL.mu"},
	"(*repro/internal/wal.WAL).ReadFrom":        {"repro/internal/wal.WAL.mu"},
	"(*repro/internal/wal.WAL).Replay":          {"repro/internal/wal.WAL.mu"},
	"(*repro/internal/wal.WAL).AlignTo":         {"repro/internal/wal.WAL.mu"},
	"(*repro/internal/wal.WAL).KeepFrom":        {"repro/internal/wal.WAL.mu"},
	"(*repro/internal/wal.WAL).OpenCheckpoint":  {"repro/internal/wal.WAL.mu"},
	"(*repro/internal/wal.WAL).WriteCheckpoint": {"repro/internal/wal.WAL.mu", "repro/internal/wal.WAL.flushMu"},
	"(*repro/internal/wal.WAL).Close":           {"repro/internal/wal.WAL.mu", "repro/internal/wal.WAL.flushMu"},
	"(*repro/internal/wal.WAL).FirstSeq":        {"repro/internal/wal.WAL.mu"},
	"(*repro/internal/wal.WAL).LastSeq":         {"repro/internal/wal.WAL.mu"},
	"(*repro/internal/wal.WAL).SizeBytes":       {"repro/internal/wal.WAL.mu"},
}

// Blocking maps a callee to why it can block indefinitely (or for an
// operator-visible latency): network round trips, fsync, long-polls,
// sleeps, and barrier waits. lockheld reports any of these reached while
// a mutex is held, unless (lock, callee) is listed in HeldExceptions.
var Blocking = map[string]string{
	"time.Sleep":                "sleeps",
	"(*sync.WaitGroup).Wait":    "waits for a WaitGroup",
	"(*sync.Cond).Wait":         "parks on a condition variable",
	"(*os.File).Sync":           "fsyncs",
	"(*net/http.Client).Do":     "performs a network round trip",
	"(*net/http.Client).Get":    "performs a network round trip",
	"(*net/http.Client).Post":   "performs a network round trip",
	"(*net/http.Client).Head":   "performs a network round trip",
	"net/http.Get":              "performs a network round trip",
	"net/http.Post":             "performs a network round trip",
	"net/http.Head":             "performs a network round trip",
	"net.Dial":                  "dials the network",
	"net.DialTimeout":           "dials the network",
	"(*net.Dialer).Dial":        "dials the network",
	"(*net.Dialer).DialContext": "dials the network",
	"(*os/exec.Cmd).Run":        "waits for a subprocess",
	"(*os/exec.Cmd).Wait":       "waits for a subprocess",
	"(*os/exec.Cmd).Output":     "waits for a subprocess",

	"(*repro/internal/wal.WAL).Commit":   "blocks on the WAL fsync frontier",
	"(*repro/internal/wal.WAL).WaitFor":  "long-polls the WAL tail",
	"(*repro/internal/wal.WAL).ReadFrom": "scans WAL segments from disk",
	"(*repro/internal/wal.WAL).Append":   "appends to the WAL",
	"(*repro/internal/wal.WAL).AppendAt": "appends to the WAL",

	"(*repro/internal/transport.Participant).FetchTask":    "performs a network round trip",
	"(*repro/internal/transport.Participant).Participate":  "performs a network round trip",
	"(*repro/internal/transport.Participant).SubmitReport": "performs a network round trip",
	"(*repro/internal/transport.Admin).CreateSession":      "performs a network round trip",
	"(*repro/internal/transport.Admin).Finalize":           "performs a network round trip",
	"(*repro/internal/transport.Admin).Result":             "performs a network round trip",
}

// HeldExceptions lists the (callee, lock) pairs the design explicitly
// allows despite the callee appearing in Blocking. Entries record a
// reviewed decision, not an escape hatch:
//
//   - WAL appends under the transport locks are the durability design
//     itself (log-before-mutate): Append only buffers the record — the
//     fsync (Commit) happens after the lock is released, so the append
//     under the lock costs an in-memory copy, not a disk wait. The
//     record-ordering lock is the session table's for create/delete and
//     the session's own mutex for assignment/report/finalize/expire;
//     Server.mu stays listed for the replay and replication apply paths
//     that run under it.
//   - WAL appends under the WAL's own mu are how the WAL is implemented.
var HeldExceptions = map[string]map[string]bool{
	"(*repro/internal/wal.WAL).Append": {
		"repro/internal/transport.Server.mu":       true,
		"repro/internal/transport.sessionTable.mu": true,
		"repro/internal/transport.session.mu":      true,
	},
	"(*repro/internal/wal.WAL).AppendAt": {
		"repro/internal/transport.Server.mu": true,
	},
	// Cond.Wait must be called with the condition's own lock held — and
	// atomically releases it while parked, so it never stalls the other
	// acquirers of that lock. The WAL's group-commit waiters park on
	// flushCond (whose L is flushMu). Any *additional* lock held across
	// the Wait is still reported.
	"(*sync.Cond).Wait": {
		"repro/internal/wal.WAL.flushMu": true,
	},
}

// AllowedUnderLock reports whether calling into pkgPath while holding a
// lock is categorically fine. Structured logging is the deliberate "log
// under lock" exception: slog handlers are non-blocking by contract
// (the default handlers write to a local fd), and requiring every
// slog.Info to move outside critical sections would cost more bugs than
// it prevents.
func AllowedUnderLock(pkgPath string) bool {
	return pkgPath == "log/slog"
}
