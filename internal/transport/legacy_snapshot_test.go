package transport

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/core"
	machine "repro/internal/session"
)

// Session images as the commit before the checkpoint (d793c4e) wrote
// them, each one session with clients a, b reported and c assigned only:
// open (with a TTL), finalized, finalized thresholds, and expired.
const (
	legacyOpen = `{"id":"s0fc710c4","config":{"feature":"f","bits":2,"gamma":1,"ttl_seconds":600},` +
		`"probs":[0.3333333333333333,0.6666666666666666],"issued":[1,2],"assigned":{"a":1,"b":0,"c":1},"reported":{"a":1,"b":1},` +
		`"bit_counts":[1,1],"bit_sums":[1,1],"deadline":"2023-11-14T22:23:20Z","ended_at":"0001-01-01T00:00:00Z"}`
	legacyDone = `{"id":"s47364ce8","config":{"feature":"f","bits":2,"gamma":1},` +
		`"probs":[0.3333333333333333,0.6666666666666666],"issued":[1,2],"assigned":{},"reported":{},` +
		`"bit_counts":[1,1],"bit_sums":[1,1],"deadline":"0001-01-01T00:00:00Z","done":true,"ended_at":"2023-11-14T22:13:20Z",` +
		`"result":{"Estimate":3,"BitMeans":[1,1],"Counts":[1,1],"Sums":[1,1],"Squashed":[false,false],"Reports":2}}`
	legacyDoneThr = `{"id":"s082a4517","config":{"feature":"t","bits":4,"thresholds":[3,9]},` +
		`"probs":[0.5,0.5],"issued":[2,1],"assigned":{},"reported":{},` +
		`"bit_counts":[1,1],"bit_sums":[1,1],"deadline":"0001-01-01T00:00:00Z","done":true,"ended_at":"2023-11-14T22:13:20Z","tail":[1,1]}`
	legacyExpired = `{"id":"sc266a3a3","config":{"feature":"x","bits":2,"gamma":1,"ttl_seconds":1},` +
		`"probs":[0.3333333333333333,0.6666666666666666],"issued":[1,2],"assigned":{},"reported":{},` +
		`"bit_counts":[1,1],"bit_sums":[1,1],"deadline":"2023-11-14T22:13:21Z","expired":true,"ended_at":"2023-11-14T22:14:21Z"}`
	// oldShapeEndedImage is a finalized session as the commit before
	// ended sessions dropped their client entries wrote it (clients a, b,
	// d reported and c assigned only).
	oldShapeEndedImage = `{"id":"s0fc710c4","config":{"feature":"f","bits":2,"gamma":1,"epsilon":1},` +
		`"probs":[0.3333333333333333,0.6666666666666666],"issued":[1,3],` +
		`"assigned":{"a":1,"b":0,"c":1,"d":1},"reported":{"a":1,"b":1,"d":1},` +
		`"bit_counts":[1,2],"bit_sums":[1,2],"deadline":"0001-01-01T00:00:00Z","done":true,"ended_at":"2026-01-02T03:04:05Z",` +
		`"result":{"Estimate":4.745930120607979,"BitMeans":[1.5819767068693265,1.5819767068693265],` +
		`"Counts":[1,2],"Sums":[1,2],"Squashed":[false,false],"Reports":3}}`
)

// TestRestoreRejectsCorruptSessions mutates an old-format snapshot one way
// per row: the legacy reader must refuse each (and restore nothing)
// rather than boot on counters that disagree with the client entries they
// summarize — or, for an ended session, which has no entries left, with
// each other and with the stored result. An intact image restores, and an
// ended one restores as its sums.
func TestRestoreRejectsCorruptSessions(t *testing.T) {
	const reporter = "b"
	for _, tc := range []struct {
		name   string
		base   string
		mutate func(st *legacySession) // nil: the image must restore
	}{
		{"intact", legacyOpen, nil},
		{"empty id", legacyOpen, func(st *legacySession) { st.ID = "" }},
		{"issued counts for another bit depth", legacyOpen, func(st *legacySession) { st.Issued = st.Issued[:1] }},
		{"pre-accumulator format: no bit_counts", legacyOpen, func(st *legacySession) { st.BitCounts, st.BitSums = nil, nil }},
		{"bit_counts do not add up to the reported clients", legacyOpen, func(st *legacySession) { st.BitCounts[st.Assigned[reporter]]++ }},
		{"bit_sums do not add up to the reported values", legacyOpen, func(st *legacySession) { st.BitSums[st.Assigned[reporter]]-- }},
		{"reported client without an assignment", legacyOpen, func(st *legacySession) { st.Reported["ghost"] = 1 }},
		{"reported value is not a bit", legacyOpen, func(st *legacySession) { st.Reported[reporter] = 2 }},
		{"assigned index out of range", legacyOpen, func(st *legacySession) { st.Assigned["c"] = 2 }},
		{"issued does not add up to the assigned clients", legacyOpen, func(st *legacySession) { st.Issued[0]++ }},
		{"config no session could have been created with", legacyOpen, func(st *legacySession) { st.Config.Bits = 0 }},
		{"open session holding a result", legacyOpen, func(st *legacySession) { st.Result = &core.Result{} }},

		{"intact finalized", legacyDone, nil},
		{"intact finalized thresholds", legacyDoneThr, nil},
		{"intact expired", legacyExpired, nil},
		{"ended: sum above count", legacyExpired, func(st *legacySession) { st.BitSums[1] = st.BitCounts[1] + 1 }},
		{"ended: count above issued", legacyExpired, func(st *legacySession) { st.BitCounts[0] = int64(st.Issued[0]) + 1 }},
		{"ended: negative sum", legacyExpired, func(st *legacySession) { st.BitSums[0] = -1 }},
		{"ended: negative count and sum", legacyExpired, func(st *legacySession) { st.BitCounts[0], st.BitSums[0] = -1, -1 }},
		{"ended: negative issued, count and sum", legacyExpired, func(st *legacySession) { st.Issued[0], st.BitCounts[0], st.BitSums[0] = -2, -2, -2 }},
		{"ended: issued for another bit depth", legacyDone, func(st *legacySession) { st.Issued = append(st.Issued, 0) }},
		{"ended: sums for another bit depth", legacyDone, func(st *legacySession) { st.BitSums = st.BitSums[:1] }},
		{"ended: estimate is not the aggregate of the sums", legacyDone, func(st *legacySession) { st.Result.Estimate += 0.5 }},
		{"ended: estimate off in the last bit", legacyDone, func(st *legacySession) { st.Result.Estimate = math.Nextafter(st.Result.Estimate, 0) }},
		{"ended: bit mean is not the aggregate of the sums", legacyDone, func(st *legacySession) { st.Result.BitMeans[0] = 0.25 }},
		{"ended: result counts are not the session's", legacyDone, func(st *legacySession) { st.Result.Counts[0]++ }},
		{"ended: sums moved under a stale result", legacyDone, func(st *legacySession) { st.BitSums[1]-- }},
		{"ended: finalized without a result", legacyDone, func(st *legacySession) { st.Result = nil }},
		{"ended: tail is not the aggregate of the sums", legacyDoneThr, func(st *legacySession) { st.Tail[0] /= 2 }},
		{"ended: finalized thresholds without a tail", legacyDoneThr, func(st *legacySession) { st.Tail = nil }},
		{"ended: expired session holding a result", legacyExpired, func(st *legacySession) { st.Result = &core.Result{} }},
		{"ended: both finalized and expired", legacyDone, func(st *legacySession) { st.Expired = true }},

		// The shape ended sessions had before they dropped their client
		// entries: checked against the entries, as an open image is.
		{"intact old-shape finalized", oldShapeEndedImage, nil},
		{"old shape: counts do not add up to the entries", oldShapeEndedImage,
			func(st *legacySession) { st.BitCounts[0], st.Issued[0] = 2, 2 }},
	} {
		var snap legacySnapshot
		if err := json.Unmarshal([]byte(`{"next_id":4,"sessions":[`+tc.base+`]}`), &snap); err != nil {
			t.Fatal(err)
		}
		if tc.mutate != nil {
			tc.mutate(&snap.Sessions[0])
		}
		data, err := json.Marshal(&snap)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "snap.json")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s := NewServer(2)
		s.Now = func() time.Time { return time.Unix(1700000000, 0) } // the images' own clock
		err = s.LoadSnapshot(path)
		if tc.mutate != nil {
			if err == nil {
				t.Errorf("%s: restored", tc.name)
			}
			if n := len(s.Sessions()); n != 0 {
				t.Errorf("%s: %d sessions in the table after a refused restore", tc.name, n)
			}
			continue
		}
		if err != nil || len(s.Sessions()) != 1 {
			t.Fatalf("%s: err %v, %d sessions", tc.name, err, len(s.Sessions()))
		}
		// The restored session is the image's: an ended one as its create
		// and end records, an open one with its three client entries.
		in, out := snap.Sessions[0], s.Snapshot().Records
		ended := in.Done || in.Expired
		switch {
		case out[0].Session != in.ID || len(out) != 2:
			t.Errorf("%s: restored as %d records of session %s", tc.name, len(out), out[0].Session)
		case ended && out[1].Counters == nil:
			t.Errorf("%s: restored ended session as %+v", tc.name, out[1])
		case !ended && (out[1].Op != machine.OpClients || len(out[1].Entries.Clients) != 3):
			t.Errorf("%s: restored open session with entries %+v", tc.name, out[1])
		}
		if got, want := s.Sessions()[0].Deadline, in.Deadline; !want.IsZero() && got != want.Format(time.RFC3339) {
			t.Errorf("%s: restored deadline %s, image's %s", tc.name, got, want)
		}
		if s.nextID != 4 {
			t.Errorf("%s: next id %d after restoring an image at 4", tc.name, s.nextID)
		}
	}
}
