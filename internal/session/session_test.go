package session

import (
	"encoding/json"
	"go/parser"
	"go/token"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/transport/wire"
)

// TestImportsStayPure keeps the machine a pure one: serving, locking,
// logging and measuring a session are internal/transport's business, and
// the first import of any of these here means a second place where a
// transition can be written.
func TestImportsStayPure(t *testing.T) {
	forbidden := []string{"net/http", "sync", "repro/internal/wal", "repro/internal/trace", "repro/internal/obs"}
	files, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, f := range files {
		if !strings.HasSuffix(f.Name(), ".go") || strings.HasSuffix(f.Name(), "_test.go") {
			continue
		}
		parsed, err := parser.ParseFile(token.NewFileSet(), f.Name(), nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		checked++
		for _, imp := range parsed.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				t.Fatal(err)
			}
			for _, bad := range forbidden {
				if path == bad || strings.HasPrefix(path, bad+"/") {
					t.Errorf("%s imports %s", f.Name(), path)
				}
			}
		}
	}
	if checked == 0 {
		t.Fatal("no source files checked")
	}
}

// TestRecordEncodingPinned pins the WAL payload of one record per op to
// the bytes the commit before this package existed wrote (copied out of
// its log, see internal/transport/testdata/parent): a log is read by
// later builds and by standbys of other builds, so the encoding is a
// format, not an implementation detail.
func TestRecordEncodingPinned(t *testing.T) {
	at := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	cfg := wire.SessionConfig{Feature: "bits", Bits: 6, Gamma: 1, Epsilon: 2, MinCohort: 5}
	for _, tc := range []struct {
		rec  Record
		want string
	}{
		{Record{Op: OpCreate, Session: "s4ef9765b", NextID: 1, Config: &cfg, At: at},
			`{"op":"create","session":"s4ef9765b","next_id":1,"config":{"feature":"bits","bits":6,"gamma":1,"epsilon":2,"min_cohort":5},"at":"2026-01-02T03:04:05Z"}`},
		{Record{Op: OpAssign, Session: "s4ef9765b", Client: "b-000", Bit: 5},
			`{"op":"assign","session":"s4ef9765b","client":"b-000","bit":5,"at":"0001-01-01T00:00:00Z"}`},
		{Record{Op: OpReport, Session: "s4ef9765b", Client: "b-001", Bit: 4, Value: 1},
			`{"op":"report","session":"s4ef9765b","client":"b-001","bit":4,"value":1,"at":"0001-01-01T00:00:00Z"}`},
		{Record{Op: OpReport, Session: "s4ef9765b", Client: "b-000", Bit: 5},
			`{"op":"report","session":"s4ef9765b","client":"b-000","bit":5,"at":"0001-01-01T00:00:00Z"}`},
		{Record{Op: OpFinalize, Session: "s4ef9765b", At: at.Add(47 * time.Second)},
			`{"op":"finalize","session":"s4ef9765b","at":"2026-01-02T03:04:52Z"}`},
		{Record{Op: OpExpire, Session: "s7e54031d", At: at.Add(2 * time.Second)},
			`{"op":"expire","session":"s7e54031d","at":"2026-01-02T03:04:07Z"}`},
		{Record{Op: OpDelete, Session: "s7e54031d", At: at.Add(77 * time.Second)},
			`{"op":"delete","session":"s7e54031d","at":"2026-01-02T03:05:22Z"}`},
	} {
		got, err := json.Marshal(&tc.rec)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != tc.want {
			t.Errorf("%s record encodes as\n%s\nthe format is\n%s", tc.rec.Op, got, tc.want)
		}
		var back Record
		if err := json.Unmarshal([]byte(tc.want), &back); err != nil {
			t.Fatal(err)
		}
		if again, _ := json.Marshal(&back); string(again) != tc.want {
			t.Errorf("%s record does not survive a decode: %s", tc.rec.Op, again)
		}
	}
}

// endedSession builds a session with six assigned clients, four of them
// reported, and ends it with op.
func endedSession(t *testing.T, cfg wire.SessionConfig, op string) *Session {
	t.Helper()
	m, err := New("s1", cfg, time.Time{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		c := "c" + strconv.Itoa(i)
		bit := m.NextBit()
		recs := []Record{{Op: OpAssign, Client: c, Bit: bit}}
		if i < 4 {
			recs = append(recs, Record{Op: OpReport, Client: c, Bit: bit, Value: uint64(i % 2)})
		}
		for _, rec := range recs {
			if err := m.Apply(&rec); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := m.Apply(&Record{Op: op, At: time.Unix(100, 0).UTC()}); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestApplyOnEndedSession pins the rule that replaces the client map's
// idempotence once the map is gone: an ended session has no client
// entries, absorbs every assign and report without touching a counter
// (replay over an image cut after the end meets them a second time), and
// repeats its own end record as a no-op. The other end record
// contradicts the state and is an error.
func TestApplyOnEndedSession(t *testing.T) {
	cfgs := []wire.SessionConfig{
		{Feature: "bits", Bits: 4, Gamma: 1, Epsilon: 2},
		{Feature: "thr", Bits: 8, Thresholds: []uint64{10, 50, 100}},
	}
	for _, cfg := range cfgs {
		for _, end := range []string{OpFinalize, OpExpire} {
			m := endedSession(t, cfg, end)
			if m.clients != nil {
				t.Fatalf("%s/%s: %d client entries outlive the session", cfg.Feature, end, len(m.clients))
			}
			want := m.State()
			if len(want.Assigned) != 0 || len(want.Reported) != 0 {
				t.Fatalf("%s/%s: image of an ended session carries client entries: %+v", cfg.Feature, end, want)
			}
			wantRes := m.Result()
			for _, rec := range []Record{
				{Op: OpAssign, Client: "c0", Bit: 0},              // known client
				{Op: OpAssign, Client: "stranger", Bit: 1},        // new client
				{Op: OpAssign, Client: "stranger", Bit: 99},       // out of range: still absorbed
				{Op: OpReport, Client: "c0", Bit: 0, Value: 1},    // already counted
				{Op: OpReport, Client: "c5", Bit: 0, Value: 1},    // assigned, never reported
				{Op: OpReport, Client: "ghost", Bit: 3, Value: 7}, // would contradict an open session
				{Op: end, At: time.Unix(999, 0).UTC()},            // the end record again
			} {
				if err := m.Apply(&rec); err != nil {
					t.Fatalf("%s/%s: %s on the ended session: %v", cfg.Feature, end, rec.Op, err)
				}
				if got := m.State(); !reflect.DeepEqual(got, want) {
					t.Fatalf("%s/%s: %+v changed the ended session:\n got %+v\nwant %+v", cfg.Feature, end, rec, got, want)
				}
			}
			if got := m.Result(); !reflect.DeepEqual(got, wantRes) {
				t.Fatalf("%s/%s: result %+v, want %+v", cfg.Feature, end, got, wantRes)
			}
			if _, ok := m.Assigned("c0"); ok {
				t.Errorf("%s/%s: an ended session still knows a client", cfg.Feature, end)
			}
			other := OpExpire
			if end == OpExpire {
				other = OpFinalize
			}
			if err := m.Apply(&Record{Op: other}); err == nil {
				t.Errorf("%s/%s: %s applied to it", cfg.Feature, end, other)
			}
			if got := m.State(); !reflect.DeepEqual(got, want) {
				t.Errorf("%s/%s: refused %s changed the session", cfg.Feature, end, other)
			}
		}
	}
}

// TestEndedImageRoundTrips: FromState of an ended session's image is the
// same session (same image again, same result), through JSON as a
// snapshot file carries it.
func TestEndedImageRoundTrips(t *testing.T) {
	for _, end := range []string{OpFinalize, OpExpire} {
		m := endedSession(t, wire.SessionConfig{Feature: "bits", Bits: 4, Gamma: 1, Epsilon: 2, SquashThreshold: 0.05}, end)
		data, err := json.Marshal(m.State())
		if err != nil {
			t.Fatal(err)
		}
		var st State
		if err := json.Unmarshal(data, &st); err != nil {
			t.Fatal(err)
		}
		back, err := FromState(st)
		if err != nil {
			t.Fatalf("%s: %v", end, err)
		}
		again, err := json.Marshal(back.State())
		if err != nil {
			t.Fatal(err)
		}
		if string(again) != string(data) || !reflect.DeepEqual(back.Result(), m.Result()) {
			t.Errorf("%s: image\n%s\nrestores to\n%s", end, data, again)
		}
		if back.clients != nil || back.Open() == nil {
			t.Errorf("%s: restored session is open or holds client entries", end)
		}
	}
}
