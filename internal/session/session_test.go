package session

import (
	"encoding/json"
	"go/parser"
	"go/token"
	"os"
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
