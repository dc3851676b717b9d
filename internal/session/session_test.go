package session

import (
	"encoding/json"
	"fmt"
	"go/parser"
	"go/token"
	"math"
	"os"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/frand"
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
// entries, absorbs every assign, report and clients record without
// touching a counter (replay over an image cut after the end meets them a
// second time), and repeats its own end record as a no-op. The other end record
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
			want := m.Checkpoint()
			if len(want) != 2 || want[1].Op != end {
				t.Fatalf("%s/%s: checkpoint of an ended session is not its create and end records: %+v", cfg.Feature, end, want)
			}
			wantRes := m.Result()
			for _, rec := range []Record{
				{Op: OpAssign, Client: "c0", Bit: 0},              // known client
				{Op: OpAssign, Client: "stranger", Bit: 1},        // new client
				{Op: OpAssign, Client: "stranger", Bit: 99},       // out of range: still absorbed
				{Op: OpReport, Client: "c0", Bit: 0, Value: 1},    // already counted
				{Op: OpReport, Client: "c5", Bit: 0, Value: 1},    // assigned, never reported
				{Op: OpReport, Client: "ghost", Bit: 3, Value: 7}, // would contradict an open session
				{Op: OpClients, Entries: &Entries{ // a request's reports, known and not
					Clients: []string{"c0", "c5", "ghost"}, Indexes: []int{0, 0, 9}, States: []uint8{2, 2, 3}}},
				{Op: OpClients},                        // without entries
				{Op: end, At: time.Unix(999, 0).UTC()}, // the end record again
			} {
				if err := m.Apply(&rec); err != nil {
					t.Fatalf("%s/%s: %s on the ended session: %v", cfg.Feature, end, rec.Op, err)
				}
				if got := m.Checkpoint(); !reflect.DeepEqual(got, want) {
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
			if got := m.Checkpoint(); !reflect.DeepEqual(got, want) {
				t.Errorf("%s/%s: refused %s changed the session", cfg.Feature, end, other)
			}
		}
	}
}

// rebuild applies a checkpoint's records to a session made from its
// create record, as a restore does, each one through its encoding as a
// file carries it.
func rebuild(t *testing.T, recs []Record) (*Session, error) {
	t.Helper()
	var m *Session
	for i := range recs {
		data, err := recs[i].AppendBinary(nil)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := DecodeRecord(data)
		if err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			if m, err = New(rec.Session, *rec.Config, rec.At); err != nil {
				return nil, err
			}
			continue
		}
		if err := m.Apply(rec); err != nil {
			return nil, fmt.Errorf("record %d (%s): %w", i, rec.Op, err)
		}
	}
	return m, nil
}

// TestEndedImageRoundTrips: an ended session's checkpoint — its create
// record and its end record with the counters — rebuilds the same
// session: the same checkpoint again, the same result, recomputed.
func TestEndedImageRoundTrips(t *testing.T) {
	for _, cfg := range []wire.SessionConfig{
		{Feature: "bits", Bits: 4, Gamma: 1, Epsilon: 2, SquashThreshold: 0.05, TTLSeconds: 30},
		{Feature: "thr", Bits: 8, Thresholds: []uint64{10, 50, 100}},
	} {
		for _, end := range []string{OpFinalize, OpExpire} {
			m := endedSession(t, cfg, end)
			want := m.Checkpoint()
			back, err := rebuild(t, want)
			if err != nil {
				t.Fatalf("%s/%s: %v", cfg.Feature, end, err)
			}
			got := back.Checkpoint()
			wantJSON, _ := json.Marshal(want)
			gotJSON, _ := json.Marshal(got)
			if string(gotJSON) != string(wantJSON) || !reflect.DeepEqual(back.Result(), m.Result()) || back.Deadline() != m.Deadline() {
				t.Errorf("%s/%s: checkpoint\n%s\nrestores to\n%s", cfg.Feature, end, wantJSON, gotJSON)
			}
			if back.clients != nil || back.Open() == nil {
				t.Errorf("%s/%s: restored session is open or holds client entries", cfg.Feature, end)
			}
		}
	}
}

// TestApplyCheckpointRecords: Apply is a checkpoint's only validator, so
// each way a clients record or an end record carrying counters can be
// wrong is one of its contradiction errors. Every row starts from a fresh
// session with the intact rows' prefix applied.
func TestApplyCheckpointRecords(t *testing.T) {
	cfg := wire.SessionConfig{Feature: "f", Bits: 3, Gamma: 1}
	entries := func(clients []string, indexes []int, states []uint8) Record {
		return Record{Op: OpClients, Entries: &Entries{Clients: clients, Indexes: indexes, States: states}}
	}
	// open and end return a fresh intact record, changed by edit.
	open := func(edit func(*Entries)) Record {
		rec := entries([]string{"a", "b", "c"}, []int{2, 1, 2}, []uint8{2, 1, 0})
		if edit != nil {
			edit(rec.Entries)
		}
		return rec
	}
	end := func(op string, edit func(*Counters)) Record {
		rec := Record{Op: op, Counters: &Counters{Issued: []int{1, 2, 3}, Counts: []int64{1, 1, 2}, Sums: []int64{0, 1, 2}}}
		if edit != nil {
			edit(rec.Counters)
		}
		return rec
	}
	for _, tc := range []struct {
		name string
		recs []Record
		ok   bool
	}{
		{"intact open", []Record{open(nil)}, true},
		{"intact finalized", []Record{end(OpFinalize, nil)}, true},
		{"intact expired", []Record{end(OpExpire, nil)}, true},
		{"entries in two chunks", []Record{entries([]string{"a"}, []int{2}, []uint8{2}),
			entries([]string{"b", "c", "a"}, []int{1, 2, 2}, []uint8{1, 0, 2})}, true},

		{"counters on a session with entries", []Record{open(nil), end(OpFinalize, nil)}, false},
		{"counters on an ended session", []Record{{Op: OpExpire}, end(OpFinalize, nil)}, false},
		{"counters twice", []Record{end(OpFinalize, nil), end(OpFinalize, nil)}, false},
		{"sum above count", []Record{end(OpFinalize, func(c *Counters) { c.Sums[1] = 2 })}, false},
		{"count above issued", []Record{end(OpFinalize, func(c *Counters) { c.Counts[0] = 2 })}, false},
		{"negative sum", []Record{end(OpExpire, func(c *Counters) { c.Sums[0] = -1 })}, false},
		{"negative count and sum", []Record{end(OpExpire, func(c *Counters) { c.Counts[0], c.Sums[0] = -1, -1 })}, false},
		{"negative issued, count and sum", []Record{end(OpExpire, func(c *Counters) { c.Issued[0], c.Counts[0], c.Sums[0] = -2, -2, -2 })}, false},
		{"issued for another bit depth", []Record{end(OpFinalize, func(c *Counters) { c.Issued = append(c.Issued, 0) })}, false},
		{"sums for another bit depth", []Record{end(OpFinalize, func(c *Counters) { c.Sums = c.Sums[:2] })}, false},
		{"counts missing", []Record{end(OpFinalize, func(c *Counters) { c.Counts = nil })}, false},

		{"clients record without entries", []Record{{Op: OpClients}}, false},
		{"index out of range", []Record{open(func(e *Entries) { e.Indexes[2] = 3 })}, false},
		{"negative index", []Record{open(func(e *Entries) { e.Indexes[0] = -1 })}, false},
		{"report state above 2", []Record{open(func(e *Entries) { e.States[1] = 3 })}, false},
		{"fewer indexes than clients", []Record{open(func(e *Entries) { e.Indexes = e.Indexes[:2] })}, false},
		{"more report states than clients", []Record{open(func(e *Entries) { e.States = append(e.States, 0) })}, false},
		{"client at two indexes", []Record{open(nil), entries([]string{"b"}, []int{0}, []uint8{1})}, false},
		{"client reporting two values", []Record{open(nil), entries([]string{"a"}, []int{2}, []uint8{1})}, false},
	} {
		recs := []Record{{Op: OpCreate, Session: "s1", Config: &cfg}}
		for _, rec := range tc.recs {
			rec.Session = "s1"
			recs = append(recs, rec)
		}
		if _, err := rebuild(t, recs); tc.ok != (err == nil) {
			t.Errorf("%s: err %v", tc.name, err)
		}
	}
}

// TestCheckpointClientOrderIsFree is the premise of the clients chunks:
// NextBit depends on the past only through issued, so a checkpoint whose
// chunks and entries are shuffled rebuilds a session that assigns the
// next clients, decides every known client's report and finalizes
// exactly as the live one.
func TestCheckpointClientOrderIsFree(t *testing.T) {
	rng := frand.New(3)
	cfg := wire.SessionConfig{Feature: "f", Bits: 10, Gamma: 0.5, Epsilon: 1, SquashThreshold: 0.02}
	live, err := New("s1", cfg, time.Unix(100, 0).UTC())
	if err != nil {
		t.Fatal(err)
	}
	const clients = 10000
	for i := 0; i < clients; i++ {
		c := fmt.Sprintf("dev-%08x", i)
		bit := live.NextBit()
		if err := live.Apply(&Record{Op: OpAssign, Client: c, Bit: bit}); err != nil {
			t.Fatal(err)
		}
		if i%10 != 9 {
			if err := live.Apply(&Record{Op: OpReport, Client: c, Bit: bit, Value: uint64(rng.Intn(2))}); err != nil {
				t.Fatal(err)
			}
		}
	}
	recs := live.Checkpoint()
	if len(recs) < 4 {
		t.Fatalf("%d records: want the entries in at least three chunks", len(recs))
	}
	shuffle := func(n int, swap func(i, j int)) {
		for i := n - 1; i > 0; i-- {
			swap(i, rng.Intn(i+1))
		}
	}
	chunks := recs[1:]
	shuffle(len(chunks), func(i, j int) { chunks[i], chunks[j] = chunks[j], chunks[i] })
	for _, rec := range chunks {
		ch := rec.Entries
		shuffle(len(ch.Clients), func(i, j int) {
			ch.Clients[i], ch.Clients[j] = ch.Clients[j], ch.Clients[i]
			ch.Indexes[i], ch.Indexes[j] = ch.Indexes[j], ch.Indexes[i]
			ch.States[i], ch.States[j] = ch.States[j], ch.States[i]
		})
	}
	back, err := rebuild(t, recs)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < clients; i++ {
		c := fmt.Sprintf("dev-%08x", i)
		bit, _ := live.Assigned(c)
		for _, b := range []int{bit, (bit + 1) % cfg.Bits} {
			for v := uint64(0); v < 2; v++ {
				if got, want := Decide(back, c, b, v), Decide(live, c, b, v); got != want {
					t.Fatalf("%s (bit %d, value %d): restored decides %v, live %v", c, b, v, got, want)
				}
			}
		}
	}
	for i := 0; i < 10000; i++ {
		bit := live.NextBit()
		if got := back.NextBit(); got != bit {
			t.Fatalf("pick %d: restored session picks bit %d, live %d", i, got, bit)
		}
		for _, m := range []*Session{live, back} {
			if err := m.Apply(&Record{Op: OpAssign, Client: fmt.Sprintf("new-%d", i), Bit: bit}); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, m := range []*Session{live, back} {
		if err := m.Apply(&Record{Op: OpFinalize}); err != nil {
			t.Fatal(err)
		}
	}
	if got, want := back.Result(), live.Result(); !reflect.DeepEqual(got, want) {
		t.Errorf("restored session finalizes to %+v, live to %+v", got, want)
	}
}

// TestNextBitDiscrepancy pins the §3.1 property of the assignment stream:
// after every prefix of n NextBit picks, every index's issued count is
// within maxDiscrepancy of n·p_j. The allocations are random with zero
// entries, geometric, and the two adaptive round-2 shapes: variance
// weights over learned means, some dead, and 2^j over the live bits.
func TestNextBitDiscrepancy(t *testing.T) {
	const maxDiscrepancy = 1.5
	rng := frand.New(1)
	worst := 0.0
	for trial := 0; trial < 400; trial++ {
		bits := 2 + rng.Intn(51)
		w := make([]float64, bits)
		var probs []float64
		var err error
		switch trial % 4 {
		case 0:
			for j := range w {
				if rng.Intn(4) > 0 {
					w[j] = rng.Float64()
				}
			}
			w[rng.Intn(bits)] += 0.1
			probs, err = core.Normalize(w)
		case 1:
			probs, err = core.GeometricProbs(bits, []float64{0.25, 0.5, 1, 2.5}[rng.Intn(4)])
		case 2:
			for j := range w {
				if rng.Intn(3) > 0 {
					w[j] = rng.Float64()
				}
			}
			probs, err = core.WeightedProbs(w, []float64{0.5, 1}[rng.Intn(2)])
		default:
			for j := range w {
				if rng.Intn(3) > 0 || j == bits-1 {
					w[j] = math.Ldexp(1, j)
				}
			}
			probs, err = core.Normalize(w)
		}
		if err != nil {
			t.Fatal(err)
		}
		m := &Session{probs: probs, issued: make([]int, bits)}
		for n := 1; n <= 2000; n++ {
			m.issued[m.NextBit()]++
			for j, p := range probs {
				worst = max(worst, math.Abs(float64(m.issued[j])-float64(n)*p))
			}
		}
	}
	t.Logf("worst |issued[j] - n*p_j| over 400 allocations x 2000 prefixes: %.3f", worst)
	if worst > maxDiscrepancy {
		t.Errorf("an assignment prefix strays %.3f tasks from n*p_j, more than %v", worst, maxDiscrepancy)
	}
}
