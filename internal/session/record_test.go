package session

import (
	"encoding/hex"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/transport/wire"
)

// pinnedRecords are one record per op with its binary encoding, the
// history's records as internal/transport/testdata/binary holds them.
func pinnedRecords() []struct {
	rec Record
	bin string
} {
	at := time.Date(2026, 1, 2, 3, 4, 5, 0, time.UTC)
	cfg := wire.SessionConfig{Feature: "bits", Bits: 6, Gamma: 1, Epsilon: 2, MinCohort: 5}
	return []struct {
		rec Record
		bin string
	}{
		{Record{Op: OpCreate, Session: "s4ef9765b", NextID: 1, Config: &cfg, At: at},
			"80230973346566393736356202407b2266656174757265223a2262697473222c2262697473223a362c2267616d6d61223a312c22657073696c6f6e223a322c226d696e5f636f686f7274223a357dcad6b9950d00"},
		{Record{Op: OpAssign, Session: "s4ef9765b", Client: "b-000", Bit: 5},
			"810c0973346566393736356205622d3030300a"},
		{Record{Op: OpReport, Session: "s4ef9765b", Client: "b-001", Bit: 4, Value: 1},
			"821c0973346566393736356205622d3030310801"},
		{Record{Op: OpReport, Session: "s4ef9765b", Client: "b-000", Bit: 5},
			"820c0973346566393736356205622d3030300a"},
		{Record{Op: OpFinalize, Session: "s4ef9765b", At: at.Add(47 * time.Second)},
			"842009733465663937363562a8d7b9950d00"},
		{Record{Op: OpExpire, Session: "s7e54031d", At: at.Add(2 * time.Second)},
			"852009733765353430333164ced6b9950d00"},
		{Record{Op: OpDelete, Session: "s7e54031d", At: at.Add(77 * time.Second)},
			"862009733765353430333164e4d7b9950d00"},
		{Record{Op: OpClients, Session: "s7e54031d", Entries: &Entries{Clients: []string{"g-000", "g-001", "g-002"}, Indexes: []int{1, 0, 1}, States: []uint8{1, 2, 1}}},
			"8340097337653534303331640305672d30303005672d30303105672d3030320302000203010201"},
		{Record{Op: OpFinalize, Session: "s1e807244", At: at.Add(47 * time.Second), Counters: &Counters{Issued: []int{0, 10, 20}, Counts: []int64{0, 9, 17}, Sums: []int64{0, 3, 6}}},
			"84a009733165383037323434a8d7b9950d0003001428030012220300060c"},
		{Record{Op: OpCheckpointEnd},
			"870000"},
	}
}

// TestRecordEncodingPinned pins each record's payload: a log or a
// checkpoint is read by later builds and by standbys of other builds, so
// the encoding is a format, not an implementation detail.
func TestRecordEncodingPinned(t *testing.T) {
	for _, tc := range pinnedRecords() {
		got, err := tc.rec.AppendBinary(nil)
		if err != nil {
			t.Fatal(err)
		}
		if hex.EncodeToString(got) != tc.bin {
			t.Errorf("%s record encodes as\n%x\nthe format is\n%s", tc.rec.Op, got, tc.bin)
		}
		bin, _ := hex.DecodeString(tc.bin)
		if back, err := DecodeRecord(bin); err != nil || !reflect.DeepEqual(back, &tc.rec) {
			t.Errorf("%s decodes as %+v (err %v), want %+v", tc.bin, back, err, tc.rec)
		}
	}
}

// TestDecodeRecordRefuses: each way a binary payload can be other than
// what AppendBinary writes is an error, and none allocates more than the
// bytes present.
func TestDecodeRecordRefuses(t *testing.T) {
	report, _ := hex.DecodeString("821c0973346566393736356205622d3030310801")
	clients, _ := hex.DecodeString("8340097337653534303331640305672d30303005672d30303105672d3030320302000203010201")
	edit := func(b []byte, f func([]byte) []byte) []byte { return f(append([]byte(nil), b...)) }
	for _, tc := range []struct {
		name    string
		payload []byte
	}{
		{"empty", nil},
		{"tag only", report[:1]},
		{"truncated", report[:len(report)-1]},
		{"trailing byte", append(append([]byte(nil), report...), 0)},
		{"unknown tag", edit(report, func(b []byte) []byte { b[0] = 0x88; return b })},
		{"tag without the high bit", edit(report, func(b []byte) []byte { b[0] = 0x02; return b })},
		{"overlong varint", edit(report, func(b []byte) []byte { return append(b[:len(b)-1], 0x81, 0x00) })},
		{"present value of zero", edit(report, func(b []byte) []byte { b[len(b)-1] = 0; return b })},
		{"session longer than the payload", edit(report, func(b []byte) []byte { b[2] = 0x7f; return b })},
		{"client count past the payload", edit(clients, func(b []byte) []byte { b[12] = 0xff; b = append(b[:13], 0x7f); return b })},
		{"a JSON record, as logs were once written", []byte(`{"op":"report","session":"s4ef9765b","client":"b-001","bit":4,"value":1}`)},
	} {
		if rec, err := DecodeRecord(tc.payload); err == nil {
			t.Errorf("%s: %x decodes as %+v", tc.name, tc.payload, rec)
		}
	}
}

// FuzzRecord: DecodeRecord never panics, a payload it accepts is the one
// encoding of what it decodes to, and every AppendBinary output decodes
// back to the record it came from. The seeds are each pinned payload,
// whole and a byte short.
func FuzzRecord(f *testing.F) {
	for _, tc := range pinnedRecords() {
		bin, _ := hex.DecodeString(tc.bin)
		for _, payload := range [][]byte{bin, bin[:len(bin)-1]} {
			f.Add(payload, uint8(3), uint8(0x1c), "s4ef9765b", "b-001", int64(4), uint64(1), int64(1767323045), uint32(0), []byte{1, 2})
		}
	}
	f.Add([]byte{}, uint8(0), uint8(0xff), "s", "a/b", int64(-3), uint64(1<<63), int64(-1<<40), uint32(999999999), []byte{0x80, 0x7f})
	f.Fuzz(func(t *testing.T, payload []byte, op, presence uint8, sess, client string, bit int64, value uint64, sec int64, nsec uint32, extra []byte) {
		if rec, err := DecodeRecord(payload); err == nil {
			again, err := rec.AppendBinary(nil)
			if err != nil || string(again) != string(payload) {
				t.Fatalf("%x decodes as %+v, which encodes as %x (err %v)", payload, rec, again, err)
			}
		}

		src := Record{Op: opTags[int(op)%len(opTags)], Session: sess}
		ints := func() []int {
			var xs []int
			for _, b := range extra {
				xs = append(xs, int(int8(b))*int(bit))
			}
			return xs
		}
		int64s := func() []int64 {
			var xs []int64
			for _, x := range ints() {
				xs = append(xs, int64(x)-int64(value))
			}
			return xs
		}
		if presence&hasNextID != 0 {
			src.NextID = int(bit)
		}
		if presence&hasConfig != 0 {
			src.Config = &wire.SessionConfig{Feature: strings.ToValidUTF8(client, "?"), Bits: int(bit),
				Gamma: float64(value), TTLSeconds: float64(sec), AutoFinalize: nsec%2 == 0}
			for _, b := range extra {
				src.Config.Thresholds = append(src.Config.Thresholds, uint64(b)*value)
			}
		}
		if presence&hasClient != 0 {
			src.Client = client
		}
		if presence&hasBit != 0 {
			src.Bit = int(bit)
		}
		if presence&hasValue != 0 {
			src.Value = value
		}
		if presence&hasAt != 0 {
			src.At = time.Unix(sec, int64(nsec%uint32(time.Second))).UTC()
		}
		if presence&hasEntries != 0 {
			src.Entries = &Entries{Clients: strings.Split(client, "/"), Indexes: ints()}
			if len(extra) > 0 {
				src.Entries.States = extra
			}
		}
		if presence&hasCounters != 0 {
			src.Counters = &Counters{Issued: ints(), Counts: int64s(), Sums: int64s()}
		}
		bin, err := src.AppendBinary(nil)
		if err != nil {
			t.Fatalf("%+v does not encode: %v", src, err)
		}
		back, err := DecodeRecord(bin)
		if err != nil || !reflect.DeepEqual(back, &src) {
			t.Fatalf("%+v encodes as %x, which decodes as %+v (err %v)", src, bin, back, err)
		}
	})
}
