package session

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"time"

	"repro/internal/transport/wire"
)

// Record operations. Create and Delete change the session table and are
// applied by its owner; the rest up to Delete are Apply's. Clients holds a
// checkpoint's client entries, or the reports one request had accepted,
// and CheckpointEnd only closes a checkpoint's stream of records: nothing
// applies it.
const (
	OpCreate        = "create"
	OpAssign        = "assign"
	OpReport        = "report"
	OpClients       = "clients"
	OpFinalize      = "finalize"
	OpExpire        = "expire"
	OpDelete        = "delete"
	OpCheckpointEnd = "checkpoint_end"
)

// Record is one state transition and, encoded (AppendBinary), the payload
// of its WAL entry, checkpoint frame and replication frame. Only the
// fields the operation needs are set; everything derivable
// (probabilities, randomized-response parameters, aggregates) is
// recomputed by Apply.
type Record struct {
	Op      string
	Session string
	// Create fields.
	NextID int
	Config *wire.SessionConfig
	// Assign and report fields.
	Client string
	Bit    int
	Value  uint64
	// At anchors time-derived state: the create time (TTL deadlines are
	// At+TTL) and the finalize/expire transition time (retention GC).
	At time.Time
	// Checkpoint fields: the entries of an OpClients record, and the
	// counters a checkpoint's finalize or expire record carries.
	Entries  *Entries
	Counters *Counters
}

// Entries are client entries: parallel client ids, assigned indexes and
// report states (0 = assigned only, 1 + the reported value).
type Entries struct {
	Clients []string
	Indexes []int
	States  []uint8
}

// Counters are a session's per-index counters, which an ended session,
// having no entries to derive them from, is checkpointed as.
type Counters struct {
	Issued []int
	Counts []int64
	Sums   []int64
}

// The binary encoding of a record:
//
//	[tag][presence][session]  then each present field, in declaration order
//
// tag is 0x80 | the op's position in opTags, so a payload never starts
// with the '{' of the JSON records once written. presence holds one bit
// per optional field (has*), set when the field is not its zero value:
// JSON's omitempty rule, here applied to At too. Strings and the create
// record's config (its JSON) are a uvarint length and the bytes; ints are
// varints, Value a uvarint, At unix seconds (varint) and nanoseconds
// (uvarint), read back as UTC. Entries and Counters are each of their
// slices as a uvarint count and the elements (a report state is one
// byte), so slices of unequal length survive to Apply's errors.
//
// Each record has exactly one encoding: DecodeRecord refuses anything
// AppendBinary would not have written — an overlong varint, a present
// field holding its zero value, a config that is not its own JSON.
const tagBit = 0x80

// opTags is part of the format: a new op goes at the end.
var opTags = [...]string{OpCreate, OpAssign, OpReport, OpClients, OpFinalize, OpExpire, OpDelete, OpCheckpointEnd}

const (
	hasNextID = 1 << iota
	hasConfig
	hasClient
	hasBit
	hasValue
	hasAt
	hasEntries
	hasCounters
)

// AppendBinary appends the record's binary encoding to dst. A record that
// needs no config allocates nothing here, so a caller encoding into a
// reused buffer logs a report without touching the heap.
func (rec *Record) AppendBinary(dst []byte) ([]byte, error) {
	tag := -1
	for i, op := range opTags {
		if op == rec.Op {
			tag = i
			break
		}
	}
	if tag < 0 {
		return dst, fmt.Errorf("session: encoding a record of unknown op %q", rec.Op)
	}
	var cfg []byte
	if rec.Config != nil {
		var err error
		if cfg, err = json.Marshal(rec.Config); err != nil {
			return dst, fmt.Errorf("session: encoding the config of %s: %w", rec.Session, err)
		}
	}
	var presence byte
	for bit, set := range [...]bool{rec.NextID != 0, rec.Config != nil, rec.Client != "", rec.Bit != 0,
		rec.Value != 0, !rec.At.IsZero(), rec.Entries != nil, rec.Counters != nil} {
		if set {
			presence |= 1 << bit
		}
	}
	dst = append(dst, tagBit|byte(tag), presence)
	dst = appendString(dst, rec.Session)
	if presence&hasNextID != 0 {
		dst = binary.AppendVarint(dst, int64(rec.NextID))
	}
	if presence&hasConfig != 0 {
		dst = binary.AppendUvarint(dst, uint64(len(cfg)))
		dst = append(dst, cfg...)
	}
	if presence&hasClient != 0 {
		dst = appendString(dst, rec.Client)
	}
	if presence&hasBit != 0 {
		dst = binary.AppendVarint(dst, int64(rec.Bit))
	}
	if presence&hasValue != 0 {
		dst = binary.AppendUvarint(dst, rec.Value)
	}
	if presence&hasAt != 0 {
		dst = binary.AppendVarint(dst, rec.At.Unix())
		dst = binary.AppendUvarint(dst, uint64(rec.At.Nanosecond()))
	}
	if e := rec.Entries; e != nil {
		dst = binary.AppendUvarint(dst, uint64(len(e.Clients)))
		for _, c := range e.Clients {
			dst = appendString(dst, c)
		}
		dst = appendInts(dst, e.Indexes)
		dst = binary.AppendUvarint(dst, uint64(len(e.States)))
		dst = append(dst, e.States...)
	}
	if c := rec.Counters; c != nil {
		dst = appendInts(dst, c.Issued)
		dst = appendInts(dst, c.Counts)
		dst = appendInts(dst, c.Sums)
	}
	return dst, nil
}

func appendString(dst []byte, s string) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(s))), s...)
}

func appendInts[T int | int64](dst []byte, xs []T) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(xs)))
	for _, x := range xs {
		dst = binary.AppendVarint(dst, int64(x))
	}
	return dst
}

// DecodeRecord parses one record payload. It is outside input — a log, a
// checkpoint, a replication answer — so a truncated payload, trailing
// bytes, an unknown tag (a JSON record's '{' among them) and a length
// longer than the bytes left are errors, and nothing is allocated from a
// count before the bytes it claims are known to be there. Whether the
// record makes sense is for Apply to judge. Empty slices decode as nil.
func DecodeRecord(payload []byte) (*Record, error) {
	rec := new(Record)
	d := decoder{b: payload}
	tag, presence := int(d.byte())-tagBit, d.byte()
	if d.err == nil {
		if tag < 0 || tag >= len(opTags) {
			return nil, fmt.Errorf("session: unknown record tag %#x", payload[0])
		}
		rec.Op = opTags[tag]
	}
	rec.Session = d.string()
	if presence&hasNextID != 0 {
		rec.NextID = d.int()
		d.nonzero(rec.NextID != 0, "next_id")
	}
	if presence&hasConfig != 0 {
		raw := d.bytes()
		if d.err == nil {
			rec.Config = new(wire.SessionConfig)
			err := json.Unmarshal(raw, rec.Config)
			if err == nil {
				// Only the config's own encoding re-encodes to the same bytes.
				var again []byte
				if again, err = json.Marshal(rec.Config); err == nil && !bytes.Equal(again, raw) {
					err = errors.New("not in its canonical encoding")
				}
			}
			if err != nil {
				d.fail(fmt.Errorf("session: record config: %w", err))
			}
		}
	}
	if presence&hasClient != 0 {
		rec.Client = d.string()
		d.nonzero(rec.Client != "", "client")
	}
	if presence&hasBit != 0 {
		rec.Bit = d.int()
		d.nonzero(rec.Bit != 0, "bit")
	}
	if presence&hasValue != 0 {
		rec.Value = d.uvarint()
		d.nonzero(rec.Value != 0, "value")
	}
	if presence&hasAt != 0 {
		sec, nsec := d.varint(), d.uvarint()
		if nsec >= uint64(time.Second) {
			d.fail(fmt.Errorf("session: record time carries %d nanoseconds", nsec))
		}
		rec.At = time.Unix(sec, int64(nsec)).UTC()
		d.nonzero(!rec.At.IsZero(), "at")
	}
	if presence&hasEntries != 0 {
		e := new(Entries)
		if n := d.count(); n > 0 {
			e.Clients = make([]string, n)
			for i := range e.Clients {
				e.Clients[i] = d.string()
			}
		}
		e.Indexes = decodeInts[int](&d)
		if raw := d.bytes(); len(raw) > 0 {
			e.States = bytes.Clone(raw)
		}
		rec.Entries = e
	}
	if presence&hasCounters != 0 {
		rec.Counters = &Counters{Issued: decodeInts[int](&d), Counts: decodeInts[int64](&d), Sums: decodeInts[int64](&d)}
	}
	if d.err == nil && len(d.b) > 0 {
		d.fail(fmt.Errorf("session: %d bytes trail the %s record", len(d.b), rec.Op))
	}
	if d.err != nil {
		return nil, d.err
	}
	return rec, nil
}

// decoder reads a binary record front to back. The first failure sticks:
// every later read returns a zero value, so DecodeRecord checks once.
type decoder struct {
	b   []byte
	err error
}

func (d *decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// nonzero refuses a field marked present that holds its zero value, which
// AppendBinary would have left out.
func (d *decoder) nonzero(ok bool, field string) {
	if !ok {
		d.fail(fmt.Errorf("session: record field %s is present but zero", field))
	}
}

var errTruncated = errors.New("session: truncated record")

func (d *decoder) byte() byte {
	if d.err != nil || len(d.b) == 0 {
		d.fail(errTruncated)
		return 0
	}
	c := d.b[0]
	d.b = d.b[1:]
	return c
}

// uvarint and varint read the stdlib encodings, refusing an overlong one
// (a final zero byte), which decodes to a value written shorter.
func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	d.advance(n)
	return v
}

func (d *decoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.b)
	d.advance(n)
	return v
}

func (d *decoder) advance(n int) {
	switch {
	case n == 0:
		d.fail(errTruncated)
	case n < 0 || (n > 1 && d.b[n-1] == 0):
		d.fail(errors.New("session: malformed varint in record"))
	default:
		d.b = d.b[n:]
	}
}

func (d *decoder) int() int { return int(d.varint()) }

// count reads a length that every element it counts spends at least one
// byte of, so no more can be there than the bytes left.
func (d *decoder) count() int {
	n := d.uvarint()
	if d.err == nil && n > uint64(len(d.b)) {
		d.fail(fmt.Errorf("session: record declares %d elements with %d bytes left", n, len(d.b)))
	}
	if d.err != nil {
		return 0
	}
	return int(n)
}

func (d *decoder) bytes() []byte {
	n := d.count()
	raw := d.b[:n:n]
	d.b = d.b[n:]
	return raw
}

func (d *decoder) string() string { return string(d.bytes()) }

func decodeInts[T int | int64](d *decoder) []T {
	n := d.count()
	if n == 0 {
		return nil
	}
	xs := make([]T, n)
	for i := range xs {
		xs[i] = T(d.varint())
	}
	return xs
}
