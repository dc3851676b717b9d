package transport

// The -snapshot file of builds before the checkpoint: one JSON image of
// the session table, recognised by its first byte, '{'. It is the only
// reader for a file a daemon upgraded over an old snapshot boots on, and
// is deleted one release after the checkpoint lands.

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"slices"
	"time"

	"repro/internal/core"
	machine "repro/internal/session"
	"repro/internal/transport/wire"
)

type legacySnapshot struct {
	SavedAt  time.Time       `json:"saved_at"`
	NextID   int             `json:"next_id"`
	WALSeq   uint64          `json:"wal_seq"`
	Sessions []legacySession `json:"sessions"`
}

// legacySession is one session's image; Assigned and Reported are empty
// once it ended, and its probs are not read: the config derives them.
type legacySession struct {
	ID        string             `json:"id"`
	Config    wire.SessionConfig `json:"config"`
	Issued    []int              `json:"issued"`
	Assigned  map[string]int     `json:"assigned"`
	Reported  map[string]uint64  `json:"reported"`
	BitCounts []int64            `json:"bit_counts"`
	BitSums   []int64            `json:"bit_sums"`
	Deadline  time.Time          `json:"deadline"`
	Done      bool               `json:"done,omitempty"`
	Expired   bool               `json:"expired,omitempty"`
	EndedAt   time.Time          `json:"ended_at"`
	Result    *core.Result       `json:"result,omitempty"`
	Tail      []float64          `json:"tail,omitempty"`
}

// restoreLegacy translates an old image into checkpoint records, rebuilds
// them through Apply on a scratch server, refuses the image if the
// counters, result or tail it stored are not what Apply rebuilt, and only
// then restores the records into s.
func (s *Server) restoreLegacy(data []byte) error {
	var old legacySnapshot
	if err := json.Unmarshal(data, &old); err != nil {
		return fmt.Errorf("transport: decoding legacy snapshot: %w", err)
	}
	snap := &Snapshot{SavedAt: old.SavedAt, NextID: old.NextID, WALSeq: old.WALSeq}
	for i := range old.Sessions {
		snap.Records = append(snap.Records, old.Sessions[i].records()...)
	}
	scratch := NewServer(0)
	if err := scratch.Restore(snap); err != nil {
		return err
	}
	for i := range old.Sessions {
		if err := old.Sessions[i].check(scratch.table.get(old.Sessions[i].ID).Session); err != nil {
			return fmt.Errorf("transport: snapshot session %s: %w", old.Sessions[i].ID, err)
		}
	}
	return s.Restore(snap)
}

// records translates the image: its entries into one clients record, a
// reported client it never assigned into a report record Apply refuses,
// and its end into an end record that carries the stored counters when
// there are no entries to derive them from. The image kept the deadline,
// not the creation time, so a TTL session's creation time is derived back.
func (st *legacySession) records() []machine.Record {
	cfg, created := st.Config, time.Time{}
	if cfg.TTLSeconds > 0 {
		created = st.Deadline.Add(-time.Duration(cfg.TTLSeconds * float64(time.Second)))
	}
	recs := []machine.Record{{Op: machine.OpCreate, Session: st.ID, Config: &cfg, At: created}}
	entries := &machine.Entries{}
	for c, idx := range st.Assigned {
		state := uint8(0)
		if v, ok := st.Reported[c]; ok {
			state = uint8(min(v, 2)) + 1
		}
		entries.Clients, entries.Indexes = append(entries.Clients, c), append(entries.Indexes, idx)
		entries.States = append(entries.States, state)
	}
	if len(entries.Clients) > 0 {
		recs = append(recs, machine.Record{Op: machine.OpClients, Session: st.ID, Entries: entries})
	}
	for c, v := range st.Reported {
		if _, ok := st.Assigned[c]; !ok {
			recs = append(recs, machine.Record{Op: machine.OpReport, Session: st.ID, Client: c, Value: v})
		}
	}
	end := machine.Record{Session: st.ID, At: st.EndedAt}
	if len(entries.Clients) == 0 {
		end.Counters = &machine.Counters{Issued: st.Issued, Counts: st.BitCounts, Sums: st.BitSums}
	}
	if st.Done {
		end.Op = machine.OpFinalize
		recs = append(recs, end)
	}
	if st.Expired {
		end.Op = machine.OpExpire
		recs = append(recs, end)
	}
	return recs
}

// check compares what the image stored with m, the session Apply rebuilt
// from it on the scratch server.
func (st *legacySession) check(m *machine.Session) error {
	res := m.Result()
	if m.Open() == nil {
		// Ended, the scratch copy's checkpoint carries its counters.
		if err := m.Apply(&machine.Record{Op: machine.OpExpire}); err != nil {
			return err
		}
	}
	recs := m.Checkpoint()
	c := recs[len(recs)-1].Counters
	if !slices.Equal(st.Issued, c.Issued) || !slices.Equal(st.BitCounts, c.Counts) || !slices.Equal(st.BitSums, c.Sums) {
		return fmt.Errorf("stored issued/counts/sums %v/%v/%v, but its clients add up to %v/%v/%v",
			st.Issued, st.BitCounts, st.BitSums, c.Issued, c.Counts, c.Sums)
	}
	var same bool
	switch {
	case !st.Done:
		same = st.Result == nil && len(st.Tail) == 0
	case len(st.Config.Thresholds) > 0:
		same = st.Result == nil && sameFloats(st.Tail, res.TailProbs)
	default:
		r := st.Result
		same = r != nil && len(st.Tail) == 0 && r.Reports == res.Reports && sameFloats([]float64{r.Estimate}, []float64{res.Estimate}) &&
			sameFloats(r.BitMeans, res.BitMeans) && sameFloats(r.Sums, res.Sums) && slices.Equal(r.Counts, res.Counts) && slices.Equal(r.Squashed, res.Squashed)
	}
	if !same {
		return errors.New("stored result is not the aggregate of its per-index sums, or it is not finalized")
	}
	return nil
}

// sameFloats compares bit patterns, so -0 is not 0: a restored result
// must encode to the bytes the live server served.
func sameFloats(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}
