package transport

import (
	"context"
	"errors"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/frand"
	"repro/internal/transport/wire"
)

func TestEndpointListParsingAndRotation(t *testing.T) {
	e := NewEndpointList(" http://a:1/ ,http://b:2,,http://c:3")
	if got := e.URLs(); len(got) != 3 || got[0] != "http://a:1" || got[1] != "http://b:2" || got[2] != "http://c:3" {
		t.Fatalf("parsed %v", got)
	}
	if e.Current() != "http://a:1" {
		t.Fatalf("current = %q", e.Current())
	}
	e.Advance("http://a:1")
	if e.Current() != "http://b:2" {
		t.Fatalf("after advance: %q", e.Current())
	}
	// Advancing from a stale observation is a no-op: the list already
	// moved past that node.
	e.Advance("http://a:1")
	if e.Current() != "http://b:2" {
		t.Fatalf("stale advance moved the list: %q", e.Current())
	}
	// A leader hint for an unknown node appends and selects it.
	e.SetLeader("http://d:4/")
	if e.Current() != "http://d:4" || e.Len() != 4 {
		t.Fatalf("after SetLeader: current %q len %d", e.Current(), e.Len())
	}
	// A hint for a known node just selects it.
	e.SetLeader("http://a:1")
	if e.Current() != "http://a:1" || e.Len() != 4 {
		t.Fatalf("after known SetLeader: current %q len %d", e.Current(), e.Len())
	}
	// A single-endpoint list never rotates.
	one := NewEndpointList("http://only:1")
	one.Advance("http://only:1")
	if one.Current() != "http://only:1" {
		t.Fatal("single-endpoint list rotated")
	}
}

// clientCodecs is one round trip per client codec, each through the
// shared attempt path (exchange): the JSON leg reads a session's result,
// the binary leg flushes a one-report batch at it. Against a live
// session both succeed (the unassigned report is a per-record no_task
// status, not an error).
var clientCodecs = []struct {
	name      string
	roundTrip func(ctx context.Context, eps *EndpointList, rp *RetryPolicy, sessionID string) error
}{
	{"json", func(ctx context.Context, eps *EndpointList, rp *RetryPolicy, sessionID string) error {
		_, err := (&Admin{Endpoints: eps, Retry: rp}).Result(ctx, sessionID)
		return err
	}},
	{"binary", func(ctx context.Context, eps *EndpointList, rp *RetryPolicy, sessionID string) error {
		br := &BinaryReporter{Endpoints: eps, Retry: rp}
		if err := br.Add("nobody", 0, 1); err != nil {
			return err
		}
		_, err := br.Flush(ctx, sessionID)
		return err
	}},
}

// newSessionServer returns a served primary holding one open session.
func newSessionServer(t *testing.T) (*httptest.Server, string) {
	t.Helper()
	s := NewServer(1)
	id, err := s.CreateSession(context.Background(), wire.SessionConfig{Feature: "f", Bits: 4, Gamma: 1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return ts, id
}

// TestClientFailsOverToPrimary drives the satellite behaviour end to
// end, over both codecs: a client pointed at [standby, primary] lands on
// the standby, is refused with not_primary plus a leader hint, and
// transparently retries against the primary — one extra round trip, no
// caller-visible error.
func TestClientFailsOverToPrimary(t *testing.T) {
	for _, codec := range clientCodecs {
		t.Run(codec.name, func(t *testing.T) {
			tsPrimary, id := newSessionServer(t)
			standby := NewServer(2)
			standby.SetRole(RoleStandby)
			standby.SetLeaderHint(tsPrimary.URL)
			tsStandby := httptest.NewServer(standby)
			defer tsStandby.Close()

			eps := NewEndpointList(tsStandby.URL + "," + tsPrimary.URL)
			rp := &RetryPolicy{MaxAttempts: 3, Seed: 1}
			ctx := context.Background()
			if err := codec.roundTrip(ctx, eps, rp, id); err != nil {
				t.Fatalf("round trip via standby-first list: %v", err)
			}
			if eps.Current() != tsPrimary.URL {
				t.Errorf("list did not converge on the leader: %q", eps.Current())
			}

			// The participant shares the already-converged list: first try
			// hits the primary directly.
			p := &Participant{Endpoints: eps, ClientID: "c1", RNG: frand.New(3), Retry: rp}
			if err := p.Participate(ctx, id, 9); err != nil {
				t.Fatalf("participate: %v", err)
			}
			res, err := (&Admin{Endpoints: eps, Retry: rp}).Finalize(ctx, id)
			if err != nil {
				t.Fatal(err)
			}
			if res.Reports != 1 {
				t.Errorf("reports = %d, want 1", res.Reports)
			}
		})
	}
}

// TestClientFailsOverPastDeadNode checks the transport-error leg: the
// first endpoint refuses connections entirely and the client advances
// to the live one.
func TestClientFailsOverPastDeadNode(t *testing.T) {
	for _, codec := range clientCodecs {
		t.Run(codec.name, func(t *testing.T) {
			tsLive, id := newSessionServer(t)
			// A listener that is immediately closed: connection refused.
			dead := httptest.NewServer(nil)
			deadURL := dead.URL
			dead.Close()

			eps := NewEndpointList(deadURL + "," + tsLive.URL)
			if err := codec.roundTrip(context.Background(), eps, &RetryPolicy{MaxAttempts: 3, Seed: 1}, id); err != nil {
				t.Fatalf("round trip past dead node: %v", err)
			}
			if eps.Current() != tsLive.URL {
				t.Errorf("list still points at the dead node: %q", eps.Current())
			}
		})
	}
}

// TestNotPrimaryWithoutAlternativeIsFatal pins the "not retryable
// against the same endpoint" half of the code's contract: with nowhere
// else to go, the client gives up immediately instead of hammering a
// node that told it no.
func TestNotPrimaryWithoutAlternativeIsFatal(t *testing.T) {
	for _, codec := range clientCodecs {
		t.Run(codec.name, func(t *testing.T) {
			standby := NewServer(1)
			standby.SetRole(RoleStandby)
			ts := httptest.NewServer(standby)
			defer ts.Close()

			attempts := 0
			rp := &RetryPolicy{MaxAttempts: 5, Seed: 1,
				sleep: func(ctx context.Context, d time.Duration) error { attempts++; return nil }}
			err := codec.roundTrip(context.Background(), NewEndpointList(ts.URL), rp, "s1")
			var se *StatusError
			if !errors.As(err, &se) || se.Code != wire.CodeNotPrimary {
				t.Fatalf("err = %v, want not_primary StatusError", err)
			}
			if se.Failover {
				t.Error("Failover set with a single-endpoint list")
			}
			if Retryable(err) {
				t.Error("not_primary with no alternative classified retryable")
			}
			if attempts != 0 {
				t.Errorf("client backed off %d times against a node that said not_primary", attempts)
			}
		})
	}
}

// TestEndpointListConcurrentAdvance audits the rotation's
// compare-before-advance under the race detector: a burst of clients
// that all watched the same endpoint fail must advance the list once —
// not once each, which would spin the rotation past the healthy node.
func TestEndpointListConcurrentAdvance(t *testing.T) {
	e := NewEndpointList("http://a:1,http://b:2,http://c:3")
	failed := e.Current()
	var wg sync.WaitGroup
	for range 32 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.Advance(failed)
		}()
	}
	wg.Wait()
	if got := e.Current(); got != "http://b:2" {
		t.Fatalf("32 concurrent Advance(%q) calls landed on %q, want one step to http://b:2", failed, got)
	}
}

// TestEndpointListConcurrentChurn storms rotation, leader hints, and
// readers together; the invariant is only that Current always names a
// member of the list (the race detector does the rest).
func TestEndpointListConcurrentChurn(t *testing.T) {
	e := NewEndpointList("http://a:1,http://b:2,http://c:3")
	known := map[string]bool{"http://a:1": true, "http://b:2": true, "http://c:3": true}
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 200 {
				e.Advance(e.Current())
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := range 200 {
			if i%2 == 0 {
				e.SetLeader("http://b:2")
			} else {
				e.SetLeader("http://c:3")
			}
		}
	}()
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 200 {
				if cur := e.Current(); !known[cur] {
					t.Errorf("Current returned %q, not a list member", cur)
					return
				}
				if n := e.Len(); n != len(e.URLs()) {
					t.Errorf("Len %d disagrees with URLs", n)
					return
				}
			}
		}()
	}
	wg.Wait()
}
