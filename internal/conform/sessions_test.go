package conform_test

import (
	"testing"

	"hamband/internal/chaos"
	"hamband/internal/conform"
	"hamband/internal/sim"
	"hamband/internal/trace"
)

// sessEvent builds one session trace event for the unit tests.
func sessEvent(at sim.Time, rec trace.SessionRecord) trace.Event {
	return trace.Event{At: at, Node: rec.Node, Kind: trace.Session, Data: rec}
}

// TestSessionCheckerUnit drives the checker with hand-built histories: a
// conforming session passes, and each guarantee violation is detected and
// named.
func TestSessionCheckerUnit(t *testing.T) {
	ok := []trace.Event{
		sessEvent(1, trace.SessionRecord{S: 0, Op: "write", Node: 0, Watermark: 1, View: []uint64{1, 0}}),
		sessEvent(2, trace.SessionRecord{S: 0, Op: "read", Node: 0, View: []uint64{1, 2}}),
		sessEvent(3, trace.SessionRecord{S: 0, Op: "switch", Node: 1}),
		sessEvent(4, trace.SessionRecord{S: 0, Op: "read", Node: 1, View: []uint64{1, 3}}),
		sessEvent(5, trace.SessionRecord{S: 0, Op: "write", Node: 1, Watermark: 4, View: []uint64{1, 4}}),
	}
	if vs := conform.CheckSessions(ok); len(vs) != 0 {
		t.Fatalf("conforming session flagged: %v", vs)
	}

	cases := []struct {
		check string
		evs   []trace.Event
	}{
		{"session-ryw", []trace.Event{
			sessEvent(1, trace.SessionRecord{S: 0, Op: "write", Node: 0, Watermark: 5, View: []uint64{5, 0}}),
			sessEvent(2, trace.SessionRecord{S: 0, Op: "read", Node: 1, View: []uint64{4, 0}}),
		}},
		{"session-mr", []trace.Event{
			sessEvent(1, trace.SessionRecord{S: 0, Op: "read", Node: 0, View: []uint64{3, 3}}),
			sessEvent(2, trace.SessionRecord{S: 0, Op: "read", Node: 1, View: []uint64{4, 2}}),
		}},
		{"session-wfr", []trace.Event{
			sessEvent(1, trace.SessionRecord{S: 0, Op: "read", Node: 0, View: []uint64{3, 3}}),
			sessEvent(2, trace.SessionRecord{S: 0, Op: "write", Node: 1, Watermark: 1, View: []uint64{3, 1}}),
		}},
	}
	for _, c := range cases {
		vs := conform.CheckSessions(c.evs)
		if len(vs) == 0 {
			t.Fatalf("%s violation not detected", c.check)
		}
		found := false
		for _, v := range vs {
			if v.Check == c.check {
				found = true
			}
		}
		if !found {
			t.Fatalf("want a %s violation, got %v", c.check, vs)
		}
	}
}

// TestSessionsConformAcrossReconfig runs the membership round-trip plan
// with live sessions: the state-machine checks and the session checks must
// both pass, and the sessions must actually have produced evidence spanning
// both epochs.
func TestSessionsConformAcrossReconfig(t *testing.T) {
	v := run(t, sessionReconfigPlan(false), chaos.Options{})
	if !v.Conform.OK() {
		t.Fatalf("reconfig session run does not conform:\n%s", v.Conform)
	}
	epochs := make(map[uint32]bool)
	reads := 0
	for _, evs := range conform.SessionEvents(v.Trace.Events()) {
		for _, e := range evs {
			rec := e.Data.(trace.SessionRecord)
			epochs[rec.Epoch] = true
			if rec.Op == "read" {
				reads++
			}
		}
	}
	if reads == 0 {
		t.Fatal("sessions recorded no reads — the checker had nothing to verify")
	}
	if len(epochs) < 2 {
		t.Fatalf("session evidence covers epochs %v, want operations on both sides of the reconfiguration", epochs)
	}
}
