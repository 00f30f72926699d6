// Session-guarantee checking: replays the per-client Session events a
// chaos run records (Plan.Sessions) and verifies the three cross-replica
// session guarantees of Terry et al. in the view-based formulation Enea et
// al.'s replication-aware consistency definitions suggest:
//
//   - monotonic reads — the view a session reads never loses a write it
//     already observed (coordinate-wise non-decreasing views);
//   - read-your-writes — every read's view covers the watermark of every
//     earlier write of the session (View[origin] >= Watermark means the
//     serving replica applied at least that prefix of the origin's calls);
//   - writes-follow-reads — a write is applied against a state covering
//     everything the session had read when it issued it.
//
// The checker is pure replay over recorded evidence: it needs no knowledge
// of the client's switch protocol, so a serving-side bug (the
// MutateStaleReads control: a failover cache serving a pre-switch view)
// is caught no matter how correct the client was.

package conform

import (
	"fmt"
	"sort"

	"hamband/internal/trace"
)

// CheckSessions extracts the Session events from a trace and checks every
// session's guarantee obligations, returning the violations (empty when
// all sessions conform).
func CheckSessions(events []trace.Event) []Violation {
	bySession := make(map[int][]trace.Event)
	for _, e := range events {
		if e.Kind != trace.Session {
			continue
		}
		rec, ok := e.Data.(trace.SessionRecord)
		if !ok {
			return []Violation{{Check: "trace", At: e.At, Node: e.Node,
				Detail: "session event without a session record"}}
		}
		bySession[rec.S] = append(bySession[rec.S], e)
	}
	ids := make([]int, 0, len(bySession))
	for id := range bySession {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	var out []Violation
	for _, id := range ids {
		out = append(out, checkSession(bySession[id])...)
		if len(out) >= maxViolations {
			return out[:maxViolations]
		}
	}
	return out
}

// checkSession replays one session's events in recorded order. It is pure:
// shrinking re-runs it on subsequences of the same events.
func checkSession(evs []trace.Event) []Violation {
	type write struct {
		node int
		mark uint64
	}
	var (
		out      []Violation
		writes   []write
		lastRead []uint64
	)
	violate := func(e trace.Event, check, detail string) {
		if len(out) < maxViolations {
			out = append(out, Violation{Check: check, At: e.At, Node: e.Node, Detail: detail})
		}
	}
	for _, e := range evs {
		rec := e.Data.(trace.SessionRecord)
		switch rec.Op {
		case "write":
			// Writes-follow-reads: the ack-time view must cover the last
			// read — the write was ordered after everything the session saw.
			if lastRead != nil && !Covers(rec.View, lastRead) {
				violate(e, "session-wfr", fmt.Sprintf(
					"s%d write at p%d (epoch %d) acked on view %v, behind the session's last read %v",
					rec.S, rec.Node, rec.Epoch, rec.View, lastRead))
			}
			writes = append(writes, write{rec.Node, rec.Watermark})
		case "read":
			// Read-your-writes: the view covers every earlier write's
			// watermark at its origin.
			for _, w := range writes {
				if w.node >= len(rec.View) || rec.View[w.node] < w.mark {
					violate(e, "session-ryw", fmt.Sprintf(
						"s%d read at p%d (epoch %d) sees view %v, missing the session's own write at p%d (watermark %d)",
						rec.S, rec.Node, rec.Epoch, rec.View, w.node, w.mark))
					break
				}
			}
			// Monotonic reads: views never regress.
			if lastRead != nil && !Covers(rec.View, lastRead) {
				violate(e, "session-mr", fmt.Sprintf(
					"s%d read at p%d (epoch %d) sees view %v after having read %v",
					rec.S, rec.Node, rec.Epoch, rec.View, lastRead))
			}
			lastRead = rec.View
		case "switch":
			// The switch itself asserts nothing; its evidence shows on the
			// next read or write.
		default:
			violate(e, "trace", fmt.Sprintf("unknown session op %q", rec.Op))
		}
	}
	return out
}

// ShrinkSession minimizes a violating session history by greedy event
// dropping: pure replay, no plan re-execution. The input must be the
// events of a single session (as bucketed by CheckSessions); the result is
// a minimal subsequence that still violates a guarantee — typically the
// offending write/read pair.
func ShrinkSession(evs []trace.Event) []trace.Event {
	fails := func(c []trace.Event) bool { return len(checkSession(c)) > 0 }
	if !fails(evs) {
		return evs
	}
	for {
		removed := false
		for i := 0; i < len(evs); i++ {
			cand := append(append([]trace.Event(nil), evs[:i]...), evs[i+1:]...)
			if fails(cand) {
				evs = cand
				removed = true
				break
			}
		}
		if !removed {
			return evs
		}
	}
}

// SessionEvents buckets a trace's Session events by session identity —
// the shrinker's input format.
func SessionEvents(events []trace.Event) map[int][]trace.Event {
	out := make(map[int][]trace.Event)
	for _, e := range events {
		if e.Kind != trace.Session {
			continue
		}
		if rec, ok := e.Data.(trace.SessionRecord); ok {
			out[rec.S] = append(out[rec.S], e)
		}
	}
	return out
}

// Covers reports have >= need coordinate-wise: a view that covers another
// has applied at least its prefix of every origin's calls. A session's
// switch waits on it too.
func Covers(have, need []uint64) bool {
	for p, n := range need {
		if p >= len(have) || have[p] < n {
			return false
		}
	}
	return true
}
