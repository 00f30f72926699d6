package chaos

import (
	"fmt"
	"math/rand"

	"hamband/internal/sim"
	"hamband/internal/spec"
	"hamband/internal/trace"
)

// A session is one client with session-guarantee expectations: it issues
// writes and reads against a single replica of one shard at a time and
// occasionally switches replicas. The client side of the protocol is the
// switch wait — before moving, the session polls the target until its view
// covers everything the session has written or read — which is what makes
// monotonic reads, read-your-writes and writes-follow-reads hold across
// replica switches (per-replica views only ever grow). Every operation
// records a trace.Session event carrying the evidence (views, write
// watermarks, the epoch served under) that the conformance harness's
// session checker replays; the checker needs no knowledge of the client
// protocol, only the guarantees.
type session struct {
	r   *runner
	sh  *shard // the object this client works on, for the whole run
	id  int
	rng *rand.Rand

	node  int      // current serving replica
	phase int      // position in the write/read/write/read/switch cycle
	busy  bool     // an op (or a switch wait) is in flight; skip ticks
	need  []uint64 // per-origin coverage the session has observed or written

	// Mutation-control state (Plan.MutateStaleReads): the view cached at
	// the session's first read, served verbatim on the first read after
	// each switch — the stale-failover-cache bug the checker must catch.
	firstView  []uint64
	staleArmed bool
}

// sessionSwitchPolls bounds the switch wait: a target that cannot cover
// the session's past within the budget (it is partitioned, or the run is
// mid-fault) aborts the switch and the session stays where it is.
const (
	sessionSwitchPolls = 64
	sessionPollPeriod  = 20 * sim.Microsecond
)

// startSessions deals the sessions round-robin over the shards. No RNG is
// drawn for it, so a plain plan's schedule does not depend on the dealing.
func (r *runner) startSessions() {
	for i := 0; i < r.plan.Sessions; i++ {
		r.sessions = append(r.sessions, &session{
			r:    r,
			sh:   r.shards[i%len(r.shards)],
			id:   i,
			rng:  rand.New(rand.NewSource(r.plan.Seed ^ int64(0x53551011*(i+1)))),
			node: i % r.plan.Nodes,
			need: make([]uint64, r.plan.Nodes),
		})
	}
}

// stepSessions advances every idle session by one operation.
func (r *runner) stepSessions() {
	for _, s := range r.sessions {
		s.step()
	}
}

// viewOf snapshots the per-origin applied-update counts of node n's
// replica of the shard — the session evidence vector. Callers own the
// returned slice.
func (r *runner) viewOf(sh *shard, n int) []uint64 {
	applied := sh.cluster.Replica(spec.ProcID(n)).Applied()
	v := make([]uint64, r.plan.Nodes)
	for p := 0; p < r.plan.Nodes; p++ {
		for _, u := range r.cls.UpdateMethods() {
			v[p] += uint64(applied.Get(spec.ProcID(p), u))
		}
	}
	return v
}

func (s *session) step() {
	if s.busy {
		return
	}
	if !s.r.usable(s.node) {
		// The serving replica went down or left the configuration: a
		// session cannot stay, so the next op is a forced switch.
		s.trySwitch()
		return
	}
	switch s.phase % 5 {
	case 0, 2:
		s.write()
	case 1, 3:
		s.read()
	default:
		if s.rng.Intn(2) == 0 {
			s.trySwitch()
		}
	}
	s.phase++
}

// write issues one update at the current replica through the shared
// workload path (so it counts toward the exactly-once probes) and, on ack,
// records the session evidence: the watermark — the origin's own applied
// count the moment the ack resolved — is what later reads must cover.
func (s *session) write() {
	n := s.node
	ups := s.r.cls.UpdateMethods()
	u := ups[s.rng.Intn(len(ups))]
	call := s.r.cls.Gen.Call(s.rng, u)
	origin := spec.ProcID(n)
	fixTags(&call, origin, uint64(s.r.v.Issued)+1)
	s.busy = true
	s.r.invoke(s.sh, origin, u, call.Args, func(err error) {
		s.busy = false
		if err != nil {
			return
		}
		view := s.r.viewOf(s.sh, n)
		wm := view[n]
		if wm > s.need[n] {
			s.need[n] = wm
		}
		s.record(n, fmt.Sprintf("s%d write wm=%d", s.id, wm),
			trace.SessionRecord{Op: "write", Watermark: wm, View: view})
	})
}

// read snapshots the serving replica's view and records it. Under the
// mutation control the first read after a switch serves the view cached at
// the session's very first read instead — the client's own bookkeeping
// still uses the live view, because the injected bug is in the server's
// answer, not in the switch protocol.
func (s *session) read() {
	n := s.node
	view := s.r.viewOf(s.sh, n)
	for p, c := range view {
		if c > s.need[p] {
			s.need[p] = c
		}
	}
	recorded := view
	if s.firstView == nil {
		s.firstView = append([]uint64(nil), view...)
	}
	if s.staleArmed {
		recorded = append([]uint64(nil), s.firstView...)
		s.staleArmed = false
	}
	s.record(n, fmt.Sprintf("s%d read", s.id), trace.SessionRecord{Op: "read", View: recorded})
}

// record writes one session event through the shard's tracer (so the event
// carries the shard key on a ShardMix plan), stamped with the session, the
// serving node and the epoch served under.
func (s *session) record(n int, note string, rec trace.SessionRecord) {
	rec.S, rec.Node, rec.Epoch = s.id, n, uint32(s.sh.cluster.Epoch())
	s.sh.cluster.Opts.Tracer.RecordData(n, trace.Session, "", note, rec)
}

// trySwitch picks a different usable replica and waits until its view
// covers the session's past before moving. A target that cannot catch up
// within the poll budget aborts the switch.
func (s *session) trySwitch() {
	var cands []int
	for n := 0; n < s.r.plan.Nodes; n++ {
		if n != s.node && s.r.usable(n) {
			cands = append(cands, n)
		}
	}
	if len(cands) == 0 {
		return
	}
	t := cands[s.rng.Intn(len(cands))]
	s.busy = true
	s.waitCovered(t, sessionSwitchPolls)
}

func (s *session) waitCovered(t int, polls int) {
	if !s.r.usable(t) || polls <= 0 {
		s.busy = false
		return
	}
	if !covers(s.r.viewOf(s.sh, t), s.need) {
		s.r.eng.After(sessionPollPeriod, func() { s.waitCovered(t, polls-1) })
		return
	}
	s.node = t
	s.busy = false
	if s.r.plan.MutateStaleReads {
		s.staleArmed = true
	}
	s.record(t, fmt.Sprintf("s%d switch", s.id), trace.SessionRecord{Op: "switch"})
}

// covers reports have >= need coordinate-wise.
func covers(have, need []uint64) bool {
	for p, n := range need {
		if p >= len(have) || have[p] < n {
			return false
		}
	}
	return true
}
