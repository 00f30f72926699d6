// Package conform is the runtime refinement conformance harness: it checks
// that histories produced by the *actual* runtime (internal/core over the
// simulated RDMA fabric) are explainable by the paper's semantics — where,
// per Enea et al. (replication-aware linearizability) and De Porre et al.
// (VeriFx), replicated-type bugs actually hide.
//
// The checker replays a trace.Tracer history (structured lifecycle events
// recorded by core behind Options.Tracer) as a schedule of Fig. 7's steps
// on one rdmawrdt.Config, the same machine rdmawrdt's model checker drives.
// A FreeSend or Apply event fires Exec (FREE at the issuer, FREE-APP,
// CONF-APP), a Reduce or Adopt event fires Install (REDUCE's summary write
// landing), a Query event fires QUERY. Each step's premises become checks:
//
//   - dependency — Exec's D ≤ A;
//   - permissibility — Exec's and REDUCE's P(Apply(S)(σ), c), and Install's
//     post-check I(Apply(S)(σ)) on an adopt;
//   - trace — Install's version premise (a slot version never regresses);
//   - summarization — after a REDUCE, the state equals the pre-state plus
//     the call, so the slot really stands for its calls;
//   - query — the recorded answer equals QUERY on the replayed state.
//
// A failed premise is reported, naming its rule, and the effect fires
// anyway, so the replay keeps following the run. The checks with no Fig. 7
// counterpart stay here: identity and provenance of applied records,
// at-most-once per replica, conflicting calls sequenced before they apply
// and applied in one order per synchronization group, exactly-once counts
// and convergence at quiescence, and (CheckSessions, CheckSharded) client
// sessions and shards. The package is a checker library: it knows
// histories, not clusters. Package chaos runs every plan whose complete trace
// it records through Check (CheckSharded on a sharded plan, CheckSessions when
// the plan has client sessions), so a run's one verdict covers its probes and
// its history.
package conform

import (
	"fmt"
	"reflect"
	"strings"

	"hamband/internal/rdmawrdt"
	"hamband/internal/sim"
	"hamband/internal/spec"
	"hamband/internal/trace"
)

// Violation is one conformance failure, anchored at the event that
// exposed it.
type Violation struct {
	Check  string   `json:"check"` // permissibility | conflict-order | dependency | exactly-once | query | summarization | convergence | identity | trace
	At     sim.Time `json:"at"`
	Node   int      `json:"node"`
	Call   string   `json:"call,omitempty"`
	Detail string   `json:"detail"`
}

func (v Violation) String() string {
	id := v.Call
	if id != "" {
		id = " " + id
	}
	return fmt.Sprintf("[%v] p%d %s:%s %s", sim.Duration(v.At), v.Node, v.Check, id, v.Detail)
}

// maxViolations bounds a report; a broken run violates on nearly every
// event and the first entries carry all the signal.
const maxViolations = 32

// Options configures a conformance check.
type Options struct {
	// Nodes is the cluster size. Zero infers it from the trace.
	Nodes int
	// Quiescent enables the end-of-history checks (exactly-once counts,
	// convergence) that only hold once the run drained.
	Quiescent bool
	// Correct marks nodes eligible for the end-of-history checks (never
	// crashed, not still suspended). Nil means all nodes.
	Correct []bool
	// RequireIssued treats an apply of a call identity with no Issue event
	// in this history as a violation. Sound only for complete traces (a
	// flight-recorder window legitimately starts mid-history); the sharded
	// checker sets it because a call applied in one shard but issued in
	// another is exactly the cross-wiring bug it exists to catch.
	RequireIssued bool
}

// Report is the outcome of checking one history.
type Report struct {
	Events     int // trace events consumed
	Calls      int // distinct update calls issued
	Queries    int // query evaluations checked
	Violations []Violation

	// Shards holds each shard's own report when the history is a sharded
	// store's (CheckSharded); the fields above are then their sum. Nil
	// otherwise.
	Shards map[string]*Report
}

// OK reports whether the history conforms to the semantics.
func (r *Report) OK() bool { return len(r.Violations) == 0 }

// String renders the report, one violation per line, followed on a sharded
// history by one line per shard.
func (r *Report) String() string {
	var b strings.Builder
	if r.OK() {
		fmt.Fprintf(&b, "conform: OK (%d events, %d calls, %d queries)", r.Events, r.Calls, r.Queries)
	} else {
		fmt.Fprintf(&b, "conform: %d violations (%d events, %d calls, %d queries)",
			len(r.Violations), r.Events, r.Calls, r.Queries)
		for _, v := range r.Violations {
			fmt.Fprintf(&b, "\n  %s", v)
		}
	}
	for _, k := range shardKeys(r.Shards) {
		sr := r.Shards[k]
		fmt.Fprintf(&b, "\n  shard %s: %d events, %d calls, %d queries, %d violations",
			k, sr.Events, sr.Calls, sr.Queries, len(sr.Violations))
	}
	return b.String()
}

// slotVersion names one version of one summary slot: group, writer, version.
type slotVersion struct {
	g   int
	src spec.ProcID
	ver uint32
}

// nodeState is what the trace-only checks remember of one replica.
type nodeState struct {
	seen     map[string]int // applies per call identity (at-most-once)
	applySeq [][]string     // [syncGroup] -> call identities in apply order
}

type checker struct {
	an    *spec.Analysis
	cls   *spec.Class
	opts  Options
	rep   *Report
	k     *rdmawrdt.Config // σ, A and S of every replica, moved only by Fig. 7's steps
	nodes []*nodeState

	issued  map[string]spec.Call      // identity -> the issued call
	written map[slotVersion]spec.Call // the summary each REDUCE left in its issuer's slot
	ordered map[string]bool           // identities sequenced by a leader
	acked   map[string]bool           // identities acknowledged OK at the origin
	lastAt  sim.Time                  // timestamp of the last consumed event
}

// Check replays a trace against the semantics of an's class and reports
// every way the history fails to conform. The trace must come from a
// single-threaded simulation run: recorded order is the authoritative
// interleaving.
func Check(an *spec.Analysis, events []trace.Event, opts Options) *Report {
	nodes := opts.Nodes
	for _, e := range events {
		if e.Node >= nodes {
			nodes = e.Node + 1
		}
	}
	opts.Nodes = nodes
	c := &checker{
		an: an, cls: an.Class, opts: opts,
		rep:     &Report{Events: len(events)},
		k:       rdmawrdt.New(an, nodes),
		issued:  make(map[string]spec.Call),
		written: make(map[slotVersion]spec.Call),
		ordered: make(map[string]bool),
		acked:   make(map[string]bool),
	}
	for n := 0; n < nodes; n++ {
		c.nodes = append(c.nodes, &nodeState{
			seen:     make(map[string]int),
			applySeq: make([][]string, len(an.SyncGroups)),
		})
	}
	for _, e := range events {
		c.step(e)
	}
	c.finish()
	c.rep.Calls = len(c.issued)
	return c.rep
}

func (c *checker) violate(check string, e trace.Event, detail string) {
	if len(c.rep.Violations) >= maxViolations {
		return
	}
	c.rep.Violations = append(c.rep.Violations, Violation{
		Check: check, At: e.At, Node: e.Node, Call: e.Call, Detail: detail,
	})
}

func (c *checker) step(e trace.Event) {
	c.lastAt = e.At
	switch e.Kind {
	case trace.Issue, trace.Order, trace.FreeSend, trace.Apply:
		rec, ok := e.Data.(trace.CallRecord)
		if !ok {
			c.violate("trace", e, fmt.Sprintf("%s event without a call record", e.Kind))
			return
		}
		switch e.Kind {
		case trace.Issue:
			c.issued[e.Call] = rec.C
		case trace.Order:
			c.ordered[e.Call] = true
		case trace.FreeSend:
			c.stepApply(e, rec, "FREE")
		case trace.Apply:
			rule := "FREE-APP"
			if c.an.Category[rec.C.Method] == spec.CatConflicting {
				rule = "CONF-APP"
				if !c.ordered[e.Call] {
					c.violate("conflict-order", e, fmt.Sprintf("conflicting call %s applied at p%d without being sequenced by a leader",
						rec.C.Format(c.cls), e.Node))
				}
			}
			c.stepApply(e, rec, rule)
		}

	case trace.Reduce, trace.Adopt:
		rec, ok := e.Data.(trace.SlotRecord)
		if !ok || e.Kind == trace.Reduce && rec.C == nil {
			c.violate("trace", e, fmt.Sprintf("%s event without a slot record", e.Kind))
			return
		}
		c.stepSlot(e, rec)

	case trace.Query:
		rec, ok := e.Data.(trace.QueryRecord)
		if !ok {
			c.violate("trace", e, "query event without a query record")
			return
		}
		c.rep.Queries++
		got := c.k.Query(spec.ProcID(e.Node), rec.Method, rec.Args)
		if !reflect.DeepEqual(got, rec.Result) {
			c.violate("query", e, fmt.Sprintf("QUERY %s(%s) answered %v at p%d but the replayed state says %v",
				c.cls.Methods[rec.Method].Name, rec.Args, rec.Result, e.Node, got))
		}

	case trace.Complete:
		if rec, ok := e.Data.(trace.AckRecord); ok && rec.OK {
			c.acked[e.Call] = true
		}
	}
}

// stepApply replays one per-call apply — FREE at the issuer (a FreeSend),
// FREE-APP or CONF-APP (an Apply) — as rdmawrdt's Exec: provenance and
// at-most-once, then Exec's two premises, then its effect.
func (c *checker) stepApply(e trace.Event, rec trace.CallRecord, rule string) {
	// Provenance: the applied record must be the call that was issued under
	// this identity. A mismatch means the apply loop is consuming somebody
	// else's calls (e.g. two shards' deliveries cross-wired); tags make
	// calls globally unique, so leakage cannot masquerade as a re-issue.
	if want, ok := c.issued[e.Call]; ok {
		if !reflect.DeepEqual(want, rec.C) {
			c.violate("identity", e, fmt.Sprintf("applied record %s does not match the call issued under this identity (%s)",
				rec.C.Format(c.cls), want.Format(c.cls)))
		}
	} else if c.opts.RequireIssued {
		c.violate("identity", e, fmt.Sprintf("call %s applied at p%d but never issued in this history (%s)",
			rec.C.Format(c.cls), e.Node, rule))
	}
	c.once(e, rec.C, "applied")
	p := spec.ProcID(e.Node)
	if !c.k.DepsMet(p, rec.C, rec.D) {
		c.violate("dependency", e, fmt.Sprintf("%s premise D ≤ A fails: %s applied at p%d before its recorded dependencies (d=%v)",
			rule, rec.C.Format(c.cls), e.Node, rec.D))
	}
	c.checkPermits(e, rec.C, rule)
	c.k.Exec(p, rec.C)
	if g := c.an.SyncGroupOf[rec.C.Method]; g != spec.NoGroup {
		seq := c.nodes[e.Node].applySeq
		seq[g] = append(seq[g], e.Call)
	}
}

// stepSlot replays REDUCE's summary write landing at e.Node — at the issuer
// (a Reduce event) or at a peer (an Adopt) — as rdmawrdt's Install: its
// version premise, then its effect. A Reduce is checked against REDUCE's
// permissibility premise before and for summarization correctness after
// (post-state = pre-state + call); an adopt gets Install's post-check (by
// Lemma 1 the per-call permissibility of summarized calls is equivalent to
// invariant preservation on reachable states).
func (c *checker) stepSlot(e trace.Event, rec trace.SlotRecord) {
	p := spec.ProcID(e.Node)
	s := c.k.Procs[p].S
	if rec.Group < 0 || rec.Group >= len(s) || int(rec.Src) >= len(s[rec.Group]) {
		c.violate("trace", e, fmt.Sprintf("%s names slot g%d/p%d which the class does not have", e.Kind, rec.Group, rec.Src))
		return
	}
	var want spec.State
	if e.Kind == trace.Reduce {
		c.checkPermits(e, *rec.C, "REDUCE")
		want = c.k.CurrentState(p)
		c.cls.ApplyCall(want, *rec.C)
	}
	if !c.k.Newer(p, rec.Group, rec.Src, rec.Version) {
		c.violate("trace", e, fmt.Sprintf("REDUCE write premise fails: slot g%d/p%d version regressed on %s: v%d after v%d",
			rec.Group, rec.Src, e.Kind, rec.Version, s[rec.Group][rec.Src].Version))
	}
	// Provenance: an adopted slot version holds what its writer's REDUCE
	// left there. A mismatch means the scan folded somebody else's records
	// into the slot (e.g. two shards' δ-records cross-wired).
	at := slotVersion{rec.Group, rec.Src, rec.Version}
	if want, ok := c.written[at]; e.Kind == trace.Adopt && ok && !reflect.DeepEqual(want, rec.Sum) {
		c.violate("identity", e, fmt.Sprintf("adopted slot g%d/p%d v%d holds %s, not the %s its writer's REDUCE left there",
			rec.Group, rec.Src, rec.Version, rec.Sum.Format(c.cls), want.Format(c.cls)))
	} else if e.Kind == trace.Reduce {
		c.written[at] = rec.Sum
	}
	c.k.Install(p, rec.Group, rec.Src, rdmawrdt.Slot{Sum: rec.Sum, Version: rec.Version}, rec.Counts)
	if e.Kind == trace.Adopt {
		if !c.k.Intact(p) {
			c.violate("permissibility", e, fmt.Sprintf("REDUCE post-check I fails: invariant violated at p%d after adopting slot g%d/p%d v%d",
				e.Node, rec.Group, rec.Src, rec.Version))
		}
		return
	}
	if got := c.k.CurrentState(p); !got.Equal(want) {
		c.violate("summarization", e, fmt.Sprintf("summary slot g%d/p%d v%d does not stand for its calls: post-state differs from pre-state + %s",
			rec.Group, rec.Src, rec.Version, rec.C.Format(c.cls)))
	}
	c.once(e, *rec.C, "reduced")
}

// checkPermits reports a failed permissibility premise of rule at e.Node.
func (c *checker) checkPermits(e trace.Event, call spec.Call, rule string) {
	if !c.k.Permits(spec.ProcID(e.Node), call) {
		c.violate("permissibility", e, fmt.Sprintf("%s premise P(Apply(S)(σ), c) fails: %s not permissible against p%d's replayed pre-state",
			rule, call.Format(c.cls), e.Node))
	}
}

// once counts e's call at e.Node, flagging a second apply (at-most-once).
func (c *checker) once(e trace.Event, call spec.Call, verb string) {
	seen := c.nodes[e.Node].seen
	seen[e.Call]++
	if n := seen[e.Call]; n > 1 {
		c.violate("exactly-once", e, fmt.Sprintf("call %s %s %d times at p%d", call.Format(c.cls), verb, n, e.Node))
	}
}

// correct reports whether node n takes part in the end-of-history checks.
func (c *checker) correct(n int) bool {
	return c.opts.Correct == nil || (n < len(c.opts.Correct) && c.opts.Correct[n])
}

// finish runs the whole-history checks: pairwise conflict-order agreement,
// and — at quiescence — exactly-once applied counts and convergence.
func (c *checker) finish() {
	// Whole-history violations are anchored at the last event's time.
	end := trace.Event{At: c.lastAt, Node: -1}

	// Conflict-synchronization: for every synchronization group, any two
	// correct replicas must agree on the relative order of the conflicting
	// calls they both applied (one total order, observed as consistent
	// subsequences).
	for g := range c.an.SyncGroups {
		for a := 0; a < len(c.nodes); a++ {
			if !c.correct(a) {
				continue
			}
			for b := a + 1; b < len(c.nodes); b++ {
				if !c.correct(b) {
					continue
				}
				if id1, id2, ok := commonOrderDiverges(c.nodes[a].applySeq[g], c.nodes[b].applySeq[g]); ok {
					c.violate("conflict-order", end, fmt.Sprintf(
						"sync group %d: p%d applied %s before %s but p%d applied them in the opposite order",
						g, a, id1, id2, b))
				}
			}
		}
	}

	if !c.opts.Quiescent {
		return
	}

	// Exactly-once at quiescence: every correct replica's applied count for
	// (origin, method) covers every acknowledged call and never exceeds the
	// origin's own count (the origin is authoritative for its calls; it may
	// exceed the acked count, e.g. a local apply whose broadcast failed).
	ackedCount := make([][]uint32, len(c.nodes))
	for n := range ackedCount {
		ackedCount[n] = make([]uint32, len(c.cls.Methods))
	}
	for id := range c.acked {
		call, ok := c.issued[id]
		if !ok || int(call.Proc) >= len(c.nodes) {
			continue
		}
		ackedCount[call.Proc][call.Method]++
	}
	for n := range c.nodes {
		if !c.correct(n) {
			continue
		}
		for o := range c.nodes {
			if !c.correct(o) {
				continue
			}
			for _, u := range c.cls.UpdateMethods() {
				got := c.k.Procs[n].A.Get(spec.ProcID(o), u)
				if want := ackedCount[o][u]; got < want {
					c.violate("exactly-once", end, fmt.Sprintf(
						"p%d applied %d of %d acked %s calls from p%d at quiescence",
						n, got, want, c.cls.Methods[u].Name, o))
				}
				if origin := c.k.Procs[o].A.Get(spec.ProcID(o), u); got > origin {
					c.violate("exactly-once", end, fmt.Sprintf(
						"p%d applied %d %s calls from p%d but the origin itself applied only %d",
						n, got, c.cls.Methods[u].Name, o, origin))
				}
			}
		}
	}

	// Convergence of the replayed states: if the histories explain a
	// drained run, the semantics must drive all correct replicas to one
	// state (Lemma 2 at the trace level).
	ref, refState := -1, spec.State(nil)
	for n := range c.nodes {
		if !c.correct(n) {
			continue
		}
		st := c.k.CurrentState(spec.ProcID(n))
		if refState == nil {
			ref, refState = n, st
			continue
		}
		if !refState.Equal(st) {
			c.violate("convergence", end, fmt.Sprintf(
				"replayed states of p%d and p%d differ at quiescence", ref, n))
		}
	}
}

// commonOrderDiverges reports the first pair of call identities that two
// apply sequences order differently, considering only identities present in
// both.
func commonOrderDiverges(a, b []string) (string, string, bool) {
	inA := make(map[string]bool, len(a))
	for _, id := range a {
		inA[id] = true
	}
	inB := make(map[string]bool, len(b))
	for _, id := range b {
		inB[id] = true
	}
	var fa, fb []string
	for _, id := range a {
		if inB[id] {
			fa = append(fa, id)
		}
	}
	for _, id := range b {
		if inA[id] {
			fb = append(fb, id)
		}
	}
	for i := range fa {
		if i < len(fb) && fa[i] != fb[i] {
			return fa[i], fb[i], true
		}
	}
	return "", "", false
}
