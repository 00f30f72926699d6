// Package trace records structured per-call lifecycle events from the
// Hamband runtime: when a call was issued and dispatched, when its summary
// or buffer write landed, when each replica applied it, and when its
// response resolved — all stamped with virtual time and the acting node.
//
// Tracing is opt-in (core.Options.Tracer) and costs one append per event
// when enabled, nothing when disabled. `hambench -exp trace` prints sample
// timelines; tests use the tracer to assert protocol-level orderings that
// state-based assertions cannot see (e.g. a dependent call applying only
// after its dependency on every node).
package trace

import (
	"fmt"
	"io"
	"sort"

	"hamband/internal/sim"
	"hamband/internal/spec"
)

// Event is one recorded lifecycle point.
type Event struct {
	At   sim.Time
	Node int
	Kind Kind
	Call string // request identity, e.g. "p0#3"; empty for node-level events
	Note string

	// Shard names the replicated object the event belongs to, for nodes
	// hosting several (package store). Empty in single-object clusters and
	// on fabric-level verb events, whose call labels carry the shard prefix
	// instead (see ShardOf).
	Shard string

	// Data optionally carries a structured payload — a CallRecord,
	// SlotRecord, QueryRecord or AckRecord — that makes the event
	// machine-checkable by the conformance harness (package conform).
	// Human-oriented consumers (Format, the Chrome export) ignore it.
	Data any
}

// Kind classifies lifecycle events.
type Kind string

// Lifecycle points recorded by the runtime.
const (
	Issue    Kind = "issue"     // client call accepted at a replica
	Reject   Kind = "reject"    // permissibility rejection
	Reduce   Kind = "reduce"    // summarized and remote-written (reducible)
	FreeSend Kind = "free-send" // applied locally + broadcast (irreducible)
	Order    Kind = "order"     // sequenced by the group leader (conflicting)
	Apply    Kind = "apply"     // applied from a buffer at a replica
	Adopt    Kind = "adopt"     // summary slot adopted at a replica
	Complete Kind = "complete"  // response resolved at the origin
	Suspect  Kind = "suspect"   // failure detector suspicion
	Recover  Kind = "recover"   // recovery action (broadcast/summary/leader)
	Query    Kind = "query"     // query evaluated at a replica

	// Stage-boundary events surfaced from the transport layers; the span
	// layer (package span) stitches them into per-call latency attribution.
	// The conformance checker ignores them.
	Post   Kind = "post"   // labeled verb posted to a QP (doorbell fired)
	Wire   Kind = "wire"   // labeled write landed in remote memory
	CQE    Kind = "cqe"    // sender reaped the completion of a labeled verb
	Commit Kind = "commit" // consensus entry replicated to a majority

	// Session is recorded by session clients (package chaos): one event per
	// session operation, carrying a SessionRecord the session-guarantee
	// checker (package conform) replays. The state-machine conformance
	// checker ignores them.
	Session Kind = "session"

	// Reconfig marks a membership change committing: the event's Node is the
	// joining/leaving node and its Data an EpochRecord.
	Reconfig Kind = "reconfig"

	// Health marks a watchdog anomaly rule firing (package health): the
	// event's Node is the affected node and its Data a HealthEvent.
	Health Kind = "health"
)

// CallRecord is the structured payload of Issue, FreeSend, Order and Apply
// events: the full call and the dependency record attached to it on the
// wire (nil for dependence-free methods). The conformance checker replays
// these to reconstruct each replica's state evolution.
type CallRecord struct {
	C spec.Call
	D spec.DepVec

	// SubmitAt, set on Issue events only, is the virtual time the client
	// handed the call to Invoke — before the issue-cost CPU charge and any
	// CPU queueing. The span layer derives the issue→dispatch stage from it.
	SubmitAt sim.Time
}

// VerbRecord is the structured payload of Post, Wire and CQE events: which
// verb moved how many bytes between which nodes. The event's Call field
// carries the label of the work request (see rdma.WR.Label); a batched
// record serving several calls joins their identities with commas.
type VerbRecord struct {
	Verb  string // "write" or "chain"
	From  int
	To    int
	Bytes int
}

// SlotRecord is the structured payload of Reduce and Adopt events: the
// state of one summary slot immediately after the event. Counts is a
// snapshot copy of the slot's per-method applied counts (group order); Sum
// is the summarized call now held in the slot. For Reduce events C points
// at the reducible call that was just folded in; for Adopt events C is nil
// (the adopted delta may summarize many calls).
type SlotRecord struct {
	Group   int         // summarization group index
	Src     spec.ProcID // the slot's owning (writing) process
	Version uint32      // slot version after the event
	Sum     spec.Call   // summary call now held in the slot
	Counts  []uint32    // applied counts per group method, snapshot
	C       *spec.Call  // Reduce only: the call folded into the summary
}

// QueryRecord is the structured payload of Query events: what was asked
// and what was answered, so the conformance checker can re-evaluate the
// query against the replayed state and compare.
type QueryRecord struct {
	Method spec.MethodID
	Args   spec.Args
	Result any
	Fresh  bool // evaluated via InvokeFresh (recency-aware path)
}

// AckRecord is the structured payload of Complete events: whether the
// response acknowledged the call (OK) or reported an error.
type AckRecord struct {
	OK bool
}

// SessionRecord is the structured payload of Session events: one operation
// of one client session, with the evidence the session-guarantee checker
// needs. View is an immutable snapshot of the serving replica's per-origin
// applied-count vector at the moment the operation was served; for writes,
// Watermark is the origin's own applied count when the write's ack
// resolved (so "replica R has applied this write" is exactly
// R.View[Node] >= Watermark, per-origin applies being prefix-monotone).
type SessionRecord struct {
	S         int      // session identity
	Op        string   // "write", "read" or "switch"
	Node      int      // serving replica (for switch: the new replica)
	Epoch     uint32   // configuration epoch current when served
	Watermark uint64   // write: origin applied count at ack time
	View      []uint64 // read: per-origin applied counts at the serving replica
}

// EpochRecord is the structured payload of Reconfig events.
type EpochRecord struct {
	Epoch uint32 // the epoch that just committed
	Join  bool   // true for a join, false for a leave
}

// HealthEvent is the structured payload of Health events: which watchdog
// rule fired, against which node/shard, and the observed value versus the
// rule's threshold (units are rule-specific: polls, check periods, percent,
// applied-call lag).
type HealthEvent struct {
	Rule      string
	Node      int
	Shard     string // empty outside the sharded store
	Value     int64
	Threshold int64
}

// Tracer is an append-only bounded event recorder. Not safe for concurrent
// use; the simulation is single-threaded.
//
// Two bounding policies exist. A tracer from New keeps the oldest events
// and counts later ones as dropped — the right shape for conformance runs,
// which need the history from the start. A tracer from NewFlightRecorder
// keeps the *newest* events in a ring, evicting the oldest at O(1) — the
// right shape for post-mortems, where the events just before a failure
// carry all the signal.
type Tracer struct {
	eng    *sim.Engine
	events []Event
	limit  int
	drops  int
	ring   bool // flight-recorder mode: evict oldest instead of dropping newest
	head   int  // ring mode: index of the oldest event once the ring is full

	// Scoped-view fields: a tracer from Scoped records into root's buffer,
	// stamping each event with its shard name. root is nil on a root tracer.
	root  *Tracer
	shard string
}

// base returns the tracer that owns the event buffer: the root for scoped
// views, the tracer itself otherwise.
func (t *Tracer) base() *Tracer {
	if t != nil && t.root != nil {
		return t.root
	}
	return t
}

// Scoped returns a view of the tracer that stamps every recorded event
// with the given shard name, writing into the same underlying buffer so a
// multi-object run yields one merged, time-ordered history. Read methods
// on the view see the whole buffer (filter with ByShard). Scoped on a nil
// tracer returns nil, preserving the disabled-tracing fast path.
func (t *Tracer) Scoped(shard string) *Tracer {
	if t == nil {
		return nil
	}
	return &Tracer{root: t.base(), shard: shard}
}

// New returns a tracer bound to eng holding at most limit events
// (older events are retained; later ones are counted as dropped).
func New(eng *sim.Engine, limit int) *Tracer {
	if limit <= 0 {
		limit = 1 << 16
	}
	return &Tracer{eng: eng, limit: limit}
}

// NewFlightRecorder returns a tracer that retains the newest window events
// in a ring: each record beyond the window overwrites the oldest event in
// O(1). Dropped reports how many events were evicted. Use it for always-on
// tracing where only the events leading up to a failure matter.
func NewFlightRecorder(eng *sim.Engine, window int) *Tracer {
	if window <= 0 {
		window = 1 << 12
	}
	return &Tracer{eng: eng, limit: window, ring: true}
}

// Record appends an event stamped with the current virtual time.
func (t *Tracer) Record(node int, kind Kind, call, note string) {
	t.RecordData(node, kind, call, note, nil)
}

// RecordData appends an event carrying a structured payload (see
// CallRecord, SlotRecord, QueryRecord, AckRecord). The payload must be
// immutable once recorded: callers snapshot any mutable slices.
func (t *Tracer) RecordData(node int, kind Kind, call, note string, data any) {
	if t == nil {
		return
	}
	b := t.base()
	e := Event{At: b.eng.Now(), Node: node, Kind: kind, Call: call, Note: note, Shard: t.shard, Data: data}
	if len(b.events) < b.limit {
		b.events = append(b.events, e)
		return
	}
	if !b.ring {
		b.drops++
		return
	}
	b.events[b.head] = e
	b.head++
	if b.head == b.limit {
		b.head = 0
	}
	b.drops++
}

// each visits the recorded events oldest-first without copying.
func (t *Tracer) each(fn func(Event)) {
	t = t.base()
	for _, e := range t.events[t.head:] {
		fn(e)
	}
	for _, e := range t.events[:t.head] {
		fn(e)
	}
}

// Events returns a copy of the recorded events, oldest first. Mutating the
// returned slice never affects the tracer.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t = t.base()
	out := make([]Event, len(t.events))
	n := copy(out, t.events[t.head:])
	copy(out[n:], t.events[:t.head])
	return out
}

// Window returns a copy of the newest n recorded events, oldest first (all
// events when n <= 0 or fewer than n are held) — the flight-recorder
// post-mortem view.
func (t *Tracer) Window(n int) []Event {
	evs := t.Events()
	if n > 0 && len(evs) > n {
		evs = evs[len(evs)-n:]
	}
	return evs
}

// Dropped reports events lost to the limit (New) or evicted from the ring
// (NewFlightRecorder).
func (t *Tracer) Dropped() int { return t.base().drops }

// Timeline returns the events of one call, in time order.
func (t *Tracer) Timeline(call string) []Event {
	var out []Event
	t.each(func(e Event) {
		if e.Call == call {
			out = append(out, e)
		}
	})
	return out
}

// Calls lists the distinct call identities seen, in first-seen order.
func (t *Tracer) Calls() []string {
	seen := make(map[string]bool)
	var out []string
	t.each(func(e Event) {
		if e.Call != "" && !seen[e.Call] {
			seen[e.Call] = true
			out = append(out, e.Call)
		}
	})
	return out
}

// ByKind returns the events of one kind.
func (t *Tracer) ByKind(kind Kind) []Event {
	var out []Event
	t.each(func(e Event) {
		if e.Kind == kind {
			out = append(out, e)
		}
	})
	return out
}

// Format writes the given calls' timelines (all calls when none given),
// one line per event, with per-call relative times.
func (t *Tracer) Format(w io.Writer, calls ...string) {
	t = t.base()
	if len(calls) == 0 {
		calls = t.Calls()
	}
	for _, call := range calls {
		tl := t.Timeline(call)
		if len(tl) == 0 {
			continue
		}
		sort.SliceStable(tl, func(i, j int) bool { return tl[i].At < tl[j].At })
		start := tl[0].At
		fmt.Fprintf(w, "%s:\n", call)
		for _, e := range tl {
			fmt.Fprintf(w, "  +%-10v n%d %-10s %s\n",
				sim.Duration(e.At-start), e.Node, e.Kind, e.Note)
		}
	}
	if t.drops > 0 {
		if t.ring {
			fmt.Fprintf(w, "(%d older events evicted beyond the %d-event window)\n", t.drops, t.limit)
		} else {
			fmt.Fprintf(w, "(%d events dropped beyond the %d-event limit)\n", t.drops, t.limit)
		}
	}
}

// FormatWindow writes events one per line with absolute virtual times —
// the flight-recorder post-mortem format dumped next to failing plans.
func FormatWindow(w io.Writer, events []Event) {
	for _, e := range events {
		fmt.Fprintf(w, "t=%-12v n%d %-10s %-10s %s\n",
			sim.Duration(e.At), e.Node, e.Kind, e.Call, e.Note)
	}
}

// ShardOf returns the shard an event belongs to. Runtime events carry it
// in Event.Shard (stamped by a scoped tracer); fabric verb events carry it
// as the "shard:" prefix of their call label — a batched label joins calls
// with commas, but a chain batch is always single-shard, so the first
// segment's prefix identifies the whole record. Returns "" for unsharded
// events.
func ShardOf(e Event) string {
	if e.Shard != "" {
		return e.Shard
	}
	label := e.Call
	if i := indexByte(label, ','); i >= 0 {
		label = label[:i]
	}
	if i := indexByte(label, ':'); i >= 0 {
		return label[:i]
	}
	return ""
}

// ByShard buckets events by ShardOf, preserving order within each bucket.
// Events with no shard identity land under "".
func ByShard(events []Event) map[string][]Event {
	out := make(map[string][]Event)
	for _, e := range events {
		s := ShardOf(e)
		out[s] = append(out[s], e)
	}
	return out
}

// indexByte avoids importing strings for two one-byte scans.
func indexByte(s string, c byte) int {
	for i := 0; i < len(s); i++ {
		if s[i] == c {
			return i
		}
	}
	return -1
}
