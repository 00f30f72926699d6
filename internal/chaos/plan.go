// Package chaos is Hamband's deterministic fault-injection and schedule-
// exploration subsystem. It executes *fault plans* — timed lists of node
// and link faults — against a live simulated cluster while a randomized
// workload runs, then heals everything, drives the system to quiescence and
// checks the end-to-end properties the paper's refinement argument
// promises (Lemma 3): all correct replicas converge to the same state, the
// integrity invariant holds at every probed point, no acknowledged update
// is lost, and every update is applied exactly once per replica.
//
// Everything is seed-reproducible: the same plan (which embeds its seed)
// produces the same virtual-time trace, the same verdict and the same
// trace hash, so a failing plan serialized to JSON is a portable,
// replayable bug report. Randomized exploration (Generate) plus greedy
// shrinking (Shrink) turn the runner into a search procedure: find a
// violating schedule, then drop events one at a time while the violation
// still reproduces, leaving a minimal counterexample.
package chaos

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"hamband/internal/crdt"
	"hamband/internal/sim"
	"hamband/internal/spec"
)

// Kind names a fault-plan event type.
type Kind string

// Event kinds. Node faults follow the paper's failure model: Suspend stops
// a node's process while its NIC keeps serving one-sided accesses (the
// failure Hamband's recovery machinery is designed for); Crash kills the
// NIC too and is outside the paper's assumptions — it is available for
// explicit experiments but never emitted by the random generator. Link
// faults model transient transport outages: a partitioned link parks verbs
// at the NIC and retransmits them on heal (RC retry semantics).
const (
	KindSuspend    Kind = "suspend"    // suspend node Node (process stops, NIC serves)
	KindResume     Kind = "resume"     // resume node Node
	KindCrash      Kind = "crash"      // crash node Node (NIC dies; outside the paper's model)
	KindPartition  Kind = "partition"  // cut both directions between nodes A and B
	KindHeal       Kind = "heal"       // reconnect A and B, retransmitting parked verbs
	KindDelay      Kind = "delay"      // latency spike Extra±Jitter on A↔B (zero clears)
	KindTorn       Kind = "torn"       // torn writes on A↔B: interior bytes land Extra±Jitter late (0 → default)
	KindTornHeal   Kind = "tornheal"   // clear the torn-write fault on A↔B
	KindLeaderKill Kind = "leaderkill" // suspend the current leader of sync group Group
	KindLeave      Kind = "leave"      // reconfigure node Node out of the membership (epoch bump)
	KindJoin       Kind = "join"       // re-admit a previously departed node Node (epoch bump)
)

// DefaultTear is the interior-landing delay a KindTorn event with a zero
// Extra installs: long enough that a reader polling between the two
// fragment landings sees every boundary word of the new write over a stale
// interior, short enough that the write heals well inside one poll period.
const DefaultTear = 300 * sim.Nanosecond

// Event is one timed fault. Which fields are meaningful depends on Kind.
type Event struct {
	At     sim.Time     `json:"at"`               // virtual time, ns
	Kind   Kind         `json:"kind"`             //
	Node   int          `json:"node,omitempty"`   // suspend/resume/crash target
	A      int          `json:"a,omitempty"`      // partition/heal/delay/torn endpoint
	B      int          `json:"b,omitempty"`      // partition/heal/delay/torn endpoint
	Extra  sim.Duration `json:"extra,omitempty"`  // delay/torn: fixed extra latency or tear, ns
	Jitter sim.Duration `json:"jitter,omitempty"` // delay/torn: uniform extra in [0,Jitter], ns
	Group  int          `json:"group,omitempty"`  // leaderkill: synchronization group
}

// String renders an event for logs and violation reports.
func (e Event) String() string {
	switch e.Kind {
	case KindSuspend, KindResume, KindCrash:
		return fmt.Sprintf("%v %s p%d", sim.Duration(e.At), e.Kind, e.Node)
	case KindPartition, KindHeal:
		return fmt.Sprintf("%v %s p%d-p%d", sim.Duration(e.At), e.Kind, e.A, e.B)
	case KindDelay:
		return fmt.Sprintf("%v delay p%d-p%d +%v±%v", sim.Duration(e.At), e.A, e.B, e.Extra, e.Jitter)
	case KindTorn:
		return fmt.Sprintf("%v torn p%d-p%d +%v±%v", sim.Duration(e.At), e.A, e.B, e.Extra, e.Jitter)
	case KindTornHeal:
		return fmt.Sprintf("%v tornheal p%d-p%d", sim.Duration(e.At), e.A, e.B)
	case KindLeaderKill:
		return fmt.Sprintf("%v leaderkill g%d", sim.Duration(e.At), e.Group)
	case KindLeave, KindJoin:
		return fmt.Sprintf("%v %s p%d", sim.Duration(e.At), e.Kind, e.Node)
	}
	return fmt.Sprintf("%v %s", sim.Duration(e.At), e.Kind)
}

// Plan is a complete, self-describing fault schedule: the cluster shape,
// the workload size, the seed that determines both the workload and every
// jitter draw, and the timed fault events. A plan is the unit of replay —
// running the same plan twice produces bit-identical traces.
type Plan struct {
	Class string `json:"class"` // data-type class (see Classes)
	Nodes int    `json:"nodes"` // cluster size
	Ops   int    `json:"ops"`   // workload updates to issue
	Seed  int64  `json:"seed"`  // engine + workload seed

	// NoFinalHeal skips the heal-everything step before the drain, leaving
	// still-active faults in place. Suspended nodes then stay down and are
	// excluded from the correctness probes (used by negative controls).
	NoFinalHeal bool `json:"no_final_heal,omitempty"`

	// DisableRecovery turns off the cluster's failure handling (no
	// heartbeats, no detectors, no backup recovery, no leader change) —
	// the negative-control configuration the probes must catch.
	DisableRecovery bool `json:"disable_recovery,omitempty"`

	// MutateApplyOrder injects the core runtime's apply-order bug (buffers
	// drain newest-first, dependency gate skipped) — the negative control
	// the conformance harness's checks must catch.
	MutateApplyOrder bool `json:"mutate_apply_order,omitempty"`

	// AnchorInterval, when positive, overrides the δ-log's full-state
	// re-anchor period. Small values stress the anchor/δ interleaving.
	AnchorInterval int `json:"anchor_interval,omitempty"`

	// ShardMix, when ≥ 2, runs the plan against a sharded multi-object
	// store instead of a single cluster: the node set hosts that many
	// same-class shards behind a keyed directory, the workload spreads
	// across them, and every probe is evaluated per shard. Faults still
	// target nodes and links (a node hosts every shard), so the run
	// exercises cross-shard isolation: a fault stalling one shard must
	// not stop its siblings from acking and converging.
	ShardMix int `json:"shard_mix,omitempty"`

	// CrossWireShards installs the store's cross-wiring mutation control:
	// broadcast deliveries of two shards are swapped at one node. A
	// correct checker must catch the resulting divergence — this is a
	// negative control, never part of a passing corpus plan.
	CrossWireShards bool `json:"cross_wire_shards,omitempty"`

	// Sessions, when positive, runs that many client sessions alongside the
	// batch workload: each session issues writes and reads against one
	// replica at a time and occasionally switches replicas, waiting at the
	// switch until the target covers everything the session has seen. Every
	// operation records a trace.Session event; the conformance harness's
	// session checker replays them to verify monotonic reads,
	// read-your-writes and writes-follow-reads across the switches (and
	// across any epoch changes the plan's join/leave events drive). On a
	// ShardMix plan session i works on shard i mod ShardMix for the whole
	// run. Kept as an opt-in knob so plans without sessions keep their trace
	// hashes.
	Sessions int `json:"sessions,omitempty"`

	// MutateStaleReads installs the session mutation control: after a
	// replica switch, the first read of each session is served from the view
	// the session cached at its very first read instead of the live replica
	// state — the classic stale-failover-cache bug. A correct session
	// checker must catch it; never part of a passing corpus plan.
	MutateStaleReads bool `json:"mutate_stale_reads,omitempty"`

	Events []Event `json:"events"`
}

// Validate checks the plan is well-formed and names a known class.
func (p Plan) Validate() error {
	if _, ok := classRegistry[p.Class]; !ok {
		return fmt.Errorf("chaos: unknown class %q (have %v)", p.Class, ClassNames())
	}
	if p.Nodes < 2 || p.Nodes > 64 {
		return fmt.Errorf("chaos: nodes = %d, want 2..64", p.Nodes)
	}
	if p.Ops < 0 {
		return fmt.Errorf("chaos: ops = %d", p.Ops)
	}
	if p.ShardMix != 0 && (p.ShardMix < 2 || p.ShardMix > 32) {
		return fmt.Errorf("chaos: shard_mix = %d, want 0 or 2..32", p.ShardMix)
	}
	if p.CrossWireShards && p.ShardMix < 2 {
		return fmt.Errorf("chaos: cross_wire_shards needs shard_mix >= 2")
	}
	if p.MutateStaleReads && p.Sessions <= 0 {
		return fmt.Errorf("chaos: mutate_stale_reads needs sessions > 0")
	}
	if p.Sessions < 0 || p.Sessions > 16 {
		return fmt.Errorf("chaos: sessions = %d, want 0..16", p.Sessions)
	}
	node := func(i int) bool { return i >= 0 && i < p.Nodes }
	left := make(map[int]bool)
	for i, e := range p.Events {
		if e.At < 0 {
			return fmt.Errorf("chaos: event %d at negative time", i)
		}
		switch e.Kind {
		case KindSuspend, KindResume, KindCrash:
			if !node(e.Node) {
				return fmt.Errorf("chaos: event %d: node %d out of range", i, e.Node)
			}
		case KindPartition, KindHeal, KindDelay, KindTorn, KindTornHeal:
			if !node(e.A) || !node(e.B) || e.A == e.B {
				return fmt.Errorf("chaos: event %d: bad link p%d-p%d", i, e.A, e.B)
			}
		case KindLeaderKill:
			if e.Group < 0 {
				return fmt.Errorf("chaos: event %d: negative group", i)
			}
		case KindLeave, KindJoin:
			if !node(e.Node) {
				return fmt.Errorf("chaos: event %d: node %d out of range", i, e.Node)
			}
			if p.ShardMix >= 2 {
				return fmt.Errorf("chaos: event %d: %s not supported on sharded plans", i, e.Kind)
			}
			// Leaves and joins must balance in schedule order: a join with no
			// earlier leave for the same node is an orphan (the shrinker drops
			// a leave/join pair together to preserve this).
			if e.Kind == KindLeave {
				if left[e.Node] {
					return fmt.Errorf("chaos: event %d: node %d leaves twice", i, e.Node)
				}
				left[e.Node] = true
			} else {
				if !left[e.Node] {
					return fmt.Errorf("chaos: event %d: join of node %d with no earlier leave", i, e.Node)
				}
				left[e.Node] = false
			}
		default:
			return fmt.Errorf("chaos: event %d: unknown kind %q", i, e.Kind)
		}
	}
	return nil
}

// Without returns a copy of the plan with event i removed — the shrinking
// step.
func (p Plan) Without(i int) Plan {
	q := p
	q.Events = make([]Event, 0, len(p.Events)-1)
	q.Events = append(q.Events, p.Events[:i]...)
	q.Events = append(q.Events, p.Events[i+1:]...)
	return q
}

// WriteJSON serializes the plan, indented for human diffing.
func (p Plan) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(p)
}

// ReadPlan parses and validates a JSON plan. Unknown fields are an error: a
// plan is a replayable bug report, and an artifact carrying a switch this
// build no longer has (the full-state summaries flag, retired with that
// slot layout) must fail loudly, not replay as a different run.
func ReadPlan(r io.Reader) (Plan, error) {
	var p Plan
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&p); err != nil {
		return Plan{}, fmt.Errorf("chaos: decoding plan: %w", err)
	}
	return p, p.Validate()
}

// classRegistry maps class names to constructors. Fresh instances per run
// keep plans independent.
var classRegistry = map[string]func() *spec.Class{
	"counter":   crdt.NewCounter,
	"pncounter": crdt.NewPNCounter,
	"orset":     crdt.NewORSet,
	"twopset":   crdt.NewTwoPSet,
	"cart":      crdt.NewCart,
	"account":   crdt.NewAccount,
	"bankmap":   crdt.NewBankMap,
}

// Class returns a fresh instance of a registered class by name.
func Class(name string) (*spec.Class, error) {
	ctor, ok := classRegistry[name]
	if !ok {
		return nil, fmt.Errorf("chaos: unknown class %q (have %v)", name, ClassNames())
	}
	return ctor(), nil
}

// ClassNames lists the classes plans can target, sorted.
func ClassNames() []string {
	names := make([]string, 0, len(classRegistry))
	for n := range classRegistry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
