// Package chaos is Hamband's deterministic fault-injection and schedule-
// exploration subsystem. It executes *fault plans* — timed lists of node
// and link faults — against a live simulated cluster while a randomized
// workload runs, then heals everything, drives the system to quiescence and
// checks the end-to-end properties the paper's refinement argument
// promises (Lemma 3): all correct replicas converge to the same state, the
// integrity invariant holds at every probed point, no acknowledged update
// is lost, and every update is applied exactly once per replica. A run that
// records its complete trace also replays it through package conform's
// checks of Fig. 5's semantics; the run's one verdict covers both.
//
// Everything is seed-reproducible: the same plan (which embeds its seed)
// produces the same virtual-time trace, the same verdict and the same
// trace hash, so a failing plan serialized to JSON is a portable,
// replayable bug report. Randomized exploration (Generate, Explore) plus
// shrinking (Shrink) turn the runner into a search procedure: find a
// violating schedule, then drop events and calls while the violation still
// reproduces, leaving a minimal counterexample.
package chaos

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"

	"hamband/internal/core"
	"hamband/internal/schema"
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
	// MidRound anchors a leaderkill to the protocol: the victim, the leader
	// at At, is suspended a nanosecond after its first sequencing at or after
	// At (where a traced run records trace.Order), with the round that call
	// opens in flight. A victim that never sequences again is never
	// suspended. On a class without conflicting methods the kill fires at At.
	MidRound bool `json:"mid_round,omitempty"`
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
		if e.MidRound {
			return fmt.Sprintf("%v leaderkill g%d mid-round", sim.Duration(e.At), e.Group)
		}
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
	Class string `json:"class"` // data-type class (see ClassNames)
	Nodes int    `json:"nodes"` // cluster size
	Ops   int    `json:"ops"`   // workload updates to issue
	Seed  int64  `json:"seed"`  // engine + workload seed

	// NoFinalHeal skips the heal-everything step before the drain, leaving
	// still-active faults in place. Suspended nodes then stay down and are
	// excluded from the correctness probes (used by negative controls).
	NoFinalHeal bool `json:"no_final_heal,omitempty"`

	// DeltaLogBytes, when positive, overrides the size of each summary
	// slot's δ-log. The writer re-anchors when the log fills, so small values
	// stress the anchor/δ interleaving.
	DeltaLogBytes int `json:"delta_log_bytes,omitempty"`

	// ShardMix, when ≥ 2, runs the plan against a sharded multi-object
	// store instead of a single cluster: the node set hosts that many
	// same-class shards behind a keyed directory, the workload spreads
	// across them, and every probe is evaluated per shard. Faults still
	// target nodes and links (a node hosts every shard), so the run
	// exercises cross-shard isolation: a fault stalling one shard must
	// not stop its siblings from acking and converging.
	ShardMix int `json:"shard_mix,omitempty"`

	// Sessions, when positive, runs that many client sessions alongside the
	// batch workload: each session issues writes and reads against one
	// replica at a time and occasionally switches replicas, waiting at the
	// switch until the target covers everything the session has seen. Every
	// operation records a trace.Session event; a checked run's history
	// check replays them to verify monotonic reads,
	// read-your-writes and writes-follow-reads across the switches (and
	// across any epoch changes the plan's join/leave events drive). On a
	// ShardMix plan session i works on shard i mod ShardMix for the whole
	// run. Kept as an opt-in knob so plans without sessions keep their trace
	// hashes.
	Sessions int `json:"sessions,omitempty"`

	// Mutants names the catalogue mutants (Mutants) the run installs: bugs
	// a checker must catch, never part of a passing corpus plan.
	Mutants []string `json:"mutants,omitempty"`

	Events []Event `json:"events"`
}

// Validate checks the plan is well-formed and names a known class.
func (p Plan) Validate() error {
	if _, err := Class(p.Class); err != nil {
		return err
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
	if maxLog := core.DefaultOptions().SumSlotSize / 2; p.DeltaLogBytes != 0 && (p.DeltaLogBytes < core.MinDeltaLogBytes || p.DeltaLogBytes > maxLog) {
		return fmt.Errorf("chaos: delta_log_bytes = %d, want 0 (the default) or %d..%d", p.DeltaLogBytes, core.MinDeltaLogBytes, maxLog)
	}
	if p.Sessions < 0 || p.Sessions > 16 {
		return fmt.Errorf("chaos: sessions = %d, want 0..16", p.Sessions)
	}
	for i, name := range p.Mutants {
		m := slices.IndexFunc(Mutants, func(m Mutant) bool { return m.Name == name })
		switch {
		case m < 0:
			return fmt.Errorf("chaos: unknown mutant %q", name)
		case slices.Contains(p.Mutants[:i], name):
			return fmt.Errorf("chaos: mutant %s named twice", name)
		case Mutants[m].holds != nil && !Mutants[m].holds(p):
			return fmt.Errorf("chaos: mutant %s needs %s", name, Mutants[m].needs)
		}
	}
	node := func(i int) bool { return i >= 0 && i < p.Nodes }
	left := make(map[int]bool)
	for i, e := range p.Events {
		if e.At < 0 {
			return fmt.Errorf("chaos: event %d at negative time", i)
		}
		if e.MidRound && e.Kind != KindLeaderKill {
			return fmt.Errorf("chaos: event %d: mid_round on a %s", i, e.Kind)
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

// Mutant is one entry of the catalogue of bugs the harness injects to prove
// that a checker catches them. A plan names the mutants it installs
// (Plan.Mutants), and the runner puts each where it applies: no-recovery
// into the options every cluster is built with, apply-order, stale-scan and
// no-local-delta onto every built cluster, cross-wire and cross-wire-reduce
// onto the opened shard pairs, and stale-reads into the client sessions. Production types carry
// none of them.
type Mutant struct {
	Name string
	Doc  string // the bug, in one line

	needs string          // the plan shape it needs, "" when any plan will do
	holds func(Plan) bool // whether a plan has that shape
}

// Mutants is the catalogue.
var Mutants = []Mutant{
	{Name: "apply-order", Doc: "buffers drain newest-first and the dependency gate is skipped"},
	{Name: "cross-wire", Doc: "shard pairs (0↔1, 2↔3 in open order) swap their free deliveries",
		needs: "shard_mix >= 2", holds: func(p Plan) bool { return p.ShardMix >= 2 }},
	{Name: "stale-reads", Doc: "the first read after a switch serves the session's first cached view",
		needs: "sessions > 0", holds: func(p Plan) bool { return p.Sessions > 0 }},
	{Name: "no-recovery", Doc: "failure handling off: no heartbeats, detectors, backup recovery or leader change"},
	{Name: "stale-scan", Doc: "the summary scan trusts the anchors it validated after a write touched them",
		needs: "a class with a summarization group", holds: summarized},
	{Name: "no-local-delta", Doc: "an issuer installs the anchors it ships in its own summary slot but not the δ-records",
		needs: "a class with a summarization group", holds: summarized},
	{Name: "cross-wire-reduce", Doc: "shard pairs (0↔1, 2↔3 in open order) swap their δ-records in every node's walk",
		needs: "shard_mix >= 2 and a class with a summarization group", holds: func(p Plan) bool { return p.ShardMix >= 2 && summarized(p) }},
}

// summarized reports whether the plan's class has a summarization group.
func summarized(p Plan) bool {
	cls, err := Class(p.Class)
	return err == nil && len(cls.SumGroups) > 0
}

// mutated reports whether the plan installs the named mutant.
func (p Plan) mutated(name string) bool { return slices.Contains(p.Mutants, name) }

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

// Class returns a fresh instance of the bundled class (schema.Bundled) of
// that name. Fresh instances per run keep plans independent.
func Class(name string) (*spec.Class, error) {
	for _, cls := range schema.Bundled() {
		if cls.Name == name {
			return cls, nil
		}
	}
	return nil, fmt.Errorf("chaos: unknown class %q (have %v)", name, ClassNames())
}

// ClassNames lists the classes plans can target: the bundled ones, in
// schema.Bundled's order.
func ClassNames() []string {
	var names []string
	for _, cls := range schema.Bundled() {
		names = append(names, cls.Name)
	}
	return names
}
