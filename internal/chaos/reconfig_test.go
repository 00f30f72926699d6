package chaos

import (
	"reflect"
	"testing"

	"hamband/internal/sim"
)

// reconfigPlan is the canonical membership round-trip: node 3 leaves a
// third of the way through the workload and rejoins at two thirds, with
// two client sessions running throughout.
func reconfigPlan(class string, seed int64) Plan {
	return Plan{
		Class: class, Nodes: 4, Ops: 120, Seed: seed, Sessions: 2,
		Events: []Event{
			{At: sim.Time(300 * sim.Microsecond), Kind: KindLeave, Node: 3},
			{At: sim.Time(900 * sim.Microsecond), Kind: KindJoin, Node: 3},
		},
	}
}

// reconfigLeaderKillPlan kills the conflicting group's leader while a
// leave is in flight.
func reconfigLeaderKillPlan() Plan {
	return Plan{
		Class: "account", Nodes: 4, Ops: 120, Seed: 33, Sessions: 2,
		Events: []Event{
			{At: sim.Time(300 * sim.Microsecond), Kind: KindLeave, Node: 3},
			// reconfigSettle delays the actual Leave to 400 µs; the kill at
			// 410 µs lands while the epoch change is in flight.
			{At: sim.Time(410 * sim.Microsecond), Kind: KindLeaderKill, Group: 0},
			{At: sim.Time(900 * sim.Microsecond), Kind: KindJoin, Node: 3},
		},
	}
}

func TestReconfigRoundTripConverges(t *testing.T) {
	for _, class := range []string{"counter", "orset", "bankmap"} {
		v := mustRun(t, reconfigPlan(class, 31), Options{})
		assertPassed(t, v)
		if v.Reconfigs != 2 || v.FinalEpoch != 2 {
			t.Fatalf("%s: reconfigs=%d epoch=%d, want 2/2 (leave then join committed)",
				class, v.Reconfigs, v.FinalEpoch)
		}
	}
}

// TestReconfigLeaderKillConverges is the acceptance scenario: the leader
// of the conflicting group is killed in the middle of an epoch transition
// (after the leave event fires, before the commit settles). Post-heal the
// cluster must converge with exactly-once acknowledged updates — the
// probes in assertPassed check both.
func TestReconfigLeaderKillConverges(t *testing.T) {
	v := mustRun(t, reconfigLeaderKillPlan(), Options{})
	assertPassed(t, v)
	if v.FinalEpoch < 2 {
		t.Fatalf("final epoch = %d, want >= 2 (leave and join committed)", v.FinalEpoch)
	}
}

// paddedReconfigPlan is the always-failing negative control (leaderkill
// with recovery disabled) padded with a leave/join round-trip and a
// partition window the shrinker must strip.
func paddedReconfigPlan() Plan {
	p := negativePlan(true)
	p.Events = append(p.Events,
		Event{At: sim.Time(100 * sim.Microsecond), Kind: KindLeave, Node: 2},
		Event{At: sim.Time(150 * sim.Microsecond), Kind: KindPartition, A: 1, B: 3},
		Event{At: sim.Time(400 * sim.Microsecond), Kind: KindHeal, A: 1, B: 3},
		Event{At: sim.Time(600 * sim.Microsecond), Kind: KindJoin, Node: 2},
	)
	return p
}

// TestShrinkKeepsReconfigPairs is the satellite-1 regression: shrinking a
// failing plan whose only real fault is a mid-epoch leader kill must treat
// the leave/join round-trip as a unit — no accepted candidate may strand a
// join without its leave — and still reach the minimal one-event plan.
func TestShrinkKeepsReconfigPairs(t *testing.T) {
	opts := Options{DrainDeadline: 10 * sim.Millisecond}
	p := paddedReconfigPlan()
	if v := mustRun(t, p, opts); v.Passed {
		t.Fatal("padded negative plan unexpectedly passed")
	}
	min := Shrink(p, func(cand Plan) bool {
		if err := cand.Validate(); err != nil {
			t.Errorf("shrink proposed an invalid candidate (orphaned reconfiguration half?): %v", err)
			return false
		}
		v, err := Run(cand, opts)
		return err == nil && !v.Passed
	})
	if len(min.Events) != 1 || min.Events[0].Kind != KindLeaderKill {
		t.Fatalf("shrink left %d events (%v), want just the leaderkill", len(min.Events), min.Events)
	}
}

// TestDropCandidatePairs pins the pair semantics directly: dropping either
// half of a leave/join pair drops both, other events drop alone.
func TestDropCandidatePairs(t *testing.T) {
	p := Plan{
		Class: "counter", Nodes: 4, Ops: 10, Seed: 1,
		Events: []Event{
			{At: 100, Kind: KindLeave, Node: 2},
			{At: 200, Kind: KindSuspend, Node: 1},
			{At: 300, Kind: KindJoin, Node: 2},
		},
	}
	for _, i := range []int{0, 2} { // leave or join: the pair goes together
		q := p.dropCandidate(i)
		if len(q.Events) != 1 || q.Events[0].Kind != KindSuspend {
			t.Fatalf("dropCandidate(%d) = %v, want just the suspend", i, q.Events)
		}
		if err := q.Validate(); err != nil {
			t.Fatalf("pair drop left an invalid plan: %v", err)
		}
	}
	if q := p.dropCandidate(1); len(q.Events) != 2 {
		t.Fatalf("dropCandidate(1) = %v, want the leave/join pair intact", q.Events)
	}
}

func TestGenerateReconfigDeterministic(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		a := GenerateReconfig("orset", 4, 100, seed, 2)
		b := GenerateReconfig("orset", 4, 100, seed, 2)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: GenerateReconfig not deterministic", seed)
		}
		if err := a.Validate(); err != nil {
			t.Fatalf("seed %d: generated invalid plan: %v", seed, err)
		}
		leaves, joins := 0, 0
		for _, e := range a.Events {
			switch e.Kind {
			case KindLeave:
				leaves++
			case KindJoin:
				joins++
			}
		}
		if leaves != 1 || joins != 1 || a.Sessions != 2 {
			t.Fatalf("seed %d: leaves=%d joins=%d sessions=%d, want 1/1/2", seed, leaves, joins, a.Sessions)
		}
	}
}

// TestReconfigValidation pins the plan-shape rules for membership events.
func TestReconfigValidation(t *testing.T) {
	bad := []Plan{
		{Class: "counter", Nodes: 4, Ops: 10, Events: []Event{{Kind: KindJoin, Node: 1}}},                                     // orphan join
		{Class: "counter", Nodes: 4, Ops: 10, Events: []Event{{Kind: KindLeave, Node: 1}, {At: 1, Kind: KindLeave, Node: 1}}}, // double leave
		{Class: "counter", Nodes: 4, Ops: 10, Events: []Event{{Kind: KindLeave, Node: 7}}},                                    // out of range
		{Class: "counter", Nodes: 4, Ops: 10, ShardMix: 2, Events: []Event{{Kind: KindLeave, Node: 1}}},                       // sharded
		{Class: "counter", Nodes: 4, Ops: 10, Mutants: []string{"stale-reads"}},                                               // mutant without sessions
		{Class: "counter", Nodes: 4, Ops: 10, Sessions: 99},                                                                   // too many sessions
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("plan %d validated but is invalid", i)
		}
	}
	good := Plan{Class: "counter", Nodes: 4, Ops: 10, Sessions: 2,
		Events: []Event{{Kind: KindLeave, Node: 1}, {At: 1, Kind: KindJoin, Node: 1}, {At: 2, Kind: KindLeave, Node: 1}}}
	if err := good.Validate(); err != nil {
		t.Errorf("leave/join/leave cycle rejected: %v", err)
	}
}
