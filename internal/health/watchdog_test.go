package health

import (
	"strings"
	"testing"

	"hamband/internal/broadcast"
	"hamband/internal/ring"
	"hamband/internal/sim"
)

// snap builds a minimal single-node snapshot, mutated by mut.
func snap(at int64, mut func(*Snapshot)) *Snapshot {
	s := &Snapshot{At: sim.Time(at), Nodes: []NodeHealth{{Node: 0}}}
	if mut != nil {
		mut(s)
	}
	return s
}

func fired(t *testing.T, w *Watchdog, want int) []Firing {
	t.Helper()
	fs := w.Firings()
	if len(fs) != want {
		t.Fatalf("want %d firings, got %d: %+v", want, len(fs), fs)
	}
	return fs
}

func TestReaderParkedThresholdAndRearm(t *testing.T) {
	w := NewWatchdog(Config{})
	parked := func(p bool) func(*Snapshot) {
		return func(s *Snapshot) {
			s.Nodes[0].Rings = []broadcast.SourceHealth{{Src: 1, Parked: p, ParkedWhy: "torn-write quarantine"}}
		}
	}
	w.Observe(snap(1, parked(true)))
	fired(t, w, 0) // one observation: below parkedPolls=2
	w.Observe(snap(2, parked(true)))
	fs := fired(t, w, 1)
	if fs[0].Rule != RuleReaderParked || fs[0].Node != 0 || fs[0].Value != 2 {
		t.Fatalf("bad firing: %+v", fs[0])
	}
	w.Observe(snap(3, parked(true)))
	fired(t, w, 1) // episode: no refire while the condition holds
	w.Observe(snap(4, parked(false)))
	w.Observe(snap(5, parked(true)))
	w.Observe(snap(6, parked(true)))
	fired(t, w, 2) // cleared and re-parked: a new episode fires
}

func TestFloorStalledThreshold(t *testing.T) {
	w := NewWatchdog(Config{})
	pend := func(s *Snapshot) {
		s.Nodes[0].Rings = []broadcast.SourceHealth{{Src: 2, HasPending: true, PendingMin: 3}}
	}
	for i := int64(1); i <= 4; i++ {
		w.Observe(snap(i, pend))
	}
	fired(t, w, 0) // floorStallPolls=5
	w.Observe(snap(5, pend))
	fs := fired(t, w, 1)
	if fs[0].Rule != RuleFloorStalled {
		t.Fatalf("bad rule: %+v", fs[0])
	}
}

// TestSlotFloorStalledThreshold: a parked summary-slot floor trips the same
// rule at the same threshold as a ring floor, under a key of its own, so a
// ring floor and a slot floor for one source fire once each.
func TestSlotFloorStalledThreshold(t *testing.T) {
	w := NewWatchdog(Config{})
	var parked ring.EpochFloor
	parked.RaiseAfterDrain(3)
	slot := func(s *Snapshot) { s.Nodes[0].Floors = []ring.EpochFloor{{}, {}, parked} }
	for i := int64(1); i <= 4; i++ {
		w.Observe(snap(i, slot))
	}
	fired(t, w, 0)
	w.Observe(snap(5, slot))
	fs := fired(t, w, 1)
	if fs[0].Rule != RuleFloorStalled || fs[0].Node != 0 || fs[0].Value != 5 {
		t.Fatalf("bad firing: %+v", fs[0])
	}
	both := func(s *Snapshot) {
		slot(s)
		s.Nodes[0].Rings = []broadcast.SourceHealth{{Src: 2, HasPending: true, PendingMin: 3}}
	}
	for i := int64(6); i <= 10; i++ {
		w.Observe(snap(i, both))
	}
	fs = fired(t, w, 2) // the slot episode holds; the ring floor fires on its own key
	if fs[1].Rule != RuleFloorStalled || !strings.Contains(fs[1].Detail, "epoch floor 3 for src 2") {
		t.Fatalf("bad ring firing: %+v", fs[1])
	}
	w.Observe(snap(11, func(s *Snapshot) { s.Nodes[0].Floors = make([]ring.EpochFloor, 3) })) // drained: the episode clears
	for i := int64(12); i <= 16; i++ {
		w.Observe(snap(i, slot))
	}
	fired(t, w, 3)
}

func TestLeaderlessCountsSuspectedLeader(t *testing.T) {
	w := NewWatchdog(Config{})
	// The group reports a leader, but this node's own detector suspects it:
	// effectively leaderless from here.
	sus := func(s *Snapshot) {
		s.Nodes[0].Groups = []GroupHealth{{Group: 0, Leader: 2, LeaderSuspect: true}}
	}
	for i := int64(1); i <= 3; i++ {
		w.Observe(snap(i, sus))
	}
	fs := fired(t, w, 1)
	if fs[0].Rule != RuleLeaderless {
		t.Fatalf("bad rule: %+v", fs[0])
	}
	// A healthy trusted leader clears and re-arms the episode.
	w.Observe(snap(4, func(s *Snapshot) {
		s.Nodes[0].Groups = []GroupHealth{{Group: 0, Leader: 2}}
	}))
	for i := int64(5); i <= 7; i++ {
		w.Observe(snap(i, sus))
	}
	fired(t, w, 2)
}

func TestWatermarkLagNeedsFloorAndGrowth(t *testing.T) {
	w := NewWatchdog(Config{})
	lagged := func(at int64, applied uint64) *Snapshot {
		return &Snapshot{At: sim.Time(at), Nodes: []NodeHealth{
			{Node: 0, Applied: 10000},
			{Node: 1, Applied: applied},
		}}
	}
	// Large but *constant* lag: never fires (in-flight backlog, not decay).
	for i := int64(1); i <= 8; i++ {
		w.Observe(lagged(i, 9000))
	}
	fired(t, w, 0)
	// Growing but below the 64-call floor: never fires.
	for i := int64(10); i <= 17; i++ {
		w.Observe(lagged(i, 10000-uint64(i))) // lag == i < 64
	}
	fired(t, w, 0)
	// Growing past the floor across lagPolls=4 observations — including a
	// flat window, which a probe cadence finer than the issue cadence
	// produces mid-decline: fires.
	w.Observe(lagged(20, 8000))
	w.Observe(lagged(21, 7900))
	w.Observe(lagged(22, 7900)) // flat, not shrinking
	w.Observe(lagged(23, 7800))
	fs := fired(t, w, 1)
	if fs[0].Rule != RuleWatermarkLag || fs[0].Node != 1 {
		t.Fatalf("bad firing: %+v", fs[0])
	}
	// Catching up clears the episode.
	w.Observe(lagged(24, 9990))
	w.Observe(lagged(25, 9990))
	fired(t, w, 1)
}

func TestHotShardShareAndMinOps(t *testing.T) {
	w := NewWatchdog(Config{})
	shards := func(at int64, a, b uint64) *Snapshot {
		return &Snapshot{At: sim.Time(at), Shards: []ShardHealth{
			{Key: "sa", Ops: a}, {Key: "sb", Ops: b},
		}}
	}
	w.Observe(shards(1, 400, 20)) // 95% share but total 420 < MinOps=500
	fired(t, w, 0)
	w.Observe(shards(2, 900, 100)) // 90% of 1000
	fs := fired(t, w, 1)
	if fs[0].Rule != RuleHotShard || fs[0].Shard != "sa" || fs[0].Node != -1 {
		t.Fatalf("bad firing: %+v", fs[0])
	}
	w.Observe(shards(3, 950, 120))
	fired(t, w, 1) // episode holds while still hot
}

func TestBudgetLowIsBaselineAware(t *testing.T) {
	w := NewWatchdog(Config{})
	arena := func(at int64, avail int) *Snapshot {
		return &Snapshot{At: sim.Time(at), Arenas: []ArenaHealth{
			{Node: 0, Size: 1000, Available: avail},
		}}
	}
	// Exact admission: zero headroom from the first snapshot is steady
	// state, not an anomaly.
	for i := int64(1); i <= 5; i++ {
		w.Observe(arena(i, 0))
	}
	fired(t, w, 0)
	// A slack arena that then drops below 10% headroom is an anomaly.
	w.Observe(arena(6, 500))
	w.Observe(arena(7, 40))
	fs := fired(t, w, 1)
	if fs[0].Rule != RuleBudgetLow || fs[0].Value != 4 {
		t.Fatalf("bad firing: %+v", fs[0])
	}
}

func TestTopShards(t *testing.T) {
	s := &Snapshot{Shards: []ShardHealth{
		{Key: "b", Ops: 5}, {Key: "a", Ops: 9}, {Key: "c", Ops: 5}, {Key: "d", Ops: 1},
	}}
	top := TopShards(s, 3)
	if len(top) != 3 || top[0].Key != "a" || top[1].Key != "b" || top[2].Key != "c" {
		t.Fatalf("bad top-3: %+v", top)
	}
	if got := TopShards(s, 0); len(got) != 4 {
		t.Fatalf("k<=0 should return all, got %d", len(got))
	}
}
