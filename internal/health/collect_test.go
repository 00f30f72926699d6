package health_test

import (
	"strings"
	"testing"

	"hamband/internal/core"
	"hamband/internal/crdt"
	"hamband/internal/health"
	"hamband/internal/rdma"
	"hamband/internal/sim"
	"hamband/internal/spec"
)

// TestCollectWithoutFreeBuffers watches an account cluster — a reducible and
// a conflicting method, so no F buffers and a nil broadcast receiver on every
// replica — through a leader suspension, its restore and a leave: every
// snapshot collects with no inbound rings to report, every watchdog rule
// evaluates on it, and the only rule the faults may trip is leaderless.
func TestCollectWithoutFreeBuffers(t *testing.T) {
	eng := sim.NewEngine(7)
	fab := rdma.NewFabric(eng, 4, rdma.DefaultLatency())
	c := core.NewCluster(fab, spec.MustAnalyze(crdt.NewAccount()), core.DefaultOptions())
	defer c.Stop()
	wd := health.NewWatchdog(health.Config{})
	watch := func(d sim.Duration) {
		for end := eng.Now() + sim.Time(d); eng.Now() < end; {
			eng.RunFor(100 * sim.Microsecond)
			s := health.Collect(eng.Now(), c)
			for _, n := range s.Nodes {
				if len(n.Rings) != 0 {
					t.Fatalf("node %d reports %d inbound rings for a class without F buffers", n.Node, len(n.Rings))
				}
			}
			wd.Observe(s)
		}
	}
	c.Replica(1).Invoke(crdt.AccountDeposit, spec.ArgsI(50), nil)
	watch(sim.Millisecond)
	c.Replica(0).Beater().Suspend()
	fab.Node(0).Suspend()
	watch(3 * sim.Millisecond)
	fab.Node(0).Resume()
	c.Replica(0).Beater().Resume()
	watch(3 * sim.Millisecond)
	left := false
	c.Leave(3, func(err error) {
		if err != nil {
			t.Errorf("Leave(3): %v", err)
		}
		left = true
	})
	watch(3 * sim.Millisecond)
	if !left {
		t.Fatal("Leave(3) never completed")
	}
	for _, f := range wd.Firings() {
		if f.Rule != health.RuleLeaderless {
			t.Errorf("unexpected firing: %+v", f)
		}
	}
}

// TestSlotFloorStallFires suspends node 1 of a counter cluster — reducible
// only, so no F buffers and no ring floors — across Leave(2). A suspended
// node scans nothing, so its summary-slot floor for source 2 stays parked,
// and floor-stalled must fire for that floor alone.
func TestSlotFloorStallFires(t *testing.T) {
	eng := sim.NewEngine(7)
	fab := rdma.NewFabric(eng, 3, rdma.DefaultLatency())
	c := core.NewCluster(fab, spec.MustAnalyze(crdt.NewCounter()), core.DefaultOptions())
	defer c.Stop()
	wd := health.NewWatchdog(health.Config{})
	c.Replica(2).Invoke(crdt.CounterAdd, spec.ArgsI(1), nil)
	eng.RunFor(sim.Millisecond)
	fab.Node(1).Suspend()
	left := false
	c.Leave(2, func(err error) {
		if err != nil {
			t.Errorf("Leave(2): %v", err)
		}
		left = true
	})
	var s *health.Snapshot
	for i := 0; i < 10; i++ {
		eng.RunFor(100 * sim.Microsecond)
		s = health.Collect(eng.Now(), c)
		wd.Observe(s)
	}
	if !left {
		t.Fatal("Leave(2) never completed")
	}
	if s.Nodes[1].Floors[2].Pending() == 0 {
		t.Fatal("node 1's slot floor for source 2 is not parked: the case tests nothing")
	}
	fs := wd.Firings()
	if len(fs) != 1 || fs[0].Rule != health.RuleFloorStalled || fs[0].Node != 1 ||
		!strings.Contains(fs[0].Detail, "slot epoch floor") || !strings.Contains(fs[0].Detail, "src 2") {
		t.Fatalf("firings %+v, want one floor-stalled on node 1's slot floor for src 2", fs)
	}
}
