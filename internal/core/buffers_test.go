package core

import (
	"runtime"
	"strings"
	"testing"

	"hamband/internal/broadcast"
	"hamband/internal/crdt"
	"hamband/internal/rdma"
	"hamband/internal/schema"
	"hamband/internal/sim"
	"hamband/internal/spec"
)

// chargedUnder returns a sim.CPU observer that adds to *sum the cost of every
// work item submitted from under a function whose name contains site. The
// observer runs on the submitter's stack, so a receiver's poll sweeps and the
// READ posts of its backup recovery are both visible this way.
func chargedUnder(site string, sum *sim.Duration) func(sim.Duration) {
	return func(cost sim.Duration) {
		var pcs [16]uintptr
		frames := runtime.CallersFrames(pcs[:runtime.Callers(2, pcs[:])])
		for {
			f, more := frames.Next()
			if strings.Contains(f.Function, site) {
				*sum += cost
				return
			}
			if !more {
				return
			}
		}
	}
}

// TestFreeBuffersFollowAnalysis pins the rule on every bundled class: the
// reliable-broadcast regions, the receiver and its poller exist on a node iff
// the analysis finds an irreducible conflict-free method, and an idle cluster
// of a class without one spends no CPU polling rings nothing can write.
func TestFreeBuffersFollowAnalysis(t *testing.T) {
	const n = 4
	for _, cls := range schema.Bundled() {
		h := newHarness(t, cls, n, 1, nil)
		want := h.cluster.An.HasFreeBuffers()
		polled := make([]sim.Duration, n)
		for i := 0; i < n; i++ {
			node := h.fab.Node(rdma.NodeID(i))
			names := []string{"rb-backup"}
			for s := 0; s < n; s++ {
				if s != i {
					names = append(names, broadcast.InboundRegion("", rdma.NodeID(s)))
				}
			}
			for _, name := range names {
				if got := node.Region(name) != nil; got != want {
					t.Errorf("%s: node %d region %q registered = %v, want %v", cls.Name, i, name, got, want)
				}
			}
			if got := h.cluster.Replica(spec.ProcID(i)).Receiver() != nil; got != want {
				t.Errorf("%s: node %d has a receiver = %v, want %v", cls.Name, i, got, want)
			}
			node.CPU.Observe = chargedUnder("broadcast.(*Receiver).poll", &polled[i])
		}
		h.eng.RunFor(100 * sim.Microsecond)
		for i, d := range polled {
			if got := d > 0; got != want {
				t.Errorf("%s: node %d spent %v polling F rings while idle, want polling = %v", cls.Name, i, d, want)
			}
		}
		h.cluster.Stop()
	}
}

// TestFaultPathsWithoutFreeBuffers drives every path that used to touch the
// receiver unconditionally — suspicion, restore, leave with a leader handoff,
// join, the stale-reject total, Stop — on the account, which has a reducible
// and a conflicting method and no F buffers. Each must run on the nil
// receiver, converge, and post no recovery READ: there is no backup region.
func TestFaultPathsWithoutFreeBuffers(t *testing.T) {
	h := newHarness(t, crdt.NewAccount(), 4, 19, nil)
	if h.cluster.An.HasFreeBuffers() {
		t.Fatal("test premise broken: the account gained an irreducible conflict-free method")
	}
	var recovery sim.Duration
	for i := 0; i < 4; i++ {
		h.fab.Node(rdma.NodeID(i)).CPU.Observe = chargedUnder("broadcast.(*Receiver).recoverSweep", &recovery)
	}
	settle := func(stage string) {
		t.Helper()
		if !h.drain(100 * sim.Millisecond) {
			t.Fatalf("%s: replication did not complete", stage)
		}
		h.checkConvergence()
	}
	h.eng.At(0, func() {
		h.invoke(0, crdt.AccountDeposit, spec.ArgsI(100))
		h.invoke(1, crdt.AccountWithdraw, spec.ArgsI(10))
	})
	settle("before the fault")

	// Suspend the withdraw-group leader: its peers suspect it, recover and
	// elect; a withdraw issued meanwhile completes under the new leader.
	h.eng.At(h.eng.Now()+1, func() {
		h.cluster.Replica(0).Beater().Suspend()
		h.fab.Node(0).Suspend()
	})
	h.eng.RunFor(2 * sim.Millisecond)
	if got := h.cluster.Replica(1).Suspects(); len(got) != 1 || got[0] != 0 {
		t.Fatalf("p1 suspects %v, want [0]", got)
	}
	h.eng.At(h.eng.Now()+1, func() { h.invoke(2, crdt.AccountWithdraw, spec.ArgsI(5)) })
	settle("under suspicion")
	leader := h.cluster.Leader(1, 0)
	if leader == 0 {
		t.Fatal("no leader change after the leader was suspended")
	}
	h.eng.At(h.eng.Now()+1, func() {
		h.fab.Node(0).Resume()
		h.cluster.Replica(0).Beater().Resume()
	})
	h.eng.RunFor(2 * sim.Millisecond)
	if got := h.cluster.Replica(1).Suspects(); len(got) != 0 {
		t.Fatalf("p1 still suspects %v after the restore", got)
	}
	settle("after the restore")

	// Leave of the current leader (handoff), then join: the commit has no
	// inbound ring permission to revoke or grant and no ring floor to raise.
	if err := h.reconfigure(false, int(leader), h.eng.Now()+1); err != nil {
		t.Fatalf("Leave(%d): %v", leader, err)
	}
	h.eng.RunFor(5 * sim.Millisecond)
	member := (leader + 1) % 4
	if got := h.cluster.Leader(member, 0); got == leader {
		t.Fatalf("departed node %d still leads group 0", leader)
	}
	h.eng.At(h.eng.Now()+1, func() { h.invoke(member, crdt.AccountWithdraw, spec.ArgsI(20)) })
	settle("after the leave")
	if err := h.reconfigure(true, int(leader), h.eng.Now()+1); err != nil {
		t.Fatalf("Join(%d): %v", leader, err)
	}
	h.eng.At(h.eng.Now()+1, func() { h.invoke(leader, crdt.AccountDeposit, spec.ArgsI(1)) })
	settle("after the join")

	if st := h.cluster.Replica(member).CurrentState().(*crdt.AccountState); st.Balance != 66 {
		t.Fatalf("balance = %d, want 66", st.Balance)
	}
	if got := h.cluster.StaleRejects(); got != 0 {
		t.Fatalf("StaleRejects = %d on a run with no stale writer", got)
	}
	if recovery != 0 {
		t.Fatalf("%v of CPU spent posting backup-region READs for a class without F buffers", recovery)
	}
	h.cluster.Stop()
	h.eng.Run()
	if h.eng.Pending() != 0 {
		t.Fatalf("engine still has %d pending events after Stop", h.eng.Pending())
	}
}

// TestInvariantSufficientSkipsTheClone pins the permissibility shortcut on a
// 256-course courseware state: addCourse is declared invariant-sufficient, so
// neither the replica's check nor the leader's speculative one clones the
// state; enroll is guarded, still pays the clone, and is still rejected
// without its course.
func TestInvariantSufficientSkipsTheClone(t *testing.T) {
	h := newHarness(t, schema.NewCourseware(), 1, 3, nil)
	r := h.cluster.Replica(0)
	h.eng.At(0, func() {
		for k := int64(0); k < 256; k++ {
			h.invoke(0, schema.RefAddLeft, spec.ArgsI(k))
		}
		h.invoke(0, schema.RefAddRight, spec.ArgsI(7))
	})
	if !h.drain(50 * sim.Millisecond) {
		t.Fatal("state was not built")
	}
	if got := len(r.CurrentState().(*schema.RefState).Left); got != 256 {
		t.Fatalf("state holds %d courses, want 256", got)
	}
	addCourse := spec.Call{Method: schema.RefAddLeft, Args: spec.ArgsI(1000)}
	enroll := spec.Call{Method: schema.RefLink, Args: spec.ArgsI(5, 7)}
	orphan := spec.Call{Method: schema.RefLink, Args: spec.ArgsI(1000, 7)}
	for name, check := range map[string]func(spec.Call) bool{"permissible": r.permissible, "specPermissible": r.specPermissible} {
		if !check(addCourse) || !check(enroll) {
			t.Fatalf("%s refused a permissible call", name)
		}
		if check(orphan) {
			t.Fatalf("%s admitted an enroll without its course", name)
		}
		if allocs := testing.AllocsPerRun(100, func() { check(addCourse) }); allocs != 0 {
			t.Errorf("%s(addCourse) allocates %.0f objects, want 0: the state is still cloned", name, allocs)
		}
		if allocs := testing.AllocsPerRun(100, func() { check(enroll) }); allocs == 0 {
			t.Errorf("%s(enroll) allocates nothing: a guarded call must be checked against a copy of the state", name)
		}
	}
}
