package core

import (
	"errors"
	"slices"
	"testing"

	"hamband/internal/crdt"
	"hamband/internal/schema"
	"hamband/internal/sim"
	"hamband/internal/spec"
)

// The Mu SMR baseline of the evaluation is this runtime over spec.Serialized:
// every update conflicting, one synchronization group, one leader. The tests
// below pin what state machine replication promises of it.

// logApplies wraps cls's update methods so that every application is recorded,
// in order, under the state it was applied to. A replica's stored state
// (Replica.live.base) is one such state for the cluster's whole life, so its
// entry is the order in which that replica applied decided calls; the clones
// of permissibility checks and of the leader's speculation have entries of
// their own.
func logApplies(cls *spec.Class) map[spec.State][]string {
	log := make(map[spec.State][]string)
	cls.Methods = slices.Clone(cls.Methods)
	for u := range cls.Methods {
		m := &cls.Methods[u]
		if m.Kind != spec.Update {
			continue
		}
		name, apply := m.Name, m.Apply
		m.Apply = func(s spec.State, a spec.Args) {
			log[s] = append(log[s], name+"("+a.String()+")")
			apply(s, a)
		}
	}
	return log
}

// Total order and convergence: deposits and withdrawals race from every node —
// deposit is reducible under the account's own analysis and would bypass the
// leader — and every replica applies the same calls in the same order.
func TestSerializedTotalOrder(t *testing.T) {
	cls := spec.Serialized(crdt.NewAccount())
	log := logApplies(cls)
	h := newHarness(t, cls, 3, 61, nil)
	if got := len(h.cluster.An.SyncGroups); got != 1 || h.cluster.An.HasFreeBuffers() || h.cluster.Replica(0).haveSums {
		t.Fatalf("serialized account: %d sync groups, F buffers %v, summaries %v; want 1, false, false",
			got, h.cluster.An.HasFreeBuffers(), h.cluster.Replica(0).haveSums)
	}
	h.eng.At(0, func() {
		for i := int64(1); i <= 30; i++ {
			u := crdt.AccountDeposit
			if i%3 == 0 {
				u = crdt.AccountWithdraw
			}
			h.invoke(spec.ProcID(i%3), u, spec.ArgsI(i))
		}
	})
	if !h.drain(50 * sim.Millisecond) {
		t.Fatal("replication did not complete")
	}
	h.checkConvergence()
	accepted := 0
	for _, row := range h.issued {
		for _, k := range row {
			accepted += int(k)
		}
	}
	want := log[h.cluster.Replica(0).live.base]
	if len(want) != accepted || accepted < 20 {
		t.Fatalf("p0 applied %d calls, clients saw %d accepted (20 deposits at least)", len(want), accepted)
	}
	for p := 1; p < 3; p++ {
		if got := log[h.cluster.Replica(spec.ProcID(p)).live.base]; !slices.Equal(got, want) {
			t.Fatalf("p%d applied\n%v\np0 applied\n%v", p, got, want)
		}
	}
}

// Two racing withdrawals serialize at the leader: the one ordered second is
// rejected there, and its origin — a follower — is answered ErrImpermissible.
func TestSerializedRejectsAtOrderingPoint(t *testing.T) {
	h := newHarness(t, spec.Serialized(crdt.NewAccount()), 3, 61, nil)
	ok, rej := 0, 0
	h.eng.At(0, func() { h.invoke(0, crdt.AccountDeposit, spec.ArgsI(10)) })
	h.eng.At(sim.Time(2*sim.Millisecond), func() {
		done := func(_ any, err error) {
			switch {
			case err == nil:
				ok++
			case errors.Is(err, ErrImpermissible):
				rej++
			default:
				t.Errorf("unexpected: %v", err)
			}
		}
		h.cluster.Replica(1).Invoke(crdt.AccountWithdraw, spec.ArgsI(10), done)
		h.cluster.Replica(2).Invoke(crdt.AccountWithdraw, spec.ArgsI(10), done)
	})
	h.eng.RunUntil(sim.Time(50 * sim.Millisecond))
	if ok != 1 || rej != 1 {
		t.Fatalf("ok=%d rejected=%d, want 1/1", ok, rej)
	}
	for p := 0; p < 3; p++ {
		r := h.cluster.Replica(spec.ProcID(p))
		if bal := r.CurrentState().(*crdt.AccountState).Balance; bal != 0 {
			t.Fatalf("replica %d balance = %d, want 0", p, bal)
		}
		if got := r.applied.Get(1, crdt.AccountWithdraw) + r.applied.Get(2, crdt.AccountWithdraw); got != 1 {
			t.Fatalf("replica %d applied %d withdrawals, want 1", p, got)
		}
	}
}

// A schema whose own analysis has all three categories: with the declared
// dependencies dropped, the total order alone keeps the foreign keys — the link
// is ordered after the rows it references and is permissible at the leader.
func TestSerializedSchema(t *testing.T) {
	h := newHarness(t, spec.Serialized(schema.NewCourseware()), 3, 61, nil)
	h.eng.At(0, func() {
		h.invoke(0, schema.RefAddLeft, spec.ArgsI(1))
		h.invoke(1, schema.RefAddRight, spec.ArgsI(2))
	})
	h.eng.At(sim.Time(3*sim.Millisecond), func() { h.invoke(2, schema.RefLink, spec.ArgsI(1, 2)) })
	h.eng.RunUntil(sim.Time(3 * sim.Millisecond))
	if !h.drain(50 * sim.Millisecond) {
		t.Fatal("replication did not complete")
	}
	for p := 0; p < 3; p++ {
		st := h.cluster.Replica(spec.ProcID(p)).CurrentState().(*schema.RefState)
		if len(st.Links) != 1 {
			t.Fatalf("replica %d links = %d, want 1", p, len(st.Links))
		}
	}
}

// The one leader fails with calls of both followers in flight: the successor
// takes over, every call the clients were answered for is applied exactly once
// at both survivors, in one order, and later calls flow again.
func TestSerializedLeaderFailover(t *testing.T) {
	cls := spec.Serialized(crdt.NewCounter())
	log := logApplies(cls)
	h := newHarness(t, cls, 3, 61, nil)
	h.eng.At(0, func() { h.invoke(1, crdt.CounterAdd, spec.ArgsI(5)) })
	h.eng.At(sim.Time(3*sim.Millisecond), func() {
		for i := int64(0); i < 8; i++ {
			h.invoke(spec.ProcID(1+i%2), crdt.CounterAdd, spec.ArgsI(100+i))
		}
	})
	// The burst's requests are on the wire, none decided.
	h.eng.At(sim.Time(3*sim.Millisecond+500*sim.Nanosecond), func() {
		h.cluster.Replica(0).Beater().Suspend()
		h.fab.Node(0).Suspend()
	})
	h.eng.At(sim.Time(6*sim.Millisecond), func() { h.invoke(2, crdt.CounterAdd, spec.ArgsI(7)) })
	h.eng.RunUntil(sim.Time(6 * sim.Millisecond))
	if !h.drain(100 * sim.Millisecond) {
		t.Fatalf("replication did not complete after the leader failed (%d calls pending)", h.pending)
	}
	if h.cluster.Leader(1, 0) == 0 {
		t.Fatal("leader did not change")
	}
	var sum int64 = 5 + 7
	for i := int64(0); i < 8; i++ {
		sum += 100 + i
	}
	want := log[h.cluster.Replica(1).live.base]
	if len(want) != 10 || !slices.Equal(want, log[h.cluster.Replica(2).live.base]) {
		t.Fatalf("survivors applied\n%v\n%v\nwant the same 10 calls in the same order",
			want, log[h.cluster.Replica(2).live.base])
	}
	for p := spec.ProcID(1); p <= 2; p++ {
		if v := h.cluster.Replica(p).CurrentState().(*crdt.CounterState).V; v != sum {
			t.Fatalf("survivor p%d = %d, want %d", p, v, sum)
		}
	}
}

// Queries stay local: answered from the replica's own state, which has caught
// up with a decided update by then, in less than any verb's round trip.
func TestSerializedQueriesLocal(t *testing.T) {
	h := newHarness(t, spec.Serialized(crdt.NewCounter()), 3, 61, nil)
	var v any
	var took sim.Duration
	h.eng.At(0, func() { h.invoke(0, crdt.CounterAdd, spec.ArgsI(5)) })
	at := sim.Time(10 * sim.Millisecond)
	h.eng.At(at, func() {
		h.cluster.Replica(2).Invoke(crdt.CounterValue, spec.Args{}, func(got any, _ error) {
			v, took = got, sim.Duration(h.eng.Now()-at)
		})
	})
	h.eng.RunUntil(sim.Time(20 * sim.Millisecond))
	if v != any(int64(5)) {
		t.Fatalf("query = %v, want 5", v)
	}
	if took >= sim.Microsecond {
		t.Fatalf("query took %v: not answered locally", took)
	}
}
