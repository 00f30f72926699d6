package msgcrdt

import (
	"testing"

	"hamband/internal/codec"
	"hamband/internal/crdt"
	"hamband/internal/msgnet"
	"hamband/internal/rdma"
	"hamband/internal/sim"
	"hamband/internal/spec"
)

func setup(t *testing.T, cls *spec.Class, n int) (*sim.Engine, *Cluster) {
	t.Helper()
	eng := sim.NewEngine(51)
	net := msgnet.New(eng, n, msgnet.DefaultCost())
	c, err := NewCluster(net, spec.MustAnalyze(cls), rdma.DefaultLatency().CallCosts)
	if err != nil {
		t.Fatal(err)
	}
	return eng, c
}

func TestCounterConverges(t *testing.T) {
	eng, c := setup(t, crdt.NewCounter(), 3)
	eng.At(0, func() {
		c.Replica(0).Invoke(crdt.CounterAdd, spec.ArgsI(3), nil)
		c.Replica(1).Invoke(crdt.CounterAdd, spec.ArgsI(4), nil)
		c.Replica(2).Invoke(crdt.CounterAdd, spec.ArgsI(5), nil)
	})
	eng.RunUntil(sim.Time(10 * sim.Millisecond))
	for p := 0; p < 3; p++ {
		st := c.Replica(spec.ProcID(p)).CurrentState().(*crdt.CounterState)
		if st.V != 12 {
			t.Fatalf("replica %d = %d, want 12", p, st.V)
		}
	}
}

func TestQueryIsLocal(t *testing.T) {
	eng, c := setup(t, crdt.NewCounter(), 2)
	var before, after any
	eng.At(0, func() { c.Replica(0).Invoke(crdt.CounterAdd, spec.ArgsI(9), nil) })
	// Queried immediately, the remote replica has not seen the update yet
	// (message latency is ~15 µs); later it has.
	eng.At(sim.Time(2*sim.Microsecond), func() {
		c.Replica(1).Invoke(crdt.CounterValue, spec.Args{}, func(v any, _ error) { before = v })
	})
	eng.At(sim.Time(5*sim.Millisecond), func() {
		c.Replica(1).Invoke(crdt.CounterValue, spec.Args{}, func(v any, _ error) { after = v })
	})
	eng.RunUntil(sim.Time(10 * sim.Millisecond))
	if before != any(int64(0)) {
		t.Fatalf("early remote read = %v, want 0 (eventual consistency)", before)
	}
	if after != any(int64(9)) {
		t.Fatalf("late remote read = %v, want 9", after)
	}
}

func TestORSetConvergesUnderConcurrency(t *testing.T) {
	eng, c := setup(t, crdt.NewORSet(), 3)
	eng.At(0, func() {
		// Concurrent add and remove of the same element with distinct tags:
		// the add survives (observed-remove semantics).
		c.Replica(0).Invoke(crdt.ORSetAdd, spec.ArgsI(5, crdt.Tag(0, 1)), nil)
		c.Replica(1).Invoke(crdt.ORSetAdd, spec.ArgsI(5, crdt.Tag(1, 1)), nil)
	})
	eng.At(sim.Time(5*sim.Millisecond), func() {
		c.Replica(2).Invoke(crdt.ORSetRemove, spec.ArgsI(5, crdt.Tag(0, 1)), nil)
	})
	eng.RunUntil(sim.Time(20 * sim.Millisecond))
	var states []spec.State
	for p := 0; p < 3; p++ {
		states = append(states, c.Replica(spec.ProcID(p)).CurrentState())
	}
	if !states[0].Equal(states[1]) || !states[1].Equal(states[2]) {
		t.Fatal("replicas diverged")
	}
	cls := crdt.NewORSet()
	if got := cls.Methods[crdt.ORSetContains].Eval(states[0], spec.ArgsI(5)); got != true {
		t.Fatal("surviving add lost")
	}
}

func TestRejectsConflictingClass(t *testing.T) {
	eng := sim.NewEngine(1)
	net := msgnet.New(eng, 2, msgnet.DefaultCost())
	if _, err := NewCluster(net, spec.MustAnalyze(crdt.NewAccount()), rdma.DefaultLatency().CallCosts); err == nil {
		t.Fatal("MSG baseline accepted a class with conflicting methods")
	}
}

func TestFailedReplicaRejectsCalls(t *testing.T) {
	eng, c := setup(t, crdt.NewCounter(), 2)
	c.Net.Node(0).Fail()
	var got error
	eng.At(0, func() {
		c.Replica(0).Invoke(crdt.CounterAdd, spec.ArgsI(1), func(_ any, err error) { got = err })
	})
	eng.RunUntil(sim.Time(sim.Millisecond))
	if got == nil {
		t.Fatal("failed replica accepted a call")
	}
}

func TestAppliedCountsTrackReplication(t *testing.T) {
	eng, c := setup(t, crdt.NewGSet(), 3)
	eng.At(0, func() {
		for i := int64(0); i < 10; i++ {
			c.Replica(spec.ProcID(i%3)).Invoke(crdt.GSetAdd, spec.ArgsI(i), nil)
		}
	})
	eng.RunUntil(sim.Time(20 * sim.Millisecond))
	for p := 0; p < 3; p++ {
		total := uint32(0)
		for src := 0; src < 3; src++ {
			total += c.Replica(spec.ProcID(p)).Applied().Get(spec.ProcID(src), crdt.GSetAdd)
		}
		if total != 10 {
			t.Fatalf("replica %d applied %d calls, want 10", p, total)
		}
	}
}

// TestMalformedMessagesAreDropped: a message applies only if its call is one
// of the class's updates issued by the sender. Each malformed row would
// otherwise panic the receiver (a method past the class's, a query with no
// effector) or apply a call in another process's name.
func TestMalformedMessagesAreDropped(t *testing.T) {
	add := func(proc spec.ProcID) spec.Call {
		return spec.Call{Method: crdt.CounterAdd, Args: spec.ArgsI(5), Proc: proc, Seq: 1}
	}
	cases := []struct {
		name    string
		call    spec.Call
		applied uint32
	}{
		{"well-formed", add(0), 1},
		{"method 99", spec.Call{Method: 99, Args: spec.ArgsI(5), Proc: 0, Seq: 1}, 0},
		{"query method", spec.Call{Method: crdt.CounterValue, Proc: 0, Seq: 1}, 0},
		{"process is not the sender", add(2), 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			eng, cl := setup(t, crdt.NewCounter(), 3)
			eng.At(0, func() { cl.Net.Node(0).Send(1, codec.AppendCall(nil, c.call, nil), nil) })
			func() {
				defer func() {
					if p := recover(); p != nil {
						t.Fatalf("receiver panicked: %v", p)
					}
				}()
				eng.RunUntil(sim.Time(10 * sim.Millisecond))
			}()
			r := cl.Replica(1)
			var applied uint32
			for _, row := range r.Applied() {
				for _, n := range row {
					applied += n
				}
			}
			v := r.CurrentState().(*crdt.CounterState).V
			if applied != c.applied || v != 5*int64(c.applied) {
				t.Fatalf("receiver applied %d calls, value %d; want %d calls", applied, v, c.applied)
			}
		})
	}
}
