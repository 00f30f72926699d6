package core

import (
	"errors"
	"slices"
	"testing"

	"hamband/internal/codec"
	"hamband/internal/schema"
	"hamband/internal/sim"
	"hamband/internal/spec"
)

func TestProjectManagementEndToEnd(t *testing.T) {
	// All three method categories in one run: reducible addEmployee,
	// conflicting addProject/worksOn with worksOn's dependencies on both.
	h := newHarness(t, schema.NewProjectManagement(), 4, 21, nil)
	h.eng.At(0, func() {
		h.invoke(2, schema.RefAddRight, spec.ArgsI(7, 8)) // addEmployee {7,8}
		h.invoke(1, schema.RefAddLeft, spec.ArgsI(3))     // addProject 3
	})
	h.eng.At(sim.Time(3*sim.Millisecond), func() {
		h.invoke(3, schema.RefLink, spec.ArgsI(3, 7)) // worksOn(3,7)
	})
	h.eng.RunUntil(sim.Time(4 * sim.Millisecond)) // pass all issue times
	if !h.drain(100 * sim.Millisecond) {
		t.Fatal("replication did not complete")
	}
	h.checkConvergence()
	st := h.cluster.Replica(2).CurrentState().(*schema.RefState)
	if !st.Left[3] || !st.Right[7] || !st.Right[8] || len(st.Links) != 1 {
		t.Fatalf("final state = %+v", st)
	}
}

func TestWorksOnRejectedWithoutEntities(t *testing.T) {
	h := newHarness(t, schema.NewProjectManagement(), 3, 22, nil)
	var rejected bool
	h.eng.At(0, func() {
		h.cluster.Replica(1).Invoke(schema.RefLink, spec.ArgsI(5, 5), func(_ any, err error) {
			rejected = errors.Is(err, ErrImpermissible)
		})
	})
	h.eng.RunUntil(sim.Time(50 * sim.Millisecond))
	if !rejected {
		t.Fatal("dangling worksOn was not rejected by the leader")
	}
	h.checkConvergence()
}

func TestCascadingDeleteReplicated(t *testing.T) {
	h := newHarness(t, schema.NewCourseware(), 3, 23, nil)
	h.eng.At(0, func() {
		h.invoke(0, schema.RefAddLeft, spec.ArgsI(1))  // addCourse
		h.invoke(1, schema.RefAddRight, spec.ArgsI(9)) // registerStudent
	})
	h.eng.At(sim.Time(3*sim.Millisecond), func() {
		h.invoke(2, schema.RefLink, spec.ArgsI(1, 9)) // enroll
	})
	h.eng.At(sim.Time(6*sim.Millisecond), func() {
		h.invoke(1, schema.RefDelLeft, spec.ArgsI(1)) // deleteCourse cascades
	})
	h.eng.RunUntil(sim.Time(7 * sim.Millisecond)) // pass all issue times
	if !h.drain(100 * sim.Millisecond) {
		t.Fatal("replication did not complete")
	}
	h.checkConvergence()
	st := h.cluster.Replica(0).CurrentState().(*schema.RefState)
	if st.Left[1] || len(st.Links) != 0 {
		t.Fatalf("cascade not replicated: %+v", st)
	}
	if !st.Right[9] {
		t.Fatal("student relation affected by course delete")
	}
}

func TestMovieTwoLeaders(t *testing.T) {
	// The movie schema's two synchronization groups get two distinct
	// leaders (p0 and p1), the mechanism behind Figure 10's speedup.
	h := newHarness(t, schema.NewMovie(), 4, 24, nil)
	an := h.cluster.An
	g0 := an.SyncGroupOf[schema.MovieAddCustomer]
	g1 := an.SyncGroupOf[schema.MovieAddMovie]
	if h.cluster.Leader(0, g0) == h.cluster.Leader(0, g1) {
		t.Fatal("both groups share a leader")
	}
	h.eng.At(0, func() {
		for i := int64(0); i < 10; i++ {
			h.invoke(spec.ProcID(i%4), schema.MovieAddCustomer, spec.ArgsI(i))
			h.invoke(spec.ProcID((i+1)%4), schema.MovieAddMovie, spec.ArgsI(i))
		}
	})
	h.eng.At(sim.Time(5*sim.Millisecond), func() {
		h.invoke(2, schema.MovieDelCustomer, spec.ArgsI(3))
		h.invoke(3, schema.MovieDelMovie, spec.ArgsI(4))
	})
	h.eng.RunUntil(sim.Time(6 * sim.Millisecond)) // pass all issue times
	if !h.drain(100 * sim.Millisecond) {
		t.Fatal("replication did not complete")
	}
	h.checkConvergence()
	st := h.cluster.Replica(3).CurrentState().(*schema.MovieState)
	if len(st.Customers) != 9 || len(st.Movies) != 9 {
		t.Fatalf("customers=%d movies=%d, want 9/9", len(st.Customers), len(st.Movies))
	}
}

func TestCoursewareLeaderFailure(t *testing.T) {
	// Figure 13's scenario on the real runtime: the courseware sync-group
	// leader fails; conflict-free registerStudent keeps flowing and
	// conflicting enrolls resume after the leader change.
	h := newHarness(t, schema.NewCourseware(), 4, 25, nil)
	h.eng.At(0, func() {
		h.invoke(1, schema.RefAddLeft, spec.ArgsI(1))
		h.invoke(2, schema.RefAddRight, spec.ArgsI(5))
	})
	h.eng.At(sim.Time(5*sim.Millisecond), func() {
		h.cluster.Replica(0).Beater().Suspend()
		h.fab.Node(0).Suspend()
	})
	regDone, enrollDone := false, false
	h.eng.At(sim.Time(6*sim.Millisecond), func() {
		// Conflict-free call during the fail-over window.
		h.cluster.Replica(2).Invoke(schema.RefAddRight, spec.ArgsI(6), func(_ any, err error) {
			regDone = err == nil
		})
	})
	h.eng.At(sim.Time(10*sim.Millisecond), func() {
		h.cluster.Replica(3).Invoke(schema.RefLink, spec.ArgsI(1, 5), func(_ any, err error) {
			if err != nil {
				t.Errorf("post-failover enroll: %v", err)
			}
			enrollDone = true
		})
	})
	h.eng.RunUntil(sim.Time(200 * sim.Millisecond))
	if !regDone {
		t.Fatal("conflict-free call blocked by leader failure")
	}
	if !enrollDone {
		t.Fatal("enroll after leader failure never completed")
	}
	if h.cluster.Leader(2, 0) == 0 {
		t.Fatal("leader change did not happen")
	}
	s2 := h.cluster.Replica(2).CurrentState()
	s3 := h.cluster.Replica(3).CurrentState()
	if !s2.Equal(s3) {
		t.Fatal("survivors diverged")
	}
	st := s2.(*schema.RefState)
	if len(st.Links) != 1 || !st.Right[5] || !st.Right[6] {
		t.Fatalf("final state = %+v", st)
	}
}

func TestTournamentCapacityRace(t *testing.T) {
	// The tournament's signature behaviour: two racing enrollments into a
	// one-seat tournament serialize at the group leader; exactly one wins.
	h := newHarness(t, schema.NewTournament(), 3, 121, nil)
	h.eng.At(0, func() {
		h.invoke(1, schema.TournAddPlayer, spec.ArgsI(1, 2))
		h.invoke(0, schema.TournAdd, spec.ArgsI(9, 1)) // capacity 1
	})
	ok, rej := 0, 0
	h.eng.At(sim.Time(3*sim.Millisecond), func() {
		done := func(_ any, err error) {
			switch {
			case err == nil:
				ok++
			case errors.Is(err, ErrImpermissible):
				rej++
			default:
				t.Errorf("unexpected error: %v", err)
			}
		}
		h.cluster.Replica(1).Invoke(schema.TournEnroll, spec.ArgsI(1, 9), done)
		h.cluster.Replica(2).Invoke(schema.TournEnroll, spec.ArgsI(2, 9), done)
	})
	h.eng.RunUntil(sim.Time(50 * sim.Millisecond))
	if ok != 1 || rej != 1 {
		t.Fatalf("ok=%d rejected=%d, want exactly one seat filled", ok, rej)
	}
	h.eng.RunUntil(sim.Time(60 * sim.Millisecond))
	for p := spec.ProcID(0); p < 3; p++ {
		st := h.cluster.Replica(p).CurrentState().(*schema.TournamentState)
		if got := st.Capacities[9]; got != 1 {
			t.Fatalf("capacity at p%d = %d", p, got)
		}
		if !h.cluster.Replica(0).CurrentState().Equal(h.cluster.Replica(p).CurrentState()) {
			t.Fatalf("p%d diverged", p)
		}
	}
}

// TestApplyServesLBuffersRoundRobin is the regression test for L-buffer
// starvation: with a backlog in both of movie's sync groups the apply pump
// must alternate between them instead of draining group 0 first, while the
// F buffers keep their priority and every queue stays FIFO.
func TestApplyServesLBuffersRoundRobin(t *testing.T) {
	h := newHarness(t, schema.NewMovie(), 3, 24, nil)
	r := h.cluster.Replica(2)
	if len(r.lQueues) != 2 {
		t.Fatalf("movie has %d sync groups, want 2", len(r.lQueues))
	}
	entry := func(u spec.MethodID, seq uint64) []byte {
		return codec.AppendCall(nil, spec.Call{Method: u, Args: spec.ArgsI(int64(seq)), Proc: 0, Seq: seq}, nil)
	}
	methods := [2]spec.MethodID{schema.MovieAddCustomer, schema.MovieAddMovie}
	for g, u := range methods {
		if r.an.SyncGroupOf[u] != g {
			t.Fatalf("method %d is in sync group %d, want %d", u, r.an.SyncGroupOf[u], g)
		}
	}
	for i := uint64(0); i < 3; i++ {
		r.lQueues[0].Push(entry(methods[0], 10+i))
		r.lQueues[1].Push(entry(methods[1], 20+i))
	}
	r.lQueues[1].Push(entry(methods[1], 23))
	r.lQueues[1].Push(entry(methods[1], 24))
	r.fQueues[0].Push(entry(methods[0], 1))

	// heads lists every buffer's oldest call (zero for an empty buffer), F
	// buffers first; served names the head each applyOne consumed.
	heads := func() (seqs []uint64, depth []int) {
		for _, qs := range [][]callBuffer{r.fQueues, r.lQueues} {
			for i := range qs {
				seq := uint64(0)
				if qs[i].Len() > 0 {
					seq = qs[i].Head().C.Seq
				}
				seqs, depth = append(seqs, seq), append(depth, qs[i].Len())
			}
		}
		return seqs, depth
	}
	var served []uint64
	for before, was := heads(); r.applyOne(); before, was = heads() {
		_, now := heads()
		for i := range now {
			if now[i] < was[i] {
				served = append(served, before[i])
			}
		}
	}
	// F first; then the groups alternate until group 0 runs dry, after which
	// group 1 is served back to back.
	want := []uint64{1, 10, 20, 11, 21, 12, 22, 23, 24}
	if !slices.Equal(served, want) {
		t.Fatalf("served %v, want %v", served, want)
	}
}
