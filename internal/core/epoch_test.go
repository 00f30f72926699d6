package core

import (
	"encoding/binary"
	"errors"
	"strings"
	"testing"
	"testing/quick"

	"hamband/internal/codec"
	"hamband/internal/crdt"
	"hamband/internal/rdma"
	"hamband/internal/sim"
	"hamband/internal/spec"
)

// reconfigure drives one membership change to completion and returns its
// error. The harness engine keeps running until the callback fires.
func (h *harness) reconfigure(join bool, target int, at sim.Time) error {
	fired := false
	var got error
	h.eng.At(at, func() {
		if join {
			h.cluster.Join(target, func(err error) { fired, got = true, err })
		} else {
			h.cluster.Leave(target, func(err error) { fired, got = true, err })
		}
	})
	for i := 0; i < 100 && !fired; i++ {
		h.eng.RunFor(100 * sim.Microsecond)
	}
	if !fired {
		h.t.Fatal("reconfiguration never resolved")
	}
	return got
}

func TestLeaveJoinRoundTrip(t *testing.T) {
	h := newHarness(t, crdt.NewCounter(), 4, 7, nil)
	h.eng.At(0, func() {
		for p := 0; p < 4; p++ {
			h.invoke(spec.ProcID(p), crdt.CounterAdd, spec.ArgsI(int64(p+1)))
		}
	})
	if !h.drain(50 * sim.Millisecond) {
		t.Fatal("pre-leave replication did not complete")
	}

	if err := h.reconfigure(false, 3, h.eng.Now()+1); err != nil {
		t.Fatalf("Leave(3): %v", err)
	}
	if h.cluster.IsMember(3) || h.cluster.Epoch() != 1 {
		t.Fatalf("after leave: member=%v epoch=%d, want false/1", h.cluster.IsMember(3), h.cluster.Epoch())
	}

	// Members keep working — and keep fanning out to the observer, which
	// therefore stays warm while out of the configuration.
	h.eng.At(h.eng.Now()+1, func() {
		for p := 0; p < 3; p++ {
			h.invoke(spec.ProcID(p), crdt.CounterAdd, spec.ArgsI(10))
		}
	})
	if !h.drain(50 * sim.Millisecond) {
		t.Fatal("mid-leave replication did not complete")
	}
	if st := h.cluster.Replica(3).CurrentState().(*crdt.CounterState); st.V != 40 {
		t.Fatalf("observer state = %d, want 40 (left node no longer receives fan-out)", st.V)
	}

	if err := h.reconfigure(true, 3, h.eng.Now()+1); err != nil {
		t.Fatalf("Join(3): %v", err)
	}
	if !h.cluster.IsMember(3) || h.cluster.Epoch() != 2 {
		t.Fatalf("after join: member=%v epoch=%d, want true/2", h.cluster.IsMember(3), h.cluster.Epoch())
	}
	for i := 0; i < 4; i++ {
		buf := h.fab.Node(0).Region(epochRegion("")).Bytes()
		if got := binary.LittleEndian.Uint64(buf); got != 2 {
			t.Fatalf("node %d epoch word = %d, want 2", i, got)
		}
	}

	// The rejoined node writes again and everyone converges.
	h.eng.At(h.eng.Now()+1, func() {
		for p := 0; p < 4; p++ {
			h.invoke(spec.ProcID(p), crdt.CounterAdd, spec.ArgsI(100))
		}
	})
	if !h.drain(50 * sim.Millisecond) {
		t.Fatal("post-join replication did not complete")
	}
	h.checkConvergence()
	if st := h.cluster.Replica(0).CurrentState().(*crdt.CounterState); st.V != 440 {
		t.Fatalf("final counter = %d, want 440", st.V)
	}
}

func TestLeaveRevokesWrites(t *testing.T) {
	h := newHarness(t, crdt.NewCounter(), 3, 11, nil)
	h.eng.At(0, func() { h.invoke(0, crdt.CounterAdd, spec.ArgsI(1)) })
	if !h.drain(20 * sim.Millisecond) {
		t.Fatal("replication did not complete")
	}
	if err := h.reconfigure(false, 2, h.eng.Now()+1); err != nil {
		t.Fatalf("Leave(2): %v", err)
	}
	h.eng.RunFor(1 * sim.Millisecond)

	// A call issued at the departed node is acked locally (the node does
	// not know better) but its remote write is refused at every member's
	// NIC: member state must not move.
	h.cluster.Replica(2).Invoke(crdt.CounterAdd, spec.ArgsI(50), nil)
	h.eng.RunFor(2 * sim.Millisecond)
	for p := 0; p < 2; p++ {
		if st := h.cluster.Replica(spec.ProcID(p)).CurrentState().(*crdt.CounterState); st.V != 1 {
			t.Fatalf("member %d counter = %d after a departed node's write, want 1", p, st.V)
		}
	}

	// The write did land in the departed node's own slot. A member's fresh
	// query must not read it from there: it answers 1, leaves the member at 1
	// and counts no stale reject, since nothing stale was read.
	var got any
	h.cluster.Replica(0).InvokeFresh(crdt.CounterValue, spec.Args{}, func(v any, err error) {
		if err != nil {
			t.Errorf("fresh query: %v", err)
		}
		got = v
	})
	h.eng.RunFor(1 * sim.Millisecond)
	if st := h.cluster.Replica(0).CurrentState().(*crdt.CounterState); got != int64(1) || st.V != 1 {
		t.Fatalf("fresh query at member 0 = %v, counter %d after the departed node's write, want 1 and 1", got, st.V)
	}
	if n := h.cluster.StaleRejects(); n != 0 {
		t.Fatalf("%d stale rejects, want 0: the departed node's slot is not read", n)
	}

	// Reconfiguring the same node again fails cleanly.
	if err := h.reconfigure(false, 2, h.eng.Now()+1); !errors.Is(err, ErrNotMember) {
		t.Fatalf("second Leave(2) = %v, want ErrNotMember", err)
	}
}

// TestRejoinedWriterReanchors pins that a rejoined node's next reducible
// call ships an anchor stamped with the join epoch. The members' floor for
// the node stays at its departure epoch, so an anchor it wrote before it left
// is refused, and the δ-record of a call it made while out is a hole at the
// head of their copy of its log: without the re-anchor no fetch, repair or
// fresh read of its slot would adopt its calls.
func TestRejoinedWriterReanchors(t *testing.T) {
	h := newHarness(t, crdt.NewCounter(), 3, 17, nil)
	h.eng.At(0, func() { h.invoke(2, crdt.CounterAdd, spec.ArgsI(1)) }) // p2's first anchor, at epoch 0
	if !h.drain(20 * sim.Millisecond) {
		t.Fatal("replication did not complete")
	}
	if err := h.reconfigure(false, 2, h.eng.Now()+1); err != nil {
		t.Fatalf("Leave(2): %v", err)
	}
	h.eng.RunFor(1 * sim.Millisecond)
	h.cluster.Replica(2).Invoke(crdt.CounterAdd, spec.ArgsI(50), nil) // refused at every member's NIC
	h.eng.RunFor(1 * sim.Millisecond)
	if err := h.reconfigure(true, 2, h.eng.Now()+1); err != nil {
		t.Fatalf("Join(2): %v", err)
	}

	// The summary is cumulative: the call after the join carries the one
	// refused while out, and a member's fresh query issued with it sees both.
	var got any
	h.eng.At(h.eng.Now()+1, func() {
		h.cluster.Replica(2).Invoke(crdt.CounterAdd, spec.ArgsI(7), nil)
		h.cluster.Replica(0).InvokeFresh(crdt.CounterValue, spec.Args{}, func(v any, err error) {
			if err != nil {
				t.Errorf("fresh query: %v", err)
			}
			got = v
		})
	})
	h.eng.RunFor(2 * sim.Millisecond)
	if got != int64(58) {
		t.Fatalf("fresh query at member 0 = %v after the rejoined node's call, want 58", got)
	}
	for p := 0; p < 3; p++ {
		if st := h.cluster.Replica(spec.ProcID(p)).CurrentState().(*crdt.CounterState); st.V != 58 {
			t.Fatalf("p%d counter = %d after the rejoined node's call, want 58", p, st.V)
		}
	}
}

// TestStaleSlotFrameRejected plants a summary anchor stamped with the
// departed node's old epoch directly in a member's region — the landed-but-
// unadopted write a revocation race leaves behind — and asserts the scanner
// refuses it, counts it, and leaves the member's state untouched.
func TestStaleSlotFrameRejected(t *testing.T) {
	h := newHarness(t, crdt.NewCounter(), 3, 13, nil)
	h.eng.At(0, func() { h.invoke(2, crdt.CounterAdd, spec.ArgsI(5)) })
	if !h.drain(20 * sim.Millisecond) {
		t.Fatal("replication did not complete")
	}
	if err := h.reconfigure(false, 2, h.eng.Now()+1); err != nil {
		t.Fatalf("Leave(2): %v", err)
	}
	h.eng.RunFor(1 * sim.Millisecond) // past the drain grace: the floor is up

	r0 := h.cluster.Replica(0)
	cur := r0.sums[0][2]
	frame, err := codec.EncodeDeltaRecord(codec.DeltaRecord{
		Kind:    codec.FrameAnchor,
		Version: cur.version + 1,
		Epoch:   0, // stale
		Counts:  []uint32{cur.counts[0] + 1},
		C:       spec.Call{Method: crdt.CounterAdd, Args: spec.ArgsI(999), Proc: 2, Seq: 99},
	})
	if err != nil {
		t.Fatal(err)
	}
	h.fab.Node(0).Region(sumRegionBase).Write(r0.slotOffset(0, 2), frame) // as a landing would

	h.eng.RunFor(1 * sim.Millisecond)
	if got := r0.sums[0][2].version; got != cur.version {
		t.Fatalf("stale-epoch anchor adopted (version %d, want %d)", got, cur.version)
	}
	if st := r0.CurrentState().(*crdt.CounterState); st.V != 5 {
		t.Fatalf("member state = %d after stale anchor, want 5", st.V)
	}
	if h.cluster.StaleRejects() == 0 {
		t.Fatal("stale-epoch rejection not counted")
	}
}

// TestConcurrentReconfigOneWinner is the epoch-serialization property test:
// however two concurrent reconfigurations land in time, the number that
// succeed equals the number of epochs committed — racing claims against the
// same epoch produce exactly one winner, the loser reports ErrEpochConflict,
// and membership stays consistent with the reported outcomes.
func TestConcurrentReconfigOneWinner(t *testing.T) {
	prop := func(seed int64, gap uint8) bool {
		h := newHarness(t, crdt.NewCounter(), 4, seed, nil)
		h.eng.At(0, func() { h.invoke(0, crdt.CounterAdd, spec.ArgsI(1)) })
		if !h.drain(20 * sim.Millisecond) {
			t.Error("replication did not complete")
			return false
		}
		var errs []error
		fired := 0
		start := h.eng.Now() + 1
		h.eng.At(start, func() {
			h.cluster.Leave(2, func(err error) { fired++; errs = append(errs, err) })
		})
		// The second claim lands 0..255 ns later: same tick or mid-flight
		// of the first — every interleaving must serialize.
		h.eng.At(start+sim.Time(gap), func() {
			h.cluster.Leave(3, func(err error) { fired++; errs = append(errs, err) })
		})
		for i := 0; i < 200 && fired < 2; i++ {
			h.eng.RunFor(100 * sim.Microsecond)
		}
		if fired != 2 {
			t.Error("a reconfiguration never resolved")
			return false
		}
		wins := 0
		for _, err := range errs {
			switch {
			case err == nil:
				wins++
			case errors.Is(err, ErrEpochConflict) || errors.Is(err, ErrNoAgreement):
			default:
				t.Errorf("unexpected reconfiguration error: %v", err)
				return false
			}
		}
		if uint32(wins) != uint32(h.cluster.Epoch()) {
			t.Errorf("%d reconfigurations won but epoch is %d", wins, h.cluster.Epoch())
			return false
		}
		left := 0
		for p := 2; p <= 3; p++ {
			if !h.cluster.IsMember(spec.ProcID(p)) {
				left++
			}
		}
		if left != wins {
			t.Errorf("%d nodes left but %d reconfigurations won", left, wins)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestLeaderHandoffOnLeave removes the node leading the account's
// withdraw group mid-run: the successor must take the leadership over and
// conflicting calls must keep completing for the remaining members.
func TestLeaderHandoffOnLeave(t *testing.T) {
	h := newHarness(t, crdt.NewAccount(), 3, 17, nil)
	h.eng.At(0, func() {
		h.invoke(0, crdt.AccountDeposit, spec.ArgsI(100))
		h.invoke(1, crdt.AccountWithdraw, spec.ArgsI(10))
	})
	if !h.drain(50 * sim.Millisecond) {
		t.Fatal("pre-leave replication did not complete")
	}
	if got := h.cluster.Replica(1).Group(0).Leader(); got != 0 {
		t.Fatalf("initial leader = %d, want 0", got)
	}

	if err := h.reconfigure(false, 0, h.eng.Now()+1); err != nil {
		t.Fatalf("Leave(0): %v", err)
	}
	h.eng.RunFor(5 * sim.Millisecond)
	for p := 1; p <= 2; p++ {
		if got := h.cluster.Replica(spec.ProcID(p)).Group(0).Leader(); got == 0 {
			t.Fatalf("member %d still believes the departed node leads group 0", p)
		}
	}

	h.eng.At(h.eng.Now()+1, func() { h.invoke(1, crdt.AccountWithdraw, spec.ArgsI(20)) })
	if !h.drain(50 * sim.Millisecond) {
		t.Fatal("post-handoff conflicting call did not complete")
	}
	st := h.cluster.Replica(1).CurrentState().(*crdt.AccountState)
	if st.Balance != 70 {
		t.Fatalf("balance = %d, want 70", st.Balance)
	}
}

// TestContestedEpochClaimOneWinner is the one-winner property when both claims
// travel as CAS verbs. Node 0, the home of the epoch word, is suspended and
// suspected by every live member, so node 1 initiates both leaves and reaches
// the word one-sidedly — a suspended node's NIC still serves the atomic. Two
// claims in flight together race on the word: the loser reports
// ErrEpochConflict, and the wins equal the epochs committed.
func TestContestedEpochClaimOneWinner(t *testing.T) {
	conflicts := 0
	for _, gap := range []sim.Time{0, 100, 255} {
		h := newHarness(t, crdt.NewCounter(), 4, 23, nil)
		h.eng.At(0, func() { h.invoke(1, crdt.CounterAdd, spec.ArgsI(1)) })
		if !h.drain(20 * sim.Millisecond) {
			t.Fatal("replication did not complete")
		}
		h.cluster.Replica(0).Beater().Suspend()
		h.fab.Node(0).Suspend()
		for i := 0; i < 100 && !h.suspectedByAll(0); i++ {
			h.eng.RunFor(100 * sim.Microsecond)
		}
		if !h.suspectedByAll(0) {
			t.Fatal("the live members never all suspected node 0")
		}
		var errs []error
		start := h.eng.Now() + 1
		for i, target := range []int{2, 3} {
			h.eng.At(start+sim.Time(i)*gap, func() {
				if init := h.cluster.initiator(target); init != 1 {
					t.Errorf("leave of %d initiated by node %d, want node 1", target, init)
				}
				h.cluster.Leave(target, func(err error) { errs = append(errs, err) })
			})
		}
		for i := 0; i < 200 && len(errs) < 2; i++ {
			h.eng.RunFor(100 * sim.Microsecond)
		}
		if len(errs) != 2 {
			t.Fatalf("gap %v: %d of the two leaves resolved", gap, len(errs))
		}
		wins := 0
		for _, err := range errs {
			switch {
			case err == nil:
				wins++
			case errors.Is(err, ErrEpochConflict):
				conflicts++
			default:
				t.Fatalf("gap %v: unexpected reconfiguration error: %v", gap, err)
			}
		}
		left := 0
		for p := 2; p <= 3; p++ {
			if !h.cluster.IsMember(spec.ProcID(p)) {
				left++
			}
		}
		if wins != int(h.cluster.Epoch()) || left != wins {
			t.Fatalf("gap %v: %d leaves won, epoch %d, %d nodes left", gap, wins, h.cluster.Epoch(), left)
		}
	}
	if conflicts == 0 {
		t.Fatal("no claim lost the race: the CAS contest never happened")
	}
}

// TestLocalClaimAgainstAMovedEpoch: a claim the home node makes on its own
// memory loses, too, when the epoch moved after its reconfiguration began.
// Node 0 initiates both leaves. The leave of node 3 waits for agreement — node
// 2's detector is stopped, so only nodes 0 and 1 suspect 3 — while the leave of
// node 2 agrees at once and commits; once node 2 is out, the members agree on
// node 3, and its claim against the old epoch fails.
func TestLocalClaimAgainstAMovedEpoch(t *testing.T) {
	h := newHarness(t, crdt.NewCounter(), 4, 31, nil)
	h.fab.Node(2).Detector().Stop()
	h.cluster.Replica(3).Beater().Suspend()
	h.eng.RunFor(sim.Millisecond)
	var errs [2]error
	fired := 0
	h.eng.At(h.eng.Now()+1, func() {
		h.cluster.Leave(3, func(err error) { errs[0] = err; fired++ })
		h.cluster.Leave(2, func(err error) { errs[1] = err; fired++ })
	})
	for i := 0; i < 100 && fired < 2; i++ {
		h.eng.RunFor(100 * sim.Microsecond)
	}
	if fired != 2 || !errors.Is(errs[0], ErrEpochConflict) || errs[1] != nil {
		t.Fatalf("%d leaves resolved: leave(3) %v, leave(2) %v; want a conflict and a win", fired, errs[0], errs[1])
	}
	if h.cluster.Epoch() != 1 || h.cluster.IsMember(2) == h.cluster.IsMember(3) {
		t.Fatalf("epoch %d, members %v: want node 2 out at epoch 1", h.cluster.Epoch(), h.cluster.Members())
	}
}

// suspectedByAll reports whether every live node other than p suspects p.
func (h *harness) suspectedByAll(p int) bool {
	for q, r := range h.cluster.Replicas {
		if q != p && !r.node.Suspended() && !r.suspected(rdma.NodeID(p)) {
			return false
		}
	}
	return true
}

// TestReconfigureRefusals: the arguments reconfigure refuses at once, and a
// leave whose members never agree on the target's status, refused after
// viewAgreeRetries rounds. Nothing refused moves the epoch.
func TestReconfigureRefusals(t *testing.T) {
	for _, tc := range []struct {
		name   string
		join   bool
		target int
		setup  func(h *harness)
		want   error  // a sentinel, or nil for msg
		msg    string // what an error without a sentinel says
	}{
		{name: "target out of range", target: 4, msg: "out of range"},
		{name: "negative target", join: true, target: -1, msg: "out of range"},
		{name: "leave of a non-member", target: 2, want: ErrNotMember, setup: func(h *harness) {
			if err := h.reconfigure(false, 2, h.eng.Now()+1); err != nil {
				t.Fatalf("first leave: %v", err)
			}
		}},
		{name: "join of a member", join: true, target: 1, want: ErrAlreadyMember},
		{name: "no live initiator", target: 0, want: ErrNoInitiator, setup: func(h *harness) {
			for p := 1; p < 4; p++ {
				h.fab.Node(rdma.NodeID(p)).Suspend()
			}
		}},
		{name: "no agreement", target: 3, want: ErrNoAgreement, setup: func(h *harness) {
			// Node 2's detector stops, so it never suspects node 3, whose
			// heartbeat stops; nodes 0 and 1 do.
			h.fab.Node(2).Detector().Stop()
			h.cluster.Replica(3).Beater().Suspend()
			h.eng.RunFor(sim.Millisecond)
			if !h.cluster.Replica(0).suspected(3) || !h.cluster.Replica(1).suspected(3) || h.cluster.Replica(2).suspected(3) {
				t.Fatal("the members' views of node 3 do not split")
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			h := newHarness(t, crdt.NewCounter(), 4, 29, nil)
			if tc.setup != nil {
				tc.setup(h)
			}
			epoch := h.cluster.Epoch()
			at := h.eng.Now() + 1
			err := h.reconfigure(tc.join, tc.target, at)
			switch {
			case tc.want != nil && !errors.Is(err, tc.want):
				t.Fatalf("got %v, want %v", err, tc.want)
			case tc.want == nil && (err == nil || !strings.Contains(err.Error(), tc.msg)):
				t.Fatalf("got %v, want an error saying %q", err, tc.msg)
			}
			if h.cluster.Epoch() != epoch {
				t.Fatalf("a refused reconfiguration moved the epoch from %d to %d", epoch, h.cluster.Epoch())
			}
			if tc.want == ErrNoAgreement {
				// Every round waits four detector check periods.
				if waited, min := h.eng.Now()-at, sim.Time(viewAgreeRetries*4*h.fab.Latency().CheckPeriod); waited < min {
					t.Fatalf("refused after %v, before %d agreement rounds (%v)", waited, viewAgreeRetries, min)
				}
			}
		})
	}
}
