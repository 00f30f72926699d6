package core

import (
	"encoding/binary"
	"errors"
	"testing"
	"testing/quick"

	"hamband/internal/crdt"
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

	// Reconfiguring the same node again fails cleanly.
	if err := h.reconfigure(false, 2, h.eng.Now()+1); !errors.Is(err, ErrNotMember) {
		t.Fatalf("second Leave(2) = %v, want ErrNotMember", err)
	}
}

// TestStaleSlotFrameRejected plants a summary frame stamped with the
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
	forged := &sumSlot{
		version: cur.version + 1,
		call:    spec.Call{Method: crdt.CounterAdd, Args: spec.ArgsI(999), Proc: 2, Seq: 99},
		counts:  []uint32{cur.counts[0] + 1},
	}
	off := r0.slotOffset(0, 2)
	slot := h.fab.Node(0).Region(sumRegionBase).Bytes()[off:]
	if _, err := appendSumFrame(slot[:0:r0.anchorCap()], forged, 0); err != nil { // stale epoch 0
		t.Fatal(err)
	}

	h.eng.RunFor(1 * sim.Millisecond)
	if got := r0.sums[0][2].version; got != cur.version {
		t.Fatalf("stale-epoch frame adopted (version %d, want %d)", got, cur.version)
	}
	if st := r0.CurrentState().(*crdt.CounterState); st.V != 5 {
		t.Fatalf("member state = %d after stale frame, want 5", st.V)
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
