package mu

import (
	"fmt"
	"slices"
	"testing"

	"hamband/internal/rdma"
	"hamband/internal/sim"
)

// One buffer per hop: the tests of who owns an entry's bytes on the way from
// Submit to Deliver, and of the two queues that replaced per-entry closures —
// each follower's unacknowledged sequence numbers and the deliveries waiting
// for their CPU item.

// leaderResidue counts what in still holds for entries it sequenced: the
// proposals it has not delivered and the log writes it has not seen complete.
func leaderResidue(in *Instance) (held int) {
	for _, p := range in.props {
		if p.entry != nil || p.acks != 0 || p.decided {
			held++
		}
	}
	for i := range in.unacked {
		held += in.unacked[i].Len()
	}
	return held
}

// TestLateAckLeavesNoResidue: a leader decides an entry on its majority-th
// write and delivers it before the last follower's write completes. That late
// completion must count toward nothing and leave nothing behind — at the
// parent commit it re-created the entry's ack count, one map entry per
// sequenced entry, forever. Checked over 500 entries, and again under a second
// leader for what it sequences and what the first one kept.
func TestLateAckLeavesNoResidue(t *testing.T) {
	c := newCluster(t, 4, 0)
	const burst = 500
	check := func(when string, want int, leaders ...int) {
		t.Helper()
		c.assertInOrder(t, []int{0, 1, 2, 3}, want)
		for _, l := range leaders {
			in := c.inst[l]
			if held := leaderResidue(in); held != 0 {
				t.Fatalf("%s: node %d holds %d proposals and unacknowledged writes after delivering everything (of %d slots)",
					when, l, held, len(in.props))
			}
			if limit := in.cfg.JournalSlots / 2; len(in.props) > limit {
				t.Fatalf("%s: node %d's proposal window is %d entries long, a round at most %d", when, l, len(in.props), limit)
			}
		}
	}
	c.steadyBurst([]int{0, 1, 2, 3}, burst, 400*sim.Nanosecond)
	c.run(sim.Duration(burst)*400*sim.Nanosecond + sim.Millisecond)
	check("first leader", burst, 0)

	c.inst[1].StartElection()
	c.run(sim.Millisecond)
	if !c.inst[1].IsLeader() || c.inst[0].IsLeader() {
		t.Fatalf("leader change did not happen: node 0 leads=%v, node 1 leads=%v", c.inst[0].IsLeader(), c.inst[1].IsLeader())
	}
	start := c.eng.Now()
	for i := 0; i < burst; i++ {
		node, payload := i%4, fmt.Sprintf("second-%03d", i)
		c.eng.At(start+sim.Time(sim.Duration(i)*400*sim.Nanosecond), func() { c.inst[node].Submit([]byte(payload)) })
	}
	c.run(sim.Duration(burst)*400*sim.Nanosecond + sim.Millisecond)
	check("second leader", 2*burst, 0, 1)
}

// TestWarmCommitAllocs pins the host cost of the whole path: on a warm 4-node
// group, one follower submission — forwarded to the leader, sequenced in a
// round, replicated, committed and delivered on all four nodes — allocates
// exactly these buffers and nothing per hop besides:
//
//	1  the request record (frameReq), which carries the caller's payload
//	1  the leader's copy of it out of its request ring (ring.Reader.Poll)
//	1  the entry record (frameEntry): journalled in place, delivered locally
//	   and sent to every follower as it is
//	6  ring.Sender.pump's completion callback and its list, per follower
//	3  each follower's copy out of its log ring, stashed and delivered as it is
//	1  the commit record
//	3  each follower's copy of that
func TestWarmCommitAllocs(t *testing.T) {
	c := newCluster(t, 4, 0)
	delivered := 0
	for _, in := range c.inst {
		in.Deliver = func(uint64, rdma.NodeID, []byte) { delivered++ }
	}
	payload := make([]byte, 64)
	commit := func() {
		c.inst[1].Submit(payload)
		c.run(30 * sim.Microsecond)
	}
	const warm, runs = 100, 200
	for i := 0; i < warm; i++ {
		commit()
	}
	if allocs := testing.AllocsPerRun(runs, commit); allocs != 16 {
		t.Fatalf("a warm follower submission allocates %.0f times from Submit to the last Deliver, want 16", allocs)
	}
	if want := 4 * (warm + runs + 1); delivered != want {
		t.Fatalf("%d deliveries, want %d", delivered, want)
	}
	if held := leaderResidue(c.inst[0]); held != 0 {
		t.Fatalf("the leader holds %d proposals and unacknowledged writes at rest", held)
	}
}

// suspendedDeliveries suspends a follower while decided entries are queued
// behind its CPU, changes the leader, orders more entries and resumes it: the
// follower must deliver everything exactly once and in sequence order, the
// entries it had queued first. lifo is the mutation: the follower's CPU item
// takes the newest queued delivery instead of the oldest.
func suspendedDeliveries(t *testing.T, lifo bool) error {
	t.Helper()
	c := newCluster(t, 4, 0)
	const victim = 3
	in := c.inst[victim]
	if lifo {
		in.deliverFn = func() {
			d := in.deliveries.PopBack()
			in.Deliver(d.seq, d.origin, d.payload)
		}
	}
	// One event submits six: the first is a round of its own, the other five
	// the next, and the commit record after it delivers those five in one sweep.
	var want []string
	c.eng.At(0, func() {
		for i := 0; i < 6; i++ {
			want = append(want, fmt.Sprintf("first-%d", i))
			c.inst[0].Submit([]byte(want[i]))
		}
	})
	for in.deliveries.Len() < 3 {
		if c.eng.Now() > sim.Time(100*sim.Microsecond) {
			t.Fatal("the follower never had three deliveries queued")
		}
		c.run(50 * sim.Nanosecond)
	}
	c.fab.Node(victim).Suspend()
	c.run(sim.Microsecond) // the item the CPU had already dispatched completes
	queued, before := in.deliveries.Len(), len(c.delivered[victim])
	if queued < 2 {
		t.Fatalf("suspended with %d deliveries queued, want at least two", queued)
	}

	c.run(50 * sim.Microsecond)
	c.inst[1].StartElection()
	c.run(2 * sim.Millisecond)
	if !c.inst[1].IsLeader() {
		t.Fatal("node 1 did not take over")
	}
	for i := 0; i < 4; i++ {
		want = append(want, fmt.Sprintf("second-%d", i))
		c.inst[2].Submit([]byte(want[6+i]))
	}
	c.run(2 * sim.Millisecond)
	if in.deliveries.Len() != queued || len(c.delivered[victim]) != before {
		return fmt.Errorf("suspended with %d deliveries queued and %d made; after the leader change %d and %d",
			queued, before, in.deliveries.Len(), len(c.delivered[victim]))
	}
	c.fab.Node(victim).Resume()
	c.run(5 * sim.Millisecond)

	for node := range c.inst {
		if !slices.Equal(c.delivered[node], want) {
			return fmt.Errorf("node %d delivered %v, want %v", node, c.delivered[node], want)
		}
		for j, s := range c.seqs[node] {
			if s != uint64(j+1) {
				return fmt.Errorf("node %d delivered seq %d at position %d: %v", node, s, j, c.seqs[node])
			}
		}
	}
	if in.deliveries.Len() != 0 {
		return fmt.Errorf("%d deliveries still queued at rest", in.deliveries.Len())
	}
	return nil
}

func TestSuspendedNodeDeliversQueuedInOrder(t *testing.T) {
	if err := suspendedDeliveries(t, false); err != nil {
		t.Fatal(err)
	}
}

// TestSuspendedDeliveriesCatchLIFO is the mutation control of the test above.
func TestSuspendedDeliveriesCatchLIFO(t *testing.T) {
	err := suspendedDeliveries(t, true)
	if err == nil {
		t.Fatal("a follower that delivers its newest queued entry first passed")
	}
	t.Logf("caught: %v", err)
}

// resetWithWriteInFlight has a leader reset its followers' rings (what a
// fresh leader does before it re-disseminates) with, on every follower's
// sender, one write in flight (seq 1) and two records still queued (seqs 2
// and 3), and then send seq 4. Every completion must be credited to the
// sequence number of the record it completes: 1, then 4, with nothing left
// unacknowledged; the two dropped records are credited nowhere. trim false is
// the mutation: the senders are emptied before resetRings looks, so it drops
// nothing and trims nothing from the unacked queues.
func resetWithWriteInFlight(t *testing.T, trim bool) error {
	t.Helper()
	c := newCluster(t, 5, 0)
	in := c.inst[0]
	credited := make([][]uint64, 5)
	for p := 1; p < 5; p++ {
		p, acked := p, in.ackFns[p]
		in.ackFns[p] = func(err error) {
			if err != nil {
				t.Errorf("write to node %d failed: %v", p, err)
			}
			credited[p] = append(credited[p], in.unacked[p].Head())
			acked(err)
		}
	}
	// The sequence numbers are past anything the leader proposed, so the
	// completions only move the queues: no proposal counts them.
	record := func(seq uint64) []byte {
		_, rec := frameEntry(seq, in.term, 0, 0, seq, []byte("x"))
		return rec
	}
	at := func(d sim.Duration, fn func()) { c.eng.At(sim.Time(d), fn) }
	at(10*sim.Microsecond, func() { in.replicate(record(1), 1) })
	at(10*sim.Microsecond+300*sim.Nanosecond, func() {
		if w := c.fab.Stats().Writes; w == 0 {
			t.Error("seq 1 has not been posted yet: nothing is in flight")
		}
		in.replicate(record(2), 2)
		in.replicate(record(3), 3)
		if !trim {
			for _, oc := range in.logOut {
				oc.Drop()
			}
		}
		in.resetRings(func() { in.replicate(record(4), 4) })
	})
	c.run(sim.Millisecond)
	for p := 1; p < 5; p++ {
		if want := []uint64{1, 4}; !slices.Equal(credited[p], want) {
			return fmt.Errorf("node %d's completions were credited to seqs %v, want %v", p, credited[p], want)
		}
		if n := in.unacked[p].Len(); n != 0 {
			return fmt.Errorf("node %d still has %d unacknowledged writes at rest", p, n)
		}
	}
	return nil
}

func TestResetRingsForgetsDroppedRecords(t *testing.T) {
	if err := resetWithWriteInFlight(t, true); err != nil {
		t.Fatal(err)
	}
}

// TestResetRingsCatchesMissingTrim is the mutation control of the test above.
func TestResetRingsCatchesMissingTrim(t *testing.T) {
	err := resetWithWriteInFlight(t, false)
	if err == nil {
		t.Fatal("a reset that leaves dropped records in the unacked queues passed")
	}
	t.Logf("caught: %v", err)
}
