package mu

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"hamband/internal/rdma"
	"hamband/internal/ring"
	"hamband/internal/sim"
)

// One copy per hop: the tests of who owns an entry's bytes on the way from
// Submit to Deliver — a reused scratch or reader buffer while a record is in
// hand, a buffer from the instance's free list while an entry waits, back on
// the list once Deliver returns — and of the two queues that replaced
// per-entry closures: each follower's unacknowledged sequence numbers and the
// deliveries waiting for their CPU item.

// leaderResidue counts what in still holds for entries it sequenced: the
// proposals it has not delivered and the log writes it has not seen complete.
func leaderResidue(in *Instance) (held int) {
	for _, p := range in.props {
		if p.payload != nil || p.acks != 0 || p.decided {
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

// TestWarmCommitAllocs pins the host cost of the whole path at nothing: on a
// warm 4-node group, one follower submission — forwarded to the leader,
// sequenced in a round, replicated, committed and delivered on all four nodes
// — allocates no object. Every hop has a buffer that is already there:
//
//   - the request, round and commit records are framed in the instance's
//     scratch buffer, and each ring.Sender copies a record into a queue buffer
//     it reuses, so one scratch buffer serves every follower;
//   - ring.Reader.Poll returns each record in a buffer the reader reuses;
//   - the submitter's pending copy, the queued request, the proposal and each
//     follower's stashed entry are copies into buffers from the node's free
//     list; the node's handoff takes the proposal or stash entry as it is,
//     and every buffer goes back to the list once the entry is delivered;
//   - a pump's completion is the Sender's bound callback, which finds the
//     post's onDones queued, and each follower's ack is its bound ackFns.
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
	if allocs := testing.AllocsPerRun(runs, commit); allocs != 0 {
		t.Fatalf("a warm follower submission allocates %.0f times from Submit to the last Deliver, want 0", allocs)
	}
	if want := 4 * (warm + runs + 1); delivered != want {
		t.Fatalf("%d deliveries, want %d", delivered, want)
	}
	if held := leaderResidue(c.inst[0]); held != 0 {
		t.Fatalf("the leader holds %d proposals and unacknowledged writes at rest", held)
	}
}

// TestElectionSweepAllocatesNothing pins the election path's sweep at nothing:
// on a warm 3-node group, a candidate's sweep that drains a vote request from
// node 0 and a grant from node 1 allocates no object. The records come over
// the peers' control-ring senders, are polled into the readers' reused
// buffers, and reach handleCtrl through drain, which keeps no handler past
// the sweep. Both are of an older term, so they change nothing here;
// the catch-up read an idle follower makes is kept out by a long
// CatchUpAfter. The control rings are 2 KiB, so the 250 rounds' packed
// 12-byte vote and 13-byte grant records lap them.
func TestElectionSweepAllocatesNothing(t *testing.T) {
	cfg := DefaultConfig()
	cfg.CtrlCapacity = 1 << 11
	lat := rdma.DefaultLatency()
	lat.CatchUpAfter = sim.Second
	c := newClusterOn(t, 3, 0, cfg, lat, nil)
	c.inst[0].Stop()
	c.inst[1].Stop()
	in := c.inst[2]
	in.electing, in.term = true, 5
	round := func() {
		c.inst[0].ctrlOut[2].Send(c.inst[0].frameVote(1, 0), "", nil)
		c.inst[1].ctrlOut[2].Send(c.inst[1].frameGrant(1, 0, 1), "", nil)
		c.run(5 * sim.Microsecond)
	}
	const warm, runs = 50, 200
	for i := 0; i < warm; i++ {
		round()
	}
	if allocs := testing.AllocsPerRun(runs, round); allocs != 0 {
		t.Fatalf("a warm sweep handling a vote and a grant allocates %.0f times, want 0", allocs)
	}
	// Every record was swept: both rings are empty, past many laps of them.
	for _, rd := range []*ring.Reader{in.ctrlReaders[0], in.ctrlReaders[1]} {
		if rd.Head() < uint64(cfg.CtrlCapacity) {
			t.Fatalf("a ring's head is at %d, under one lap of %d bytes", rd.Head(), cfg.CtrlCapacity)
		}
		if _, ok, err := rd.Poll(); ok || err != nil {
			t.Fatalf("a record was left unswept: (%v, %v)", ok, err)
		}
	}
	if !in.electing || in.term != 5 {
		t.Fatalf("stale votes and grants moved the candidate: electing %v, term %d", in.electing, in.term)
	}
}

// suspendedDeliveries suspends a follower while decided rounds are queued
// behind its CPU, changes the leader, orders more entries and resumes it: the
// follower must deliver everything exactly once and in sequence order, the
// entries it had queued first, each exactly as submitted: the queued entries
// hold buffers from its node's free list (rdma.Handoff), and the payloads
// differ in length so that a buffer handed out twice shows. lifo is the
// mutation: the follower's CPU item takes the newest queued delivery instead
// of the oldest.
func suspendedDeliveries(t *testing.T, lifo bool) error {
	t.Helper()
	c := newCluster(t, 4, 0)
	const victim = 3
	in := c.inst[victim]
	if lifo {
		in.hand.MutateLIFO()
	}
	// One event submits six: the first is a round of its own, the other five
	// the next, and the round of no entries after it commits those five. The
	// follower's CPU is busy meanwhile, so one sweep drains all three records
	// and queues both rounds' deliveries: one item of one entry, one of five.
	var want []string
	c.eng.At(0, func() {
		c.fab.Node(victim).CPU.Submit(20*sim.Microsecond, func() {})
		for i := 0; i < 6; i++ {
			want = append(want, fmt.Sprintf("first-%d-%s", i, strings.Repeat("f", 5*i)))
			c.inst[0].Submit([]byte(want[i]))
		}
	})
	for in.hand.Len() < 3 {
		if c.eng.Now() > sim.Time(100*sim.Microsecond) {
			t.Fatal("the follower never had three deliveries queued")
		}
		c.run(50 * sim.Nanosecond)
	}
	c.fab.Node(victim).Suspend()
	c.run(sim.Microsecond) // the item the CPU had already dispatched completes
	queued, before := in.hand.Len(), len(c.delivered[victim])
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
		want = append(want, fmt.Sprintf("second-%d-%s", i, strings.Repeat("s", 7*i)))
		c.inst[2].Submit([]byte(want[6+i]))
	}
	c.run(2 * sim.Millisecond)
	if in.hand.Len() != queued || len(c.delivered[victim]) != before {
		return fmt.Errorf("suspended with %d deliveries queued and %d made; after the leader change %d and %d",
			queued, before, in.hand.Len(), len(c.delivered[victim]))
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
	if in.hand.Len() != 0 {
		return fmt.Errorf("%d deliveries still queued at rest", in.hand.Len())
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
// fresh leader does before it re-disseminates) with, on the senders of the
// two followers its quorum signs (nodes 1 and 2 of five), one write in flight
// (seq 1) and two records still queued (seqs 2 and 3), and then send seq 4,
// each a round of one. Every completion must be credited to the sequence
// numbers of the record it completes: 1, then 4, with nothing left
// unacknowledged; the two dropped records are credited nowhere, and the
// unsigned followers' writes nowhere at all. trim false is the mutation: the
// senders are emptied before resetRings looks, so it drops nothing and trims
// nothing from the unacked queues.
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
			credited[p] = append(credited[p], in.unacked[p].Head().first)
			acked(err)
		}
	}
	// The sequence numbers are past anything the leader proposed, so the
	// completions only move the queues: no proposal counts them.
	send := func(seq uint64) { in.replicate(in.frameOne(seq, entry{0, seq, []byte("x")}), span{seq, 1}) }
	at := func(d sim.Duration, fn func()) { c.eng.At(sim.Time(d), fn) }
	at(10*sim.Microsecond, func() { send(1) })
	// The signed writes go out as one batch, two posts long.
	at(10*sim.Microsecond+400*sim.Nanosecond, func() {
		if w := c.fab.Stats().Writes; w < 2 {
			t.Errorf("%d writes of seq 1 posted, want the quorum's two in flight", w)
		}
		send(2)
		send(3)
		if !trim {
			for _, oc := range in.logOut {
				if oc != nil {
					oc.Drop()
				}
			}
		}
		in.resetRings(func() { send(4) })
	})
	c.run(sim.Millisecond)
	for p := 1; p < 5; p++ {
		want := []uint64{1, 4}
		if p > 2 {
			want = nil
		}
		if !slices.Equal(credited[p], want) {
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

// distinctPayload is the i-th payload of a test phase: unique, and of a length
// that varies, so that a buffer recycled while its entry was still held
// changes what some Deliver sees.
func distinctPayload(phase string, i int) string {
	return fmt.Sprintf("%s-%03d-%s", phase, i, strings.Repeat(string(rune('a'+i%26)), i%23))
}

// wantDelivered fails unless each of nodes delivered exactly want, in order.
func (c *cluster) wantDelivered(t *testing.T, nodes []int, want []string) {
	t.Helper()
	for _, node := range nodes {
		if !slices.Equal(c.delivered[node], want) {
			t.Fatalf("node %d delivered %d entries %q, want %d: %q", node, len(c.delivered[node]), c.delivered[node], len(want), want)
		}
	}
}

// TestStashAcrossTermChangeDeliversSubmittedBytes suspends a leader while its
// followers hold a round of entries in their stashes, uncommitted, and elects
// a successor, which recovers the round from the old leader's journal and
// re-sends it under its own term: each follower drops its older-term stash
// entries and stashes the re-sent ones. Every entry the followers deliver,
// those and the ones ordered after the change, must carry exactly the bytes
// that were submitted, and nothing may stay stashed.
func TestStashAcrossTermChangeDeliversSubmittedBytes(t *testing.T) {
	c := newCluster(t, 5, 0)
	var want []string
	c.eng.At(0, func() { // the first is a round of its own, the other nine the next
		for i := 0; i < 10; i++ {
			want = append(want, distinctPayload("first", i))
			c.inst[0].Submit([]byte(want[i]))
		}
	})
	for len(c.inst[2].stash) < 9 || len(c.inst[3].stash) < 9 || len(c.inst[4].stash) < 9 {
		if c.eng.Now() > sim.Time(100*sim.Microsecond) {
			t.Fatal("the followers never stashed the second round")
		}
		c.run(50 * sim.Nanosecond)
	}
	c.fab.Node(0).Suspend() // before the round decides: no commit record follows it
	c.run(sim.Microsecond)
	c.inst[1].StartElection()
	c.run(2 * sim.Millisecond)
	if !c.inst[1].IsLeader() || c.inst[1].Term() == 0 {
		t.Fatal("node 1 did not take over under a new term")
	}
	for i := 0; i < 12; i++ {
		payload := distinctPayload("second", i)
		want = append(want, payload)
		c.eng.At(c.eng.Now()+sim.Time(sim.Duration(i)*sim.Microsecond), func() { c.inst[2].Submit([]byte(payload)) })
	}
	c.run(5 * sim.Millisecond)
	c.wantDelivered(t, []int{1, 2, 3, 4}, want)
	for node := 2; node < 5; node++ {
		if n := len(c.inst[node].stash); n != 0 {
			t.Fatalf("node %d still stashes %d entries at rest", node, n)
		}
	}
}

// TestCatchUpDeliversSubmittedBytes cuts a follower's log ring off its leader
// — the leader's writes to it are refused — so that everything it delivers
// comes from the leader's journal by catch-up, copied out of one read into
// buffers of its own: every entry must carry exactly the bytes submitted.
func TestCatchUpDeliversSubmittedBytes(t *testing.T) {
	c := newCluster(t, 4, 0)
	const cut = 3
	c.fab.Node(cut).Region(logRegion("g")).RevokeWrite(0)
	var want []string
	for i := 0; i < 200; i++ {
		node, payload := i%4, distinctPayload("entry", i)
		want = append(want, payload)
		c.eng.At(sim.Time(sim.Duration(i)*sim.Microsecond), func() { c.inst[node].Submit([]byte(payload)) })
	}
	c.run(5 * sim.Millisecond)
	// The order is the leader's to choose; the bytes are the submitters'.
	got := slices.Clone(c.delivered[0])
	slices.Sort(got)
	if !slices.Equal(got, want) {
		t.Fatalf("the leader delivered %q, want the submitted %q in some order", c.delivered[0], want)
	}
	c.wantDelivered(t, []int{1, 2, cut}, c.delivered[0])
	if head := c.inst[cut].logReader[0].Head(); head != 0 {
		t.Fatalf("node %d consumed %d bytes of its log ring: some entries came by ring, not by catch-up", cut, head)
	}
}

// TestSubmitCopiesThePayload: a submitter that reuses one buffer for every
// payload, overwriting it as soon as Submit returns, must still have exactly
// the bytes it submitted delivered everywhere, including the submissions that
// were still pending when their leader was suspended and that the new leader
// receives by resubmission. Four payloads go to a live leader; four more go to
// it once it is suspended, wait in pending, and are re-routed after node 1
// takes over.
func TestSubmitCopiesThePayload(t *testing.T) {
	c := newCluster(t, 3, 0)
	buf := make([]byte, 0, 64)
	var want []string
	submit := func(phase string, i int) {
		want = append(want, distinctPayload(phase, i))
		buf = append(buf[:0], want[len(want)-1]...)
		c.inst[2].Submit(buf)
		for j := range buf {
			buf[j] = '#'
		}
	}
	c.eng.At(0, func() {
		for i := 0; i < 4; i++ {
			submit("live", i)
		}
	})
	c.run(sim.Millisecond)
	c.wantDelivered(t, []int{0, 1, 2}, want)
	c.eng.At(c.eng.Now(), func() {
		c.fab.Node(0).Suspend()
		for i := 0; i < 4; i++ {
			submit("orphan", i)
		}
	})
	c.run(200 * sim.Microsecond)
	if n := c.inst[2].PendingCount(); n != 4 {
		t.Fatalf("node 2 holds %d submissions pending under the suspended leader, want 4", n)
	}
	c.inst[1].StartElection()
	c.run(20 * sim.Millisecond)
	if !c.inst[1].IsLeader() {
		t.Fatal("node 1 did not take over")
	}
	c.wantDelivered(t, []int{1, 2}, want)
	if n := c.inst[2].PendingCount(); n != 0 {
		t.Fatalf("node 2 still holds %d submissions pending at rest", n)
	}
}

// within reports whether p, non-empty, lies inside buf's bytes.
func within(p, buf []byte) bool {
	for i := 0; len(p) > 0 && i+len(p) <= len(buf); i++ {
		if &buf[i] == &p[0] {
			return true
		}
	}
	return false
}

// TestDeliverBorrowsTheHeldEntry: a decided entry is copied once on its way to
// Deliver. The payload Deliver sees lies inside the buffer the entry already
// waited in — the leader's proposal, a follower's stash entry — which the
// handoff takes as it is instead of copying the payload again. Node 1's log
// ring is drained by hand, a record at a time, so its stash is seen between
// the entry's arrival and the commit record's.
func TestDeliverBorrowsTheHeldEntry(t *testing.T) {
	c := newCluster(t, 3, 0)
	leader, follower := c.inst[0], c.inst[1]
	follower.Stop()
	var held [2][]byte // the entry buffers of seq 1 at the leader and at node 1
	var inside [2]bool
	for i, in := range []*Instance{leader, follower} {
		deliver := in.Deliver
		in.Deliver = func(seq uint64, origin rdma.NodeID, payload []byte) {
			inside[i] = seq == 1 && within(payload, held[i])
			deliver(seq, origin, payload)
		}
	}
	c.eng.At(0, func() {
		leader.Submit([]byte("copied once"))
		held[0] = leader.proposal(1).payload
	})
	c.run(50 * sim.Microsecond)
	for {
		msg, ok, err := follower.logReader[0].Poll()
		if err != nil || !ok {
			break
		}
		follower.handleLog(0, msg)
		if e, ok := follower.stash[1]; ok {
			held[1] = e.payload
		}
	}
	follower.hand.Hand() // as the poll loop closes a sweep's record
	c.run(10 * sim.Microsecond)
	for i, node := range []int{0, 1} {
		if !slices.Equal(c.delivered[node], []string{"copied once"}) {
			t.Fatalf("node %d delivered %q", node, c.delivered[node])
		}
		if held[i] == nil || !inside[i] {
			t.Errorf("node %d: the payload Deliver saw is not inside the entry buffer it held (%v held): a second copy", node, held[i] != nil)
		}
	}
}
