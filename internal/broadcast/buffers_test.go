package broadcast

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"hamband/internal/rdma"
	"hamband/internal/sim"
)

// Who owns a message's bytes: the source frames a record in its scratch
// buffer, which the backup slot and every peer's ring.Sender copy; a receiver
// polls it into the ring reader's reused buffer and copies the payload into a
// buffer from its node's free list, which the handler borrows and the node's
// handoff (rdma.Handoff) takes back when the handler returns.

// TestWarmDeliveryAllocs pins one message's host cost: on a warm 4-node
// fabric, a 64-byte unit from Send to the last of its three handler calls
// allocates nothing: the unit joins the open batch, which leaves as one message
// from the deferred flush. The source keeps the message in flight in
// a pendingMsg from its free list, whose written func, the completion every
// peer's write reports to, was bound when it was first made (2 objects a
// message when each had its own); the record is framed in the broadcaster's
// scratch buffer, each ring.Sender copies it into a queue buffer it reuses and
// completes it through its bound callback, and each receiver polls it into its
// reader's buffer and hands the handler a recycled handoff buffer.
func TestWarmDeliveryAllocs(t *testing.T) {
	cfg := DefaultConfig()
	eng := sim.NewEngine(31)
	fab := rdma.NewFabric(eng, 4, rdma.DefaultLatency())
	Setup(fab, cfg)
	b := NewBroadcaster(fab, fab.Node(0), cfg)
	handled := 0
	handler := func(rdma.NodeID, uint64, []byte) { handled++ }
	for p := 1; p < 4; p++ {
		NewReceiver(fab, fab.Node(rdma.NodeID(p)), cfg, handler)
	}
	payload := make([]byte, 64)
	now := eng.Now()
	message := func() {
		if err := b.Send(payload, ""); err != nil {
			t.Fatal(err)
		}
		now += sim.Time(20 * sim.Microsecond)
		eng.RunUntil(now)
	}
	const warm, runs = 64, 200
	for i := 0; i < warm; i++ {
		message()
	}
	if allocs := testing.AllocsPerRun(runs, message); allocs != 0 {
		t.Errorf("a warm message allocates %.0f times from Send to its last handler call, want 0", allocs)
	}
	if want := 3 * (warm + runs + 1); handled != want {
		t.Fatalf("%d handler calls, want %d", handled, want)
	}
}

// TestSuspendedReceiverHandsEachPayloadIntact suspends a receiver while
// records of messages wait in its node's handoff for their handler items, lets the
// source go on broadcasting, and resumes it: each queued payload, and each one
// after, must reach the handler exactly as broadcast. The payloads differ in
// length, so a recycled buffer still held by a queued message would show.
//
// A sweep hands on everything it drained as one record, queued behind the
// items already on the CPU. So the victim's CPU is kept busy: one long item,
// then an item of a microsecond just after each tick of its poll loop, and
// each sweep's record waits behind the next sweep, which finds the messages
// that landed meanwhile: the source broadcasts for 30 µs, past the long item.
func TestSuspendedReceiverHandsEachPayloadIntact(t *testing.T) {
	cfg := DefaultConfig()
	eng, fab, bcs, got, rcs := setup(4, cfg)
	const victim, count = 1, 60
	var want []string
	for i := 0; i < count; i++ {
		payload := fmt.Sprintf("m%02d-%s", i, strings.Repeat(string(rune('a'+i%26)), i%19))
		want = append(want, payload)
		eng.At(sim.Time(sim.Duration(i)*500*sim.Nanosecond), func() {
			if err := bcs[0].Broadcast([]byte(payload), nil); err != nil {
				t.Error(err)
			}
		})
	}
	cpu, period := fab.Node(victim).CPU, fab.Latency().SweepPeriod
	eng.At(0, func() { cpu.Submit(10*period, nil) })
	for k := 1; k < 10; k++ {
		eng.At(sim.Time(sim.Duration(k)*period+period/4), func() { cpu.Submit(sim.Microsecond, nil) })
	}
	// The records queued: DeliverCost items submitted, less the instants the
	// handler ran at, one an item.
	closed, ran := 0, map[sim.Time]bool{}
	cpu.Observe = func(cost sim.Duration) {
		if cost == fab.Latency().DeliverCost {
			closed++
		}
	}
	handle := rcs[victim].handler
	rcs[victim].handler = func(src rdma.NodeID, seq uint64, payload []byte) {
		ran[eng.Now()] = true
		handle(src, seq, payload)
	}
	hand := fab.Node(victim).Handoff()
	for closed-len(ran) < 3 {
		if eng.Now() > sim.Time(100*sim.Microsecond) {
			t.Fatal("the receiver never had three records queued")
		}
		eng.RunUntil(eng.Now() + 25)
	}
	fab.Node(victim).Suspend()
	eng.RunUntil(eng.Now() + sim.Time(sim.Microsecond)) // the item already dispatched completes
	records, queued, before := closed-len(ran), hand.Len(), len(got[victim])
	if records < 2 {
		t.Fatalf("suspended with %d records (%d messages) queued, want at least two records", records, queued)
	}
	eng.RunUntil(sim.Time(200 * sim.Microsecond))
	if len(got[victim]) != before || hand.Len() != queued || len(got[2]) != count {
		t.Fatalf("while suspended: the victim handled %d → %d with %d → %d queued, node 2 %d of %d",
			before, len(got[victim]), queued, hand.Len(), len(got[2]), count)
	}
	fab.Node(victim).Resume()
	eng.RunUntil(sim.Time(sim.Millisecond))
	for _, node := range []int{victim, 2, 3} {
		if len(got[node]) != count {
			t.Fatalf("node %d handled %d of %d messages", node, len(got[node]), count)
		}
		for i, d := range got[node] {
			if d.msg != want[i] || d.seq != uint64(i+1) {
				t.Fatalf("node %d's message %d is seq %d %q, want seq %d %q", node, i, d.seq, d.msg, i+1, want[i])
			}
		}
	}
}

// TestRecycledPendingMsgKeepsEachMessage drives the pendingMsg free list
// through its reuse paths: with four backup slots, 24 messages of different
// lengths are broadcast at once, so 20 wait for a slot with a copy of their
// record while finished messages go back to the free list, and each of the
// first eight onDones broadcasts a follow-up, which takes a record finished a
// moment before. Every receiver must handle each message exactly once and
// exactly as broadcast, every onDone must fire once, and every record must
// come back.
func TestRecycledPendingMsgKeepsEachMessage(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BackupSlots = 4
	eng, _, bcs, got, _ := setup(3, cfg)
	const first, follow = 24, 8
	var want []string
	done := make([]int, first+follow)
	var send func(i int)
	send = func(i int) {
		want = append(want, fmt.Sprintf("m%02d-%s", i, strings.Repeat("x", i%7)))
		payload := want[len(want)-1]
		if err := bcs[0].Broadcast([]byte(payload), func() {
			done[i]++
			if i < follow {
				send(first + i)
			}
		}); err != nil {
			t.Error(err)
		}
	}
	eng.At(0, func() {
		for i := 0; i < first; i++ {
			send(i)
		}
	})
	eng.RunUntil(sim.Time(sim.Millisecond))
	for i, n := range done {
		if n != 1 {
			t.Errorf("message %d's onDone fired %d times", i, n)
		}
	}
	for node := 1; node < 3; node++ {
		if len(got[node]) != len(want) {
			t.Fatalf("node %d handled %d of %d messages", node, len(got[node]), len(want))
		}
		seen := make([]bool, len(want))
		for _, d := range got[node] {
			// Sequence numbers follow the Broadcast calls; a follow-up can
			// launch ahead of messages still waiting for their slots.
			if i := int(d.seq) - 1; i < 0 || i >= len(want) || seen[i] || d.msg != want[i] {
				t.Fatalf("node %d handled seq %d as %q: not once, or not as broadcast", node, d.seq, d.msg)
			}
			seen[int(d.seq)-1] = true
		}
	}
	free := 0
	for pm := bcs[0].free; pm != nil; pm = pm.nextFree {
		free++
	}
	if free != first {
		t.Errorf("%d pendingMsgs on the free list, want the %d the burst needed at once", free, first)
	}
}

// sweepAsOneRecord has nodes 1, 2 and 3 broadcast two messages each while
// node 0's CPU is busy, so all six sit in node 0's rings when its first sweep
// runs, and reports the first way node 0 differs from handing them on as one
// DeliverCost item, ring by ring in sender order and each ring in sequence
// order. perEntry is the mutation: a record per message.
func sweepAsOneRecord(perEntry bool) error {
	cfg := DefaultConfig()
	eng, fab, bcs, got, _ := setup(4, cfg)
	if perEntry {
		fab.Node(0).Handoff().MutatePerEntry()
	}
	lat := fab.Latency()
	cpu := fab.Node(0).CPU
	var delivers int
	cpu.Observe = func(cost sim.Duration) {
		if cost == lat.DeliverCost {
			delivers++
		}
	}
	var want []string
	var sendErr error
	eng.At(0, func() {
		cpu.Submit(5*lat.SweepPeriod, nil)
		for src := 3; src >= 1; src-- { // the reverse of ring order
			for i := 1; i <= 2; i++ {
				sendErr = errors.Join(sendErr, bcs[src].Broadcast([]byte(fmt.Sprintf("p%d-m%d", src, i)), nil))
			}
		}
	})
	for src := 1; src <= 3; src++ {
		for i := 1; i <= 2; i++ {
			want = append(want, fmt.Sprintf("%d/%d/p%d-m%d", src, i, src, i))
		}
	}
	eng.RunUntil(sim.Time(20 * lat.SweepPeriod))
	if sendErr != nil {
		return sendErr
	}
	var handled []string
	for _, d := range got[0] {
		handled = append(handled, fmt.Sprintf("%d/%d/%s", d.src, d.seq, d.msg))
	}
	if strings.Join(handled, " ") != strings.Join(want, " ") {
		return fmt.Errorf("node 0 handled %q, want %q", handled, want)
	}
	if delivers != 1 {
		return fmt.Errorf("node 0 ran %d DeliverCost items for one sweep's six messages, want one", delivers)
	}
	return nil
}

// TestSweepHandsOnOneRecord: the messages one sweep drains from three rings
// reach the handler in ring order, in one DeliverCost item.
func TestSweepHandsOnOneRecord(t *testing.T) {
	if err := sweepAsOneRecord(false); err != nil {
		t.Fatal(err)
	}
}

// TestSweepRecordCatchesPerEntry is the mutation control of the test above.
func TestSweepRecordCatchesPerEntry(t *testing.T) {
	err := sweepAsOneRecord(true)
	if err == nil {
		t.Fatal("a receiver that hands each message on as a record of its own passed")
	}
	t.Logf("caught: %v", err)
}
