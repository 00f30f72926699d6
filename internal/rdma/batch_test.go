package rdma

import (
	"fmt"
	"slices"
	"testing"

	"hamband/internal/sim"
)

// batchWrites has node 0 of a cqRig post three 8-byte writes, one to each
// peer, as one batch when batched is set and one post each otherwise, and
// runs the fabric dry.
func batchWrites(rig *cqRig, batched bool) {
	n := rig.f.Node(0)
	b := n.NewBatch()
	for p := NodeID(1); p < 4; p++ {
		name, qp := fmt.Sprintf("p%d", p), n.QP(p)
		onDone := func(err error) { rig.done = append(rig.done, fmt.Sprintf("%s@%d", name, rig.eng.Now())) }
		wrs := []WR{{Region: "m", Data: make([]byte, 8)}}
		if batched {
			b.Defer(func(b *Batch) { b.PostChain(qp, wrs, onDone, nil) })
		} else {
			qp.PostChain(wrs, onDone)
		}
	}
	rig.eng.Run()
}

// TestBatchPostsAsOneItem: a batch is one CPU item costing its verbs' posts,
// after a zero-cost flush; its verbs leave together when the item ends, so
// their completions land together and one poll reaps them all. Posted one
// item each, they land a post cost apart and cost a poll each.
func TestBatchPostsAsOneItem(t *testing.T) {
	rig := newCQRig(false)
	batchWrites(rig, true)
	post := 3 * rig.lat.PostCost
	if want := []sim.Duration{0, post, rig.lat.PollCost}; !slices.Equal(rig.items, want) {
		t.Fatalf("node 0 ran items %v, want %v: a flush, one post item of three, one poll", rig.items, want)
	}
	reaped := sim.Time(post + rig.lat.WireLatency + 1 + rig.lat.AckLatency + rig.lat.PollCost)
	var want []string
	for p := 1; p < 4; p++ {
		// Each QP has its own ordering horizon, so the three land at once.
		want = append(want, fmt.Sprintf("p%d@%d", p, reaped))
	}
	if !slices.Equal(rig.done, want) {
		t.Fatalf("callbacks %v, want %v", rig.done, want)
	}

	alone := newCQRig(false)
	batchWrites(alone, false)
	if alone.polls() != 3 {
		t.Fatalf("three writes posted alone cost %d polls, want three: items %v", alone.polls(), alone.items)
	}
}

// TestBatchPendingUntilItsVerbsLeave: a batch is pending while its flush or
// its post item waits on the CPU, and its verbs leave, stamping their sent
// times, when the post item ends. A verb posted alone on the same queue pair
// stamps only its own.
func TestBatchPendingUntilItsVerbsLeave(t *testing.T) {
	rig := newCQRig(false)
	n := rig.f.Node(0)
	b := n.NewBatch()
	if b.Pending() {
		t.Fatal("a fresh batch is pending")
	}
	wrs := []WR{{Region: "m", Data: make([]byte, 8)}}
	var sent, alone sim.Time = -1, -1
	b.Defer(func(b *Batch) { b.PostChain(n.QP(1), wrs, nil, &sent) })
	if !b.Pending() {
		t.Fatal("a batch with its flush armed is not pending")
	}
	rig.eng.RunUntil(sim.Time(rig.lat.PostCost - 1))
	if !b.Pending() || sent != -1 {
		t.Fatalf("with its post item running: pending %v, sent %d", b.Pending(), sent)
	}
	(*Batch)(nil).PostChain(n.QP(1), wrs, nil, &alone)
	rig.eng.Run()
	if b.Pending() || sent != sim.Time(rig.lat.PostCost) {
		t.Fatalf("after its post item: pending %v, sent %d, want false, %d", b.Pending(), sent, rig.lat.PostCost)
	}
	if alone != sim.Time(2*rig.lat.PostCost) {
		t.Fatalf("a verb posted alone behind the batch stamped %d, want %d", alone, 2*rig.lat.PostCost)
	}
}

// TestWarmBatchAllocatesNothing: a batch's flush and post item, and the verbs
// they post, allocate nothing once warm.
func TestWarmBatchAllocatesNothing(t *testing.T) {
	rig := newCQRig(false)
	n := rig.f.Node(0)
	n.CPU.Observe = nil
	b := n.NewBatch()
	wrs := []WR{{Region: "m", Data: make([]byte, 8)}}
	onDone := func(error) {}
	fills := make([]func(*Batch), 4)
	for p := NodeID(1); p < 4; p++ {
		qp := n.QP(p)
		fills[p] = func(b *Batch) { b.PostChain(qp, wrs, onDone, nil) }
	}
	cycle := func() {
		for p := 1; p < 4; p++ {
			b.Defer(fills[p])
		}
		rig.eng.Run()
	}
	for i := 0; i < 8; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(100, cycle); allocs != 0 {
		t.Fatalf("a warm batch of three writes allocates %.0f times, want 0", allocs)
	}
}
