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
	b := n.NewBatch(InlineFits)
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
// leaves behind it and stamps nothing of the batch's.
func TestBatchPendingUntilItsVerbsLeave(t *testing.T) {
	rig := newCQRig(false)
	n := rig.f.Node(0)
	b := n.NewBatch(InlineFits)
	if b.Pending() {
		t.Fatal("a fresh batch is pending")
	}
	wrs := []WR{{Region: "m", Data: make([]byte, 8)}}
	var sent sim.Time = -1
	b.Defer(func(b *Batch) { b.PostChain(n.QP(1), wrs, nil, &sent) })
	if !b.Pending() {
		t.Fatal("a batch with its flush armed is not pending")
	}
	rig.eng.RunUntil(sim.Time(rig.lat.PostCost - 1))
	if !b.Pending() || sent != -1 {
		t.Fatalf("with its post item running: pending %v, sent %d", b.Pending(), sent)
	}
	n.QP(1).PostChain(wrs, nil)
	rig.eng.Run()
	if b.Pending() || sent != sim.Time(rig.lat.PostCost) {
		t.Fatalf("after its post item: pending %v, sent %d, want false, %d", b.Pending(), sent, rig.lat.PostCost)
	}
	if want := []sim.Duration{0, rig.lat.PostCost, rig.lat.PostCost}; !slices.Equal(rig.items, want) {
		t.Fatalf("node 0 ran items %v, want %v: a flush, the batch's post item, then the verb posted alone", rig.items, want)
	}
}

// TestWarmBatchAllocatesNothing: a batch's flush and post item, and the verbs
// they post, allocate nothing once warm.
func TestWarmBatchAllocatesNothing(t *testing.T) {
	rig := newCQRig(false)
	n := rig.f.Node(0)
	n.CPU.Observe = nil
	b := n.NewBatch(InlineFits)
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

// newInlineRig is a cqRig whose fabric inlines what fits InlineThreshold, as
// the default model does.
func newInlineRig() *cqRig {
	rig := newCQRig(false)
	rig.lat.InlineThreshold = DefaultLatency().InlineThreshold
	rig.f.lat.InlineThreshold = rig.lat.InlineThreshold
	return rig
}

// TestBatchInlineRule: a flush decides once, before its fills run, whether
// its payloads post inline: under InlineFits always, under InlineWhenIdle only
// when no work waits on the CPU behind the flush. The first fill queues an
// item of its own, as a ring pump's head read does; the decision is the
// flush's, so a rule checked per post would stop inlining the idle node's
// batch there.
func TestBatchInlineRule(t *testing.T) {
	for _, tc := range []struct {
		rule       Inline
		busy, want bool
	}{
		{InlineFits, false, true},
		{InlineFits, true, true},
		{InlineWhenIdle, false, true},
		{InlineWhenIdle, true, false},
	} {
		rig := newInlineRig()
		n := rig.f.Node(0)
		b := n.NewBatch(tc.rule)
		wrs := []WR{{Region: "m", Data: make([]byte, 8)}}
		for p := NodeID(1); p < 4; p++ {
			qp := n.QP(p)
			b.Defer(func(b *Batch) {
				if p == 1 {
					n.CPU.Submit(rig.lat.PollCost, nil)
				}
				b.PostChain(qp, wrs, nil, nil)
			})
		}
		if tc.busy {
			n.CPU.Submit(sim.Microsecond, nil) // queued behind the flush
		}
		rig.eng.Run()
		post := 3 * rig.lat.PostCost
		var inlined uint64
		if tc.want {
			post, inlined = post+3*rig.lat.InlineCost, 3
		}
		if got := rig.items[len(rig.items)-1]; got != post {
			t.Errorf("rule %d, busy %v: the post item cost %v, want %v: items %v", tc.rule, tc.busy, got, post, rig.items)
		}
		if st := rig.f.Stats(); st.InlineWrites != inlined {
			t.Errorf("rule %d, busy %v: %d of %d writes inline, want %d", tc.rule, tc.busy, st.InlineWrites, st.Writes, inlined)
		}
	}
}

// TestBatchPostAloneFollowsItsRule: outside a flush, PostChain posts a verb
// alone, a flush of its own: under InlineWhenIdle inline on an idle node and
// by DMA on a busy one, under InlineFits inline either way.
func TestBatchPostAloneFollowsItsRule(t *testing.T) {
	for _, rule := range []Inline{InlineFits, InlineWhenIdle} {
		for _, busy := range []bool{false, true} {
			rig := newInlineRig()
			n := rig.f.Node(0)
			if busy {
				n.CPU.Submit(sim.Microsecond, nil)
				n.CPU.Submit(sim.Microsecond, nil) // waits behind the first
				rig.eng.RunUntil(1)
			}
			n.NewBatch(rule).PostChain(n.QP(1), []WR{{Region: "m", Data: make([]byte, 8)}}, nil, nil)
			rig.eng.Run()
			want := uint64(1)
			if busy && rule == InlineWhenIdle {
				want = 0
			}
			if st := rig.f.Stats(); st.Writes != 1 || st.InlineWrites != want {
				t.Errorf("rule %d, busy %v: %d of %d writes inline, want %d of 1", rule, busy, st.InlineWrites, st.Writes, want)
			}
		}
	}
}
