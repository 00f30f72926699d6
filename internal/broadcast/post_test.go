package broadcast

import (
	"testing"

	"hamband/internal/sim"
)

// costCount counts the items of items that cost c.
func costCount(items []sim.Duration, c sim.Duration) int {
	n := 0
	for _, it := range items {
		if it == c {
			n++
		}
	}
	return n
}

// TestMessageIsOnePostItem: a message to k peers is one post item on its
// source's CPU, its writes leave together when the item ends, their k
// completions land together, and one poll of the completion queue reaps them.
// MutatePerPeer, a post item per peer, is the control: k items, whose
// completions land a post apart and cost a poll each.
func TestMessageIsOnePostItem(t *testing.T) {
	const n = 4
	for _, perPeer := range []bool{false, true} {
		eng, fab, bcs, got, _ := setup(n, DefaultConfig())
		if perPeer {
			bcs[0].MutatePerPeer()
		}
		var items []sim.Duration
		fab.Node(0).CPU.Observe = func(c sim.Duration) { items = append(items, c) }
		done := false
		eng.At(0, func() {
			if err := bcs[0].Broadcast([]byte("m"), func() { done = true }); err != nil {
				t.Error(err)
			}
		})
		eng.RunUntil(sim.Time(sim.Millisecond))
		for p := 1; p < n; p++ {
			if len(got[p]) != 1 {
				t.Fatalf("perPeer %v: node %d delivered %v", perPeer, p, got[p])
			}
		}
		if !done {
			t.Fatalf("perPeer %v: the message never completed", perPeer)
		}
		lat := fab.Latency()
		post := lat.PostCost + lat.InlineCost // an idle source: every write inline
		batches, alone, polls := costCount(items, (n-1)*post), costCount(items, post), costCount(items, lat.PollCost)
		want := [3]int{1, 0, 1}
		if perPeer {
			want = [3]int{0, n - 1, n - 1}
		}
		if got := [3]int{batches, alone, polls}; got != want {
			t.Errorf("perPeer %v: %d post items of %d writes, %d of one, %d CQ polls; want %v: items %v",
				perPeer, batches, n-1, alone, polls, want, items)
		}
	}
}

// TestMessageInlinesOnlyOnAnIdleNode: rule FREE answers a call before its
// message's writes leave, so they inline only when no work waits on the
// source's CPU behind the flush. An idle source inlines a lone message's
// writes; a source with work queued behind the flush posts them by DMA, and
// the queued work does not wait InlineCost per write.
func TestMessageInlinesOnlyOnAnIdleNode(t *testing.T) {
	const n = 3
	for _, busy := range []bool{false, true} {
		eng, fab, bcs, got, _ := setup(n, DefaultConfig())
		var items []sim.Duration
		fab.Node(0).CPU.Observe = func(c sim.Duration) { items = append(items, c) }
		eng.At(0, func() {
			bcs[0].Broadcast([]byte("m"), nil)
			if busy {
				fab.Node(0).CPU.Submit(sim.Microsecond, nil)
			}
		})
		eng.RunUntil(sim.Time(sim.Millisecond))
		for p := 1; p < n; p++ {
			if len(got[p]) != 1 {
				t.Fatalf("busy %v: node %d delivered %v", busy, p, got[p])
			}
		}
		lat := fab.Latency()
		post, inline := (n-1)*lat.PostCost, uint64(0)
		if !busy {
			post, inline = post+(n-1)*lat.InlineCost, n-1
		}
		if st := fab.Stats(); st.Writes != n-1 || st.InlineWrites != inline {
			t.Errorf("busy %v: %d of %d writes inline, want %d of %d", busy, st.InlineWrites, st.Writes, inline, n-1)
		}
		if costCount(items, post) != 1 {
			t.Errorf("busy %v: no post item of %v: items %v", busy, post, items)
		}
	}
}

// TestHeadReadPumpFollowsTheRule: a message that waits behind a full ring
// leaves from the pump the head read runs, a post of its own; it follows the
// broadcast's rule too, by DMA while work waits on the source's CPU.
func TestHeadReadPumpFollowsTheRule(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RingCapacity = 128 // four records: one inline write
	eng, fab, bcs, got, _ := setup(2, cfg)
	node := fab.Node(0)
	payload := make([]byte, 20)
	eng.At(0, func() {
		for i := 0; i < 8; i++ { // more than the ring holds
			bcs[0].Broadcast(payload, nil)
		}
	})
	// Keep the source busy throughout: every item finds one queued behind it.
	var spin func()
	spin = func() {
		if eng.Now() < sim.Time(100*sim.Microsecond) {
			node.CPU.Submit(50*sim.Nanosecond, spin)
		}
	}
	eng.At(1, func() { spin(); spin() })
	eng.RunUntil(sim.Time(sim.Millisecond))
	st := fab.Stats()
	if len(got[1]) != 8 || st.Reads == 0 {
		t.Fatalf("delivered %d of 8 after %d head reads, want all 8 behind at least one", len(got[1]), st.Reads)
	}
	// The first post left from an idle node's flush, inline; every later one
	// from a busy node.
	if st.InlineWrites != 1 || st.Writes < 2 {
		t.Errorf("%d of %d writes inline, want the first only", st.InlineWrites, st.Writes)
	}
}
