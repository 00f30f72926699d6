package fifo

import (
	"slices"
	"testing"
)

// call stands in for a buffered call: what matters is that it holds a
// reference the queue must let go of.
type call struct {
	seq  int
	args []int64
}

// TestLapsReuseOneArray interleaves pushes and pops so the queue's contents
// travel round its array many times: the array must be the one the first
// burst grew, the order first-in-first-out throughout, and nothing allocated.
func TestLapsReuseOneArray(t *testing.T) {
	var q Queue[call]
	next, want := 0, 0
	push := func(n int) {
		for ; n > 0; n-- {
			q.Push(call{seq: next})
			next++
		}
	}
	pop := func(n int) {
		t.Helper()
		for ; n > 0; n-- {
			if got := q.Pop().seq; got != want {
				t.Fatalf("popped %d, want %d", got, want)
			}
			want++
		}
	}
	push(5) // grows to 8 slots
	array := &q.buf[0]
	lap := func() {
		push(3)
		pop(4)
		push(4)
		pop(3)
	}
	for i := 0; i < 40; i++ { // 280 items through 8 slots: 35 laps
		lap()
	}
	if len(q.buf) != 8 || &q.buf[0] != array {
		t.Fatalf("the queue moved to a %d-slot array over %d items, want the first 8-slot one kept", len(q.buf), next)
	}
	if allocs := testing.AllocsPerRun(100, lap); allocs != 0 {
		t.Fatalf("a lap of a warm queue allocates %.1f times, want 0", allocs)
	}
	if q.Len() != 5 || q.Head().seq != want {
		t.Fatalf("%d queued with head %d, want 5 with head %d", q.Len(), q.Head().seq, want)
	}
}

// TestGrowthKeepsOrder fills a queue whose contents straddle the end of its
// array, so doubling has to unwrap them.
func TestGrowthKeepsOrder(t *testing.T) {
	var q Queue[int]
	for i := 0; i < 4; i++ {
		q.Push(i)
	}
	q.Pop()
	q.Pop()
	for i := 4; i < 11; i++ { // wraps at 4 slots, then grows twice
		q.Push(i)
	}
	var got []int
	for q.Len() > 0 {
		got = append(got, q.Pop())
	}
	if want := []int{2, 3, 4, 5, 6, 7, 8, 9, 10}; !slices.Equal(got, want) {
		t.Fatalf("popped %v, want %v", got, want)
	}
}

// TestPoppedSlotDropsItsReferences checks both ends: a slot an item left, by
// Pop or by PopBack, no longer references the item's arguments.
func TestPoppedSlotDropsItsReferences(t *testing.T) {
	var q Queue[call]
	for i := 0; i < 3; i++ {
		q.Push(call{seq: i, args: []int64{int64(i)}})
	}
	if got := q.Pop(); got.seq != 0 || got.args[0] != 0 {
		t.Fatalf("Pop returned %+v, want call 0 intact", got)
	}
	if got := q.PopBack(); got.seq != 2 || got.args[0] != 2 {
		t.Fatalf("PopBack returned %+v, want call 2 intact", got)
	}
	if q.Len() != 1 || q.Head().seq != 1 {
		t.Fatalf("%d queued with head %+v, want call 1 alone", q.Len(), q.Head())
	}
	for i, slot := range q.buf {
		if held := slot.args != nil; held != (i == 1) {
			t.Fatalf("slot %d holds arguments: %v, want only slot 1 to", i, held)
		}
	}
}
