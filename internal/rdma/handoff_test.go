package rdma

import (
	"fmt"
	"slices"
	"testing"

	"hamband/internal/sim"
)

// handoffRig is the handoff of node 0 of a one-node fabric whose CPU charges
// are counted, and two handlers, in-channels a and b, that log their calls.
type handoffRig struct {
	eng   *sim.Engine
	fab   *Fabric
	h     *Handoff
	to    [2]Handler
	got   []string
	items []sim.Duration // the cost of every CPU item submitted
}

func newHandoffRig() *handoffRig {
	rig := &handoffRig{}
	rig.eng, rig.fab = testFabric(1)
	node := rig.fab.Node(0)
	node.CPU.Observe = func(cost sim.Duration) { rig.items = append(rig.items, cost) }
	rig.h = node.Handoff()
	for i, name := range []string{"a", "b"} {
		rig.to[i] = func(src NodeID, seq uint64, payload []byte) {
			rig.got = append(rig.got, fmt.Sprintf("%s:%d/%d/%s", name, src, seq, payload))
		}
	}
	return rig
}

// handoffInOrder hands on three records — one entry, three, one — of
// different lengths, for two handlers in turn, from one buffer the caller
// rewrites between entries, and reports the first way the handler calls
// differ from the order added or from one DeliverCost item per record. lifo
// and perEntry are the mutations.
func handoffInOrder(lifo, perEntry bool) error {
	rig := newHandoffRig()
	if lifo {
		rig.h.MutateLIFO()
	}
	if perEntry {
		rig.h.MutatePerEntry()
	}
	var want []string
	buf := make([]byte, 0, 16)
	i := 0
	for _, entries := range []int{1, 3, 1} {
		for ; entries > 0; entries-- {
			buf = fmt.Appendf(buf[:0], "r%d-%s", i, "xxxxxxxx"[:i])
			rig.h.Add(rig.to[i%2], NodeID(i%3), uint64(10+i), rig.h.Keep(buf))
			want = append(want, fmt.Sprintf("%s:%d/%d/%s", "ab"[i%2:i%2+1], i%3, 10+i, buf))
			i++
		}
		rig.h.Hand()
	}
	if rig.h.Len() != 5 {
		return fmt.Errorf("%d entries queued, want 5", rig.h.Len())
	}
	rig.eng.RunFor(10 * sim.Microsecond)
	if !slices.Equal(rig.got, want) {
		return fmt.Errorf("handled %q, want %q", rig.got, want)
	}
	cost := rig.fab.Latency().DeliverCost
	if len(rig.items) != 3 || slices.ContainsFunc(rig.items, func(d sim.Duration) bool { return d != cost }) {
		return fmt.Errorf("CPU items %v, want three of %v", rig.items, cost)
	}
	if rig.h.Len() != 0 {
		return fmt.Errorf("%d entries still queued", rig.h.Len())
	}
	return nil
}

// TestHandoffInPushOrder: entries reach their handlers in the order added,
// whichever handler each is for, each record as one DeliverCost item, with
// the bytes added.
func TestHandoffInPushOrder(t *testing.T) {
	if err := handoffInOrder(false, false); err != nil {
		t.Fatal(err)
	}
}

// TestHandoffCatchesLIFO is a mutation control of the test above.
func TestHandoffCatchesLIFO(t *testing.T) {
	err := handoffInOrder(true, false)
	if err == nil {
		t.Fatal("a handoff that hands on its newest record first passed")
	}
	t.Logf("caught: %v", err)
}

// TestHandoffCatchesPerEntry is a mutation control of the test above.
func TestHandoffCatchesPerEntry(t *testing.T) {
	err := handoffInOrder(false, true)
	if err == nil {
		t.Fatal("a handoff that charges an item per entry passed")
	}
	t.Logf("caught: %v", err)
}

// TestPollClosesOneRecordASweep: what the sweeps of one poll-loop item add to
// the node's handoff is one record, closed at the end of the item, whatever
// the number of sweeps that delivered; a sweep that adds nothing costs no
// DeliverCost item.
func TestPollClosesOneRecordASweep(t *testing.T) {
	rig := newHandoffRig()
	node, lat := rig.fab.Node(0), rig.fab.Latency()
	ticks := 0
	node.Poll(func() { ticks++ })
	for i := range rig.to {
		node.Poll(func() {
			if ticks == 1 {
				rig.h.Add(rig.to[i], 0, uint64(i), rig.h.Keep([]byte("m")))
			}
		})
	}
	rig.eng.RunUntil(sim.Time(5 * lat.SweepPeriod / 2)) // two ticks
	want := []sim.Duration{lat.SweepCost, lat.DeliverCost, lat.SweepCost}
	if !slices.Equal(rig.items, want) || !slices.Equal(rig.got, []string{"a:0/0/m", "b:0/1/m"}) {
		t.Fatalf("CPU items %v handing on %q, want %v handing on both entries", rig.items, rig.got, want)
	}
}

// TestWarmHandoffAllocs pins the handoff's host cost: once warm, a record of
// one kept entry and its handling allocate nothing — the payload goes into a
// recycled buffer and the work item is bound once.
func TestWarmHandoffAllocs(t *testing.T) {
	rig := newHandoffRig()
	rig.fab.Node(0).CPU.Observe = nil
	handled := 0
	count := Handler(func(NodeID, uint64, []byte) { handled++ })
	payload := make([]byte, 64)
	cycle := func() {
		rig.h.Add(count, 1, 7, rig.h.Keep(payload))
		rig.h.Hand()
		rig.eng.RunFor(sim.Microsecond)
	}
	for i := 0; i < 16; i++ {
		cycle()
	}
	if allocs := testing.AllocsPerRun(200, cycle); allocs != 0 {
		t.Errorf("a warm record and its handling allocate %.1f times, want 0", allocs)
	}
	if handled != 16+201 {
		t.Fatalf("%d records handled, want %d", handled, 16+201)
	}
}
