package rdma

import (
	"fmt"
	"slices"
	"testing"

	"hamband/internal/sim"
)

// cqRig is node 0 of a four-node fabric posting writes to the others, with
// every CPU item node 0 runs recorded by cost. Inlining is off, so a write
// lands WireLatency plus its transfer after its post.
type cqRig struct {
	eng   *sim.Engine
	f     *Fabric
	lat   LatencyModel
	items []sim.Duration
	done  []string // completion callbacks, in the order they ran
}

func newCQRig(perCompletion bool) *cqRig {
	rig := &cqRig{lat: DefaultLatency()}
	rig.lat.InlineThreshold = 0
	rig.eng = sim.NewEngine(1)
	rig.f = NewFabric(rig.eng, 4, rig.lat)
	for p := 1; p < 4; p++ {
		rig.f.Node(NodeID(p)).Register("m", 4096).AllowAllWrites()
	}
	n := rig.f.Node(0)
	n.cq.perCompletion = perCompletion
	n.CPU.Observe = func(cost sim.Duration) { rig.items = append(rig.items, cost) }
	return rig
}

// write posts an n-byte write from node 0 to peer named name.
func (rig *cqRig) write(name string, peer NodeID, n int) {
	rig.f.Node(0).QP(peer).Write("m", 0, make([]byte, n), func(err error) {
		if err != nil {
			rig.done = append(rig.done, name+": "+err.Error())
			return
		}
		rig.done = append(rig.done, fmt.Sprintf("%s@%d", name, rig.eng.Now()))
	})
}

// polls counts node 0's poll items.
func (rig *cqRig) polls() int {
	n := 0
	for _, c := range rig.items {
		if c == rig.lat.PollCost {
			n++
		}
	}
	return n
}

// reapBatch posts three writes whose completions land out of posting order
// while node 0's CPU is busy, and reports the first way node 0 differs from one
// poll reaping all three, in landing order, when that poll's item ends.
// perCompletion is the mutation: a poll per completion.
func reapBatch(perCompletion bool) error {
	rig := newCQRig(perCompletion)
	// Posted PostCost apart, a transfer of 400, 200 and 2 ns: each lands
	// ahead of the one posted before it.
	rig.write("big", 1, 2000)
	rig.write("mid", 2, 1000)
	rig.write("small", 3, 10)
	const busy = 10 * sim.Microsecond
	rig.f.Node(0).CPU.Submit(busy, nil)
	rig.eng.Run()
	// Three posts, then the busy item, then one poll.
	reaped := sim.Time(3*rig.lat.PostCost + busy + rig.lat.PollCost)
	want := []string{fmt.Sprintf("small@%d", reaped), fmt.Sprintf("mid@%d", reaped), fmt.Sprintf("big@%d", reaped)}
	if !slices.Equal(rig.done, want) {
		return fmt.Errorf("callbacks %v, want %v", rig.done, want)
	}
	if rig.polls() != 1 {
		return fmt.Errorf("%d poll items for three completions landed before the poll, want one: items %v", rig.polls(), rig.items)
	}
	return nil
}

// TestPollReapsEveryLandedCompletion: completions that land before a poll
// starts cost that one poll, and their callbacks run in landing order.
func TestPollReapsEveryLandedCompletion(t *testing.T) {
	if err := reapBatch(false); err != nil {
		t.Fatal(err)
	}
}

// TestReapCatchesPollPerCompletion is the mutation control of the test above.
func TestReapCatchesPollPerCompletion(t *testing.T) {
	err := reapBatch(true)
	if err == nil {
		t.Fatal("a completion queue that polls once per completion passed")
	}
	t.Logf("caught: %v", err)
}

// TestCompletionLandingMidPollWaits: a completion that lands while a poll's
// item runs is not reaped by it but by a poll of its own, one PollCost later.
func TestCompletionLandingMidPollWaits(t *testing.T) {
	rig := newCQRig(false)
	// "first" completes at PostCost + WireLatency + 100 + AckLatency, "second",
	// posted PostCost later and 500 bytes shorter, 50 ns after it: inside the
	// poll that "first" arms on an idle CPU.
	rig.write("first", 1, 508)
	rig.write("second", 2, 8)
	rig.eng.Run()
	first := sim.Time(rig.lat.PostCost + rig.lat.WireLatency + 101 + rig.lat.AckLatency)
	if second := first + 50; second >= first+sim.Time(rig.lat.PollCost) {
		t.Fatalf("the second completion lands at %d, after the poll started at %d", second, first)
	}
	want := []string{fmt.Sprintf("first@%d", first+sim.Time(rig.lat.PollCost)),
		fmt.Sprintf("second@%d", first+sim.Time(2*rig.lat.PollCost))}
	if !slices.Equal(rig.done, want) || rig.polls() != 2 {
		t.Fatalf("callbacks %v in %d polls, want %v in two", rig.done, rig.polls(), want)
	}
}

// TestCrashedNodeDropsItsCompletions: completions that land after their
// poster crashed are dropped, callbacks and polls both, and their records go
// back to the free list.
func TestCrashedNodeDropsItsCompletions(t *testing.T) {
	rig := newCQRig(false)
	rig.write("a", 1, 64)
	rig.write("b", 2, 64)
	rig.write("c", 3, 64)
	rig.eng.RunUntil(sim.Time(3*rig.lat.PostCost + rig.lat.WireLatency)) // posted, not completed
	rig.f.Node(0).Crash()
	rig.eng.Run()
	if len(rig.done) != 0 || rig.polls() != 0 {
		t.Fatalf("a crashed node ran callbacks %v in %d polls", rig.done, rig.polls())
	}
	if n := freeVerbCount(rig.f); n != 3 {
		t.Fatalf("%d records on the free list, want the three dropped completions'", n)
	}
}
