package core

import (
	"fmt"
	"testing"

	"hamband/internal/crdt"
	"hamband/internal/rdma"
	"hamband/internal/ring"
	"hamband/internal/sim"
	"hamband/internal/spec"
)

// TestLappedReaderFetches suspends a reader while four counter shards on one
// writer fill more than one pass of the writer's δ-log, so the new pass
// overwrites records the reader had not read. On resume every shard
// converges, through fetches of the writer's own slots, and its walk stops
// at the writer's cursor. So it does when the writer is a whole passes-long
// lap on, in a pass of the number the reader stopped in, and one pass
// further, where the pass number alone reads as the next pass.
//
// The ignore-pass mutant (Cluster.MutateIgnorePass) is the control: a reader
// that takes every record for one of the pass it walks never follows the
// writer into the next pass, and must be left stale.
func TestLappedReaderFetches(t *testing.T) {
	for _, laps := range []uint64{1, passes, passes + 1} {
		if err := lappedReader(t, false, laps); err != nil {
			t.Fatalf("lapped %d passes: %v", laps, err)
		}
	}
	err := lappedReader(t, true, 1)
	if err == nil {
		t.Fatal("a reader ignoring the pass number converged")
	}
	t.Logf("ignore-pass mutant caught: %v", err)
}

// lappedReader lets the writer start laps passes while the reader sleeps.
func lappedReader(t *testing.T, ignorePass bool, laps uint64) error {
	const shards = 4
	eng := sim.NewEngine(91)
	fab := rdma.NewFabric(eng, 3, rdma.DefaultLatency())
	an := spec.MustAnalyze(crdt.NewCounter())
	opts := DefaultOptions()
	opts.DisableFailureHandling = true
	opts.DeltaLogBytes = 512 // the slot logs never fill: no anchor covers what the reader misses
	if laps > 1 {
		// A first object sizes the node's δ-log for about one round a pass,
		// so the lap is as many rounds, which the shards' default slot logs
		// hold without an anchor.
		o := opts
		o.Shard, o.DeltaLogBytes = "log", 128
		NewCluster(fab, an, o)
		opts.DeltaLogBytes = DefaultOptions().DeltaLogBytes
	}
	var cs []*Cluster
	for i := 0; i < shards; i++ {
		o := opts
		o.Shard = fmt.Sprintf("s%d", i)
		cs = append(cs, NewCluster(fab, an, o))
	}
	if ignorePass {
		cs[0].MutateIgnorePass()
	}
	want := make([]int64, shards)
	round := func(arg int64) {
		eng.At(eng.Now(), func() {
			for i, c := range cs {
				c.Replica(0).Invoke(crdt.CounterAdd, spec.ArgsI(arg), nil)
				want[i] += arg
			}
		})
		eng.RunFor(10 * sim.Microsecond) // a flush apart: a record per shard, the four in one write
	}
	writer, reader := cs[0].Replica(0).nlog, cs[0].Replica(1).nlog
	// The reader follows five rounds, then sleeps through the rest of the
	// pass and into the next, with records of another length, past where
	// it stopped.
	for i := 0; i < 5; i++ {
		round(1)
	}
	stopped := reader.walks[0].Pos()
	fab.Node(1).Suspend()
	end := ring.LogPos{Abs: stopped.Abs + laps, At: stopped.At}
	for !end.Before(writer.w.Pos()) {
		round(1 << 40)
	}
	if writer.w.Pos().Abs != end.Abs || writer.w.Pass() != (reader.walks[0].Pass()+uint32(laps))%passes {
		return fmt.Errorf("the writer is in pass %d, want %d", writer.w.Pos().Abs, end.Abs)
	}
	fab.Node(1).Resume()
	eng.RunFor(sim.Millisecond)
	if at, wat := reader.walks[0].Pos(), writer.w.Pos(); !ignorePass && at != wat {
		return fmt.Errorf("the reader's walk stopped at %+v, the writer is at %+v", at, wat)
	}

	var fetches uint64
	for i, c := range cs {
		for _, r := range c.Replicas {
			if got := r.CurrentState().(*crdt.CounterState).V; got != want[i] {
				return fmt.Errorf("shard s%d at p%d reads %d, want %d", i, r.id, got, want[i])
			}
		}
		fetches += c.Replica(1).statGapFetch
	}
	if fetches == 0 {
		return fmt.Errorf("the lapped reader converged without a fetch: it was not lapped")
	}
	if anchors := cs[0].Replica(0).statAnchors; anchors != 1 {
		return fmt.Errorf("s0's writer anchored %d times, want once: an anchor covered the lap", anchors)
	}
	t.Logf("lapped %d passes at %d of %d bytes, %d fetches", laps, stopped.At, writer.size, fetches)
	return nil
}

// TestLeaveDrainsBehindAGap pins the drain proof of the epoch floor on a
// shared δ-log. Two counter shards share writer p2's log. Node 0's walk of
// it parks at a gap on shard x's slot (its fetch held outstanding) with a
// record of shard y's behind it, and then p2 leaves y. Node 0 must not raise
// y's floor for p2 while that record is unread: once the walk passes it, it
// folds, and y's members agree. A record of y's that p2 writes after it left
// is refused at both members.
func TestLeaveDrainsBehindAGap(t *testing.T) {
	eng := sim.NewEngine(5)
	fab := rdma.NewFabric(eng, 3, rdma.DefaultLatency())
	an := spec.MustAnalyze(crdt.NewCounter())
	opts := DefaultOptions()
	opts.DisableFailureHandling = true
	opts.CheckIntegrity = true
	ox, oy := opts, opts
	ox.Shard, oy.Shard = "x", "y"
	x, y := NewCluster(fab, an, ox), NewCluster(fab, an, oy)
	eng.At(0, func() { // the first calls anchor both slots
		x.Replica(2).Invoke(crdt.CounterAdd, spec.ArgsI(1), nil)
		y.Replica(2).Invoke(crdt.CounterAdd, spec.ArgsI(1), nil)
	})
	eng.RunFor(sim.Millisecond)

	// Two calls of x's run into one δ-record, and y's lands behind it. Node
	// 0's slot of x's claims one of the two, with the fetch that repairs it
	// in flight: the walk waits at x's record.
	gap := x.Replica(0).sums[0][2]
	gap.version++
	gap.fetching = true
	eng.At(eng.Now(), func() {
		x.Replica(2).Invoke(crdt.CounterAdd, spec.ArgsI(5), nil)
		x.Replica(2).Invoke(crdt.CounterAdd, spec.ArgsI(5), nil)
		y.Replica(2).Invoke(crdt.CounterAdd, spec.ArgsI(100), nil)
	})
	eng.RunFor(20 * sim.Microsecond)
	if got := y.Replica(0).CurrentState().(*crdt.CounterState).V; got != 1 {
		t.Fatalf("y at p0 reads %d before the leave, want 1: the walk did not park at x's gap", got)
	}

	left := false
	eng.At(eng.Now(), func() {
		y.Leave(2, func(err error) {
			if err != nil {
				t.Errorf("Leave(2): %v", err)
			}
			left = true
		})
	})
	eng.RunFor(sim.Millisecond)
	if !left {
		t.Fatal("the leave did not commit")
	}
	if f := y.Replica(0).floors[2]; f.Pending() == 0 {
		t.Fatalf("y's floor for p2 at node 0 rose to %d with y's record behind x's gap unread", f.Min())
	}
	// A call p2 makes after it left: the members' NICs would have refused
	// its write to y's own δ-log, and they refuse its record in the shared
	// one, floor raised or not.
	eng.At(eng.Now(), func() { y.Replica(2).Invoke(crdt.CounterAdd, spec.ArgsI(1000), nil) })
	eng.RunFor(20 * sim.Microsecond)
	gap.fetching = false // the fetch lands
	eng.RunFor(sim.Millisecond)
	for p := 0; p < 2; p++ {
		if got := y.Replica(spec.ProcID(p)).CurrentState().(*crdt.CounterState).V; got != 101 {
			t.Errorf("y at p%d reads %d, want 101: p2's call before it left, not the one after", p, got)
		}
	}
	if got := x.Replica(0).CurrentState().(*crdt.CounterState).V; got != 11 {
		t.Errorf("x at p0 reads %d, want 11", got)
	}
	if f := y.Replica(0).floors[2]; f.Pending() != 0 {
		t.Errorf("y's floor for p2 at node 0 still waits for its drain")
	}
}

// TestTagsReturnBehindEveryWalk: a stopped cluster's δ-log tag is taken
// again only once every node's walk has read past its records. A node asleep
// while the stopped cluster's last record landed would otherwise hand that
// record to the next cluster on the tag. The cluster that takes it again
// does not inherit the refusals of a node that left the one before. So it
// goes when the sleeper's walk is lapped by more than passes passes: its
// walk knows the writer's pass, not only the pass number, and so passes the
// stopped cluster's records.
func TestTagsReturnBehindEveryWalk(t *testing.T) {
	for _, lap := range []uint64{0, passes + 1} {
		t.Run(fmt.Sprintf("lap-%d", lap), func(t *testing.T) { tagsReturn(t, lap) })
	}
}

// tagsReturn runs the test with node 0 writing lap passes of its δ-log, a
// second object's records, while node 1 sleeps.
func tagsReturn(t *testing.T, lap uint64) {
	eng := sim.NewEngine(3)
	fab := rdma.NewFabric(eng, 3, rdma.DefaultLatency())
	an := spec.MustAnalyze(crdt.NewCounter())
	opts := DefaultOptions()
	opts.DisableFailureHandling = true
	build := func(shard string) *Cluster {
		o := opts
		o.Shard = shard
		return NewCluster(fab, an, o)
	}
	var filler *Cluster
	tags := 2
	if lap > 0 {
		// The first object sizes the nodes' δ-logs for a record or two a
		// pass, so the lap is a few hundred calls.
		o := opts
		o.Shard, o.DeltaLogBytes = "filler", 128
		filler, tags = NewCluster(fab, an, o), tags+1
	}
	a := build("a")
	eng.At(0, func() {
		a.Replica(0).Invoke(crdt.CounterAdd, spec.ArgsI(1), nil) // the anchor
		a.Leave(2, nil)                                          // node 2's records of a's are refused from here on
	})
	eng.RunFor(sim.Millisecond)
	if a.IsMember(2) {
		t.Fatal("node 2 did not leave a")
	}
	fab.Node(1).Suspend()
	eng.At(eng.Now(), func() { a.Replica(0).Invoke(crdt.CounterAdd, spec.ArgsI(5), nil) }) // a δ-record node 1 does not read
	eng.RunFor(20 * sim.Microsecond)
	if lap > 0 {
		writer := attachedLog(fab.Node(0)).w
		for end := writer.Pos().Abs + lap; writer.Pos().Abs < end; {
			eng.At(eng.Now(), func() { filler.Replica(0).Invoke(crdt.CounterAdd, spec.ArgsI(1), nil) })
			eng.RunFor(10 * sim.Microsecond) // a flush apart: a record each
		}
	}
	tag := a.tags[0]
	a.Stop()
	if b := build("b"); b.tags[0] == tag {
		t.Fatalf("b took tag %d while node 1 had not read a's record on it", tag)
	}
	fab.Node(1).Resume()
	eng.RunFor(sim.Millisecond)
	c := build("c")
	if c.tags[0] != tag {
		t.Fatalf("c took tag %d, want a's %d: every walk has read past a's records", c.tags[0], tag)
	}
	eng.At(eng.Now(), func() { // an anchor and a δ-record from node 2, which a's members refused
		c.Replica(2).Invoke(crdt.CounterAdd, spec.ArgsI(7), nil)
		c.Replica(2).Invoke(crdt.CounterAdd, spec.ArgsI(7), nil)
	})
	eng.RunFor(sim.Millisecond)
	for _, r := range c.Replicas {
		if got := r.CurrentState().(*crdt.CounterState).V; got != 14 {
			t.Errorf("c at p%d reads %d, want 14: a refusal of a's outlived it", r.id, got)
		}
	}
	if n := LogTags(fab.Node(1)); n != tags {
		t.Fatalf("node 1's table holds %d tags, want %d", n, tags)
	}
}

// TestPeerSlotsHoldOnlyTheirAnchors: a node's copy of a peer's summary slot
// is the anchor area alone — the peer's δ-records reach the node through the
// peer's δ-log — and only the node's own slots carry a δ-record log, so a
// node's summary region is one log per group longer than its anchors. The
// slots tile the region without overlap on every node.
func TestPeerSlotsHoldOnlyTheirAnchors(t *testing.T) {
	const n = 4
	h := newHarness(t, crdt.NewTwoPSet(), n, 1, nil) // two summarization groups
	o := h.cluster.Opts
	groups := len(h.cluster.An.Class.SumGroups)
	if groups != 2 {
		t.Fatalf("test premise: %d summarization groups, want 2", groups)
	}
	for i := 0; i < n; i++ {
		r := h.cluster.Replica(spec.ProcID(i))
		if got, want := h.fab.Node(rdma.NodeID(i)).Region(sumRegionBase).Size(), groups*n*r.anchorCap()+groups*o.DeltaLogBytes; got != want {
			t.Fatalf("node %d: a %d-byte summary region, want %d", i, got, want)
		}
		end := 0
		for g := 0; g < groups; g++ {
			for p := 0; p < n; p++ {
				if off := r.slotOffset(g, spec.ProcID(p)); off != end {
					t.Fatalf("node %d: slot (%d, %d) at %d, want %d", i, g, p, off, end)
				}
				end += r.anchorCap()
				if p == i {
					end += o.DeltaLogBytes
				}
			}
		}
	}
	h.eng.At(0, func() {
		for p := 0; p < n; p++ {
			for k := 0; k < 3; k++ {
				h.invoke(spec.ProcID(p), crdt.TwoPAdd, spec.ArgsI(int64(10*p+k)))
				h.invoke(spec.ProcID(p), crdt.TwoPRemove, spec.ArgsI(int64(10*p+k)))
			}
		}
	})
	if !h.drain(20 * sim.Millisecond) {
		t.Fatal("replication did not complete")
	}
	h.checkConvergence()
}
