package core

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"hamband/internal/broadcast"
	"hamband/internal/codec"
	"hamband/internal/crdt"
	"hamband/internal/rdma"
	"hamband/internal/ring"
	"hamband/internal/sim"
	"hamband/internal/spec"
	"hamband/internal/trace"
)

// The F out-channel's rule (broadcast.Broadcaster.Send), pinned on the wire. The tap
// is a node whose receiver is stopped before the first write, so its inbound
// ring keeps every record a source wrote, the way mu's TestOneRoundInFlight
// taps a log ring.

// tappedMsg is one broadcast message as it sits in a tapped ring.
type tappedMsg struct {
	seq     uint64
	payload int // bytes of bare calls
	first   int // bytes of the first of them
	calls   []spec.Call
}

// tapFree decodes every message src wrote into node's inbound ring, in ring
// order. The wire format is broadcast's: a raw-framed record holding uvarint
// epoch | uvarint seq | payload, the payload a run of bare calls (the ring
// record is the one frame); Poll strips the framing.
func (h *harness) tapFree(node, src int) []tappedMsg {
	h.t.Helper()
	region := h.fab.Node(rdma.NodeID(node)).Region(broadcast.InboundRegion("", rdma.NodeID(src)))
	rd := ring.NewReader(region.Bytes())
	var out []tappedMsg
	for {
		msg, ok, err := rd.Poll()
		if err != nil {
			h.t.Fatalf("tap of p%d's ring from p%d: %v", node, src, err)
		}
		if !ok {
			return out
		}
		var m tappedMsg
		var epoch uint64
		payload, err := codec.Uvarints(msg, &epoch, &m.seq)
		if err != nil {
			h.t.Fatalf("tap of p%d's ring from p%d: %d-byte message: %v", node, src, len(msg), err)
		}
		for m.payload = len(payload); len(payload) > 0; {
			var r codec.DeltaRecord
			n, err := codec.DecodeCall(&r, payload)
			if err != nil {
				h.t.Fatalf("tap of p%d's ring from p%d: message %d: %v", node, src, m.seq, err)
			}
			if m.calls = append(m.calls, r.C); len(m.calls) == 1 {
				m.first = n
			}
			payload = payload[n:]
		}
		out = append(out, m)
	}
}

// newTappedHarness is an OR-set cluster of n nodes whose last node is the tap.
func newTappedHarness(t *testing.T, n int, seed int64, mut func(*Options)) (h *harness, tap int) {
	h = newHarness(t, crdt.NewORSet(), n, seed, mut)
	tap = n - 1
	h.cluster.Replica(spec.ProcID(tap)).rx.Stop()
	return h, tap
}

// addAt issues add(e) at p0 at the given instant.
func (h *harness) addAt(at sim.Duration, e int64) {
	h.eng.At(sim.Time(at), func() { h.invoke(0, crdt.ORSetAdd, spec.ArgsI(e, crdt.Tag(0, uint64(e)))) })
}

// assertAppliedOnce fails unless each of nodes applied exactly want of p0's
// adds and holds elements 1..want.
func (h *harness) assertAppliedOnce(nodes []int, want int) {
	h.t.Helper()
	for _, p := range nodes {
		r := h.cluster.Replica(spec.ProcID(p))
		if got := r.applied.Get(0, crdt.ORSetAdd); got != uint32(want) {
			h.t.Fatalf("p%d applied %d of p0's %d adds", p, got, want)
		}
		for e := int64(1); e <= int64(want); e++ {
			if r.cls.Methods[crdt.ORSetContains].Eval(r.CurrentState(), spec.ArgsI(e)) != true {
				h.t.Fatalf("p%d is missing element %d", p, e)
			}
		}
	}
}

// TestLoneFreeCallPostsAtOnce: a call on an idle source is its own message,
// posted at once, because the flush is a zero-cost CPU item behind nothing.
// The message's writes to both peers are one post item, inline on the idle
// node, and leave together when it ends: 490 ns after Invoke (IssueCost,
// ApplyCost and two inline posts; the first write left at 320 ns when each
// peer's write was an item of its own). It succeeds
// TestFreeBatchingFlushTimer: there is no timer left for a lone call to wait
// on.
func TestLoneFreeCallPostsAtOnce(t *testing.T) {
	h, tap := newTappedHarness(t, 3, 132, nil)
	tr := trace.New(h.eng, 4096)
	for _, r := range h.cluster.Replicas {
		r.opts.Tracer = tr
	}
	h.fab.EnableTracing(tr)
	h.addAt(0, 1)
	h.eng.RunUntil(sim.Time(sim.Millisecond)) // the tap applies nothing, so there is no barrier to drain to
	posts := tr.ByKind(trace.Post)
	if len(posts) != 2 {
		t.Fatalf("%d labeled posts, want one write per peer: %+v", len(posts), posts)
	}
	lat := rdma.DefaultLatency()
	want := sim.Time(lat.IssueCost + lat.ApplyCost + 2*(lat.PostCost+lat.InlineCost))
	for _, p := range posts {
		if p.At != want || p.Call != "p0#1" {
			t.Fatalf("write posted at %v for %q, want %v for p0#1: both writes leave at the end of one inline post item", p.At, p.Call, want)
		}
	}
	if st := h.fab.Stats(); st.InlineWrites != 2 {
		t.Fatalf("%d inline writes of %d, want both: the node was idle", st.InlineWrites, st.Writes)
	}
	if msgs := h.tapFree(tap, 0); len(msgs) != 1 || len(msgs[0].calls) != 1 {
		t.Fatalf("tap holds %+v, want one message of one record", msgs)
	}
	h.assertAppliedOnce([]int{1}, 1)
}

// TestOneMessagePerRoundTrip: calls issued while a message is unacknowledged
// leave together, as ONE message carrying their records in issue order, when
// its first write completes; every peer applies each call exactly once.
func TestOneMessagePerRoundTrip(t *testing.T) {
	const k = 5
	h, tap := newTappedHarness(t, 4, 133, nil)
	h.addAt(0, 1) // alone on an idle source: message 1, acknowledged ~2 µs later
	for i := 0; i < k; i++ {
		h.addAt(400*sim.Nanosecond+sim.Duration(i)*100*sim.Nanosecond, int64(2+i))
	}
	h.eng.RunUntil(sim.Time(sim.Millisecond))
	msgs := h.tapFree(tap, 0)
	if len(msgs) != 2 || len(msgs[0].calls) != 1 || len(msgs[1].calls) != k {
		t.Fatalf("tap holds %d messages %+v, want the lone call and then ONE message of %d", len(msgs), msgs, k)
	}
	for i, c := range msgs[1].calls {
		if c.Seq != uint64(2+i) {
			t.Fatalf("record %d of the batch is call #%d, want issue order", i, c.Seq)
		}
	}
	h.assertAppliedOnce([]int{1, 2}, 1+k)
	if batched, unacked := h.cluster.Replica(0).bc.Backlog(); unacked != 0 || batched != 0 {
		t.Fatalf("at rest the source holds %d bytes with %d messages unacknowledged", batched, unacked)
	}
}

// TestFreeBatchSplitsAtBound: a burst longer than one message splits where
// the next record would not fit, and nowhere else.
func TestFreeBatchSplitsAtBound(t *testing.T) {
	const calls = 150
	h, tap := newTappedHarness(t, 3, 134, nil)
	h.eng.At(0, func() {
		for e := int64(1); e <= calls; e++ {
			h.invoke(0, crdt.ORSetAdd, spec.ArgsI(e, crdt.Tag(0, uint64(e))))
		}
	})
	h.eng.RunUntil(sim.Time(sim.Millisecond))
	bound := h.cluster.Opts.Broadcast.MaxPayload()
	if want := DefaultOptions().Broadcast.MaxPayload(); bound != want || bound > DefaultOptions().Broadcast.BackupSlot {
		t.Fatalf("bound %d, want the broadcast's %d", bound, want)
	}
	msgs := h.tapFree(tap, 0)
	if len(msgs) < 3 {
		t.Fatalf("%d calls left in %d messages: the burst did not reach the bound", calls, len(msgs))
	}
	next := uint64(1)
	for i, m := range msgs {
		if m.payload > bound {
			t.Fatalf("message %d carries %d bytes, bound %d", m.seq, m.payload, bound)
		}
		if i+1 < len(msgs) && m.payload+msgs[i+1].first <= bound {
			t.Fatalf("message %d left at %d bytes of %d, and the %d-byte record behind it fits",
				m.seq, m.payload, bound, msgs[i+1].first)
		}
		for _, c := range m.calls {
			if c.Seq != next {
				t.Fatalf("message %d carries call #%d, want #%d", m.seq, c.Seq, next)
			}
			next++
		}
	}
	h.assertAppliedOnce([]int{1}, calls)
}

// TestSlowLinkDoesNotHoldHealthyPeers: the gate opens on the FIRST completion
// of a message's writes. With the p0–p2 link parked, p0's adds still reach p1
// one round trip apart; gating on the last completion would deliver the first
// and hold the rest until heal.
func TestSlowLinkDoesNotHoldHealthyPeers(t *testing.T) {
	h := newHarness(t, crdt.NewORSet(), 3, 135, nil)
	h.eng.At(0, func() { h.fab.Partition(0, 2) })
	for i := 0; i < 5; i++ {
		h.addAt(sim.Microsecond+sim.Duration(i)*20*sim.Microsecond, int64(1+i))
	}
	h.eng.RunUntil(sim.Time(200 * sim.Microsecond))
	h.assertAppliedOnce([]int{1}, 5) // before heal
	if got := h.cluster.Replica(2).applied.Get(0, crdt.ORSetAdd); got != 0 {
		t.Fatalf("p2 applied %d adds across a partitioned link", got)
	}
	h.fab.HealAll()
	if !h.drain(50 * sim.Millisecond) {
		t.Fatal("p2 did not catch up after heal")
	}
	h.assertAppliedOnce([]int{1, 2}, 5)
}

// TestIsolatedSourceKeepsAccepting: with every link parked no completion
// arrives, so only the bound flushes; the source still accepts and answers
// every call, and its backlog drains after heal.
func TestIsolatedSourceKeepsAccepting(t *testing.T) {
	const calls = 200
	h := newHarness(t, crdt.NewORSet(), 3, 136, func(o *Options) { o.DisableFailureHandling = true })
	h.eng.At(0, func() { h.fab.Partition(0, 1); h.fab.Partition(0, 2) })
	for i := 0; i < calls; i++ {
		h.addAt(sim.Microsecond+sim.Duration(i)*500*sim.Nanosecond, int64(1+i))
	}
	h.eng.RunUntil(sim.Time(500 * sim.Microsecond))
	r := h.cluster.Replica(0)
	if h.pending != 0 || h.issued[0][crdt.ORSetAdd] != calls {
		t.Fatalf("isolated source answered %d of %d calls, %d pending", h.issued[0][crdt.ORSetAdd], calls, h.pending)
	}
	if _, unacked := r.bc.Backlog(); unacked < 2 {
		t.Fatalf("%d messages unacknowledged: the backlog did not build", unacked)
	}
	h.fab.HealAll()
	if !h.drain(50 * sim.Millisecond) {
		t.Fatal("backlog did not drain after heal")
	}
	h.assertAppliedOnce([]int{1, 2}, calls)
	if batched, unacked := r.bc.Backlog(); unacked != 0 || batched != 0 {
		t.Fatalf("after heal the source holds %d bytes with %d messages unacknowledged", batched, unacked)
	}
}

// TestFreeGateWithoutLivePeers: an error completion acknowledges a message,
// and a message with nobody to write to is acknowledged as it launches —
// neither all peers crashed nor a single-node cluster wedges the gate.
func TestFreeGateWithoutLivePeers(t *testing.T) {
	for _, n := range []int{3, 1} {
		h := newHarness(t, crdt.NewORSet(), n, 137, func(o *Options) { o.DisableFailureHandling = true })
		h.eng.At(0, func() {
			for p := 1; p < n; p++ {
				h.fab.Node(rdma.NodeID(p)).Crash()
			}
		})
		for i := 0; i < 10; i++ {
			h.addAt(sim.Microsecond+sim.Duration(i)*300*sim.Nanosecond, int64(1+i))
		}
		h.eng.RunUntil(sim.Time(2 * sim.Millisecond))
		r := h.cluster.Replica(0)
		if batched, unacked := r.bc.Backlog(); h.pending != 0 || unacked != 0 || batched != 0 {
			t.Fatalf("%d nodes: %d calls pending, %d bytes held, %d messages unacknowledged",
				n, h.pending, batched, unacked)
		}
		if h.issued[0][crdt.ORSetAdd] != 10 {
			t.Fatalf("%d nodes: %d of 10 calls accepted", n, h.issued[0][crdt.ORSetAdd])
		}
	}
}

// TestSuspendedSourceLosesNothingItAnswered: a source suspended while it holds
// an open batch behind an unacknowledged message has answered calls it never
// broadcast. Each was staged in the next message's backup slot before its
// client was answered, so the peers that suspect the source recover all of
// them while it is down — for good, as far as they can tell. When it does come
// back and sends the batch, every call is applied exactly once everywhere.
func TestSuspendedSourceLosesNothingItAnswered(t *testing.T) {
	h := newHarness(t, crdt.NewORSet(), 3, 138, nil)
	h.addAt(0, 1)
	h.addAt(500*sim.Nanosecond, 2)
	h.addAt(700*sim.Nanosecond, 3)
	h.eng.At(sim.Time(1200*sim.Nanosecond), func() {
		r := h.cluster.Replica(0)
		if batched, unacked := r.bc.Backlog(); unacked != 1 || batched == 0 || h.pending != 0 {
			t.Fatalf("suspending with %d bytes held, %d messages unacknowledged and %d calls unanswered: not mid-batch",
				batched, unacked, h.pending)
		}
		r.Beater().Suspend()
		h.fab.Node(0).Suspend()
	})
	h.eng.RunUntil(sim.Time(5 * sim.Millisecond))
	h.assertAppliedOnce([]int{1, 2}, 3) // the source is still down
	h.cluster.Replica(0).Beater().Resume()
	h.fab.Node(0).Resume()
	if !h.drain(50 * sim.Millisecond) {
		t.Fatal("the source did not settle after resume")
	}
	h.assertAppliedOnce([]int{0, 1, 2}, 3)
	h.checkConvergence()
}

// TestRecoveredBatchDeliversItsTailOnce: a peer that wrongly suspects a live
// source recovers the open batch as it stands; the batch then grows and leaves
// as one message, of which that peer is handed only the records it has not
// had. The other peer, which recovered nothing, applies the whole message.
func TestRecoveredBatchDeliversItsTailOnce(t *testing.T) {
	h := newHarness(t, crdt.NewORSet(), 3, 140, func(o *Options) { o.DisableFailureHandling = true })
	slow := 20 * sim.Microsecond // p0's writes crawl, so message 1 stays unacknowledged while p1 reads p0's backup
	h.fab.SetLinkDelay(0, 1, slow, 0)
	h.fab.SetLinkDelay(0, 2, slow, 0)
	h.addAt(0, 1)
	h.addAt(500*sim.Nanosecond, 2)
	h.addAt(600*sim.Nanosecond, 3)
	h.eng.At(sim.Time(sim.Microsecond), func() { h.cluster.Replica(1).rx.RecoverFrom(0) })
	h.addAt(slow/2, 4) // joins the batch p1 holds a part of
	h.eng.At(sim.Time(slow/2+sim.Microsecond), func() {
		if got := h.cluster.Replica(1).applied.Get(0, crdt.ORSetAdd); got != 3 {
			t.Fatalf("p1 applied %d adds before the batch left, want the three it recovered", got)
		}
		if batched, unacked := h.cluster.Replica(0).bc.Backlog(); unacked != 1 || batched == 0 {
			t.Fatalf("the batch left early: %d bytes held, %d messages unacknowledged", batched, unacked)
		}
	})
	if !h.drain(50 * sim.Millisecond) {
		t.Fatal("the batch was not delivered")
	}
	h.assertAppliedOnce([]int{0, 1, 2}, 4)
	h.checkConvergence()
	if sent := h.fab.Stats().Writes; sent != 2*2 {
		t.Fatalf("four calls left in %d writes, want two messages to two peers", sent)
	}
}

// TestFreeBatchingConverges: bursts from every replica at once batch, and
// batched calls deliver exactly like lone ones, dependency gating across a
// message boundary included.
func TestFreeBatchingConverges(t *testing.T) {
	h := newHarness(t, crdt.NewORSet(), 3, 131, nil)
	h.eng.At(0, func() {
		for i := 0; i < 50; i++ {
			e := int64(i % 10)
			p := spec.ProcID(i % 3)
			h.invoke(p, crdt.ORSetAdd, spec.ArgsI(e, crdt.Tag(p, uint64(3000+i))))
			if i%5 == 4 {
				h.invoke(p, crdt.ORSetRemove, spec.ArgsI(e))
			}
		}
	})
	if !h.drain(100 * sim.Millisecond) {
		t.Fatal("batched replication did not complete")
	}
	h.checkConvergence()
	if sent := h.fab.Stats().Writes; sent >= 60*2 {
		t.Fatalf("60 calls left in %d writes: the bursts did not batch", sent)
	}
}

// oversizedArgs are arguments whose record no broadcast message can carry at
// the default sizes or below: 64 integers of ten varint bytes each. Int args
// pack as deltas, so the values alternate between MinInt64 and 0, each a
// ten-byte step from the one before.
func oversizedArgs() spec.Args {
	big := spec.Args{I: make([]int64, 64)}
	for i := 0; i < len(big.I); i += 2 {
		big.I[i] = math.MinInt64
	}
	return big
}

// TestTooLargeFreeCallTouchesNothing: at the default sizes the backup slot
// decides the bound, and a call whose record exceeds it is answered with an
// error wrapping codec.ErrTooLarge before it exists anywhere — the source's
// state and applied counts, its backup region (nothing staged) and the wire (no
// write posted, so nothing for a peer to apply) are as they were.
func TestTooLargeFreeCallTouchesNothing(t *testing.T) {
	h := newHarness(t, crdt.NewORSet(), 3, 149, nil)
	h.addAt(0, 1)
	h.eng.RunUntil(sim.Time(sim.Millisecond))
	h.assertAppliedOnce([]int{0, 1, 2}, 1)

	r0 := h.cluster.Replica(0)
	backup := r0.node.Region("rb-backup").Bytes()
	state, applied := r0.CurrentState(), r0.Applied().Clone()
	staged, writes := bytes.Clone(backup), h.fab.Stats().Writes

	big := oversizedArgs()
	var refused error
	r0.Invoke(crdt.ORSetAdd, big, func(_ any, err error) { refused = err })
	h.eng.RunUntil(sim.Time(2 * sim.Millisecond))

	if !errors.Is(refused, codec.ErrTooLarge) {
		t.Fatalf("a %d-argument call under the %d-byte bound: %v, want an error wrapping codec.ErrTooLarge", len(big.I), h.cluster.Opts.Broadcast.MaxPayload(), refused)
	}
	if batched, _ := r0.bc.Backlog(); !r0.CurrentState().Equal(state) || !reflect.DeepEqual(r0.Applied(), applied) || batched != 0 {
		t.Fatalf("the refused call took effect at its source: state %v, applied %v, %d bytes batched", r0.CurrentState(), r0.Applied(), batched)
	}
	if !bytes.Equal(backup, staged) {
		t.Fatal("the refused call was staged in the backup region")
	}
	if got := h.fab.Stats().Writes; got != writes {
		t.Fatalf("%d writes posted for the refused call", got-writes)
	}
	h.assertAppliedOnce([]int{1, 2}, 1)
}

// TestTooLargeConfCallTouchesNothing is the twin on rule CONF for a call
// far past any record's size (over codec.MaxRecord; the journal-slot bound that
// refuses it is pinned at its edge by TestConfCallBoundIsTheJournalSlot): it is answered
// with the codec's error at its origin, before the synchronization group
// hears of it — no pending request, no state or applied count moved, no write
// posted towards the leader — and the group goes on ordering calls.
func TestTooLargeConfCallTouchesNothing(t *testing.T) {
	h := newHarness(t, crdt.NewAccount(), 3, 151, nil)
	h.invoke(1, crdt.AccountDeposit, spec.ArgsI(100))
	h.invoke(1, crdt.AccountWithdraw, spec.ArgsI(30))
	if !h.drain(sim.Millisecond) {
		t.Fatal("the warm-up calls did not replicate")
	}

	r1 := h.cluster.Replica(1) // not the leader: an accepted call would be written to p0
	state, applied, writes := r1.CurrentState(), r1.Applied().Clone(), h.fab.Stats().Writes
	big := spec.Args{I: make([]int64, codec.MaxRecord/10+1)}
	for i := 0; i < len(big.I); i += 2 {
		big.I[i] = math.MinInt64 // alternating with 0: ten delta bytes each
	}
	var refused error
	r1.Invoke(crdt.AccountWithdraw, big, func(_ any, err error) { refused = err })
	h.eng.RunFor(sim.Millisecond)

	if !errors.Is(refused, codec.ErrTooLarge) {
		t.Fatalf("a %d-argument conflicting call: %v, want an error wrapping codec.ErrTooLarge", len(big.I), refused)
	}
	if len(r1.pendingConf) != 0 {
		t.Fatalf("the refused call left %d pending requests", len(r1.pendingConf))
	}
	if !r1.CurrentState().Equal(state) || !reflect.DeepEqual(r1.Applied(), applied) {
		t.Fatalf("the refused call took effect at its origin: state %v, applied %v", r1.CurrentState(), r1.Applied())
	}
	if got := h.fab.Stats().Writes; got != writes {
		t.Fatalf("%d writes posted for the refused call", got-writes)
	}
	h.invoke(1, crdt.AccountWithdraw, spec.ArgsI(20))
	if !h.drain(sim.Millisecond) {
		t.Fatal("the group stopped ordering after the refused call")
	}
	for p := 0; p < 3; p++ {
		if got := h.cluster.Replica(spec.ProcID(p)).CurrentState().(*crdt.AccountState).Balance; got != 50 {
			t.Fatalf("p%d balance %d, want 50", p, got)
		}
	}
}

// TestConfCallBoundIsTheJournalSlot: rule CONF's bound is the Mu journal slot
// (mu.Config.MaxPayload: 201 bytes at the defaults, the 256-byte slot less
// the longest packed round of one ahead of its payload and the raw framing),
// far below codec.MaxRecord. The
// origin counts its call's entry payload with room for the longest dependency
// record the leader may add. A call exactly at the bound is ordered and
// applied on every node; one a byte longer is refused at its origin with
// codec.ErrTooLarge, no request pending and no write posted. Without the
// bound, a withdraw of 24 args alternating MinInt64 and 0 (ten delta bytes
// each) reached the leader and panicked its journal write; at the leader and
// at a follower it is refused.
func TestConfCallBoundIsTheJournalSlot(t *testing.T) {
	h := newHarness(t, crdt.NewAccount(), 3, 152, nil)
	h.invoke(1, crdt.AccountDeposit, spec.ArgsI(100))
	if !h.drain(sim.Millisecond) {
		t.Fatal("the deposit did not replicate")
	}
	bound := h.cluster.Opts.Mu.MaxPayload()
	if bound != 201 || h.cluster.Opts.Mu.JournalSlotSize != 256 {
		t.Fatalf("bound %d for a %d-byte journal slot, want 201 for 256", bound, h.cluster.Opts.Mu.JournalSlotSize)
	}
	r1 := h.cluster.Replica(1) // not the leader: an accepted call is written to p0
	// withdraw(1) padded with zero args, a byte each, and its entry payload
	// as the origin counts it: flag byte, call, the longest 3-cell DepVec
	// in place of the empty one.
	withdraw := func(args int) spec.Args {
		a := spec.Args{I: make([]int64, args)}
		a.I[0] = 1
		return a
	}
	counted := func(a spec.Args) int {
		c := spec.Call{Method: crdt.AccountWithdraw, Proc: 1, Seq: r1.nextSeq + 1, Args: a}
		return len(encodeConf(nil, c, nil)) - 1 + codec.MaxDepVecBytes(3)
	}
	args := 1
	for counted(withdraw(args+1)) <= bound {
		args++
	}
	if got := counted(withdraw(args)); got != bound {
		t.Fatalf("%d args count %d bytes, want the %d-byte bound", args, got, bound)
	}
	h.invoke(1, crdt.AccountWithdraw, withdraw(args))
	if !h.drain(sim.Millisecond) {
		t.Fatal("the call at the bound did not replicate")
	}
	for p := 0; p < 3; p++ {
		if got := h.cluster.Replica(spec.ProcID(p)).CurrentState().(*crdt.AccountState).Balance; got != 99 {
			t.Fatalf("p%d balance %d, want 99: the call at the bound was not applied", p, got)
		}
	}

	writes := h.fab.Stats().Writes
	var refused error
	big := withdraw(args + 1)
	r1.Invoke(crdt.AccountWithdraw, big, func(_ any, err error) { refused = err })
	h.eng.RunFor(sim.Millisecond)
	if !errors.Is(refused, codec.ErrTooLarge) {
		t.Fatalf("a call counting %d bytes under the %d-byte bound: %v, want an error wrapping codec.ErrTooLarge", bound+1, bound, refused)
	}
	if len(r1.pendingConf) != 0 {
		t.Fatalf("the refused call left %d pending requests", len(r1.pendingConf))
	}
	if got := h.fab.Stats().Writes; got != writes {
		t.Fatalf("%d writes posted for the refused call", got-writes)
	}
	// The call that panicked the leader, at the leader and at a follower.
	panicked := spec.Args{I: make([]int64, 24)}
	for i := 0; i < len(panicked.I); i += 2 {
		panicked.I[i] = math.MinInt64
	}
	for _, p := range []spec.ProcID{0, 1} {
		refused = nil
		h.cluster.Replica(p).Invoke(crdt.AccountWithdraw, panicked, func(_ any, err error) { refused = err })
		h.eng.RunFor(sim.Millisecond)
		if !errors.Is(refused, codec.ErrTooLarge) {
			t.Fatalf("p%d: a withdraw of 24 args alternating MinInt64 and 0: %v, want codec.ErrTooLarge", p, refused)
		}
	}
}

// TestFreeBoundFollowsTheRing: the bound is the smaller of what the backup
// slot and what half an inbound ring can hold. With 512-byte rings the ring
// decides; a burst that fills messages to the bound drains and converges
// (before the bound knew the ring, a 357-byte record panicked in
// ring.Writer.reserve), and a configuration too small for any record is
// refused when the cluster is built, with both sizes in the message.
func TestFreeBoundFollowsTheRing(t *testing.T) {
	small := func(o *Options) { o.Broadcast.RingCapacity = 512 }
	h, tap := newTappedHarness(t, 3, 139, small)
	if bound := h.cluster.Opts.Broadcast.MaxPayload(); bound >= 512/2 {
		t.Fatalf("bound %d under 512-byte rings", bound)
	}
	h.eng.At(0, func() {
		for e := int64(1); e <= 40; e++ {
			h.invoke(0, crdt.ORSetAdd, spec.ArgsI(e, crdt.Tag(0, uint64(e))))
		}
	})
	h.eng.RunUntil(sim.Time(10 * sim.Millisecond))
	h.assertAppliedOnce([]int{1}, 40)
	full := 0
	for _, m := range h.tapFree(tap, 0)[:2] { // the tap's ring holds two records, and nobody drains it
		if len(m.calls) > 1 {
			full++
		}
	}
	if full == 0 {
		t.Fatal("no message of the burst carried more than one record")
	}

	// A call whose record no message can carry is refused before it takes
	// effect anywhere: not applied or counted at the source, nothing batched,
	// nothing sent for a peer to apply.
	big := oversizedArgs()
	r0 := h.cluster.Replica(0)
	state := r0.CurrentState().Clone()
	var refused error
	r0.Invoke(crdt.ORSetAdd, big, func(_ any, err error) { refused = err })
	h.eng.RunUntil(h.eng.Now() + sim.Time(sim.Millisecond))
	if !errors.Is(refused, codec.ErrTooLarge) {
		t.Fatalf("a call with a %d-argument record under a %d-byte bound: %v, want ErrTooLarge", len(big.I), h.cluster.Opts.Broadcast.MaxPayload(), refused)
	}
	batched, _ := r0.bc.Backlog()
	if got := r0.applied.Get(0, crdt.ORSetAdd); got != 40 || !r0.CurrentState().Equal(state) || batched != 0 {
		t.Fatalf("the refused call took effect: %d adds applied, %d bytes batched, state %v", got, batched, r0.CurrentState())
	}
	h.assertAppliedOnce([]int{1}, 40)

	// The largest backup slot too small: its record overhead (a message
	// header and the raw framing, the slot's size less the payload bound)
	// leaves one byte under MinDeltaLogBytes.
	def := DefaultOptions().Broadcast
	slot := MinDeltaLogBytes - 1 + def.BackupSlot - def.MaxPayload()
	defer func() {
		msg, _ := recover().(string)
		if !strings.Contains(msg, fmt.Sprintf("%d-byte backup slot", slot)) || !strings.Contains(msg, "512-byte inbound ring") {
			t.Fatalf("NewCluster with a %d-byte backup slot: %q, want a panic naming both sizes", slot, msg)
		}
	}()
	newHarness(t, crdt.NewORSet(), 3, 139, func(o *Options) { small(o); o.Broadcast.BackupSlot = slot })
}

// TestApplyFollowsResume: an F delivery that lands while its node is
// suspended — the delivery's CPU item was dispatched before the suspension
// and completes during it — is applied as soon as the node resumes, because
// the kick queues the apply pump on the paused CPU. The resume falls halfway
// between two multiples of 5 µs: a pump that waited for a retry at that
// period would apply the call 2.5 µs after it.
func TestApplyFollowsResume(t *testing.T) {
	quiet := func(o *Options) { o.DisableFailureHandling = true }
	// A first run finds when p1's F buffer takes p0's call.
	h := newHarness(t, crdt.NewORSet(), 3, 161, quiet)
	r1 := h.cluster.Replica(1)
	var landed sim.Time
	probe := h.eng.NewTicker(sim.Nanosecond, func() {
		if free, _ := r1.QueueDepths(); free > 0 && landed == 0 {
			landed = h.eng.Now()
		}
	})
	h.addAt(0, 1)
	h.eng.RunUntil(sim.Time(20 * sim.Microsecond))
	probe.Cancel()
	if landed == 0 || r1.applied.Get(0, crdt.ORSetAdd) != 1 {
		t.Fatalf("p1 applied %d calls, its F buffer first held one at %v", r1.applied.Get(0, crdt.ORSetAdd), landed)
	}

	// The same run, with p1 suspended while the delivery's item is on its CPU.
	const period = sim.Time(5 * sim.Microsecond)
	resume := (landed/period+1)*period + period/2
	h = newHarness(t, crdt.NewORSet(), 3, 161, quiet)
	r1 = h.cluster.Replica(1)
	h.addAt(0, 1)
	h.eng.At(landed-10, func() { h.fab.Node(1).Suspend() })
	h.eng.At(resume, func() {
		if free, _ := r1.QueueDepths(); free != 1 || r1.applied.Get(0, crdt.ORSetAdd) != 0 {
			t.Fatalf("at the resume p1 buffers %d calls and applied %d: the delivery did not land during the suspension", free, r1.applied.Get(0, crdt.ORSetAdd))
		}
		h.fab.Node(1).Resume()
	})
	h.eng.RunUntil(resume + sim.Time(sim.Microsecond))
	if got := r1.applied.Get(0, crdt.ORSetAdd); got != 1 {
		t.Fatalf("1 µs after the resume at %v p1 applied %d calls, want the one that landed while it was suspended", resume, got)
	}
}
