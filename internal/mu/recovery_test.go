package mu

import (
	"bytes"
	"fmt"
	"slices"
	"testing"

	"hamband/internal/codec"
	"hamband/internal/metrics"
	"hamband/internal/rdma"
	"hamband/internal/ring"
	"hamband/internal/sim"
)

// A leader change that moves only what it must: the tests of what a new
// leader reads and writes while it takes over — a probe before each follower's
// ring is wiped, only the journal slots recovery and catch-up need, and no
// log write to a follower whose ring it has not reset.

// counters reads a registry's counters.
func counters(reg *metrics.Registry) map[string]uint64 { return reg.Snapshot().Counters }

// qpCount is the counter name of a count the queue pair from→to exports.
func qpCount(from, to int, what string) string {
	return fmt.Sprintf("rdma.qp.%d-%d.%s", from, to, what)
}

// voterRun is what suspendedVoter measured: the leader's verbs to the
// suspended voter while it held the old permission and after it resumed.
type voterRun struct {
	c *cluster
	// While node 3 was suspended, once node 1 had won: the writes node 1
	// posted to node 3, their bytes, and the failed verbs of the whole fabric.
	writes, bytes, failed uint64
	// After node 3 resumed: the bytes node 1 wrote to node 3.
	bytesAfter uint64
	// ackErrs counts node 1's log writes to node 3 that failed.
	ackErrs int
	sent    []string
}

// suspendedVoter runs a leader change in a 4-node group in which one voter
// keeps the old leader's write permission for 1 ms: node 3 is suspended
// before node 1 starts its election (node 0, the old leader, stays up and
// votes), so it processes the vote request only when it resumes. Nodes 0–2
// submit throughout. Node 3 is suspended from 50 µs to 1.05 ms, the election
// starts at 100 µs, and the measurement window opens at 300 µs, once node 1
// leads: everything node 1 writes to node 3 in it goes to node 3's log ring.
func suspendedVoter(t *testing.T) voterRun {
	t.Helper()
	reg := metrics.New(nil)
	c := newClusterCfg(t, 4, 0, DefaultConfig(), reg)
	r := voterRun{c: c}
	leader := c.inst[1]
	acked := leader.ackFns[3]
	leader.ackFns[3] = func(err error) {
		if err != nil {
			r.ackErrs++
		}
		acked(err)
	}
	r.sent = c.steadyBurst([]int{0, 1, 2}, 100, 20*sim.Microsecond)
	at := func(d sim.Duration, fn func()) { c.eng.At(sim.Time(d), fn) }
	var open, shut map[string]uint64
	var failedOpen uint64
	at(50*sim.Microsecond, func() { c.fab.Node(3).Suspend() })
	at(100*sim.Microsecond, func() { leader.StartElection() })
	at(300*sim.Microsecond, func() {
		if !leader.IsLeader() || leader.Recovering() {
			t.Fatalf("node 1 has not taken over 200 µs into its election")
		}
		open, failedOpen = counters(reg), c.fab.Stats().Failed
	})
	at(1050*sim.Microsecond, func() {
		shut = counters(reg)
		r.failed = c.fab.Stats().Failed - failedOpen
		c.fab.Node(3).Resume()
	})
	c.run(5 * sim.Millisecond)
	w, b := qpCount(1, 3, "writes"), qpCount(1, 3, "bytes_written")
	r.writes, r.bytes = shut[w]-open[w], shut[b]-open[b]
	r.bytesAfter = counters(reg)[b] - shut[b]
	return r
}

// TestProbeBeforeWipe: while a voter still holds the old leader's permission,
// the new leader costs it one 8-byte probe per retry, not a 64 KiB wipe (the
// parent retried the wipe every CatchUpAfter, ~650 KB over this millisecond);
// once the permission flips, exactly one wipe follows, and the voter
// converges on what everyone else delivered.
func TestProbeBeforeWipe(t *testing.T) {
	r := suspendedVoter(t)
	c := r.c
	if r.writes < 5 {
		t.Fatalf("node 1 wrote %d times to the suspended voter's ring in 750 µs: it stopped retrying", r.writes)
	}
	if r.bytes > 8*r.writes {
		t.Fatalf("node 1 wrote %d bytes in %d writes to a ring it may not write: more than an 8-byte probe per retry", r.bytes, r.writes)
	}
	wipe := uint64(c.inst[1].cfg.RingCapacity)
	if r.bytesAfter < wipe || r.bytesAfter >= 2*wipe {
		t.Fatalf("node 1 wrote %d bytes to node 3 after the permission flipped, want one %d-byte wipe plus the log", r.bytesAfter, wipe)
	}
	got := slices.Clone(c.delivered[1])
	slices.Sort(got)
	want := slices.Clone(r.sent)
	slices.Sort(want)
	if !slices.Equal(got, want) {
		t.Fatalf("the new leader delivered %d entries, want the %d submitted", len(got), len(want))
	}
	c.wantDelivered(t, []int{2, 3}, c.delivered[1])
}

// TestNoLogWriteBeforeReset: the new leader posts no log write to a follower
// whose ring it has not reset, so the only verbs that fail at the suspended
// voter are the probes, each 8 bytes. At the parent every entry and commit
// record went to the voter's ring at a writer position nobody had
// established, and failed on the old permission.
func TestNoLogWriteBeforeReset(t *testing.T) {
	r := suspendedVoter(t)
	if r.ackErrs != 0 {
		t.Fatalf("%d of node 1's log writes to node 3 failed: they were posted before its ring was reset", r.ackErrs)
	}
	if r.writes == 0 || r.failed != r.writes || r.bytes != 8*r.writes {
		t.Fatalf("while node 3 held the old permission: %d failed verbs on the fabric, %d writes of %d bytes from node 1 to node 3; want every failure one of those writes, each an 8-byte probe",
			r.failed, r.writes, r.bytes)
	}
}

// journalEntry is the identity of a journaled entry: a new leader re-journals
// a recovered one under its own term and commit.
type journalEntry struct {
	seq       uint64
	origin    rdma.NodeID
	submitSeq uint64
	payload   string
}

// journalEntries decodes node's journal for seqs [lo, hi) from the whole
// region, the way the parent read it: a slot that does not decode, or that
// holds another seq, is a hole, and stop ends the walk at the first hole.
func (c *cluster) journalEntries(node int, lo, hi uint64, stop bool) []journalEntry {
	cfg := c.inst[node].cfg
	journal := c.fab.Node(rdma.NodeID(node)).Region(journalRegion("g")).Bytes()
	var out []journalEntry
	for seq := lo; seq < hi; seq++ {
		off := int(seq) % cfg.JournalSlots * cfg.JournalSlotSize
		rec, _, _ := codec.DecodeRaw(journal[off : off+cfg.JournalSlotSize])
		e, ok := journaled(rec, seq)
		if !ok {
			if stop {
				break
			}
			continue
		}
		out = append(out, journalEntry{seq, e.origin, e.submitSeq, string(e.payload)})
	}
	return out
}

// wrappedJournal runs a 3-node group with a 16-slot journal to 13 delivered
// entries, lets cut set the stage, then has leader 0 sequence 14..18 — slots
// 14, 15, 0, 1, 2 — and punches a hole at seq 17 in its journal.
func wrappedJournal(t *testing.T, cut func(c *cluster)) (*cluster, *metrics.Registry) {
	t.Helper()
	return wrappedJournalSlots(t, DefaultConfig().JournalSlotSize, cut)
}

// wrappedJournalSlots is wrappedJournal with journal slots of slotSize bytes.
func wrappedJournalSlots(t *testing.T, slotSize int, cut func(c *cluster)) (*cluster, *metrics.Registry) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.JournalSlots, cfg.JournalSlotSize = 16, slotSize
	reg := metrics.New(nil)
	c := newClusterCfg(t, 3, 0, cfg, reg)
	for i := 0; i < 13; i++ {
		c.eng.At(0, func() { c.inst[0].Submit([]byte(distinctPayload("pre", i))) })
	}
	c.run(sim.Millisecond)
	c.assertInOrder(t, []int{0, 1, 2}, 13)
	cut(c)
	// Five requests from node 1 reach the leader in one poll: one round.
	c.eng.At(c.eng.Now(), func() {
		for i := 0; i < 5; i++ {
			c.inst[1].Submit([]byte(distinctPayload("wrap", i)))
		}
	})
	c.run(50 * sim.Microsecond)
	if next := c.inst[0].nextSeq; next != 19 {
		t.Fatalf("the leader sequenced up to %d, want 18", next-1)
	}
	off := 17 % cfg.JournalSlots * cfg.JournalSlotSize
	clear(c.fab.Node(0).Region(journalRegion("g")).Bytes()[off : off+cfg.JournalSlotSize])
	return c, reg
}

// TestRecoveryReadsOnlyTheSlotsItNeeds: a leader dies with entries 14..18
// undelivered everywhere else, their slots wrapping 15 → 0 and seq 17's slot
// a hole. Its successor must recover what a whole-journal read recovers —
// 14, 15, 16 and 18 — reading from the old leader no more than the five
// slots and its state words (the parent read all 16 slots).
func TestRecoveryReadsOnlyTheSlotsItNeeds(t *testing.T) {
	c, reg := wrappedJournal(t, func(c *cluster) {
		// The followers refuse the leader: nothing past 13 is decided.
		for _, p := range []int{1, 2} {
			c.fab.Node(rdma.NodeID(p)).Region(logRegion("g")).RevokeWrite(0)
		}
	})
	want := c.journalEntries(0, 14, 19, false)
	if len(want) != 4 {
		t.Fatalf("the old leader's journal holds %d of seqs 14..18 besides the hole, want 4", len(want))
	}
	before := counters(reg)[qpCount(1, 0, "bytes_read")]
	c.eng.At(c.eng.Now(), func() {
		c.fab.Node(0).Suspend()
		c.inst[1].StartElection()
	})
	c.run(500 * sim.Microsecond)
	if !c.inst[1].IsLeader() || c.inst[1].Recovering() {
		t.Fatal("node 1 did not take over")
	}
	if got := c.journalEntries(1, 14, 19, false); !slices.Equal(got, want) {
		t.Fatalf("node 1 recovered %v, want what the whole journal holds: %v", got, want)
	}
	read := counters(reg)[qpCount(1, 0, "bytes_read")] - before
	cfg := c.inst[0].cfg
	if limit := uint64(5*cfg.JournalSlotSize + 16); read == 0 || read > limit {
		t.Fatalf("node 1 read %d bytes from the old leader, want 1..%d: the slots of seqs 14..18 and the state words", read, limit)
	}
}

// TestCatchUpReadsOnlyTheGap: a follower whose ring refused entries 14..18 —
// slots wrapping 15 → 0, seq 17's slot a hole — catches up from the leader's
// journal. It must deliver what a whole-journal read delivers, 14..16 up to
// the hole, reading no more than the five slots of its gap and the state
// words (the parent read all 16 slots).
func TestCatchUpReadsOnlyTheGap(t *testing.T) {
	const cut = 2
	c, reg := wrappedJournal(t, func(c *cluster) {
		c.fab.Node(cut).Region(logRegion("g")).RevokeWrite(0)
		c.fab.Node(cut).Suspend() // no catch-up before the hole is punched
	})
	if d := c.inst[0].LastDelivered(); d != 18 {
		t.Fatalf("the leader delivered up to %d, want 18", d)
	}
	want := c.journalEntries(0, 14, 19, true)
	if len(want) != 3 {
		t.Fatalf("the leader's journal holds %d entries from 14 up to the hole, want 3", len(want))
	}
	before := counters(reg)[qpCount(cut, 0, "bytes_read")]
	c.eng.At(c.eng.Now(), func() { c.fab.Node(cut).Resume() })
	for i := 0; i < 200 && c.inst[cut].LastDelivered() < 16; i++ {
		c.run(sim.Microsecond)
	}
	c.run(5 * sim.Microsecond) // the deliveries' CPU items; the next catch-up is CatchUpAfter away
	read := counters(reg)[qpCount(cut, 0, "bytes_read")] - before
	if got := c.delivered[cut][13:]; !slices.Equal(got, c.delivered[0][13:16]) || c.seqs[cut][len(c.seqs[cut])-1] != 16 {
		t.Fatalf("the follower caught up with %q, want seqs 14..16: %q", got, c.delivered[0][13:16])
	}
	for i, e := range want {
		if c.delivered[cut][13+i] != e.payload {
			t.Fatalf("seq %d: the follower delivered %q, the journal holds %q", e.seq, c.delivered[cut][13+i], e.payload)
		}
	}
	cfg := c.inst[0].cfg
	if limit := uint64(5*cfg.JournalSlotSize + 16); read == 0 || read > limit {
		t.Fatalf("the follower read %d bytes from the leader, want 1..%d: the slots of seqs 14..18 and the state words", read, limit)
	}
}

// TestTornJournalSlotIsReread: a journal slot that holds garbage under a
// non-zero length word is torn, not a hole. The catch-up of TestCatchUpReadsOnlyTheGap
// over such a slot at seq 17 reads its span again like every other torn read —
// rdma.TornLooks looks, each counted in mu.torn_rejects — and then stops there,
// having delivered 14..16. The slots of 14 and 15 are read once.
func TestTornJournalSlotIsReread(t *testing.T) {
	const cut = 2
	c, reg := wrappedJournal(t, func(c *cluster) {
		c.fab.Node(cut).Region(logRegion("g")).RevokeWrite(0)
		c.fab.Node(cut).Suspend()
	})
	cfg := c.inst[0].cfg
	off := 17 % cfg.JournalSlots * cfg.JournalSlotSize
	garbage := c.fab.Node(0).Region(journalRegion("g")).Bytes()[off : off+cfg.JournalSlotSize]
	for i := range garbage {
		garbage[i] = 0xAB
	}
	reads := qpCount(cut, 0, "reads")
	before := counters(reg)
	c.eng.At(c.eng.Now(), func() { c.fab.Node(cut).Resume() })
	c.run(50 * sim.Microsecond) // well inside CatchUpAfter: one catch-up
	after := counters(reg)
	if got := c.inst[cut].LastDelivered(); got != 16 || !slices.Equal(c.delivered[cut][13:], c.delivered[0][13:16]) {
		t.Fatalf("the follower delivered up to %d (%q), want 14..16 and a stop at the torn slot", got, c.delivered[cut][13:])
	}
	// The state words, the span of seqs 14 and 15, and each look at the span
	// of 16..18 (slots 0..2), which holds the torn slot.
	if got, want := after[reads]-before[reads], uint64(2+rdma.TornLooks); got != want {
		t.Fatalf("the follower posted %d READs to the leader, want %d", got, want)
	}
	if got := after["mu.torn_rejects"] - before["mu.torn_rejects"]; got != rdma.TornLooks {
		t.Fatalf("mu.torn_rejects rose by %d, want the torn slot counted on each of %d looks", got, rdma.TornLooks)
	}
}

// TestWrappedJournalReadKeepsTheFirstSpan: a journal read that wraps is two
// READs, and the journal's ring.Slots.Read needs the first one's bytes until
// the second lands, although a READ lends them only until its callback
// returns. With 8 KiB slots the second span (slots 0..2) takes 4.9 µs of
// wire, longer than an 8 B read's round trip, so the heartbeat-sized reads
// node 1 posts every 250 ns meanwhile complete between the spans and take the
// first span's verb record, and its buffer, off the fabric's free list. The
// slots must still decode to what a whole-journal read finds.
func TestWrappedJournalReadKeepsTheFirstSpan(t *testing.T) {
	c, _ := wrappedJournalSlots(t, 8<<10, func(*cluster) {})
	want := c.journalEntries(0, 14, 19, false)
	if len(want) != 4 {
		t.Fatalf("the leader's journal holds %d of seqs 14..18 besides the hole, want 4", len(want))
	}
	var got []journalEntry
	done := false
	var beat func()
	beat = func() {
		if done {
			return
		}
		c.fab.Node(1).QP(2).Read(stateRegion("g"), 8, 8, func([]byte, error) {})
		c.eng.After(250*sim.Nanosecond, beat)
	}
	c.eng.At(c.eng.Now(), func() {
		c.inst[1].journal.Read(c.fab.Node(1).QP(0), 14, 19, func(rec func(uint64) []byte, err error) {
			if err != nil {
				t.Fatalf("journal read failed: %v", err)
			}
			for seq := uint64(14); seq < 19; seq++ {
				if e, ok := journaled(rec(seq), seq); ok {
					got = append(got, journalEntry{seq, e.origin, e.submitSeq, string(e.payload)})
				}
			}
			done = true
		})
		beat()
	})
	c.run(20 * sim.Microsecond)
	if !done {
		t.Fatal("the journal read did not complete")
	}
	if !slices.Equal(got, want) {
		t.Fatalf("the wrapped read found %v, want what the whole journal holds: %v", got, want)
	}
}

// TestJournalSlotHoldsTheLogRecord: a journal slot holds its entry's round of
// one, and nothing else; a round of one entry is the log ring record the
// followers receive, byte for byte. Node 1 is stopped before the write, so
// its log ring keeps the record.
func TestJournalSlotHoldsTheLogRecord(t *testing.T) {
	c := newCluster(t, 3, 0)
	c.inst[1].Stop()
	c.eng.At(0, func() { c.inst[0].Submit([]byte("kept as sent")) })
	c.run(50 * sim.Microsecond)

	in := c.fab.Node(1).Region(logRegion("g")).Bytes()[ring.HeaderSize:]
	_, n, err := codec.DecodeRaw(in)
	if err != nil {
		t.Fatalf("node 1's log ring holds no record: %v", err)
	}
	size := c.inst[0].cfg.JournalSlotSize
	slot := c.fab.Node(0).Region(journalRegion("g")).Bytes()[1*size : 2*size]
	if !bytes.Equal(slot[:n], in[:n]) {
		t.Fatalf("journal slot of seq 1\n%x\nlog record\n%x", slot[:n], in[:n])
	}
	if !bytes.Equal(slot[n:], make([]byte, size-n)) {
		t.Fatalf("the slot holds bytes past the %d-byte record", n)
	}
}
