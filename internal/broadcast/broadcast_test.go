package broadcast

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"testing"

	"hamband/internal/codec"
	"hamband/internal/rdma"
	"hamband/internal/sim"
)

type delivery struct {
	src rdma.NodeID
	seq uint64
	msg string
}

func setup(n int, cfg Config) (*sim.Engine, *rdma.Fabric, []*Broadcaster, [][]delivery, []*Receiver) {
	eng := sim.NewEngine(31)
	fab := rdma.NewFabric(eng, n, rdma.DefaultLatency())
	Setup(fab, cfg)
	got := make([][]delivery, n)
	bcs := make([]*Broadcaster, n)
	rcs := make([]*Receiver, n)
	for i := 0; i < n; i++ {
		i := i
		node := fab.Node(rdma.NodeID(i))
		bcs[i] = NewBroadcaster(fab, node, cfg)
		rcs[i] = NewReceiver(fab, node, cfg, func(src rdma.NodeID, seq uint64, payload []byte) {
			got[i] = append(got[i], delivery{src, seq, string(payload)})
		})
	}
	return eng, fab, bcs, got, rcs
}

func TestBroadcastDeliversToAllOthers(t *testing.T) {
	cfg := DefaultConfig()
	eng, _, bcs, got, _ := setup(3, cfg)
	done := false
	eng.At(0, func() {
		if err := bcs[0].Broadcast([]byte("hello"), func() { done = true }); err != nil {
			t.Error(err)
		}
	})
	eng.RunUntil(sim.Time(sim.Millisecond))
	if !done {
		t.Fatal("completion callback never fired")
	}
	for i := 1; i < 3; i++ {
		if len(got[i]) != 1 || got[i][0].msg != "hello" || got[i][0].src != 0 {
			t.Fatalf("node %d deliveries = %v", i, got[i])
		}
	}
	if len(got[0]) != 0 {
		t.Fatal("source delivered its own message")
	}
}

func TestBroadcastFIFOPerSource(t *testing.T) {
	cfg := DefaultConfig()
	eng, _, bcs, got, _ := setup(2, cfg)
	const n = 200
	eng.At(0, func() {
		for i := 0; i < n; i++ {
			if err := bcs[0].Broadcast([]byte(fmt.Sprintf("m%d", i)), nil); err != nil {
				t.Error(err)
			}
		}
	})
	eng.RunUntil(sim.Time(50 * sim.Millisecond))
	if len(got[1]) != n {
		t.Fatalf("delivered %d messages, want %d", len(got[1]), n)
	}
	for i, d := range got[1] {
		if d.seq != uint64(i+1) {
			t.Fatalf("delivery %d has seq %d (FIFO violated)", i, d.seq)
		}
	}
}

func TestBroadcastManySourcesConcurrently(t *testing.T) {
	cfg := DefaultConfig()
	eng, _, bcs, got, _ := setup(4, cfg)
	const per = 50
	eng.At(0, func() {
		for s := 0; s < 4; s++ {
			for i := 0; i < per; i++ {
				if err := bcs[s].Broadcast([]byte(fmt.Sprintf("s%d-%d", s, i)), nil); err != nil {
					t.Error(err)
				}
			}
		}
	})
	eng.RunUntil(sim.Time(100 * sim.Millisecond))
	for i := 0; i < 4; i++ {
		if len(got[i]) != 3*per {
			t.Fatalf("node %d delivered %d, want %d", i, len(got[i]), 3*per)
		}
	}
}

func TestBackupSlotClearedAfterCompletion(t *testing.T) {
	cfg := DefaultConfig()
	eng, fab, bcs, _, _ := setup(2, cfg)
	eng.At(0, func() { bcs[0].Broadcast([]byte("x"), nil) })
	eng.RunUntil(sim.Time(sim.Millisecond))
	backup := fab.Node(0).Region("rb-backup").Bytes()
	for _, b := range backup {
		if b != 0 {
			t.Fatal("backup region not cleared after completion")
		}
	}
}

func TestAgreementUnderSourceSuspension(t *testing.T) {
	// The paper's agreement scenario: the source fails mid-fan-out, so one
	// peer's write lands and the other's does not. A message's writes leave
	// as one CPU item, so no suspension of the source splits them; a cut
	// link 0 → 2 does: node 1's write lands, node 2's parks at the link.
	// The message must be recoverable from the source's backup region,
	// which its NIC serves over the links that still work.
	cfg := DefaultConfig()
	eng, fab, bcs, got, rcs := setup(3, cfg)
	fab.PartitionLink(0, 2)
	eng.At(0, func() { bcs[0].Broadcast([]byte("pending"), nil) })
	eng.RunUntil(sim.Time(sim.Millisecond))
	if len(got[1]) != 1 {
		t.Fatalf("node 1 (write landed) got %d deliveries, want 1", len(got[1]))
	}
	if len(got[2]) != 0 {
		t.Fatal("node 2's ring write should be parked at the cut link")
	}
	// Agreement is now at stake: node 1 delivered, node 2 did not. The
	// failure detector would suspect node 0; survivors recover.
	eng.At(eng.Now(), func() {
		rcs[1].RecoverFrom(0)
		rcs[2].RecoverFrom(0)
	})
	eng.RunUntil(eng.Now() + sim.Time(sim.Millisecond))
	check := func(when string) {
		t.Helper()
		for _, i := range []int{1, 2} {
			if len(got[i]) != 1 || got[i][0].msg != "pending" {
				t.Fatalf("node %d deliveries %s = %v, want exactly the pending message", i, when, got[i])
			}
		}
	}
	check("after recovery")
	// The parked write lands once the link heals: still exactly once.
	fab.HealLink(0, 2)
	eng.RunUntil(eng.Now() + sim.Time(sim.Millisecond))
	check("after the heal")
}

func TestRecoveryDoesNotDuplicate(t *testing.T) {
	cfg := DefaultConfig()
	eng, _, bcs, got, rcs := setup(2, cfg)
	eng.At(0, func() { bcs[0].Broadcast([]byte("m"), nil) })
	// Normal delivery happens; then a (spurious) suspicion triggers
	// recovery, which must not deliver the message twice. The backup slot
	// was already cleared, but even a racing recovery read dedups by seq.
	eng.At(sim.Time(200*sim.Microsecond), func() { rcs[1].RecoverFrom(0) })
	eng.RunUntil(sim.Time(2 * sim.Millisecond))
	if len(got[1]) != 1 {
		t.Fatalf("delivered %d times, want exactly once", len(got[1]))
	}
}

func TestRecoveryFromCrashedSourceIsSafe(t *testing.T) {
	cfg := DefaultConfig()
	eng, fab, bcs, got, rcs := setup(2, cfg)
	eng.At(0, func() {
		bcs[0].Broadcast([]byte("m"), nil)
		fab.Node(0).Crash()
	})
	eng.At(sim.Time(500*sim.Microsecond), func() { rcs[1].RecoverFrom(0) })
	eng.RunUntil(sim.Time(2 * sim.Millisecond))
	// No assertion on delivery (a crashed NIC loses in-flight state);
	// recovery must simply not wedge or panic.
	_ = got
}

func TestIntegrationWithFailureDetector(t *testing.T) {
	// End-to-end: heartbeats + detector + recovery, as wired in Hamband.
	cfg := DefaultConfig()
	eng, fab, bcs, got, rcs := setup(3, cfg)
	for i := 0; i < 3; i++ {
		i := i
		fab.Node(rdma.NodeID(i)).Subscribe(func(peer rdma.NodeID) { rcs[i].RecoverFrom(peer) }, nil)
	}
	eng.At(0, func() {
		bcs[0].Broadcast([]byte("survives"), nil)
		fab.Node(0).Suspend()
	})
	eng.RunUntil(sim.Time(5 * sim.Millisecond))
	for _, i := range []int{1, 2} {
		if len(got[i]) != 1 || got[i][0].msg != "survives" {
			t.Fatalf("node %d: deliveries %v; agreement violated", i, got[i])
		}
	}
}

func TestRingBackpressure(t *testing.T) {
	// A tiny ring forces the writer through the head-refresh path.
	cfg := DefaultConfig()
	cfg.RingCapacity = 256
	eng, _, bcs, got, _ := setup(2, cfg)
	const n = 100
	eng.At(0, func() {
		for i := 0; i < n; i++ {
			bcs[0].Broadcast([]byte("0123456789"), nil)
		}
	})
	eng.RunUntil(sim.Time(100 * sim.Millisecond))
	if len(got[1]) != n {
		t.Fatalf("delivered %d, want %d under backpressure", len(got[1]), n)
	}
}

func TestCrashedPeerMidHeadReadDrainsQueue(t *testing.T) {
	// Satellite regression for refreshHead's crashed-peer path: a tiny
	// ring and a suspended receiver push the writer into head-refresh
	// retries with a backlog split between an in-flight chain and queued
	// messages. Crashing the peer mid-read must complete every broadcast
	// exactly once — the chain's tail completion accounts the batched
	// messages, the drain accounts the queued ones — and must not wedge
	// the channel for later broadcasts.
	cfg := DefaultConfig()
	cfg.RingCapacity = 256
	eng, fab, bcs, _, _ := setup(2, cfg)
	const n = 30
	done := make([]int, n+1)
	eng.At(0, func() {
		fab.Node(1).Suspend() // receiver stops polling: the ring fills
		for i := 0; i < n; i++ {
			i := i
			bcs[0].Broadcast([]byte("0123456789"), func() { done[i]++ })
		}
	})
	eng.At(sim.Time(50*sim.Microsecond), func() { fab.Node(1).Crash() })
	// A broadcast issued after the crash must also complete (via the
	// failure path), proving the channel did not deadlock.
	eng.At(sim.Time(500*sim.Microsecond), func() {
		bcs[0].Broadcast([]byte("after-crash"), func() { done[n]++ })
	})
	eng.RunUntil(sim.Time(20 * sim.Millisecond))
	for i, c := range done {
		if c != 1 {
			t.Fatalf("broadcast %d completed %d times, want exactly once", i, c)
		}
	}
}

func TestRecoverFromDoesNotDuplicateInFlightChain(t *testing.T) {
	// Satellite regression: a recovery sweep racing a chained fan-out
	// still in flight must not deliver any message twice. The broadcasts
	// are posted as one chain per peer; RecoverFrom reads the backup
	// region while the chain is on the wire, so both the recovered copy
	// and the ring copy reach the receiver — dedup keeps exactly one.
	cfg := DefaultConfig()
	eng, _, bcs, got, rcs := setup(3, cfg)
	const n = 5
	eng.At(0, func() {
		for i := 0; i < n; i++ {
			bcs[0].Broadcast([]byte(fmt.Sprintf("m%d", i)), nil)
		}
	})
	// The chain lands ~1 µs after posting; a recovery read issued now
	// observes the still-occupied backup slots.
	eng.At(sim.Time(1*sim.Microsecond), func() {
		rcs[1].RecoverFrom(0)
		rcs[2].RecoverFrom(0)
	})
	eng.RunUntil(sim.Time(5 * sim.Millisecond))
	for _, i := range []int{1, 2} {
		if len(got[i]) != n {
			t.Fatalf("node %d delivered %d messages, want %d (no loss, no duplicates)", i, len(got[i]), n)
		}
		seen := make(map[uint64]bool)
		for _, d := range got[i] {
			if seen[d.seq] {
				t.Fatalf("node %d delivered seq %d twice", i, d.seq)
			}
			seen[d.seq] = true
		}
	}
}

// TestFirstAckPacesTheSource: Send's open batch leaves on the first
// completion of the message in flight — a Broadcast's too — while a parked
// link still holds that message's last completion, and with it Broadcast's
// onDone, back; each message is acknowledged once, an error completion
// counts, and a message with no peer to write to is acknowledged as it
// launches.
func TestFirstAckPacesTheSource(t *testing.T) {
	eng, fab, bcs, got, _ := setup(3, DefaultConfig())
	dones := 0
	send := func(b *Broadcaster, unit string) {
		if err := b.Send([]byte(unit), ""); err != nil {
			t.Fatal(err)
		}
	}
	backlog := func(b *Broadcaster, batched, unacked int, when string) {
		if n, u := b.Backlog(); n != batched || u != unacked {
			t.Fatalf("%s: %d bytes batched, %d messages unacknowledged, want %d and %d", when, n, u, batched, unacked)
		}
	}
	eng.At(0, func() {
		fab.Partition(0, 2)
		send(bcs[0], "a")
	})
	eng.At(sim.Time(100*sim.Nanosecond), func() {
		send(bcs[0], "b")
		send(bcs[0], "c")
		backlog(bcs[0], 2, 1, "behind the first message")
	})
	eng.At(sim.Time(10*sim.Microsecond), func() {
		backlog(bcs[0], 0, 0, "both messages at p1")
		if err := bcs[0].Broadcast([]byte("m"), func() { dones++ }); err != nil {
			t.Error(err)
		}
		send(bcs[0], "d")
		backlog(bcs[0], 1, 1, "behind the broadcast")
	})
	eng.RunUntil(sim.Time(50 * sim.Microsecond))
	if s := fmt.Sprint(got[1]); s != "[{0 1 a} {0 2 bc} {0 3 m} {0 4 d}]" || len(got[2]) != 0 {
		t.Fatalf("one link parked: p1 got %s and p2 %v, want every message at p1 only", s, got[2])
	}
	backlog(bcs[0], 0, 0, "one link parked")
	if dones != 0 {
		t.Fatalf("one link parked: onDone ran %d times, want it to wait for the last write", dones)
	}
	fab.HealAll()
	eng.RunUntil(sim.Time(sim.Millisecond))
	backlog(bcs[0], 0, 0, "after heal") // the late completions acknowledge nothing twice
	if len(got[2]) != 4 {
		t.Fatalf("after heal p2 got %v, want every message", got[2])
	}
	if dones != 1 {
		t.Fatalf("after heal onDone ran %d times, want once", dones)
	}

	fab.Node(1).Crash()
	fab.Node(2).Crash()
	send(bcs[0], "e")
	eng.RunUntil(sim.Time(2 * sim.Millisecond))
	backlog(bcs[0], 0, 0, "every peer crashed")

	soloEng, _, solo, _, _ := setup(1, DefaultConfig())
	for _, unit := range []string{"x", "y"} {
		send(solo[0], unit)
		soloEng.RunUntil(soloEng.Now() + sim.Time(sim.Microsecond))
		backlog(solo[0], 0, 0, "no peer to write to")
	}
}

// TestMaxPayloadFitsSlotAndRing: a payload of exactly MaxPayload bytes under
// the longest packed header — a five-byte epoch and a ten-byte seq — makes a
// ring record as long as the backup slot and the ring take, whichever of the
// two decides the bound, and such a payload launches and is delivered. At the
// defaults the slot decides: 512 − 15 − 9 = 488 bytes.
func TestMaxPayloadFitsSlotAndRing(t *testing.T) {
	if n := DefaultConfig().MaxPayload(); n != 488 {
		t.Fatalf("default MaxPayload %d, want 488", n)
	}
	for _, ringCap := range []int{1 << 16, 512} {
		cfg := DefaultConfig()
		cfg.RingCapacity = ringCap
		eng, _, bcs, got, _ := setup(2, cfg)
		n := cfg.MaxPayload()
		longest := appendMessage(nil, math.MaxUint32, math.MaxUint64, make([]byte, n))
		if record := len(longest) + codec.RawOverhead; record != min(cfg.BackupSlot, ringCap/2) {
			t.Fatalf("ring %d: MaxPayload %d makes a %d-byte record; the %d-byte slot and the %d-byte record bound are not tight",
				ringCap, n, record, cfg.BackupSlot, ringCap/2)
		}
		bcs[0].SetEpoch(math.MaxUint32)
		if err := bcs[0].Broadcast(make([]byte, n), nil); err != nil {
			t.Fatal(err)
		}
		eng.RunUntil(sim.Time(sim.Millisecond))
		if len(got[1]) != 1 || len(got[1][0].msg) != n {
			t.Fatalf("ring %d: %d-byte payload not delivered: %d deliveries", ringCap, n, len(got[1]))
		}
	}
}

// TestRefusedPayloadKeepsTheStream: a payload over MaxPayload is refused with
// codec.ErrTooLarge, by Broadcast and by Send alike, before it takes a
// sequence number — one that would overflow the backup slot, and one that
// would overflow codec.MaxRecord. The messages around the refusals keep
// consecutive sequence numbers, so the receiver's watermark folds every one.
func TestRefusedPayloadKeepsTheStream(t *testing.T) {
	cfg := DefaultConfig()
	eng, _, bcs, got, rcs := setup(2, cfg)
	refused := func(how string, send func() error) {
		t.Helper()
		defer func() {
			if p := recover(); p != nil {
				t.Errorf("%s: panicked: %v", how, p)
			}
		}()
		if err := send(); !errors.Is(err, codec.ErrTooLarge) {
			t.Errorf("%s: %v, want codec.ErrTooLarge", how, err)
		}
	}
	for i := 0; i < 5; i++ {
		if err := bcs[0].Broadcast([]byte(fmt.Sprint(i)), nil); err != nil {
			t.Fatal(err)
		}
	}
	for _, n := range []int{cfg.MaxPayload() + 1, cfg.BackupSlot, codec.MaxRecord + 1} {
		big := make([]byte, n)
		refused(fmt.Sprintf("a %d-byte Broadcast", n), func() error { return bcs[0].Broadcast(big, nil) })
		refused(fmt.Sprintf("a %d-byte Send", n), func() error { return bcs[0].Send(big, "") })
	}
	if err := bcs[0].Broadcast([]byte("5"), nil); err != nil {
		t.Fatal(err)
	}
	if err := bcs[0].Send([]byte("6"), ""); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(sim.Time(sim.Millisecond))
	if s := fmt.Sprint(got[1]); s != "[{0 1 0} {0 2 1} {0 3 2} {0 4 3} {0 5 4} {0 6 5} {0 7 6}]" {
		t.Fatalf("delivered %s, want seven messages in sequence", s)
	}
	if w := &rcs[1].dedup[0]; w.Low() != 7 || w.Above() != 0 {
		t.Fatalf("watermark %d with %d entries above it, want all seven messages folded in", w.Low(), w.Above())
	}
}

// TestBroadcastFollowsTheOpenBatch: a Broadcast while Send holds an open
// batch sends the batch first, as the message its backup slot was staged
// for, so the source's messages keep the order their payloads were handed in.
func TestBroadcastFollowsTheOpenBatch(t *testing.T) {
	eng, _, bcs, got, _ := setup(2, DefaultConfig())
	if err := bcs[0].Send([]byte("ab"), ""); err != nil {
		t.Fatal(err)
	}
	if err := bcs[0].Broadcast([]byte("xyz"), nil); err != nil {
		t.Fatal(err)
	}
	eng.RunUntil(sim.Time(sim.Millisecond))
	if s := fmt.Sprint(got[1]); s != "[{0 1 ab} {0 2 xyz}]" {
		t.Fatalf("delivered %s, want the batch and then the broadcast", s)
	}
}

// TestStagedMessageSurvivesItsSource: what a source has sent into its open
// batch is in its backup region before the batch leaves, so a peer that
// suspects it recovers it; a longer batch, and then the message itself,
// deliver only what the peer has not had. A source that stays down has lost
// nothing it sent, one that comes back delivers nothing twice, and once the
// message has come by ring the dedup entry folds into the watermark. The
// source is suspended throughout: its CPU holds the deferred flush while its
// NIC serves the peers' reads.
func TestStagedMessageSurvivesItsSource(t *testing.T) {
	eng, fab, bcs, got, rcs := setup(3, DefaultConfig())
	run := func() { eng.RunUntil(eng.Now() + sim.Time(100*sim.Microsecond)) }
	msgs := func(i int) (s []string) {
		for _, d := range got[i] {
			if d.src != 0 || d.seq != 1 {
				t.Fatalf("node %d got %+v, want parts of message 1 of node 0", i, d)
			}
			s = append(s, d.msg)
		}
		return s
	}
	send := func(unit string) {
		if err := bcs[0].Send([]byte(unit), ""); err != nil {
			t.Fatal(err)
		}
	}
	fab.Node(0).Suspend()
	send("ab")
	rcs[1].RecoverFrom(0)
	run()
	send("cd")
	rcs[1].RecoverFrom(0)
	rcs[1].RecoverFrom(0) // nothing new: nothing delivered
	rcs[2].RecoverFrom(0)
	run()
	if a, b := fmt.Sprint(msgs(1)), fmt.Sprint(msgs(2)); a != "[ab cd]" || b != "[abcd]" {
		t.Fatalf("recovered %s and %s from the staged slot, want [ab cd] and [abcd]", a, b)
	}
	send("ef")
	fab.Node(0).Resume()
	run()
	rcs[1].RecoverFrom(0)
	run()
	if a, b := fmt.Sprint(msgs(1)), fmt.Sprint(msgs(2)); a != "[ab cd ef]" || b != "[abcd ef]" {
		t.Fatalf("after the message left the peers hold %s and %s, want each byte once", a, b)
	}
	for i := 1; i < 3; i++ {
		if w := &rcs[i].dedup[0]; w.Low() != 1 || w.Above() != 0 {
			t.Fatalf("node %d: watermark %d with %d entries above it, want the whole message folded in", i, w.Low(), w.Above())
		}
	}
}

// TestStageYieldsToMessagesInFlight: a slot still held by a message in flight
// is not staged over, and the message that follows queues for it as before.
// With the link parked no message is acknowledged, so each batch leaves only
// when the next unit would overflow it: units of more than half MaxPayload
// make a message each.
func TestStageYieldsToMessagesInFlight(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BackupSlots = 2
	eng, fab, bcs, got, _ := setup(2, cfg)
	fab.Partition(0, 1)
	units := make([]string, 3)
	for i := range units {
		units[i] = strings.Repeat(fmt.Sprint(i+1), cfg.MaxPayload()/2+1)
		if err := bcs[0].Send([]byte(units[i]), ""); err != nil {
			t.Fatal(err)
		}
	}
	// Messages 1 and 2 are in flight; message 3, the open batch, wants
	// message 1's slot.
	if _, unacked := bcs[0].Backlog(); unacked != 2 {
		t.Fatalf("%d messages unacknowledged, want 2", unacked)
	}
	backup := fab.Node(0).Region(cfg.backupRegion()).Bytes()
	if msg, _, err := codec.DecodeRaw(backup[cfg.BackupSlot : 2*cfg.BackupSlot]); err != nil || !strings.Contains(string(msg), units[0]) {
		t.Fatalf("slot of message 1 holds %q (%v) after staging message 3 over it", msg, err)
	}
	fab.HealAll()
	eng.RunUntil(sim.Time(sim.Millisecond))
	if len(got[1]) != 3 {
		t.Fatalf("delivered %d messages, want 3", len(got[1]))
	}
	for i, d := range got[1] {
		if d.seq != uint64(i+1) || d.msg != units[i] {
			t.Fatalf("delivery %d is message %d of %d bytes, want message %d, unit %d", i, d.seq, len(d.msg), i+1, i+1)
		}
	}
}
