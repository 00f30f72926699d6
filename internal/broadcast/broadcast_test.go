package broadcast

import (
	"fmt"
	"strings"
	"testing"

	"hamband/internal/codec"
	"hamband/internal/heartbeat"
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
	// The paper's agreement scenario: the source fails mid-fan-out. The
	// source suspends after node 1's doorbell has rung but before node 2's
	// chain is posted, so only node 1's write goes out; node 2's is stuck
	// behind the suspended CPU. The message must be recoverable from the
	// source's backup region, which its still-alive NIC serves.
	cfg := DefaultConfig()
	eng, fab, bcs, got, rcs := setup(3, cfg)
	eng.At(0, func() { bcs[0].Broadcast([]byte("pending"), nil) })
	// Node 1's post is dispatched within the first PostCost of virtual
	// time; suspending inside that window leaves node 2's post queued.
	eng.At(100, func() { fab.Node(0).Suspend() })
	eng.RunUntil(sim.Time(sim.Millisecond))
	if len(got[1]) != 1 {
		t.Fatalf("node 1 (write already on the wire) got %d deliveries, want 1", len(got[1]))
	}
	if len(got[2]) != 0 {
		t.Fatal("node 2's ring write should be stuck behind the suspended CPU")
	}
	// Agreement is now at stake: node 1 delivered, node 2 did not. The
	// failure detector would suspect node 0; survivors recover.
	eng.At(eng.Now(), func() {
		rcs[1].RecoverFrom(0)
		rcs[2].RecoverFrom(0)
	})
	eng.RunUntil(eng.Now() + sim.Time(sim.Millisecond))
	for _, i := range []int{1, 2} {
		if len(got[i]) != 1 || got[i][0].msg != "pending" {
			t.Fatalf("node %d deliveries after recovery = %v, want exactly the pending message", i, got[i])
		}
	}
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
	hbCfg := heartbeat.DefaultConfig()
	for i := 0; i < 3; i++ {
		heartbeat.Register(fab.Node(rdma.NodeID(i)))
	}
	for i := 0; i < 3; i++ {
		i := i
		heartbeat.NewBeater(eng, fab.Node(rdma.NodeID(i)), hbCfg.BeatPeriod)
		d := heartbeat.NewDetector(fab, fab.Node(rdma.NodeID(i)), hbCfg)
		d.OnSuspect = func(peer rdma.NodeID) { rcs[i].RecoverFrom(peer) }
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

// TestFirstAckPacesTheSource: onAck runs once per message, at the first
// completion of its writes — while a parked link still holds onDone back —
// counts an error completion, and with no peer at all runs at launch.
func TestFirstAckPacesTheSource(t *testing.T) {
	eng, fab, bcs, _, _ := setup(3, DefaultConfig())
	acks, dones := 0, 0
	eng.At(0, func() {
		fab.Partition(0, 2)
		if err := bcs[0].BroadcastLabeled("", []byte("m"), func() { acks++ }, func() { dones++ }); err != nil {
			t.Error(err)
		}
	})
	eng.RunUntil(sim.Time(50 * sim.Microsecond))
	if acks != 1 || dones != 0 {
		t.Fatalf("one link parked: %d acks, %d dones, want the healthy peer's completion only", acks, dones)
	}
	fab.HealAll()
	eng.RunUntil(sim.Time(sim.Millisecond))
	if acks != 1 || dones != 1 {
		t.Fatalf("after heal: %d acks, %d dones, want 1 and 1", acks, dones)
	}

	fab.Node(1).Crash()
	fab.Node(2).Crash()
	bcs[0].BroadcastLabeled("", []byte("m"), func() { acks++ }, nil)
	eng.RunUntil(sim.Time(2 * sim.Millisecond))
	if acks != 2 {
		t.Fatalf("every peer crashed: %d acks, want the error completion to count", acks)
	}

	_, _, solo, _, _ := setup(1, DefaultConfig())
	solo[0].BroadcastLabeled("", []byte("m"), func() { acks++ }, nil)
	if acks != 3 {
		t.Fatal("a message with no peer to write to was not acknowledged at launch")
	}
}

// TestMaxPayloadFitsSlotAndRing: a payload of exactly MaxPayload bytes
// launches — backup slot and ring record both take it — whichever of the two
// decides the bound, and one byte more fits neither.
func TestMaxPayloadFitsSlotAndRing(t *testing.T) {
	for _, ringCap := range []int{1 << 16, 512} {
		cfg := DefaultConfig()
		cfg.RingCapacity = ringCap
		eng, _, bcs, got, _ := setup(2, cfg)
		n := cfg.MaxPayload()
		if slot, ring := n+2*messageHeader+codec.RawOverhead+codec.SlotOverhead, n+messageHeader+codec.RawOverhead; slot != cfg.BackupSlot && ring != ringCap/2 {
			t.Fatalf("ring %d: MaxPayload %d fills a %d-byte slot to %d and a %d-byte record bound to %d: neither is tight",
				ringCap, n, cfg.BackupSlot, slot, ringCap/2, ring)
		}
		if err := bcs[0].Broadcast(make([]byte, n), nil); err != nil {
			t.Fatal(err)
		}
		eng.RunUntil(sim.Time(sim.Millisecond))
		if len(got[1]) != 1 || len(got[1][0].msg) != n {
			t.Fatalf("ring %d: %d-byte payload not delivered: %d deliveries", ringCap, n, len(got[1]))
		}
	}
}

// TestStagedMessageSurvivesItsSource: what a source has staged of its next
// message is in its backup region before anything is broadcast, so a peer that
// suspects it recovers it; a longer staging, and then the message itself,
// deliver only what the peer has not had. A source that stays down has lost
// nothing it staged, one that comes back delivers nothing twice, and once the
// message has come by ring the dedup entry folds into the watermark.
func TestStagedMessageSurvivesItsSource(t *testing.T) {
	eng, _, bcs, got, rcs := setup(3, DefaultConfig())
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
	bcs[0].Stage([]byte("ab"))
	rcs[1].RecoverFrom(0)
	run()
	bcs[0].Stage([]byte("abcd"))
	rcs[1].RecoverFrom(0)
	rcs[1].RecoverFrom(0) // nothing new: nothing delivered
	rcs[2].RecoverFrom(0)
	run()
	if a, b := fmt.Sprint(msgs(1)), fmt.Sprint(msgs(2)); a != "[ab cd]" || b != "[abcd]" {
		t.Fatalf("recovered %s and %s from the staged slot, want [ab cd] and [abcd]", a, b)
	}
	if err := bcs[0].Broadcast([]byte("abcdef"), nil); err != nil {
		t.Fatal(err)
	}
	run()
	rcs[1].RecoverFrom(0)
	run()
	if a, b := fmt.Sprint(msgs(1)), fmt.Sprint(msgs(2)); a != "[ab cd ef]" || b != "[abcd ef]" {
		t.Fatalf("after the broadcast the peers hold %s and %s, want each byte once", a, b)
	}
	for i := 1; i < 3; i++ {
		if rcs[i].low[0] != 1 || len(rcs[i].delivered[0]) != 0 {
			t.Fatalf("node %d: watermark %d with %d entries above it, want the whole message folded in", i, rcs[i].low[0], len(rcs[i].delivered[0]))
		}
	}
}

// TestStageYieldsToMessagesInFlight: a slot still held by a message in flight
// is not staged over, and the broadcast that follows queues for it as before.
func TestStageYieldsToMessagesInFlight(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BackupSlots = 2
	eng, fab, bcs, got, _ := setup(2, cfg)
	fab.Partition(0, 1)
	for _, m := range []string{"one", "two"} {
		bcs[0].Stage([]byte(m))
		if err := bcs[0].Broadcast([]byte(m), nil); err != nil {
			t.Fatal(err)
		}
	}
	bcs[0].Stage([]byte("three")) // message 3 wants message 1's slot
	backup := fab.Node(0).Region(cfg.backupRegion()).Bytes()
	if msg, _, err := codec.DecodeSlot(backup[cfg.BackupSlot:]); err != nil || !strings.Contains(string(msg), "one") {
		t.Fatalf("slot of message 1 holds %q (%v) after staging message 3 over it", msg, err)
	}
	if err := bcs[0].Broadcast([]byte("three"), nil); err != nil {
		t.Fatal(err)
	}
	fab.HealAll()
	eng.RunUntil(sim.Time(sim.Millisecond))
	if s := fmt.Sprint(got[1]); s != "[{0 1 one} {0 2 two} {0 3 three}]" {
		t.Fatalf("delivered %s", s)
	}
}
