package broadcast

import (
	"testing"

	"hamband/internal/metrics"
	"hamband/internal/rdma"
	"hamband/internal/sim"
)

// TestRecoverFromWhileReaderSuspendedMidRead pins down the backup-slot
// recovery race the chaos runner's schedules exercise: a reader starts a
// RecoverFrom sweep and is itself suspended while the backup-region read
// is in flight. The snapshot is captured at the source when the read
// lands, but the CQE callback queues on the suspended CPU, so the reader
// processes a *stale* snapshot long after resuming — by which time the
// source has freed and reused those slots for newer broadcasts. The dedup
// watermark must absorb every message in the stale snapshot without
// double-delivering or losing anything.
//
// Schedule (3 nodes, source 0, readers 1 and 2; tiny rings so slots stay
// occupied under backpressure):
//
//	t=0        node 2 suspends; node 0 broadcasts 20 messages. Node 2's
//	           ring fills, so in-flight broadcasts pin their backup slots
//	           and the rest queue for a free slot.
//	t=100µs    node 1 starts RecoverFrom(0): the backup read snapshots
//	           the occupied slots at the source.
//	t=101µs    node 1 suspends — read completion now parks on its CPU.
//	t=150µs    node 2 resumes: rings drain, slots free and are reused.
//	t=400µs    node 1 resumes and only now processes the stale snapshot,
//	           plus everything that piled up in its own ring.
//
// Every message must be delivered exactly once at both readers.
func TestRecoverFromWhileReaderSuspendedMidRead(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RingCapacity = 128 // ~6 records: node 2's ring fills fast
	cfg.BackupSlots = 4
	cfg.BackupSlot = 128
	eng := sim.NewEngine(31)
	cfg.Metrics = metrics.New(eng)
	fab := rdma.NewFabric(eng, 3, rdma.DefaultLatency())
	Setup(fab, cfg)

	const n = 20
	got := make([]map[uint64]int, 3) // per node: seq -> delivery count
	bcs := make([]*Broadcaster, 3)
	rcs := make([]*Receiver, 3)
	for i := 0; i < 3; i++ {
		i := i
		got[i] = make(map[uint64]int)
		node := fab.Node(rdma.NodeID(i))
		bcs[i] = NewBroadcaster(fab, node, cfg)
		rcs[i] = NewReceiver(fab, node, cfg, func(src rdma.NodeID, seq uint64, payload []byte) {
			if src != 0 {
				t.Errorf("node %d delivered from unexpected source %d", i, src)
			}
			got[i][seq]++
		})
	}
	recovered := cfg.Metrics.Counter("broadcast.backup_slots_recovered")

	done := 0
	eng.At(0, func() {
		fab.Node(2).Suspend()
		for i := 0; i < n; i++ {
			if err := bcs[0].Broadcast([]byte{'m', byte('a' + i)}, func() { done++ }); err != nil {
				t.Errorf("broadcast %d: %v", i, err)
			}
		}
	})
	eng.At(sim.Time(100*sim.Microsecond), func() {
		if cfg.Metrics.Counter("broadcast.backup_slot_waits").Value() == 0 {
			t.Error("no broadcast ever waited for a backup slot — backpressure never built, test is vacuous")
		}
		rcs[1].RecoverFrom(0)
	})
	eng.At(sim.Time(101*sim.Microsecond), func() { fab.Node(1).Suspend() })
	eng.At(sim.Time(150*sim.Microsecond), func() { fab.Node(2).Resume() })
	eng.At(sim.Time(400*sim.Microsecond), func() {
		if v := recovered.Value(); v != 0 {
			t.Errorf("snapshot processed while reader suspended (%d slots) — completion bypassed the CPU", v)
		}
		fab.Node(1).Resume()
	})
	eng.RunUntil(sim.Time(5 * sim.Millisecond))

	if done != n {
		t.Errorf("%d of %d broadcast completions fired", done, n)
	}
	if recovered.Value() == 0 {
		t.Error("recovery sweep decoded no slots — the mid-read schedule never exercised the snapshot path")
	}
	for node := 1; node <= 2; node++ {
		for seq := uint64(1); seq <= n; seq++ {
			if c := got[node][seq]; c != 1 {
				t.Errorf("node %d delivered seq %d %d times, want exactly once", node, seq, c)
			}
		}
		if len(got[node]) != n {
			t.Errorf("node %d delivered %d distinct seqs, want %d", node, len(got[node]), n)
		}
	}
	if len(got[0]) != 0 {
		t.Errorf("source delivered its own messages: %v", got[0])
	}
}

// TestRecoverySweepDeliversInSequenceAcrossWrap pins the order a recovery
// sweep delivers in. A backup slot's index is its message's sequence number
// modulo BackupSlots, so slot order is sequence order except across the wrap:
// with 64 slots, messages 63, 64 and 65 sit in slots 63, 0 and 1. The source
// fails holding exactly those three — the link to the reader cut before they
// left, so no ring will ever carry them — and the reader's handler is what
// package core puts behind it: a per-source buffer served head first, in which
// each call here depends on its predecessor. Delivered in slot order the buffer
// reads 64, 65, 63 and its head waits for ever on a call queued behind it.
func TestRecoverySweepDeliversInSequenceAcrossWrap(t *testing.T) {
	cfg := DefaultConfig()
	eng := sim.NewEngine(31)
	fab := rdma.NewFabric(eng, 2, rdma.DefaultLatency())
	Setup(fab, cfg)
	src := NewBroadcaster(fab, fab.Node(0), cfg)

	var buffer []uint64 // delivered, not yet applied
	applied := uint64(0)
	rx := NewReceiver(fab, fab.Node(1), cfg, func(_ rdma.NodeID, seq uint64, _ []byte) {
		buffer = append(buffer, seq)
		for len(buffer) > 0 && buffer[0] == applied+1 {
			applied, buffer = buffer[0], buffer[1:]
		}
	})

	send := func(n int) {
		for i := 0; i < n; i++ {
			if err := src.Broadcast([]byte("call"), nil); err != nil {
				t.Errorf("broadcast: %v", err)
			}
		}
	}
	before := cfg.BackupSlots - 2
	eng.At(0, func() { send(before) })
	eng.At(sim.Time(sim.Millisecond), func() {
		if applied != uint64(before) {
			t.Errorf("%d of %d messages applied before the fault", applied, before)
		}
		fab.PartitionLink(0, 1)
		send(3) // slots 63 and, across the wrap, 0 and 1
	})
	eng.At(sim.Time(sim.Millisecond+100*sim.Microsecond), func() {
		fab.Node(0).Suspend()
		rx.RecoverFrom(0)
	})
	eng.RunUntil(sim.Time(2 * sim.Millisecond))

	if want := uint64(before + 3); applied != want || len(buffer) != 0 {
		t.Fatalf("applied through %d with %v still buffered, want through %d and the buffer drained", applied, buffer, want)
	}
}
