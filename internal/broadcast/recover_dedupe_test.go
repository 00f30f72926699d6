package broadcast

import (
	"bytes"
	"testing"

	"hamband/internal/codec"
	"hamband/internal/metrics"
	"hamband/internal/rdma"
	"hamband/internal/ring"
	"hamband/internal/sim"
)

// backupSlotBytes builds what RecoverFrom expects in one backup slot: the
// ring record of message (epoch, seq, payload), EncodeRaw(message).
func backupSlotBytes(t *testing.T, epoch uint32, seq uint64, payload []byte) []byte {
	t.Helper()
	record, err := codec.EncodeRaw(appendMessage(nil, epoch, seq, payload))
	if err != nil {
		t.Fatal(err)
	}
	return record
}

// TestRecoverRetryDoesNotReapplySlots is the regression test for the
// recovery sweep re-processing every backup slot when a torn neighbour
// earns the region a re-read: a slot intact in all rdma.TornLooks reads is
// counted, decoded and delivered once, from the last read. A sweep that
// recovered from every read once counted it once a read.
func TestRecoverRetryDoesNotReapplySlots(t *testing.T) {
	eng := sim.NewEngine(99)
	fab := rdma.NewFabric(eng, 2, rdma.DefaultLatency())
	cfg := DefaultConfig()
	reg := metrics.New(eng)
	fab.EnableMetrics(reg)
	Setup(fab, cfg)

	var got []delivery
	rx := NewReceiver(fab, fab.Node(1), cfg, func(src rdma.NodeID, seq uint64, payload []byte) {
		got = append(got, delivery{src, seq, string(payload)})
	})

	// Hand-craft node 0's backup region: slot 0 holds a recoverable
	// message, slot 1 a permanently torn record (length word and canary in
	// place, interior flipped so the CRC rejects it on every pass — a writer
	// that died mid-write).
	backup := fab.Node(0).Region(cfg.backupRegion()).Bytes()
	copy(backup, backupSlotBytes(t, 0, 1, []byte("survivor")))
	torn := backupSlotBytes(t, 0, 2, []byte("never lands"))
	torn[10] ^= 0xFF
	copy(backup[cfg.BackupSlot:], torn)

	eng.At(0, func() { rx.RecoverFrom(0) })
	eng.RunUntil(sim.Time(5 * sim.Millisecond))

	if len(got) != 1 || got[0].msg != "survivor" || got[0].seq != 1 {
		t.Fatalf("deliveries = %v, want exactly the survivor slot once", got)
	}
	if n := reg.Counter("broadcast.backup_slots_recovered").Value(); n != 1 {
		t.Fatalf("recovered counter = %d, want 1 (slot re-counted across torn retries)", n)
	}
	if n := reg.Counter("broadcast.torn_rejects").Value(); n != rdma.TornLooks {
		t.Fatalf("torn rejects = %d, want the torn slot counted on each of %d reads", n, rdma.TornLooks)
	}
}

// TestStaleBackupSlotRejected: recovery gates a backup slot on the epoch its
// record carries, the one the ring path gates. A slot stamped below its
// source's floor is counted in StaleRejects and not delivered — once, though
// a torn neighbour earns the region every re-read — and a slot stamped at the
// floor is delivered.
func TestStaleBackupSlotRejected(t *testing.T) {
	eng := sim.NewEngine(5)
	fab := rdma.NewFabric(eng, 2, rdma.DefaultLatency())
	cfg := DefaultConfig()
	reg := metrics.New(eng)
	fab.EnableMetrics(reg)
	Setup(fab, cfg)

	var got []delivery
	rx := NewReceiver(fab, fab.Node(1), cfg, func(src rdma.NodeID, seq uint64, payload []byte) {
		got = append(got, delivery{src, seq, string(payload)})
	})
	rx.floors[0].Raise(1) // node 0 left at epoch 1

	backup := fab.Node(0).Region(cfg.backupRegion()).Bytes()
	copy(backup[1*cfg.BackupSlot:], backupSlotBytes(t, 0, 1, []byte("stale")))
	copy(backup[2*cfg.BackupSlot:], backupSlotBytes(t, 1, 2, []byte("fresh")))
	torn := backupSlotBytes(t, 1, 3, []byte("never lands"))
	torn[10] ^= 0xFF
	copy(backup[3*cfg.BackupSlot:], torn)

	eng.At(0, func() { rx.RecoverFrom(0) })
	eng.RunUntil(sim.Time(5 * sim.Millisecond))

	if len(got) != 1 || got[0].msg != "fresh" || got[0].seq != 2 {
		t.Fatalf("deliveries = %v, want exactly the fresh slot", got)
	}
	if n := rx.StaleRejects(); n != 1 {
		t.Fatalf("StaleRejects = %d, want the stale slot counted once", n)
	}
	if n := reg.Counter("broadcast.stale_rejects").Value(); n != 1 {
		t.Fatalf("stale_rejects counter = %d, want 1", n)
	}
	if n := rx.TornRejects(); n != rdma.TornLooks {
		t.Fatalf("TornRejects = %d, want the torn slot counted on each of %d reads", n, rdma.TornLooks)
	}
}

// TestRecoverRereadHealsTornSlot: a backup slot torn on the sweep's first
// read and healed before its second is recovered from the re-read, and its
// intact neighbour, valid in both reads, is not recovered twice. Each slot is
// delivered once and counted once in backup_slots_recovered, and the tear once
// in torn_rejects.
func TestRecoverRereadHealsTornSlot(t *testing.T) {
	eng := sim.NewEngine(11)
	fab := rdma.NewFabric(eng, 2, rdma.DefaultLatency())
	cfg := DefaultConfig()
	reg := metrics.New(eng)
	fab.EnableMetrics(reg)
	Setup(fab, cfg)

	var got []delivery
	rx := NewReceiver(fab, fab.Node(1), cfg, func(src rdma.NodeID, seq uint64, payload []byte) {
		got = append(got, delivery{src, seq, string(payload)})
	})

	backup := fab.Node(0).Region(cfg.backupRegion()).Bytes()
	copy(backup[1*cfg.BackupSlot:], backupSlotBytes(t, 0, 1, []byte("intact")))
	healed := backupSlotBytes(t, 0, 2, []byte("lands late"))
	torn := bytes.Clone(healed)
	torn[10] ^= 0xFF
	copy(backup[2*cfg.BackupSlot:], torn)

	eng.At(0, func() { rx.RecoverFrom(0) })
	var probe *sim.Ticker
	probe = eng.NewTicker(10*sim.Nanosecond, func() {
		if rx.TornRejects() == 1 { // the first read saw the tear: the interior lands
			copy(backup[2*cfg.BackupSlot:], healed)
			probe.Cancel()
		}
	})
	eng.RunUntil(sim.Time(5 * sim.Millisecond))

	want := []delivery{{0, 1, "intact"}, {0, 2, "lands late"}}
	if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("deliveries = %v, want %v", got, want)
	}
	if n := reg.Counter("broadcast.backup_slots_recovered").Value(); n != 2 {
		t.Fatalf("recovered counter = %d, want each slot counted once", n)
	}
	if n := rx.TornRejects(); n != 1 {
		t.Fatalf("TornRejects = %d, want the tear counted on the one read that saw it", n)
	}
}

// TestBackupSlotHoldsTheRingRecord: a backup slot holds the ring record the
// peers receive, byte for byte, and nothing else. Node 1 is suspended, so its
// inbound ring keeps the record, and the link to node 2 is cut, so the
// message stays in flight and its slot stays filled.
func TestBackupSlotHoldsTheRingRecord(t *testing.T) {
	cfg := DefaultConfig()
	eng, fab, bcs, _, _ := setup(3, cfg)
	fab.Node(1).Suspend()
	fab.Partition(0, 2)
	eng.At(0, func() {
		if err := bcs[0].Broadcast([]byte("kept as sent"), nil); err != nil {
			t.Error(err)
		}
	})
	eng.RunUntil(sim.Time(100 * sim.Microsecond))

	in := fab.Node(1).Region(cfg.inRegion(0)).Bytes()[ring.HeaderSize:]
	_, n, err := codec.DecodeRaw(in)
	if err != nil {
		t.Fatalf("node 1's ring holds no record: %v", err)
	}
	slot := fab.Node(0).Region(cfg.backupRegion()).Bytes()[1*cfg.BackupSlot : 2*cfg.BackupSlot]
	if !bytes.Equal(slot[:n], in[:n]) {
		t.Fatalf("backup slot\n%x\nring record\n%x", slot[:n], in[:n])
	}
	if !bytes.Equal(slot[n:], make([]byte, len(slot)-n)) {
		t.Fatalf("the slot holds %d bytes past the %d-byte record", len(bytes.TrimRight(slot, "\x00"))-n, n)
	}
}
