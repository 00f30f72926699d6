package broadcast

import (
	"testing"

	"hamband/internal/codec"
	"hamband/internal/metrics"
	"hamband/internal/rdma"
	"hamband/internal/sim"
)

// backupSlotBytes builds the exact nesting recoverSweep expects in one
// backup slot: EncodeSlot( message(seq, EncodeRaw( message(seq, payload)))).
func backupSlotBytes(t *testing.T, cfg Config, epoch uint32, seq uint64, payload []byte) []byte {
	t.Helper()
	inner := appendMessage(nil, epoch, seq, payload)
	record, err := codec.EncodeRaw(inner)
	if err != nil {
		t.Fatal(err)
	}
	framed, err := codec.EncodeSlot(appendMessage(nil, epoch, seq, record), uint32(seq), cfg.BackupSlot)
	if err != nil {
		t.Fatal(err)
	}
	return framed
}

// TestRecoverRetryDoesNotReapplySlots is the regression test for the
// recovery sweep re-processing every backup slot when a torn neighbour
// earns the region a re-read: a slot recovered in pass one must not be
// counted (or decoded and re-delivered) again by passes two through four.
// Before the seen-map dedupe, the recovered counter read one per pass.
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
	// message, slot 1 a permanently torn frame (valid seqlock version pair,
	// interior flipped so the CRC rejects it on every pass — a writer that
	// died mid-write).
	backup := fab.Node(0).Region(cfg.backupRegion()).Bytes()
	copy(backup, backupSlotBytes(t, cfg, 0, 1, []byte("survivor")))
	torn := backupSlotBytes(t, cfg, 0, 2, []byte("never lands"))
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
	if n := reg.Counter("broadcast.torn_rejects").Value(); n < uint64(backupReadRetries) {
		t.Fatalf("torn rejects = %d; the torn slot should have earned every retry", n)
	}
}
