package broadcast

import (
	"testing"

	"hamband/internal/metrics"
	"hamband/internal/rdma"
	"hamband/internal/sim"
)

// TestStaleEpochRecordsRejected raises a receiver's epoch floor for one
// source before that source's record arrives: the ring reader must consume
// and discard the stale-stamped record (counted, surfaced in metrics, never
// delivered), while a record stamped with the new epoch passes.
func TestStaleEpochRecordsRejected(t *testing.T) {
	cfg := DefaultConfig()
	eng := sim.NewEngine(31)
	fab := rdma.NewFabric(eng, 2, rdma.DefaultLatency())
	cfg.Metrics = metrics.New(eng)
	Setup(fab, cfg)

	bc := NewBroadcaster(fab, fab.Node(0), cfg)
	var got []delivery
	rx := NewReceiver(fab, fab.Node(1), cfg, func(src rdma.NodeID, seq uint64, payload []byte) {
		got = append(got, delivery{src, seq, string(payload)})
	})
	// Node 0 left the configuration at epoch 1 but does not know yet: it
	// still stamps epoch 0.
	rx.readers[0].Floor().Raise(1)

	eng.At(0, func() {
		if err := bc.Broadcast([]byte("stale"), nil); err != nil {
			t.Error(err)
		}
	})
	eng.At(sim.Time(200*sim.Microsecond), func() {
		bc.SetEpoch(1) // the node learns of the new configuration
		if err := bc.Broadcast([]byte("fresh"), nil); err != nil {
			t.Error(err)
		}
	})
	eng.RunUntil(sim.Time(2 * sim.Millisecond))

	if len(got) != 1 || got[0].msg != "fresh" {
		t.Fatalf("deliveries = %v, want exactly the fresh record", got)
	}
	if n := rx.StaleRejects(); n != 1 {
		t.Fatalf("StaleRejects = %d, want 1", n)
	}
	if n := cfg.Metrics.Counter("broadcast.stale_rejects").Value(); n != 1 {
		t.Fatalf("stale_rejects counter = %d, want 1", n)
	}
}

// TestSetEpochMonotone pins that a broadcaster never regresses its stamp
// and a receiver never lowers a source's floor.
func TestSetEpochMonotone(t *testing.T) {
	cfg := DefaultConfig()
	eng := sim.NewEngine(7)
	fab := rdma.NewFabric(eng, 2, rdma.DefaultLatency())
	Setup(fab, cfg)
	bc := NewBroadcaster(fab, fab.Node(0), cfg)
	bc.SetEpoch(3)
	bc.SetEpoch(1)
	if bc.Epoch() != 3 {
		t.Fatalf("Epoch = %d, want 3", bc.Epoch())
	}
	rx := NewReceiver(fab, fab.Node(1), cfg, func(rdma.NodeID, uint64, []byte) {})
	rx.readers[0].Floor().Raise(2)
	rx.readers[0].Floor().Raise(1)
	if rx.readers[0].Floor().Min() != 2 {
		t.Fatalf("floor = %d, want 2", rx.readers[0].Floor().Min())
	}
}
