package broadcast

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"hamband/internal/codec"
	"hamband/internal/metrics"
	"hamband/internal/rdma"
	"hamband/internal/ring"
	"hamband/internal/sim"
)

// TestStaleEpochRecordsRejected raises a receiver's epoch floor for one
// source before that source's record arrives: the sweep must consume and
// discard the stale-stamped record (counted, surfaced in metrics, never
// delivered), while a record stamped with the new epoch passes.
func TestStaleEpochRecordsRejected(t *testing.T) {
	cfg := DefaultConfig()
	eng := sim.NewEngine(31)
	fab := rdma.NewFabric(eng, 2, rdma.DefaultLatency())
	reg := metrics.New(eng)
	fab.EnableMetrics(reg)
	Setup(fab, cfg)

	bc := NewBroadcaster(fab, fab.Node(0), cfg)
	var got []delivery
	rx := NewReceiver(fab, fab.Node(1), cfg, func(src rdma.NodeID, seq uint64, payload []byte) {
		got = append(got, delivery{src, seq, string(payload)})
	})
	// Node 0 left the configuration at epoch 1 but does not know yet: it
	// still stamps epoch 0.
	rx.floors[0].Raise(1)

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
	if n := reg.Counter("broadcast.stale_rejects").Value(); n != 1 {
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
	rx.floors[0].Raise(2)
	rx.floors[0].Raise(1)
	if rx.floors[0].Min() != 2 {
		t.Fatalf("floor = %d, want 2", rx.floors[0].Min())
	}
}

// gateRun drives the receiver's epoch gate through one arrival interleaving:
// source 0 appends 1–24 messages to node 1's ring, stamped with random epochs
// below 4, and the receiver sweeps between landings — sometimes after each
// one, sometimes after several have accumulated. It must deliver exactly the
// messages stamped at or above the floor (minEpoch mod 4), in append order,
// and count exactly the others in Rings()[0].Stale. gated false is the
// mutation: the floor is never raised, which is what a sweep that skips the
// floor check sees.
func gateRun(seed int64, nRecords, minEpoch uint8, gated bool) error {
	rng := rand.New(rand.NewSource(seed))
	n := 1 + int(nRecords)%24
	min := uint32(minEpoch % 4)

	cfg := DefaultConfig()
	cfg.RingCapacity = 1 << 12
	eng := sim.NewEngine(seed)
	fab := rdma.NewFabric(eng, 2, rdma.DefaultLatency())
	Setup(fab, cfg)
	var got []byte
	rx := NewReceiver(fab, fab.Node(1), cfg, func(_ rdma.NodeID, _ uint64, payload []byte) {
		got = append(got, payload...)
	})
	rx.Stop() // swept by hand below
	if gated {
		rx.floors[0].Raise(min)
	}
	sweep := func() {
		rx.sweep()
		fab.Node(1).Handoff().Hand() // as the poll loop closes the sweep's record
		eng.Run()                    // the handler calls the record queued on the CPU
	}

	region := fab.Node(1).Region(cfg.inRegion(0)).Bytes()
	w := ring.NewWriter(cfg.RingCapacity)
	var want []byte
	var wantStale uint64
	for i := 0; i < n; i++ {
		epoch := uint32(rng.Intn(4))
		rec, err := codec.EncodeRaw(appendMessage(nil, epoch, uint64(i+1), []byte{byte(i)}))
		if err != nil {
			return err
		}
		writes, ok := w.Append(rec)
		if !ok {
			return fmt.Errorf("append %d refused", i)
		}
		for _, wr := range writes {
			copy(region[wr.Off:], wr.Data)
		}
		if epoch >= min {
			want = append(want, byte(i))
		} else {
			wantStale++
		}
		if rng.Intn(3) == 0 {
			sweep()
		}
	}
	sweep()

	if !bytes.Equal(got, want) {
		return fmt.Errorf("floor %d: delivered messages %v, want %v", min, got, want)
	}
	if stale := rx.Rings()[0].Stale; stale != wantStale {
		return fmt.Errorf("floor %d: Rings()[0].Stale = %d, want %d", min, stale, wantStale)
	}
	return nil
}

// TestEpochGateRejectsStaleDeterministically is the epoch-ordering property
// test: whatever the arrival interleaving, the receiver delivers exactly the
// messages stamped with a current epoch, in append order, and counts exactly
// the stale ones.
func TestEpochGateRejectsStaleDeterministically(t *testing.T) {
	prop := func(seed int64, nRecords, minEpoch uint8) bool {
		if err := gateRun(seed, nRecords, minEpoch, true); err != nil {
			t.Error(err)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestEpochGateCatchesSkippedCheck is the mutation control of the test above.
func TestEpochGateCatchesSkippedCheck(t *testing.T) {
	var caught error
	prop := func(seed int64, nRecords, minEpoch uint8) bool {
		caught = gateRun(seed, nRecords, minEpoch, false)
		return caught == nil
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err == nil {
		t.Fatal("a sweep that skips the floor check passed 200 interleavings")
	}
	t.Logf("caught: %v", caught)
}

// TestFloorPromotedByIdleSweep is the receiver's half of the drain proof
// (ring's TestEpochFloorDrainProof pins the floor's): a floor parked by
// FloorAfterDrain leaves the old epoch admitted until a sweep finds the
// source's ring idle and Quiescent, and that one sweep raises it.
func TestFloorPromotedByIdleSweep(t *testing.T) {
	cfg := DefaultConfig()
	eng := sim.NewEngine(5)
	fab := rdma.NewFabric(eng, 2, rdma.DefaultLatency())
	Setup(fab, cfg)
	rx := NewReceiver(fab, fab.Node(1), cfg, func(rdma.NodeID, uint64, []byte) {})
	rx.Stop()
	rx.FloorAfterDrain(0, 5)
	if h := rx.Rings()[0]; h.MinEpoch != 0 || h.PendingMin != 5 {
		t.Fatalf("parked floor took effect before a sweep: %+v", h)
	}
	rx.sweep()
	if h := rx.Rings()[0]; h.MinEpoch != 5 || h.HasPending {
		t.Fatalf("an idle sweep did not promote the parked floor: %+v", h)
	}
}
