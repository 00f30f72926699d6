package ring

import "testing"

// TestEpochFloorDrainProof pins the floor type the broadcast receiver and the
// summary scan share: Raise only moves it forward, a parked floor admits the
// old epoch until the drain proof arrives, the highest parked value wins,
// and neither path ever lowers the floor. The proof itself is the holder's
// (broadcast's TestFloorPromotedByIdleSweep pins the receiver's).
func TestEpochFloorDrainProof(t *testing.T) {
	var f EpochFloor
	f.Raise(3)
	f.Raise(1) // stale configuration view: must not regress
	if f.Min() != 3 {
		t.Fatalf("floor = %d, want 3", f.Min())
	}

	f = EpochFloor{}
	f.RaiseAfterDrain(2)
	f.RaiseAfterDrain(1) // an older change's floor must not replace a newer one
	if !f.Admits(0) || f.Min() != 0 || f.Pending() != 2 {
		t.Fatalf("parked floor took effect early: min %d pending %d", f.Min(), f.Pending())
	}
	f.Drained()
	if f.Admits(1) || !f.Admits(2) || f.Pending() != 0 {
		t.Fatalf("after drain: min %d pending %d, want 2 and 0", f.Min(), f.Pending())
	}
	f.RaiseAfterDrain(2) // not above the active floor: nothing to park
	f.Raise(1)
	f.Drained() // a proof with nothing parked changes nothing
	if f.Min() != 2 || f.Pending() != 0 {
		t.Fatalf("floor regressed or re-parked: min %d pending %d", f.Min(), f.Pending())
	}
}
