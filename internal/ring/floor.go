package ring

// EpochFloor is one source's epoch floor (dynamic membership): frames the
// source stamped with a configuration epoch below it are rejected, so a
// node that does not yet know it was removed cannot affect the object. The
// floor only moves forward. It rises at once (Raise), or — when the source
// may still have legitimately posted, acked frames in flight to this reader
// — only after the holder has proved it drained them (RaiseAfterDrain, then
// Drained). The broadcast receiver (its ring records and backup slots) and
// the summary-slot scan both gate on this one type, and each holder brings
// its own drain proof: the receiver an idle, Quiescent ring poll, the scan
// a full pass that found nothing of the source's still to read.
type EpochFloor struct {
	min     uint32
	pending uint32 // floor awaiting a drain proof; 0 = none parked
}

// Raise lifts the floor to e now. Lower values are ignored.
func (f *EpochFloor) Raise(e uint32) {
	if e > f.min {
		f.min = e
	}
}

// RaiseAfterDrain parks e until Drained: raising it any earlier could
// reject frames the source wrote while still a member. A removed node's
// writes are refused at the NIC, so everything still undrained predates the
// revocation.
func (f *EpochFloor) RaiseAfterDrain(e uint32) {
	if e > f.min && e > f.pending {
		f.pending = e
	}
}

// Drained is the drain proof: the holder has consumed everything the source
// had posted, so a parked floor takes effect.
func (f *EpochFloor) Drained() {
	f.Raise(f.pending)
	f.pending = 0
}

// Admits reports whether a frame stamped with epoch passes the floor.
func (f *EpochFloor) Admits(epoch uint32) bool { return epoch >= f.min }

// Min returns the active floor.
func (f *EpochFloor) Min() uint32 { return f.min }

// Pending returns the parked floor awaiting its drain proof, 0 when none.
func (f *EpochFloor) Pending() uint32 { return f.pending }
