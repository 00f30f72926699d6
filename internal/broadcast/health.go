package broadcast

import "hamband/internal/rdma"

// SourceHealth is one inbound ring's introspection snapshot: the receiver's
// view of a single source. All fields are copies taken at call time; the
// health layer (package health) polls these without touching delivery
// state, so collection never perturbs the protocol schedule.
type SourceHealth struct {
	Src        rdma.NodeID
	Head       uint64 // logical bytes the reader has consumed
	Low        uint64 // contiguous delivery watermark (messages)
	TornStreak int    // consecutive CRC-rejecting polls of the stuck record
	Torn       uint64 // total CRC rejections on this ring
	Stale      uint64 // ring records rejected by the epoch floor
	MinEpoch   uint32 // active per-source epoch floor
	PendingMin uint32 // floor parked awaiting drain promotion (FloorAfterDrain)
	HasPending bool   // a parked floor exists
	Parked     bool   // reader quarantined (until the record validates; for good on a bad length word)
	ParkedWhy  string // the one-shot parking diagnosis, "" while healthy
}

// Rings reports the health of every inbound ring, ordered by source. The
// snapshot is cheap (one pass over fabric-size readers, no allocation
// beyond the result slice) and read-only.
func (r *Receiver) Rings() []SourceHealth {
	if r == nil {
		return nil
	}
	out := make([]SourceHealth, 0, len(r.readers)-1)
	for p, rd := range r.readers {
		if rd == nil {
			continue
		}
		src, floor := rdma.NodeID(p), &r.floors[p]
		h := SourceHealth{
			Src:        src,
			Head:       rd.Head(),
			Low:        r.dedup[p].Low(),
			TornStreak: rd.TornStreak(),
			Torn:       rd.TornRejects(),
			Stale:      r.stale[p],
			MinEpoch:   floor.Min(),
			PendingMin: floor.Pending(),
			HasPending: floor.Pending() != 0,
		}
		if err := rd.Parked(); err != nil {
			h.Parked = true
			h.ParkedWhy = err.Error()
		}
		out = append(out, h)
	}
	return out
}

// SourceRing returns the health of one inbound ring and whether this
// receiver reads from that source.
func (r *Receiver) SourceRing(src rdma.NodeID) (SourceHealth, bool) {
	for _, h := range r.Rings() {
		if h.Src == src {
			return h, true
		}
	}
	return SourceHealth{}, false
}
