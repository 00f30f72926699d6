package core

import (
	"slices"

	"hamband/internal/broadcast"
	"hamband/internal/ring"
)

// Read-only introspection accessors consumed by the health layer (package
// health). All of them copy or summarize private state without touching
// protocol scheduling: collecting a snapshot costs no virtual time and
// leaves every schedule — and hence every chaos trace hash — unchanged.

// Receiver exposes the replica's broadcast receiver for per-source ring
// health (occupancy, torn streaks, parked floors).
func (r *Replica) Receiver() *broadcast.Receiver { return r.rx }

// EpochFloors returns a copy of the per-source slot-adoption epoch floors:
// the active floor per source and the one parked awaiting a clean
// summary-scan pass.
func (r *Replica) EpochFloors() []ring.EpochFloor { return slices.Clone(r.floors) }

// StaleSlotRejects returns how many summary-slot reads the epoch floors
// have rejected at this replica.
func (r *Replica) StaleSlotRejects() uint64 { return r.statStaleSlots }

// AnchorAge returns the maximum δ-log age across the replica's delta
// groups: how many δ-records the most-stale group has appended since its
// last full-state anchor.
func (r *Replica) AnchorAge() int {
	age := 0
	for g := range r.deltaW {
		if a := r.deltaW[g].sinceAnchor; a > age {
			age = a
		}
	}
	return age
}

// GroupCount returns the number of synchronization groups the replica
// participates in.
func (r *Replica) GroupCount() int { return len(r.groups) }

// Suspects returns the peers this replica's failure-detection view
// currently suspects, ascending. Nil with an empty suspicion set.
func (r *Replica) Suspects() []int { return r.fdom.Suspects(int(r.id)) }

// Down reports whether the replica's node is currently suspended or
// crashed — the fault injector's view, surfaced so health snapshots can
// label expected lag.
func (r *Replica) Down() bool { return r.node.Suspended() || r.node.Crashed() }
