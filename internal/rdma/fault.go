// Link-level fault injection: per-directed-link partitions, heals, and
// latency spikes layered on the fabric's cost model. The zero state (no
// faults installed) adds nothing to the verb paths — the links map stays
// nil and every lookup short-circuits.
//
// Partition semantics model an RC transport outage rather than a QP error:
// a verb that reaches the NIC while its link is partitioned is *parked* and
// retransmitted (fired) in posting order when the link heals. This matches
// real RC behaviour — the NIC retries sends until the retry counter is
// exhausted — and it preserves the single-writer ring protocols' invariant
// that a ring writer's bytes eventually land in posting order, so upper
// layers (broadcast, Mu) need no special casing. Verbs already on the wire
// when the partition starts still land: cutting a link does not claw back
// in-flight packets.
//
// Latency spikes add a fixed extra one-way delay plus an optional uniform
// random jitter (drawn from the engine's seeded RNG, so runs remain
// deterministic) to the outbound leg of every verb on the link.

package rdma

import "hamband/internal/sim"

// linkKey identifies a directed link between two nodes.
type linkKey struct{ from, to NodeID }

// linkState holds the injected faults on one directed link plus the verbs
// parked on it while it is partitioned.
type linkState struct {
	partitioned bool
	extra       sim.Duration // fixed extra one-way latency
	jitter      sim.Duration // per-verb uniform extra in [0, jitter]
	tear        sim.Duration // torn writes: interior bytes land this much later
	tearJitter  sim.Duration // per-write uniform extra tear in [0, tearJitter]
	parked      []*verb      // verbs awaiting heal, posting order
}

// clear reports whether the link carries no fault state and can be dropped
// from the fabric's map (keeping the no-fault hot path at one nil lookup).
func (ls *linkState) clear() bool {
	return !ls.partitioned && ls.extra == 0 && ls.jitter == 0 &&
		ls.tear == 0 && ls.tearJitter == 0 && len(ls.parked) == 0
}

// link returns the directed link's fault state, or nil when none installed.
func (f *Fabric) link(from, to NodeID) *linkState {
	if f.links == nil {
		return nil
	}
	return f.links[linkKey{from, to}]
}

func (f *Fabric) ensureLink(from, to NodeID) *linkState {
	if f.links == nil {
		f.links = make(map[linkKey]*linkState)
	}
	k := linkKey{from, to}
	ls := f.links[k]
	if ls == nil {
		ls = &linkState{}
		f.links[k] = ls
	}
	return ls
}

// PartitionLink cuts the directed link from → to: verbs posted on it park
// at the NIC until HealLink. The reverse direction is unaffected.
func (f *Fabric) PartitionLink(from, to NodeID) {
	ls := f.ensureLink(from, to)
	if !ls.partitioned {
		ls.partitioned = true
		f.partitions++
	}
}

// Partition cuts both directions between a and b.
func (f *Fabric) Partition(a, b NodeID) {
	f.PartitionLink(a, b)
	f.PartitionLink(b, a)
}

// HealLink reconnects the directed link from → to and retransmits its
// parked verbs in posting order.
func (f *Fabric) HealLink(from, to NodeID) {
	ls := f.link(from, to)
	if ls == nil || !ls.partitioned {
		return
	}
	ls.partitioned = false
	f.release(ls)
	f.drop(from, to, ls)
}

// Heal reconnects both directions between a and b.
func (f *Fabric) Heal(a, b NodeID) {
	f.HealLink(a, b)
	f.HealLink(b, a)
}

// SetLinkDelay installs a latency spike on the directed link from → to:
// every verb's outbound leg takes extra additional time, plus a uniform
// random amount in [0, jitter] drawn from the engine's seeded RNG.
// Zero extra and jitter clears the spike.
func (f *Fabric) SetLinkDelay(from, to NodeID, extra, jitter sim.Duration) {
	if extra <= 0 && jitter <= 0 {
		if ls := f.link(from, to); ls != nil {
			ls.extra, ls.jitter = 0, 0
			f.drop(from, to, ls)
		}
		return
	}
	ls := f.ensureLink(from, to)
	ls.extra, ls.jitter = extra, jitter
}

// SetDelay installs (or clears) a latency spike on both directions.
func (f *Fabric) SetDelay(a, b NodeID, extra, jitter sim.Duration) {
	f.SetLinkDelay(a, b, extra, jitter)
	f.SetLinkDelay(b, a, extra, jitter)
}

// SetLinkTorn installs a torn-write fault on the directed link from → to:
// every write larger than the eight boundary bytes lands in two fragments —
// its first and last four bytes at the normal delivery time, its interior
// bytes tear later (plus a uniform random amount in [0, jitter] drawn from
// the engine's seeded RNG, keeping runs deterministic). This is the
// out-of-order byte landing real NICs permit within a single work request:
// the exact hazard that fools validation schemes sampling only a record's
// boundary words (length + canary, seqlock version pairs). Zero tear and
// jitter clears the fault.
func (f *Fabric) SetLinkTorn(from, to NodeID, tear, jitter sim.Duration) {
	if tear <= 0 && jitter <= 0 {
		if ls := f.link(from, to); ls != nil {
			ls.tear, ls.tearJitter = 0, 0
			f.drop(from, to, ls)
		}
		return
	}
	ls := f.ensureLink(from, to)
	ls.tear, ls.tearJitter = tear, jitter
}

// SetTorn installs (or clears) a torn-write fault on both directions.
func (f *Fabric) SetTorn(a, b NodeID, tear, jitter sim.Duration) {
	f.SetLinkTorn(a, b, tear, jitter)
	f.SetLinkTorn(b, a, tear, jitter)
}

// Partitioned reports whether the directed link from → to is cut.
func (f *Fabric) Partitioned(from, to NodeID) bool {
	ls := f.link(from, to)
	return ls != nil && ls.partitioned
}

// HealAll clears every link fault — partitions and latency spikes — and
// retransmits all parked verbs. Links are visited in (from, to) order so
// the release order, and with it the whole simulation, is deterministic.
func (f *Fabric) HealAll() {
	if len(f.links) == 0 {
		return
	}
	for from := 0; from < len(f.nodes); from++ {
		for to := 0; to < len(f.nodes); to++ {
			k := linkKey{NodeID(from), NodeID(to)}
			ls := f.links[k]
			if ls == nil {
				continue
			}
			ls.partitioned = false
			ls.extra, ls.jitter = 0, 0
			ls.tear, ls.tearJitter = 0, 0
			f.release(ls)
			delete(f.links, k)
		}
	}
}

// release schedules a link's parked verbs to fire now, as separate engine
// events so they interleave with other same-instant work in insertion order.
// Each parked verb re-checks the gate, so a link re-partitioned in the same
// instant re-parks them instead of leaking traffic through.
func (f *Fabric) release(ls *linkState) {
	parked := ls.parked
	ls.parked = nil
	for _, v := range parked {
		f.eng.At(f.eng.Now(), v.gateFn)
	}
}

// drop removes the link's state when nothing is left installed on it.
func (f *Fabric) drop(from, to NodeID, ls *linkState) {
	if ls.clear() {
		delete(f.links, linkKey{from, to})
	}
}

// gate passes a verb to the wire, parking the record itself if the link to
// the target is partitioned. Parked verbs re-enter the gate on heal, so they
// retransmit in posting order (RC retry semantics). A poster that crashed
// while its verb was parked never reaches the wire: the record goes back to
// the free list. A verb's first arrival stamps its sent time, if it has one.
func (v *verb) gate() {
	qp := v.qp
	if !v.parked && v.sent != nil {
		*v.sent = qp.fabric().eng.Now()
	}
	if v.parked && qp.from.crashed {
		v.release()
		return
	}
	if ls := qp.fabric().link(qp.from.id, qp.to.id); ls != nil && ls.partitioned {
		qp.stats.Parked++
		v.parked = true
		ls.parked = append(ls.parked, v)
		return
	}
	v.parked = false
	v.wire()
}

// linkDelay returns the injected extra latency for one verb on this QP's
// link: the fixed spike plus a fresh jitter draw.
func (qp *QP) linkDelay() sim.Duration {
	ls := qp.fabric().link(qp.from.id, qp.to.id)
	if ls == nil {
		return 0
	}
	d := ls.extra
	if ls.jitter > 0 {
		d += sim.Duration(qp.fabric().eng.Rand().Int63n(int64(ls.jitter) + 1))
	}
	return d
}

// tearDelay returns how much later one write's interior bytes land on this
// QP's link: zero on a healthy link, the installed tear plus a fresh
// jitter draw under a torn-write fault.
func (qp *QP) tearDelay() sim.Duration {
	ls := qp.fabric().link(qp.from.id, qp.to.id)
	if ls == nil || (ls.tear <= 0 && ls.tearJitter <= 0) {
		return 0
	}
	d := ls.tear
	if ls.tearJitter > 0 {
		d += sim.Duration(qp.fabric().eng.Rand().Int63n(int64(ls.tearJitter) + 1))
	}
	return d
}
