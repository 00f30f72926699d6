package core

import (
	"encoding/binary"
	"errors"
	"fmt"

	"hamband/internal/broadcast"
	"hamband/internal/rdma"
	"hamband/internal/spec"
	"hamband/internal/trace"
)

// Epoch numbers configurations. Every broadcast record and summary-slot
// frame is stamped with the epoch its writer believed current; readers
// reject frames stamped before a source's departure epoch, so a removed
// node that has not yet learned of its removal cannot affect the object.
type Epoch uint32

// Reconfiguration errors.
var (
	// ErrNotMember reports a Leave of a node that already left (or a vote
	// about one).
	ErrNotMember = errors.New("core: node is not a member")
	// ErrAlreadyMember reports a Join of a node that never left.
	ErrAlreadyMember = errors.New("core: node is already a member")
	// ErrEpochConflict reports losing the epoch claim to a concurrent
	// reconfiguration: exactly one of the racing claims commits.
	ErrEpochConflict = errors.New("core: reconfiguration lost the epoch claim")
	// ErrNoInitiator reports that no live member can drive the change.
	ErrNoInitiator = errors.New("core: no live member can initiate the reconfiguration")
	// ErrNoAgreement reports that the live members' failure detectors never
	// converged on the target's status within the retry budget.
	ErrNoAgreement = errors.New("core: members do not agree on the target's status")
)

// viewAgreeRetries bounds how many detector-convergence rounds a
// reconfiguration waits for membership-view agreement before giving up.
const viewAgreeRetries = 16

// Epoch returns the current configuration epoch.
func (c *Cluster) Epoch() Epoch { return Epoch(c.epoch) }

// IsMember reports whether node p is in the current configuration.
func (c *Cluster) IsMember(p spec.ProcID) bool { return c.members[p] }

// Members returns a copy of the membership view.
func (c *Cluster) Members() []bool { return append([]bool(nil), c.members...) }

// StaleRejects totals the stale-epoch rejections across the cluster: ring
// records and backup slots refused by the broadcast receivers' epoch gates,
// plus summary anchors refused at adoption.
func (c *Cluster) StaleRejects() uint64 {
	var total uint64
	for _, r := range c.Replicas {
		total += r.rx.StaleRejects() + r.statStaleSlots
	}
	return total
}

// Leave removes node target from the configuration. The lowest live member
// initiates: it waits for the live members' failure detectors to agree on
// the target's status, claims the next epoch with a CAS on the epoch word
// (a concurrent reconfiguration loses with ErrEpochConflict), and commits —
// revoking the target's write permissions on every peer, zeroing its
// consensus weight, clearing any suspicion of it, raising each receiver's
// epoch floor for it once that receiver drains the target's backlog, and
// handing off the leadership of any synchronization group it led.
//
// The departed node keeps running as an observer: members keep fanning out
// summaries, broadcasts and consensus log entries to it (so a later Join
// needs no state transfer), but nothing it writes is accepted and it counts
// toward no majority.
func (c *Cluster) Leave(target int, onDone func(error)) {
	c.reconfigure(target, false, onDone)
}

// Join re-admits a previously departed node: the inverse permission grants,
// detector re-admission, consensus weight and — since the node kept
// receiving while out — only a summary-row refresh as catch-up. The new
// epoch is above every floor raised at its departure, so its fresh writes
// are accepted again.
func (c *Cluster) Join(target int, onDone func(error)) {
	c.reconfigure(target, true, onDone)
}

func (c *Cluster) reconfigure(target int, join bool, onDone func(error)) {
	done := func(err error) {
		if onDone != nil {
			onDone(err)
		}
	}
	if target < 0 || target >= len(c.members) {
		done(fmt.Errorf("core: reconfiguration target %d out of range", target))
		return
	}
	if c.members[target] == join {
		if join {
			done(ErrAlreadyMember)
		} else {
			done(ErrNotMember)
		}
		return
	}
	init := c.initiator(target)
	if init < 0 {
		done(ErrNoInitiator)
		return
	}
	// The expected epoch is captured here, before the (possibly retried)
	// agreement rounds: two overlapping reconfigurations thus claim against
	// the same expectation and exactly one CAS wins.
	cur := c.epoch
	c.agreeOnView(target, join, viewAgreeRetries, func(err error) {
		if err != nil {
			done(err)
			return
		}
		c.claimEpoch(init, cur, func(won bool, err error) {
			if err != nil {
				done(err)
				return
			}
			if !won {
				done(ErrEpochConflict)
				return
			}
			c.commit(target, join, cur+1)
			done(nil)
		})
	})
}

// initiator picks the lowest live member other than target — the
// deterministic driver of the change (and, for a leave, the leadership
// successor for any group the target led).
func (c *Cluster) initiator(target int) int {
	for p := range c.Replicas {
		if p == target || !c.members[p] {
			continue
		}
		node := c.Fab.Node(rdma.NodeID(p))
		if node.Crashed() || node.Suspended() {
			continue
		}
		return p
	}
	return -1
}

// agreeOnView waits until every live member's failure detector reports a
// consistent view of the target: for a join, nobody may suspect the node
// being admitted; for a leave, the members must agree on its status (all
// trusting a node that leaves cleanly, or all suspecting one that died).
// Disagreement retries after a few detector check periods, bounded by left.
func (c *Cluster) agreeOnView(target int, join bool, left int, onDone func(error)) {
	if c.viewAgrees(target, join) {
		onDone(nil)
		return
	}
	if left <= 0 {
		onDone(ErrNoAgreement)
		return
	}
	c.Fab.Engine().After(4*c.Fab.Latency().CheckPeriod, func() {
		c.agreeOnView(target, join, left-1, onDone)
	})
}

// viewAgrees polls the live members' detectors once.
func (c *Cluster) viewAgrees(target int, join bool) bool {
	first := true
	var v0 bool
	for p, r := range c.Replicas {
		if p == target || !c.members[p] {
			continue
		}
		if r.node.Crashed() || r.node.Suspended() {
			continue
		}
		v := r.suspected(rdma.NodeID(target))
		if join && v {
			return false
		}
		if first {
			v0, first = v, false
		} else if v != v0 {
			return false
		}
	}
	return true
}

// epochHome is the node holding the authoritative epoch word.
const epochHome = 0

// claimEpoch attempts CAS(epoch word: cur → cur+1) on the authoritative
// copy. The initiator reaches it with a one-sided verb; when the initiator
// is the home node itself the atomic executes on local memory.
func (c *Cluster) claimEpoch(init int, cur uint32, onDone func(won bool, err error)) {
	name := epochRegion(c.ns)
	if init == epochHome {
		buf := c.Fab.Node(epochHome).Region(name).Bytes()
		if binary.LittleEndian.Uint64(buf) != uint64(cur) {
			onDone(false, nil)
			return
		}
		binary.LittleEndian.PutUint64(buf, uint64(cur)+1)
		onDone(true, nil)
		return
	}
	qp := c.Fab.Node(rdma.NodeID(init)).QP(epochHome)
	qp.CAS(name, 0, uint64(cur), uint64(cur)+1, func(old uint64, err error) {
		if err != nil {
			onDone(false, err)
			return
		}
		onDone(old == uint64(cur), nil)
	})
}

// commit applies a claimed reconfiguration.
func (c *Cluster) commit(target int, join bool, newEpoch uint32) {
	c.epoch = newEpoch
	c.members[target] = join
	ns := c.ns
	n := len(c.Replicas)
	t := rdma.NodeID(target)

	// Disseminate the committed epoch to every node's region copy, and
	// stamp it on all outgoing records from here on.
	for i := 0; i < n; i++ {
		binary.LittleEndian.PutUint64(c.Fab.Node(rdma.NodeID(i)).Region(epochRegion(ns)).Bytes(), uint64(newEpoch))
	}
	for _, r := range c.Replicas {
		r.bc.SetEpoch(newEpoch)
		for _, in := range r.groups {
			in.SetMembers(c.members)
		}
	}

	// Failure-detector membership: a departed node is outside the view (no
	// suspicion, no checks), an admitted one is watched from a clean slate.
	// The detector is the node's, shared by every object on it.
	for _, r := range c.Replicas {
		switch d := r.node.Detector(); {
		case r.hb == nil:
		case join:
			d.Watch(t)
		default:
			d.Forget(t)
		}
	}

	// The target's write permission on every other node's inbound ring and
	// summary region follows its membership, and so, from the end of what
	// has landed, do the node's δ-log's records of the cluster's slots from
	// the target (nodeLog.fence): that log is shared by every object on the
	// target, so the NIC cannot revoke one object's part of it.
	for i := 0; i < n; i++ {
		for _, name := range []string{broadcast.InboundRegion(ns, t), ns + sumRegionBase} {
			switch reg := c.Fab.Node(rdma.NodeID(i)).Region(name); {
			case i == target || reg == nil:
			case join:
				reg.AllowWrite(t)
			default:
				reg.RevokeWrite(t)
			}
		}
		if r := c.Replicas[i]; i != target && r.nlog != nil {
			r.nlog.fence(target, c.tags, !join)
		}
	}

	if join {
		// The members' floor for the node stays at its departure epoch, which
		// refuses the anchors it wrote before it left: each group re-anchors.
		for g := range c.Replicas[target].deltaW {
			c.Replicas[target].deltaW[g].anchored = false
		}
		// Catch-up: the node kept receiving broadcasts and consensus log
		// entries while out, so only the members' summary rows need a
		// refresh for anything its scanner raced during the transition.
		for p := 0; p < n; p++ {
			if p == target || !c.members[p] {
				continue
			}
			c.Replicas[target].repairSummaries(rdma.NodeID(p))
		}
	} else {
		// Raise the epoch floors for the departed source only once each
		// receiver/scanner has drained what it legitimately posted — and
		// acked — before the revocation. A wall-clock grace cannot give that
		// guarantee: a peer suspended across the commit drains its backlog
		// arbitrarily late, and a floor already raised by then would reject
		// acked records (a lost update). Drain-driven promotion is per
		// replica: the ring floor rises on the first poll that finds the
		// source's inbound ring empty, the slot floor on the first scan pass
		// that read every one of the source's slots cleanly.
		for p, r := range c.Replicas {
			if p == target {
				continue
			}
			r.rx.FloorAfterDrain(t, newEpoch)
			r.floors[target].RaiseAfterDrain(newEpoch)
		}
		// Leader handoff: the successor (lowest live member) stands for any
		// synchronization group the departed node led.
		if succ := c.initiator(target); succ >= 0 {
			for _, in := range c.Replicas[succ].groups {
				if in.Leader() == t {
					in.StartElection()
				}
			}
		}
	}

	if c.Opts.Tracer != nil {
		verb := "left"
		if join {
			verb = "joined"
		}
		c.Opts.Tracer.RecordData(target, trace.Reconfig, "",
			fmt.Sprintf("node %d %s: epoch %d committed", target, verb, newEpoch),
			trace.EpochRecord{Epoch: newEpoch, Join: join})
	}
}
