package rdma

// Failure detection (§4): a node's heartbeat thread increments a counter in
// a registered region, and its detector reads its peers' counters with
// one-sided READs; a peer whose counter stops advancing for SuspectAfter
// checks is suspected, and restored once it moves again. The periods and
// thresholds are the fabric's (LatencyModel). The paper injects failures by
// suspending a node's threads (Node.Suspend, which stops the heartbeat): the
// NIC keeps serving one-sided accesses, so recovery can still read the
// node's memory. A node hosting many objects is one process — it beats once
// and is suspected once — so both are node services every object subscribes
// to (Node.Subscribe).
//
// A peer's records are its heartbeat too. Every ring record, Mu record and
// δ-record a peer's process writes into the node's memory proves it was
// running, and the layers that consume them say so (Node.Heard). The
// detector reads no counter of a peer heard since its last check and within
// a BeatPeriod of this one: a counter read proves nothing fresher. Such a
// check counts as advancing, and the first read after it sets a baseline
// and counts as a miss, since the counter it compares with predates the
// previous check. A READ this node posts of a peer's memory, and the
// completion of its own write to a peer, are the NIC's work, not the peer
// process's, and prove nothing. So a suspended node, which writes nothing,
// is read every check and detected as before; a node whose heartbeat thread
// alone stopped (Beater.Suspend) while it keeps writing is not suspected by
// the peers it writes to.

import (
	"encoding/binary"
	"slices"

	"hamband/internal/metrics"
	"hamband/internal/sim"
)

// heartbeatRegion is the heartbeat counter region, registered on a node by
// its first subscriber; heartbeatRegionSize holds one counter.
const (
	heartbeatRegion     = "hb"
	heartbeatRegionSize = 8
)

// liveness is a node's failure detection. The first subscriber builds the
// beater and the detector, which the node keeps (a suspended beater stays
// suspended while no one subscribes); their tickers run from a first
// subscription to the last Stop.
type liveness struct {
	beater   *Beater
	detector *Detector
	subs     []*Subscription // in subscription order
}

// Subscription is one subscriber's place in its node's failure detection.
type Subscription struct {
	node                 *Node
	onSuspect, onRestore func(peer NodeID)
	// catchingUp holds a subscriber back from the fan-out until it has heard
	// the suspicions the detector held when it subscribed (catchUp).
	catchingUp bool
	stopped    bool
}

// Subscribe subscribes to the node's failure detection: onSuspect and
// onRestore, when not nil, are called (on the node's CPU, in subscription
// order) when the node's detector suspects a peer or restores a suspected
// one. A subscriber arriving while the detector suspects peers hears each of
// them first, ascending, in one work item on the node's CPU. The first
// subscription — the first ever, or the first after the last Stop — starts
// the heartbeat thread (registering its region the first time), then the
// detector; both run on the fabric's timing.
func (n *Node) Subscribe(onSuspect, onRestore func(peer NodeID)) *Subscription {
	l := &n.live
	if len(l.subs) == 0 {
		if l.beater == nil {
			l.beater = newBeater(n)
			l.detector = newDetector(n)
			l.detector.OnSuspect = func(peer NodeID) { n.fanOut(peer, false) }
			l.detector.OnRestore = func(peer NodeID) { n.fanOut(peer, true) }
		} else {
			l.beater.start()
			l.detector.start()
		}
	}
	s := &Subscription{node: n, onSuspect: onSuspect, onRestore: onRestore}
	l.subs = append(l.subs, s)
	if slices.Contains(l.detector.suspected, true) {
		s.catchingUp = true
		n.CPU.Submit(0, s.catchUp)
	}
	return s
}

// catchUp tells a late subscriber the peers its node's detector suspects
// now — transitions since Subscribe are folded in — and lets the fan-out
// reach it from then on.
func (s *Subscription) catchUp() {
	s.catchingUp = false
	if s.stopped || s.onSuspect == nil {
		return
	}
	for _, peer := range s.node.live.detector.Suspects() {
		s.onSuspect(NodeID(peer))
	}
}

// Stop unsubscribes: the subscriber hears no more transitions, and stopping
// the node's last subscription cancels the heartbeat's and the detector's
// tickers. Stopping again, or a nil subscription, does nothing.
func (s *Subscription) Stop() {
	if s == nil || s.stopped {
		return
	}
	s.stopped = true
	l := &s.node.live
	// A fresh list: a fan-out running now keeps ranging over the old one.
	l.subs = slices.DeleteFunc(slices.Clone(l.subs), func(o *Subscription) bool { return o == s })
	if len(l.subs) == 0 {
		l.beater.ticker.Cancel()
		l.detector.Stop()
	}
}

// Beater returns the node's heartbeat thread, nil until a first subscriber
// started it. Node.Suspend stops it along with everything else on the node;
// suspending the beater alone stops only the heartbeat.
func (n *Node) Beater() *Beater { return n.live.beater }

// Detector returns the node's failure detector, nil until a first subscriber
// started it.
func (n *Node) Detector() *Detector { return n.live.detector }

// fanOut hands the detector's transition to every running subscriber that
// has caught up.
func (n *Node) fanOut(peer NodeID, restore bool) {
	for _, s := range n.live.subs {
		fn := s.onSuspect
		if restore {
			fn = s.onRestore
		}
		if !s.stopped && !s.catchingUp && fn != nil {
			fn(peer)
		}
	}
}

// Beater is a node's heartbeat thread.
type Beater struct {
	node      *Node
	region    *Region
	count     uint64
	suspended bool
	ticker    *sim.Ticker
}

// newBeater registers the node's heartbeat region and starts a heartbeat
// thread on it.
func newBeater(node *Node) *Beater {
	b := &Beater{node: node, region: node.Register(heartbeatRegion, heartbeatRegionSize)}
	b.start()
	return b
}

func (b *Beater) start() {
	b.ticker = b.node.fabric.eng.NewTicker(b.node.fabric.lat.BeatPeriod, b.beat)
}

func (b *Beater) beat() {
	if b.suspended || b.node.Suspended() || b.node.Crashed() {
		return
	}
	b.count++
	binary.LittleEndian.PutUint64(b.region.Bytes(), b.count)
}

// Suspend stops the heartbeat thread without touching anything else: the
// node's other work goes on and only its peers' detectors notice.
func (b *Beater) Suspend() { b.suspended = true }

// Resume restarts a suspended heartbeat thread.
func (b *Beater) Resume() { b.suspended = false }

// Heard records that the node's CPU consumed, now, a record peer's process
// wrote into the node's memory: the detector need not read peer's heartbeat
// at its next check (Detector.check).
func (n *Node) Heard(peer NodeID) { n.heard[peer] = n.fabric.eng.Now() }

// Detector watches all peers of a node and reports suspicion transitions.
type Detector struct {
	node *Node

	lastSeen  []uint64
	misses    []int
	advances  []int  // consecutive advancing checks while suspected
	inflight  []bool // a check read is outstanding to this peer
	stale     []bool // a check skipped the peer's read: lastSeen predates the previous check
	suspected []bool
	ignored   []bool                // peers outside the membership: not checked, never suspected
	readFns   []func([]byte, error) // readFns[p], bound once, handles a check read of p
	ticker    *sim.Ticker
	prev      sim.Time // when the last check ran
	readAll   bool     // the read-every-check mutant (MutateReadAll)
	// The detection-timing test's controls: a check skips a peer heard
	// since the previous one however long ago, or the read after skipped
	// checks compares with the counter read before them.
	noFreshness, noBaseline bool

	mSuspicions *metrics.Counter // peer transitions to suspected
	mRestores   *metrics.Counter // suspected peers whose counter advanced again

	// OnSuspect is invoked (on the detector node's CPU) when a peer
	// transitions to suspected.
	OnSuspect func(peer NodeID)
	// OnRestore is invoked when a suspected peer's counter advances again.
	OnRestore func(peer NodeID)
}

// newDetector starts a failure detector on node. Its suspicion and restore
// counters go to the fabric's registry, if one is attached.
func newDetector(node *Node) *Detector {
	fab := node.fabric
	n := fab.Size()
	d := &Detector{
		node:        node,
		lastSeen:    make([]uint64, n),
		misses:      make([]int, n),
		advances:    make([]int, n),
		inflight:    make([]bool, n),
		stale:       make([]bool, n),
		suspected:   make([]bool, n),
		ignored:     make([]bool, n),
		mSuspicions: fab.Metrics().Counter("heartbeat.suspicions"),
		mRestores:   fab.Metrics().Counter("heartbeat.restores"),
		readFns:     make([]func([]byte, error), n),
	}
	for p := range d.readFns {
		peer := NodeID(p)
		d.readFns[p] = func(data []byte, err error) { d.checked(peer, data, err) }
	}
	d.start()
	return d
}

func (d *Detector) start() {
	d.ticker = d.node.fabric.eng.NewTicker(d.node.fabric.lat.CheckPeriod, d.check)
}

// Stop cancels the detector's checks. The node's last subscriber stops it;
// a test stops one node's detector to split the nodes' views.
func (d *Detector) Stop() { d.ticker.Cancel() }

// MutateReadAll installs the read-every-check mutant: the detector reads
// every peer's counter at every check, heard or not, as before records
// counted as heartbeats. It is for the ledger's mutation control only.
func (d *Detector) MutateReadAll() { d.readAll = true }

// Suspected reports whether peer is currently suspected.
func (d *Detector) Suspected(peer NodeID) bool { return d.suspected[peer] }

// Suspects returns the currently suspected peers, ascending. Read-only and
// allocation-free when the suspicion set is empty — the health layer polls
// it every probe period.
func (d *Detector) Suspects() []int {
	var out []int
	for p, s := range d.suspected {
		if s {
			out = append(out, p)
		}
	}
	return out
}

// Forget drops all failure-detection state about peer and stops checking
// it. A node that has cleanly left the configuration is not failed — it is
// simply no longer a member — so any suspicion raised against it clears
// immediately, without waiting for TrustAfter advancing checks, and no
// new suspicion can be raised until Watch re-admits the peer. Forget fires
// no OnRestore: the peer is outside the membership, not recovered.
func (d *Detector) Forget(peer NodeID) {
	d.ignored[peer] = true
	d.suspected[peer] = false
	d.misses[peer] = 0
	d.advances[peer] = 0
	d.lastSeen[peer] = 0
	d.stale[peer] = false
}

// Watch re-admits a forgotten peer (a node joining the configuration):
// checks resume from a clean slate on the next tick.
func (d *Detector) Watch(peer NodeID) {
	d.ignored[peer] = false
	d.misses[peer] = 0
	d.advances[peer] = 0
	d.lastSeen[peer] = 0
	d.stale[peer] = false
}

// check posts one heartbeat read per peer it has not heard from lately;
// results are handled asynchronously as completions arrive. A peer the node
// heard since the previous check and within a BeatPeriod of this one is not
// read and counts as advancing, unless it is suspected. At most one read is
// outstanding per peer: a read stalled on a slow or partitioned link
// suppresses further checks of that peer instead of queueing behind itself,
// so a heal is met by one (fresh) verdict rather than a burst of stale ones.
func (d *Detector) check() {
	if d.node.Suspended() || d.node.Crashed() {
		return
	}
	now, beat := d.node.fabric.eng.Now(), d.node.fabric.lat.BeatPeriod
	for peer := range d.inflight {
		peer := NodeID(peer)
		if peer == d.node.ID() || d.inflight[peer] || d.ignored[peer] {
			continue
		}
		heard := d.node.heard[peer]
		if heard > d.prev && (now-heard <= sim.Time(beat) || d.noFreshness) && !d.suspected[peer] && !d.readAll {
			d.stale[peer] = true
			d.misses[peer] = 0
			continue
		}
		d.inflight[peer] = true
		d.node.QP(peer).Read(heartbeatRegion, 0, heartbeatRegionSize, d.readFns[peer])
	}
	d.prev = now
}

// checked handles the completion of a check read of peer. The first read
// after skipped checks takes the counter as the baseline and counts as a
// miss: its advance may predate the previous check.
func (d *Detector) checked(peer NodeID, data []byte, err error) {
	d.inflight[peer] = false
	if err != nil {
		d.miss(peer) // crashed NIC: immediate miss
		return
	}
	count := binary.LittleEndian.Uint64(data)
	if d.stale[peer] && !d.noBaseline {
		d.stale[peer] = false
		d.lastSeen[peer] = count
		d.advances[peer] = 0
		d.miss(peer)
		return
	}
	if count > d.lastSeen[peer] {
		d.lastSeen[peer] = count
		d.misses[peer] = 0
		d.advance(peer)
		return
	}
	d.advances[peer] = 0
	d.miss(peer)
}

// advance records an advancing check and restores the peer once it has
// passed TrustAfter of them in a row.
func (d *Detector) advance(peer NodeID) {
	if !d.suspected[peer] || d.ignored[peer] {
		return
	}
	d.advances[peer]++
	if d.advances[peer] < d.node.fabric.lat.TrustAfter {
		return
	}
	d.advances[peer] = 0
	d.suspected[peer] = false
	d.mRestores.Inc()
	if d.OnRestore != nil {
		d.OnRestore(peer)
	}
}

func (d *Detector) miss(peer NodeID) {
	if d.ignored[peer] {
		// A check read completing after Forget must not resurrect
		// suspicion of a node that is no longer a member.
		return
	}
	d.misses[peer]++
	if d.misses[peer] >= d.node.fabric.lat.SuspectAfter && !d.suspected[peer] {
		d.suspected[peer] = true
		d.mSuspicions.Inc()
		if d.OnSuspect != nil {
			d.OnSuspect(peer)
		}
	}
}
