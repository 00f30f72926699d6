// Package heartbeat implements Hamband's failure detector (§4): every node
// runs a heartbeat thread that periodically increments a local counter in a
// registered region, and every node periodically performs one-sided RDMA
// reads of its peers' counters. A peer whose counter stops advancing for a
// configured number of checks is suspected; if its counter moves again it
// is restored.
//
// The paper injects failures by suspending a node's heartbeat thread: the
// node's NIC keeps serving one-sided accesses (so backup slots and summary
// rows remain readable for recovery) while its peers detect the failure.
// Beater.Suspend models exactly that.
package heartbeat

import (
	"encoding/binary"

	"hamband/internal/metrics"
	"hamband/internal/rdma"
	"hamband/internal/sim"
)

// RegionName is the heartbeat counter region registered on every node.
const RegionName = "hb"

// RegionSize is the heartbeat region's size.
const RegionSize = 8

// Config holds detector timing parameters. The zero value of every field
// means "use the default", so a zero Config behaves exactly like
// DefaultConfig() and partial configs (chaos runs tighten one or two knobs)
// only override what they set.
type Config struct {
	BeatPeriod  sim.Duration // counter increment period
	CheckPeriod sim.Duration // remote read period
	Threshold   int          // consecutive stale checks before suspicion

	// TrustThreshold is the number of consecutive advancing checks a
	// suspected peer must pass before it is restored. The default (1)
	// restores on the first sign of life; chaos configurations raise it to
	// ride out flapping links without suspect/restore churn.
	TrustThreshold int

	// Metrics, when non-nil, receives suspicion/restore counters.
	Metrics *metrics.Registry
}

// DefaultConfig returns timings in line with microsecond-scale RDMA
// deployments: 10 µs beats, 25 µs checks, suspicion after 3 stale checks,
// restore after 1 advancing check.
func DefaultConfig() Config {
	return Config{
		BeatPeriod:     10 * sim.Microsecond,
		CheckPeriod:    25 * sim.Microsecond,
		Threshold:      3,
		TrustThreshold: 1,
	}
}

// withDefaults fills zero fields from DefaultConfig.
func (c Config) withDefaults() Config {
	def := DefaultConfig()
	if c.BeatPeriod <= 0 {
		c.BeatPeriod = def.BeatPeriod
	}
	if c.CheckPeriod <= 0 {
		c.CheckPeriod = def.CheckPeriod
	}
	if c.Threshold <= 0 {
		c.Threshold = def.Threshold
	}
	if c.TrustThreshold <= 0 {
		c.TrustThreshold = def.TrustThreshold
	}
	return c
}

// Register registers the heartbeat region on a node before starting
// beaters or detectors. It is idempotent: multiple clusters sharing a
// fabric share one heartbeat region per node.
func Register(node *rdma.Node) *rdma.Region {
	if r := node.Region(RegionName); r != nil {
		return r
	}
	return node.Register(RegionName, RegionSize)
}

// Beater is a node's heartbeat thread.
type Beater struct {
	node      *rdma.Node
	region    *rdma.Region
	count     uint64
	suspended bool
	ticker    *sim.Ticker
}

// NewBeater starts a heartbeat thread on node with the given period; a
// non-positive period uses the default.
func NewBeater(eng *sim.Engine, node *rdma.Node, period sim.Duration) *Beater {
	if period <= 0 {
		period = DefaultConfig().BeatPeriod
	}
	b := &Beater{node: node, region: node.Region(RegionName)}
	b.ticker = eng.NewTicker(period, b.beat)
	return b
}

func (b *Beater) beat() {
	if b.suspended || b.node.Suspended() || b.node.Crashed() {
		return
	}
	b.count++
	binary.LittleEndian.PutUint64(b.region.Bytes(), b.count)
}

// Suspend stops the heartbeat thread without touching anything else — the
// paper's failure injection.
func (b *Beater) Suspend() { b.suspended = true }

// Resume restarts a suspended heartbeat thread.
func (b *Beater) Resume() { b.suspended = false }

// Stop cancels the underlying ticker.
func (b *Beater) Stop() { b.ticker.Cancel() }

// Detector watches all peers of a node and reports suspicion transitions.
type Detector struct {
	fab  *rdma.Fabric
	node *rdma.Node
	cfg  Config

	lastSeen  []uint64
	misses    []int
	advances  []int  // consecutive advancing checks while suspected
	inflight  []bool // a check read is outstanding to this peer
	suspected []bool
	ignored   []bool // peers outside the membership: not checked, never suspected
	ticker    *sim.Ticker

	mSuspicions *metrics.Counter // peer transitions to suspected
	mRestores   *metrics.Counter // suspected peers whose counter advanced again

	// OnSuspect is invoked (on the detector node's CPU) when a peer
	// transitions to suspected.
	OnSuspect func(peer rdma.NodeID)
	// OnRestore is invoked when a suspected peer's counter advances again.
	OnRestore func(peer rdma.NodeID)
}

// NewDetector starts a failure detector on node.
func NewDetector(fab *rdma.Fabric, node *rdma.Node, cfg Config) *Detector {
	cfg = cfg.withDefaults()
	n := fab.Size()
	d := &Detector{
		fab:         fab,
		node:        node,
		cfg:         cfg,
		lastSeen:    make([]uint64, n),
		misses:      make([]int, n),
		advances:    make([]int, n),
		inflight:    make([]bool, n),
		suspected:   make([]bool, n),
		ignored:     make([]bool, n),
		mSuspicions: cfg.Metrics.Counter("heartbeat.suspicions"),
		mRestores:   cfg.Metrics.Counter("heartbeat.restores"),
	}
	d.ticker = fab.Engine().NewTicker(cfg.CheckPeriod, d.check)
	return d
}

// Stop cancels the detector.
func (d *Detector) Stop() { d.ticker.Cancel() }

// Suspected reports whether peer is currently suspected.
func (d *Detector) Suspected(peer rdma.NodeID) bool { return d.suspected[peer] }

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
// immediately, without waiting for TrustThreshold advancing checks, and no
// new suspicion can be raised until Watch re-admits the peer. Forget fires
// no OnRestore: the peer is outside the membership, not recovered.
func (d *Detector) Forget(peer rdma.NodeID) {
	d.ignored[peer] = true
	d.suspected[peer] = false
	d.misses[peer] = 0
	d.advances[peer] = 0
	d.lastSeen[peer] = 0
}

// Watch re-admits a forgotten peer (a node joining the configuration):
// checks resume from a clean slate on the next tick.
func (d *Detector) Watch(peer rdma.NodeID) {
	d.ignored[peer] = false
	d.misses[peer] = 0
	d.advances[peer] = 0
	d.lastSeen[peer] = 0
}

// check posts one heartbeat read per peer; results are handled
// asynchronously as completions arrive. At most one read is outstanding per
// peer: a read stalled on a slow or partitioned link suppresses further
// checks of that peer instead of queueing behind itself, so a heal is met
// by one (fresh) verdict rather than a burst of stale ones.
func (d *Detector) check() {
	if d.node.Suspended() || d.node.Crashed() {
		return
	}
	for peer := 0; peer < d.fab.Size(); peer++ {
		peer := rdma.NodeID(peer)
		if peer == d.node.ID() || d.inflight[peer] || d.ignored[peer] {
			continue
		}
		d.inflight[peer] = true
		d.node.QP(peer).Read(RegionName, 0, 8, func(data []byte, err error) {
			d.inflight[peer] = false
			if err != nil {
				d.miss(peer) // crashed NIC: immediate miss
				return
			}
			count := binary.LittleEndian.Uint64(data)
			if count > d.lastSeen[peer] {
				d.lastSeen[peer] = count
				d.misses[peer] = 0
				d.advance(peer)
				return
			}
			d.advances[peer] = 0
			d.miss(peer)
		})
	}
}

// advance records an advancing check and restores the peer once it has
// passed TrustThreshold of them in a row.
func (d *Detector) advance(peer rdma.NodeID) {
	if !d.suspected[peer] || d.ignored[peer] {
		return
	}
	d.advances[peer]++
	if d.advances[peer] < d.cfg.TrustThreshold {
		return
	}
	d.advances[peer] = 0
	d.suspected[peer] = false
	d.mRestores.Inc()
	if d.OnRestore != nil {
		d.OnRestore(peer)
	}
}

func (d *Detector) miss(peer rdma.NodeID) {
	if d.ignored[peer] {
		// A check read completing after Forget must not resurrect
		// suspicion of a node that is no longer a member.
		return
	}
	d.misses[peer]++
	if d.misses[peer] >= d.cfg.Threshold && !d.suspected[peer] {
		d.suspected[peer] = true
		d.mSuspicions.Inc()
		if d.OnSuspect != nil {
			d.OnSuspect(peer)
		}
	}
}
