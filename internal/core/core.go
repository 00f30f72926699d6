// Package core implements the Hamband runtime (§4): well-coordinated
// replicated data types executed over the simulated RDMA fabric using only
// one-sided communication.
//
// Each node hosts a Replica of the object. Client calls are dispatched by
// the method's category from the coordination analysis:
//
//   - queries evaluate locally against Apply(S)(σ);
//   - reducible calls are summarized with the local summary and overwritten
//     into a summary slot at every node with single one-sided writes; the
//     slot carries the applied-call counts alongside the summary, so the
//     paper's S-before-A write-ordering requirement holds trivially;
//   - irreducible conflict-free calls apply locally and travel through the
//     reliable broadcast into per-source F buffers;
//   - conflicting calls are routed to their synchronization group's Mu
//     instance, whose leader checks permissibility, attaches the dependency
//     record and orders them into the L buffers.
//
// Buffered calls apply only once their dependency records are satisfied by
// the local applied map. Failures are handled by the heartbeat detector:
// suspicion triggers broadcast backup recovery, summary-row repair, and —
// when the suspect leads a synchronization group — a Mu leader change.
package core

import (
	"fmt"

	"hamband/internal/broadcast"
	"hamband/internal/fifo"
	"hamband/internal/heartbeat"
	"hamband/internal/metrics"
	"hamband/internal/mu"
	"hamband/internal/rdma"
	"hamband/internal/ring"
	"hamband/internal/sim"
	"hamband/internal/spec"
	"hamband/internal/trace"
)

// sumRegionBase is the summary-slot region name (namespace-prefixed).
const sumRegionBase = "ham-sum"

// epochRegionBase is the configuration-epoch word (namespace-prefixed),
// registered on every node. The copy on node 0 is authoritative: a
// reconfiguration claims the next epoch with a CAS there (see epoch.go)
// and the committed value is then disseminated to every node's copy.
const epochRegionBase = "ham-epoch"

// epochRegionSize is the epoch word's size.
const epochRegionSize = 8

// minDeltaLogBytes is the smallest δ-record log a summary slot may carry.
const minDeltaLogBytes = 64

func epochRegion(ns string) string { return ns + epochRegionBase }

// Options configures a Hamband cluster.
type Options struct {
	Heartbeat heartbeat.Config
	Broadcast broadcast.Config
	Mu        mu.Config

	SumSlotSize   int          // bytes per summary slot
	SumScanPeriod sim.Duration // period of the summary-slot scan
	ApplyPeriod   sim.Duration // retry period for dependency-blocked buffers

	IssueCost sim.Duration // CPU cost to accept and dispatch a client call
	ApplyCost sim.Duration // CPU cost to apply one update call
	QueryCost sim.Duration // CPU cost to evaluate one query

	// Summary slots are delta-groups: each reducible call ships one small
	// δ-record into the slot's log area and the full summarized state is
	// rewritten only every AnchorInterval calls (or when the log fills).
	// Remote scanners fold the δ-records onto their last adopted state and
	// fall back to a one-sided full-state fetch of the writer's own slot on
	// a version gap or a persistently torn frame. The writer's own region
	// always holds the current full frame, so repair, recovery and recency
	// reads stay anchor-aware for free.
	//
	// AnchorInterval is the number of δ-records between full-state anchors
	// (≥ 1).
	AnchorInterval int

	// DeltaLogBytes is the tail portion of each summary slot reserved for
	// the δ-record log; the rest holds the full-state anchor frame. Zero,
	// negative or more than half the slot selects a quarter of the slot.
	DeltaLogBytes int

	// Leaders overrides the leader of each synchronization group
	// (default: group index modulo cluster size).
	Leaders []spec.ProcID

	// CheckIntegrity asserts the invariant on every state change (tests).
	CheckIntegrity bool

	// Tracer, when non-nil, records per-call lifecycle events
	// (issue/order/apply/…) for debugging and the trace experiment.
	Tracer *trace.Tracer

	// Metrics, when non-nil, receives per-category call latency
	// histograms and buffer-depth gauges, and is propagated to the
	// broadcast, consensus and heartbeat layers. Nil disables all
	// instrumentation at zero hot-path cost.
	Metrics *metrics.Registry

	// DisableFailureHandling turns off detectors and recovery (ablation).
	DisableFailureHandling bool

	// MutateApplyOrder deliberately breaks the apply pump: buffered calls
	// apply newest-first and the dependency-record gate is skipped. It is a
	// negative control for the conformance harness (an injected apply-order
	// bug its checks must catch) and must never be set in production.
	MutateApplyOrder bool

	// Namespace isolates this cluster's memory regions and consensus
	// groups, so several replicated objects can share one fabric. The
	// heartbeat infrastructure is shared across namespaces.
	Namespace string

	// ShardTag names the shard this cluster implements inside a
	// multi-object store (package store). When set, call identities in
	// traces and WR labels are prefixed "tag:" so one merged fabric trace
	// decomposes per shard, and summary writes enqueue under the tag for
	// cross-shard accounting. Empty for standalone clusters.
	ShardTag string

	// Coalescers, when non-nil, holds one shared per-node write coalescer
	// (indexed by node id) through which replicas route their summary-slot
	// fan-out. Shards sharing a node's coalescers get their same-peer WRs
	// chained into one doorbell. Nil gives each replica a private
	// coalescer, which reproduces the single-object behavior exactly.
	Coalescers []*rdma.Coalescer

	// FailureDomain supplies the per-node heartbeat beaters and detectors
	// every replica subscribes to. A store passes the one domain its shards
	// share; nil (the default) makes the cluster build and own a domain of
	// its own — the one-shard case — which Cluster.Stop then stops.
	FailureDomain *FailureDomain

	// FreeDeliveryHook, when non-nil, intercepts every irreducible
	// conflict-free broadcast delivery before the replica processes it.
	// Returning true consumes the delivery. It exists for the conformance
	// harness's cross-wiring mutation control and must never be set in
	// production.
	FreeDeliveryHook func(p spec.ProcID, src rdma.NodeID, payload []byte) bool
}

// DefaultOptions returns production-shaped parameters.
func DefaultOptions() Options {
	return Options{
		Heartbeat:      heartbeat.DefaultConfig(),
		Broadcast:      broadcast.DefaultConfig(),
		Mu:             mu.DefaultConfig(),
		SumSlotSize:    16 * 1024,
		SumScanPeriod:  2 * sim.Microsecond,
		ApplyPeriod:    5 * sim.Microsecond,
		IssueCost:      100 * sim.Nanosecond,
		ApplyCost:      50 * sim.Nanosecond,
		QueryCost:      100 * sim.Nanosecond,
		AnchorInterval: 32,
		DeltaLogBytes:  4096,
	}
}

// Cluster is a set of Hamband replicas of one object over an RDMA fabric.
type Cluster struct {
	Fab      *rdma.Fabric
	An       *spec.Analysis
	Opts     Options
	Replicas []*Replica
	leaders  []spec.ProcID

	// Dynamic membership (epoch.go): the configuration epoch and which
	// nodes are currently members. The per-source epoch floors live on each
	// replica (Replica.floors): they rise independently, once that
	// replica has drained the departed source's remaining frames.
	epoch   uint32
	members []bool

	// fdom is the failure domain the replicas subscribe to: nil with failure
	// handling disabled, Options.FailureDomain when one was supplied, else a
	// domain this cluster created and stops (ownsFdom).
	fdom     *FailureDomain
	ownsFdom bool

	// freeBound is the most bytes of call records one broadcast message
	// carries: what bounds a batch of the F out-channel (Replica.enqueueFree),
	// and a single call's record with it.
	freeBound int
}

// muGroup names the consensus group of synchronization group g within a
// namespace.
func muGroup(ns string, g int) string { return fmt.Sprintf("%sham-g%d", ns, g) }

// NewCluster builds a Hamband deployment of the analyzed class over fab:
// it registers the memory regions, creates the heartbeat, the per-group
// consensus instances and — for a class with an irreducible conflict-free
// method — the reliable broadcast, and starts every replica's pollers.
func NewCluster(fab *rdma.Fabric, an *spec.Analysis, opts Options) *Cluster {
	n := fab.Size()
	// Normalize the delta-group parameters: the anchor frame needs most of
	// the slot (summaries grow with the object), so the log is clamped to
	// at most half the slot. A slot too small to hold a δ-log at all is a
	// hard configuration error, like a summary outgrowing its anchor area.
	if opts.AnchorInterval < 1 {
		opts.AnchorInterval = 1
	}
	if opts.DeltaLogBytes <= 0 || opts.DeltaLogBytes > opts.SumSlotSize/2 {
		opts.DeltaLogBytes = opts.SumSlotSize / 4
	}
	if opts.DeltaLogBytes < minDeltaLogBytes && len(an.Class.SumGroups) > 0 {
		panic(fmt.Sprintf("core: %d-byte summary slot leaves a %d-byte δ-log (minimum %d)",
			opts.SumSlotSize, opts.DeltaLogBytes, minDeltaLogBytes))
	}
	c := &Cluster{Fab: fab, An: an, Opts: opts}
	c.leaders = opts.Leaders
	if c.leaders == nil {
		for g := range an.SyncGroups {
			c.leaders = append(c.leaders, spec.ProcID(g%n))
		}
	}

	// Attach the tracer to the fabric so labeled verbs surface their
	// post/wire/completion timestamps (zero cost without labels). A shard
	// cluster's tracer is a scoped view; the store attaches the root tracer
	// to the fabric itself, so a shard never replaces an attached one.
	if opts.Tracer != nil && (opts.ShardTag == "" || fab.Tracer() == nil) {
		fab.EnableTracing(opts.Tracer)
	}

	// Propagate the registry to the protocol layers (explicit per-layer
	// registries, if any, win).
	if opts.Metrics.Enabled() {
		if c.Opts.Broadcast.Metrics == nil {
			c.Opts.Broadcast.Metrics = opts.Metrics
		}
		if c.Opts.Mu.Metrics == nil {
			c.Opts.Mu.Metrics = opts.Metrics
		}
		if c.Opts.Heartbeat.Metrics == nil {
			c.Opts.Heartbeat.Metrics = opts.Metrics
		}
	}

	// Region registration: each component of the configuration exists only
	// where the analysis gives the class something to put in it — F buffers
	// iff some method is irreducible conflict-free, L buffers per
	// synchronization group, S slots per summarization group.
	c.Opts.Broadcast.Namespace = opts.Namespace
	if an.HasFreeBuffers() {
		// The smaller of what a backup slot and what half an inbound ring
		// hold. Too little for any record is a hard configuration error, like
		// the δ-log above: FrameFull records are δ-records.
		bc := c.Opts.Broadcast
		if c.freeBound = bc.MaxPayload(); c.freeBound < minDeltaLogBytes {
			panic(fmt.Sprintf("core: a %d-byte backup slot and a %d-byte inbound ring leave %d bytes for a message's call records (minimum %d)",
				bc.BackupSlot, bc.RingCapacity, c.freeBound, minDeltaLogBytes))
		}
		broadcast.Setup(fab, bc)
	}
	for g := range an.SyncGroups {
		mu.Setup(fab, muGroup(opts.Namespace, g), opts.Mu, rdma.NodeID(c.leaders[g]))
	}
	nslots := len(an.Class.SumGroups) * n
	for i := 0; i < n; i++ {
		node := fab.Node(rdma.NodeID(i))
		if nslots > 0 {
			r := node.Register(opts.Namespace+sumRegionBase, nslots*opts.SumSlotSize)
			// Single-writer per slot by protocol; the grants are explicit
			// per peer (not AllowAllWrites) so a leaving node's permission
			// can be revoked without touching anyone else's.
			for p := 0; p < n; p++ {
				if p != i {
					r.AllowWrite(rdma.NodeID(p))
				}
			}
		}
		er := node.Register(epochRegion(opts.Namespace), epochRegionSize)
		er.AllowAllWrites() // any member may CAS-claim a reconfiguration
	}
	c.members = make([]bool, n)
	for i := range c.members {
		c.members[i] = true
	}

	// Failure handling: every replica subscribes to one failure domain (a
	// node beats once for everything it hosts). A standalone cluster is the
	// one-shard case and owns its domain.
	if !opts.DisableFailureHandling {
		if c.fdom = opts.FailureDomain; c.fdom == nil {
			c.fdom = NewFailureDomain(fab, c.Opts.Heartbeat)
			c.ownsFdom = true
		}
	}

	for i := 0; i < n; i++ {
		c.Replicas = append(c.Replicas, newReplica(c, spec.ProcID(i)))
	}
	return c
}

// Leader returns the current leader of synchronization group g as known by
// replica p.
func (c *Cluster) Leader(p spec.ProcID, g int) spec.ProcID {
	return spec.ProcID(c.Replicas[p].groups[g].Leader())
}

// Replica returns the replica at process p.
func (c *Cluster) Replica(p spec.ProcID) *Replica { return c.Replicas[p] }

// Stop cancels every replica's pollers and consensus instances, and the
// failure domain when the cluster owns it (a shared domain outlives the
// cluster: other shards still use it, and its owner stops it). The cluster
// must not be used afterwards; memory regions stay registered on the fabric.
func (c *Cluster) Stop() {
	for _, r := range c.Replicas {
		r.stop()
	}
	if c.ownsFdom {
		c.fdom.Stop()
	}
}

// sumSlot holds the decoded view of one summary slot.
type sumSlot struct {
	version uint32
	call    spec.Call
	counts  []uint32 // applied counts per method of the group, in group order

	// Delta-group reader state.
	tornStreak uint8 // consecutive scans stuck on a torn frame
	fetching   bool  // a full-state fetch of this slot is outstanding
}

// deltaWriter is the writer-side state of one delta-group summary slot:
// where the next δ-record lands in the slot's log area and how many have
// been written since the last full-state anchor.
type deltaWriter struct {
	logOff      int
	sinceAnchor int
}

// pendingEntry is a buffered call awaiting dependency satisfaction.
type pendingEntry struct {
	c spec.Call
	d spec.DepVec
}

// Replica is one node's Hamband runtime.
type Replica struct {
	cluster *Cluster
	cls     *spec.Class
	an      *spec.Analysis
	opts    Options
	node    *rdma.Node
	id      spec.ProcID
	n       int

	live    view // σ and Apply(S)(σ), the state queries and permissibility checks read
	applied spec.AppliedMap
	nextSeq uint64

	// Summaries.
	sums     [][]*sumSlot // [sum group][proc]
	haveSums bool
	// coal batches summary-slot writes per peer into one chained doorbell;
	// private by default, shared across shards when Options.Coalescers is
	// set (cross-shard WRs to one peer then ride one chain).
	coal *rdma.Coalescer
	// Per-group delta-writer state for the own slot.
	deltaW []deltaWriter
	// recBuf is where nextDelta, invokeFree and encodeConf encode the record
	// they hand on; the coalescer, the broadcast and encodeConf itself copy it
	// before returning.
	recBuf []byte

	// Buffers: FIFO queues of delivered-but-unapplied calls. Each reuses its
	// storage and drops a call's references as the call leaves.
	fQueues []fifo.Queue[pendingEntry] // per source proc
	lQueues []fifo.Queue[pendingEntry] // per sync group
	lNext   int                        // the L buffer applyOne serves first: the one after the last served

	// Protocol components. bc and rx are nil for a class without an
	// irreducible conflict-free method (no F buffers); the broadcast types
	// tolerate the nil receiver, so the failure and epoch paths do not branch.
	bc     *broadcast.Broadcaster
	rx     *broadcast.Receiver
	groups []*mu.Instance
	// The cluster's failure domain and this node's heartbeat thread in it;
	// both nil with failure handling disabled.
	fdom   *FailureDomain
	beater *heartbeat.Beater

	// Pending conflicting requests awaiting their ordered delivery.
	pendingConf map[uint64]func(any, error)

	// The F out-channel (enqueueFree): the open batch of accepted calls'
	// records, and how many broadcast messages of this source have seen none
	// of their writes complete. freeLabels are the batched calls' trace labels
	// (tracing only), freeSince their accept times (metrics only).
	freeBatch   []byte
	freeUnacked int
	freeLabels  []string
	freeSince   []sim.Time
	freeIdleFn  func() // r.freeIdle and r.freeAcked bound once: a call allocates nothing
	freeAckedFn func()

	// Speculative leader state: while this replica leads a group it
	// checks permissibility and projects dependency records against a
	// speculative view (σ plus proposed-but-undecided calls), which is
	// simply discarded on deposition — the authoritative σ and A only ever
	// contain decided, delivered calls. spec is nil until this replica first
	// orders a call; specA counts the speculated calls σ has yet to catch up on.
	spec  *view
	specA map[callKey2]uint32

	applying    bool
	applyStepFn func() // r.applyStep bound once: a kick allocates nothing

	// Per-source epoch floors for summary-slot adoption (dynamic
	// membership). A leave commit parks the departed source's new floor;
	// scanSummaries supplies the drain proof only after a pass in which that
	// source's slots were fully readable (no torn frame, no fetch in
	// flight), so frames the source legitimately wrote — and acked — before
	// losing its permission are adopted, never rejected, even if this
	// replica was suspended across the commit.
	floors []ring.EpochFloor

	// Instrumentation (nil instruments are free no-ops).
	mReduceLat  *metrics.Histogram // client-observed reducible-call latency
	mFreeLat    *metrics.Histogram // irreducible conflict-free call latency
	mConfLat    *metrics.Histogram // conflicting-call latency (issue → ordered response)
	mQueryLat   *metrics.Histogram // query latency
	mFreeDepth  *metrics.Gauge     // total F-buffer depth
	mConfDepth  *metrics.Gauge     // total L-buffer depth
	mApplied    *metrics.Counter   // calls applied to σ or a summary slot
	mRejected   *metrics.Counter   // calls rejected as impermissible
	mTorn       *metrics.Counter   // slot reads rejected by CRC validation
	mDeltas     *metrics.Counter   // δ-records written to peer slot logs
	mAnchors    *metrics.Counter   // full-state anchor rewrites
	mGapFetch   *metrics.Counter   // full-state fetches after a gap or CRC park
	mStaleSlots *metrics.Counter   // slot frames rejected by the epoch floor
	mFreeBatch  *metrics.Histogram // calls per F broadcast message (a count, not a time)
	mFreeHold   *metrics.Histogram // F call: accept → its message's flush

	tickers []*sim.Ticker

	// Stats.
	statApplied    uint64
	statIssued     uint64
	statRejected   uint64
	statRecovered  uint64
	statTorn       uint64
	statDeltas     uint64
	statAnchors    uint64
	statGapFetch   uint64
	statStaleSlots uint64
}

func newReplica(c *Cluster, id spec.ProcID) *Replica {
	n := c.Fab.Size()
	cls := c.An.Class
	r := &Replica{
		cluster:     c,
		cls:         cls,
		an:          c.An,
		opts:        c.Opts,
		node:        c.Fab.Node(rdma.NodeID(id)),
		id:          id,
		n:           n,
		applied:     spec.NewAppliedMap(n, len(cls.Methods)),
		fQueues:     make([]fifo.Queue[pendingEntry], n),
		lQueues:     make([]fifo.Queue[pendingEntry], len(c.An.SyncGroups)),
		pendingConf: make(map[uint64]func(any, error)),
		specA:       make(map[callKey2]uint32),
		haveSums:    len(cls.SumGroups) > 0,
	}
	r.live = view{r: r, base: cls.NewState()}
	r.applyStepFn = r.applyStep
	r.freeIdleFn, r.freeAckedFn = r.freeIdle, r.freeAcked
	r.floors = make([]ring.EpochFloor, n)
	if c.Opts.Coalescers != nil {
		r.coal = c.Opts.Coalescers[id]
	} else {
		r.coal = rdma.NewCoalescer(r.node)
	}
	if reg := c.Opts.Metrics; reg.Enabled() {
		r.mReduceLat = reg.Histogram("core.call.reduce", nil)
		r.mFreeLat = reg.Histogram("core.call.free", nil)
		r.mConfLat = reg.Histogram("core.call.conf", nil)
		r.mQueryLat = reg.Histogram("core.call.query", nil)
		r.mFreeDepth = reg.Gauge("core.queue.free_depth")
		r.mConfDepth = reg.Gauge("core.queue.conf_depth")
		r.mApplied = reg.Counter("core.applied")
		r.mRejected = reg.Counter("core.rejected")
		r.mTorn = reg.Counter("core.torn_rejects")
		r.mDeltas = reg.Counter("core.delta_records")
		r.mAnchors = reg.Counter("core.anchor_writes")
		r.mGapFetch = reg.Counter("core.gap_fetches")
		r.mStaleSlots = reg.Counter("core.stale_slot_rejects")
		if c.An.HasFreeBuffers() {
			r.mFreeBatch = reg.Histogram("core.free_batch_entries", nil)
			r.mFreeHold = reg.Histogram("core.free_hold", nil)
		}
	}
	for range cls.SumGroups {
		row := make([]*sumSlot, n)
		for p := range row {
			g := len(r.sums)
			row[p] = &sumSlot{call: cls.SumGroups[g].Identity(), counts: make([]uint32, len(cls.SumGroups[g].Methods))}
		}
		r.sums = append(r.sums, row)
	}
	r.deltaW = make([]deltaWriter, len(cls.SumGroups))
	for g := range r.deltaW {
		// Force a full-state anchor on the first reducible call so remote
		// readers never fold onto an unanchored identity.
		r.deltaW[g].sinceAnchor = c.Opts.AnchorInterval
	}

	// Broadcast: carries irreducible conflict-free calls into F buffers. A
	// class without such a method has no F buffers: bc and rx stay nil, and no
	// ring is registered or polled on its behalf.
	if c.An.HasFreeBuffers() {
		r.bc = broadcast.NewBroadcaster(c.Fab, r.node, c.Opts.Broadcast)
		onFree := r.onFreeDelivery
		if hook := c.Opts.FreeDeliveryHook; hook != nil {
			onFree = func(src rdma.NodeID, seq uint64, payload []byte) {
				if hook(id, src, payload) {
					return
				}
				r.onFreeDelivery(src, seq, payload)
			}
		}
		r.rx = broadcast.NewReceiver(c.Fab, r.node, c.Opts.Broadcast, onFree)
	}

	// One consensus instance per synchronization group.
	for g := range c.An.SyncGroups {
		g := g
		in := mu.NewInstance(c.Fab, r.node, muGroup(c.Opts.Namespace, g), c.Opts.Mu, rdma.NodeID(c.leaders[g]))
		in.Transform = r.leaderTransform
		if c.Opts.Tracer != nil {
			in.Tracer = c.Opts.Tracer
			in.TraceLabel = confLabel
			if tag := c.Opts.ShardTag; tag != "" {
				in.TraceLabel = func(payload []byte) string {
					l := confLabel(payload)
					if l == "" {
						return ""
					}
					return tag + ":" + l
				}
			}
		}
		in.Deliver = func(_ uint64, origin rdma.NodeID, payload []byte) {
			r.onConfDelivery(g, origin, payload)
		}
		in.OnLeaderChange = func(leader rdma.NodeID, _ uint64) {
			if leader != rdma.NodeID(r.id) {
				// Deposed (or a peer elected): discard speculation.
				r.spec = nil
				r.specA = make(map[callKey2]uint32)
			}
		}
		r.groups = append(r.groups, in)
	}

	r.fdom = c.fdom
	if !c.Opts.DisableFailureHandling {
		r.fdom.Subscribe(int(id), r.onSuspect, r.onRestore)
		r.beater = r.fdom.Beater(int(id))
	}

	// Pollers.
	if r.haveSums {
		r.tickers = append(r.tickers, c.Fab.Engine().NewTicker(c.Opts.SumScanPeriod, r.scanSummaries))
	}
	// The retry ticker re-examines dependency-blocked buffer heads; without F
	// or L buffers nothing is ever buffered.
	if r.rx != nil || len(r.groups) > 0 {
		r.tickers = append(r.tickers, c.Fab.Engine().NewTicker(c.Opts.ApplyPeriod, r.kickApply))
	}
	return r
}

// ID returns the replica's process id.
func (r *Replica) ID() spec.ProcID { return r.id }

// Node returns the underlying fabric node.
func (r *Replica) Node() *rdma.Node { return r.node }

// Beater returns the heartbeat thread of the replica's node (nil when
// failure handling is disabled); tests and the failure benchmarks suspend it
// to inject the paper's failure mode.
func (r *Replica) Beater() *heartbeat.Beater { return r.beater }

// Group returns the consensus instance of synchronization group g.
func (r *Replica) Group(g int) *mu.Instance { return r.groups[g] }

// Applied exposes the replica's applied-call map (read-only use).
func (r *Replica) Applied() spec.AppliedMap { return r.applied }

// Stats returns (issued, applied, rejected, recovered) counters.
func (r *Replica) Stats() (issued, applied, rejected, recovered uint64) {
	return r.statIssued, r.statApplied, r.statRejected, r.statRecovered
}

// TornRejects reports how many slot reads the CRC validation rejected —
// each one a torn landing the seqlock-only scheme would have accepted.
func (r *Replica) TornRejects() uint64 { return r.statTorn }

// DeltaStats reports the delta-group pipeline's activity: δ-records written
// to peer logs, full-state anchor rewrites, and full-state fetches taken to
// recover from a version gap or a persistently torn frame.
func (r *Replica) DeltaStats() (deltas, anchors, gapFetches uint64) {
	return r.statDeltas, r.statAnchors, r.statGapFetch
}

// stop cancels the replica's background activity.
func (r *Replica) stop() {
	for _, t := range r.tickers {
		t.Cancel()
	}
	r.rx.Stop()
	for _, in := range r.groups {
		in.Stop()
	}
}
