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
	"hamband/internal/codec"
	"hamband/internal/fifo"
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

// MinDeltaLogBytes is the smallest δ-record log a summary slot may carry.
const MinDeltaLogBytes = 64

func epochRegion(ns string) string { return ns + epochRegionBase }

// Options configures a Hamband cluster. Its CPU prices, poll periods and
// failure-detector timing are not options: they are the fabric's cost model
// (rdma.LatencyModel).
type Options struct {
	Broadcast broadcast.Config
	Mu        mu.Config

	SumSlotSize int // bytes per summary slot

	// Summary slots are delta-groups: the reducible calls a replica ships in
	// one flush of its coalescer fold into one small δ-record in the slot's
	// log area, and the full summarized state is rewritten only when the log
	// fills. Remote scanners fold the δ-records onto their last adopted state
	// and fall back to a one-sided full-state fetch of the writer's own slot
	// on a version gap or a persistently torn record. The writer installs
	// every record it ships in its own slot too, so that copy holds what each
	// peer's does; a fetch, repair or recency read folds its anchor and log
	// the way a scan does.
	//
	// DeltaLogBytes is the tail portion of each summary slot reserved for
	// the δ-record log; the rest holds the full-state anchor. Zero,
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

	// Metrics, when non-nil, is attached to the fabric
	// (rdma.Fabric.EnableMetrics) before anything is built: every layer
	// registers its instruments in the fabric's registry. Nil leaves the
	// fabric as it is; without a registry instrumentation costs nothing.
	Metrics *metrics.Registry

	// DisableFailureHandling turns off detectors and recovery (ablation).
	DisableFailureHandling bool

	// Shard is the cluster's key inside a multi-object store (package
	// store), empty standalone. Its regions and consensus groups live under
	// Cluster.Namespace, its call identities in traces and WR labels read
	// "key:…" so one merged fabric trace decomposes per shard, and its
	// summary writes enqueue under the key for cross-shard accounting.
	Shard string
}

// DefaultOptions returns production-shaped parameters.
func DefaultOptions() Options {
	return Options{
		Broadcast:     broadcast.DefaultConfig(),
		Mu:            mu.DefaultConfig(),
		SumSlotSize:   16 * 1024,
		DeltaLogBytes: 4096,
	}
}

// Cluster is a set of Hamband replicas of one object over an RDMA fabric.
type Cluster struct {
	Fab      *rdma.Fabric
	An       *spec.Analysis
	Opts     Options
	Replicas []*Replica
	leaders  []spec.ProcID
	ns       string // see Namespace

	// Dynamic membership (epoch.go): the configuration epoch and which
	// nodes are currently members. The per-source epoch floors live on each
	// replica (Replica.floors): they rise independently, once that
	// replica has drained the departed source's remaining frames.
	epoch   uint32
	members []bool

	// tags are the node-log tags of the cluster's summarization groups: group
	// g's records carry tags[g] in every node's δ-log (nodeLog), numbered
	// fabric-wide and taken again only once no walk can read a record of the
	// stopped cluster that held them (tagPool).
	tags []int
}

// muGroup names the consensus group of synchronization group g within a
// namespace.
func muGroup(ns string, g int) string { return fmt.Sprintf("%sham-g%d", ns, g) }

// Namespace returns what every region name of the cluster contains: "" or,
// for Options.Shard key, "shard[key]/" (a prefix on core and broadcast
// regions, an infix on Mu ones: "mu-log-<ns>ham-g0"). The brackets keep one
// key's namespace out of another's.
func (c *Cluster) Namespace() string { return c.ns }

// NewCluster builds a Hamband deployment of the analyzed class over fab:
// it registers the memory regions, subscribes every replica to its node's
// failure detection, and creates the per-group consensus instances and — for
// a class with an irreducible conflict-free method — the reliable broadcast;
// every in-channel joins its node's poll loop, and every summary write goes
// through its node's coalescer.
func NewCluster(fab *rdma.Fabric, an *spec.Analysis, opts Options) *Cluster {
	n := fab.Size()
	// Normalize the delta-group parameters: the anchor needs most of
	// the slot (summaries grow with the object), so the log is clamped to
	// at most half the slot. A slot too small to hold a δ-log at all is a
	// hard configuration error, like a summary outgrowing its anchor area.
	if opts.DeltaLogBytes <= 0 || opts.DeltaLogBytes > opts.SumSlotSize/2 {
		opts.DeltaLogBytes = opts.SumSlotSize / 4
	}
	if opts.DeltaLogBytes < MinDeltaLogBytes && len(an.Class.SumGroups) > 0 {
		panic(fmt.Sprintf("core: %d-byte summary slot leaves a %d-byte δ-log (minimum %d)",
			opts.SumSlotSize, opts.DeltaLogBytes, MinDeltaLogBytes))
	}
	c := &Cluster{Fab: fab, An: an, Opts: opts}
	if opts.Shard != "" {
		c.ns = "shard[" + opts.Shard + "]/"
	}
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
	if opts.Tracer != nil && (opts.Shard == "" || fab.Tracer() == nil) {
		fab.EnableTracing(opts.Tracer)
	}

	// The fabric holds the run's one registry; every layer reads it there.
	if opts.Metrics != nil {
		fab.EnableMetrics(opts.Metrics)
	}

	// Region registration: each component of the configuration exists only
	// where the analysis gives the class something to put in it — F buffers
	// iff some method is irreducible conflict-free, L buffers per
	// synchronization group, S slots per summarization group.
	c.Opts.Broadcast.Namespace = c.ns
	if an.HasFreeBuffers() {
		// The smaller of what a backup slot and what half an inbound ring
		// hold. Too little for a call is a hard configuration error, like the
		// δ-log above: a bare call is no longer than a δ-record's body.
		bc := c.Opts.Broadcast
		if bound := bc.MaxPayload(); bound < MinDeltaLogBytes {
			panic(fmt.Sprintf("core: a %d-byte backup slot and a %d-byte inbound ring leave %d bytes for a message's calls (minimum %d)",
				bc.BackupSlot, bc.RingCapacity, bound, MinDeltaLogBytes))
		}
		broadcast.Setup(fab, bc)
	}
	for g := range an.SyncGroups {
		mu.Setup(fab, muGroup(c.ns, g), opts.Mu, rdma.NodeID(c.leaders[g]))
	}
	nslots := len(an.Class.SumGroups) * n
	if nslots > 0 {
		for i := 0; i < n; i++ {
			nodeLogOf(fab, fab.Node(rdma.NodeID(i)), opts.DeltaLogBytes)
		}
		c.tags = tagPoolOf(fab).take(fab, len(an.Class.SumGroups))
	}
	for i := 0; i < n; i++ {
		node := fab.Node(rdma.NodeID(i))
		if nslots > 0 {
			// Every slot's anchor area, and the node's own slots' logs
			// (Replica.slotOffset).
			anchorCap := opts.SumSlotSize - opts.DeltaLogBytes
			r := node.Register(c.ns+sumRegionBase, nslots*anchorCap+len(an.Class.SumGroups)*opts.DeltaLogBytes)
			r.TrackWrites() // the scan validates only anchors that moved (Replica.scanAnchors)
			// Single-writer per slot by protocol; the grants are explicit
			// per peer (not AllowAllWrites) so a leaving node's permission
			// can be revoked without touching anyone else's.
			for p := 0; p < n; p++ {
				if p != i {
					r.AllowWrite(rdma.NodeID(p))
				}
			}
		}
		er := node.Register(epochRegion(c.ns), epochRegionSize)
		er.AllowAllWrites() // any member may CAS-claim a reconfiguration
	}
	c.members = make([]bool, n)
	for i := range c.members {
		c.members[i] = true
	}

	// Failure handling: every replica subscribes to its node's heartbeat and
	// detector (a node beats once for everything it hosts). The first
	// subscriber on a node starts them, in node order, before any replica
	// schedules work of its own; what the detector reports reaches a replica
	// on its node's CPU, once the replicas are built.
	live := make([]*rdma.Subscription, n)
	if !opts.DisableFailureHandling {
		for i := range live {
			p := spec.ProcID(i)
			live[i] = fab.Node(rdma.NodeID(i)).Subscribe(
				func(peer rdma.NodeID) { c.Replicas[p].onSuspect(peer) },
				func(peer rdma.NodeID) { c.Replicas[p].onRestore(peer) })
		}
	}

	for i := 0; i < n; i++ {
		c.Replicas = append(c.Replicas, newReplica(c, spec.ProcID(i), live[i]))
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

// MutateApplyOrder installs the apply-order mutant on every replica: buffered
// calls apply newest-first and the dependency-record gate is skipped. It is
// for the conformance harness only, a bug its checks must catch.
func (c *Cluster) MutateApplyOrder() {
	for _, r := range c.Replicas {
		r.mutateOrder = true
	}
}

// MutateStaleScan installs the stale-scan mutant on every replica: the scan
// trusts the anchors it validated even after a write touched their bytes.
// It is for the mutation controls only, a bug the δ-path
// tests and the chaos corpus must catch.
func (c *Cluster) MutateStaleScan() {
	for _, r := range c.Replicas {
		r.mutateScan = true
	}
}

// MutateNoLocalDelta installs the no-local-delta mutant on every replica: an
// issuer installs the anchors it ships in its own slot but not the
// δ-records, so a fetch, repair or recency read of that slot misses the calls
// since its anchor. It is for the mutation controls only.
func (c *Cluster) MutateNoLocalDelta() {
	for _, r := range c.Replicas {
		r.mutateLocal = true
	}
}

// CrossWire installs the cross-wire mutant on two clusters of one fabric:
// replica p of each delivers the irreducible conflict-free broadcasts it
// receives into replica p of the other. It is for the conformance harness
// only, a leak between shards its per-shard checks must catch.
func CrossWire(a, b *Cluster) {
	for p := range a.Replicas {
		a.Replicas[p].freeSink, b.Replicas[p].freeSink = b.Replicas[p], a.Replicas[p]
	}
}

// CrossWireReduce is CrossWire's rule-REDUCE analog on two clusters of one
// fabric with as many summarization groups: every node's scan folds the
// δ-records of each one's slots into the other's. It is for the conformance
// harness only.
func CrossWireReduce(a, b *Cluster) {
	for _, r := range a.Replicas {
		if nl := r.nlog; nl != nil {
			for g := range r.sums {
				ta, tb := a.tags[g], b.tags[g]
				nl.slots[ta], nl.slots[tb] = nl.slots[tb], nl.slots[ta]
			}
		}
	}
}

// MutateIgnorePass installs the ignore-pass mutant on the nodes of the
// cluster: their scans read every δ-log record as one of the pass they
// walk, so a walk never follows its writer into the next pass. It is for the
// mutation controls only; it acts on every object of those nodes.
func (c *Cluster) MutateIgnorePass() {
	for _, r := range c.Replicas {
		if r.nlog != nil {
			for w := range r.nlog.walks {
				r.nlog.walks[w].IgnorePass = true
			}
		}
	}
}

// Stop takes every replica off its node's summary scan (the node's last
// replica stops the scan), takes its in-channels out of its
// node's poll loop and its subscription off its node's failure detection (a
// stopped replica hears no suspicion; the node's last subscriber stops the
// heartbeat and the detector), and retires its counter reads into the
// registry's totals. Its δ-log tags go back to the fabric's pool. The
// cluster must not be used afterwards; memory regions stay registered on the
// fabric.
func (c *Cluster) Stop() {
	for _, r := range c.Replicas {
		r.stop()
		for _, rd := range r.reads {
			rd.Retire()
		}
	}
	if c.tags != nil {
		tagPoolOf(c.Fab).release(c.Fab, c.tags)
		c.tags = nil
	}
}

// sumSlot holds the decoded view of one summary slot.
type sumSlot struct {
	version uint32
	// call is the summary. The slot owns its arrays: Summarize folds into
	// them in place, an adopted anchor swaps arrays with the replica's
	// scratch record, and whatever outlives the next fold (a trace record)
	// takes a copy.
	call   spec.Call
	counts []uint32 // applied counts per method of the group, in group order

	// Delta-group reader state.
	tornStreak uint8 // consecutive scans stuck on a torn frame
	fetching   bool  // a full-state fetch of this slot is outstanding

	// What the current scan pass found for the slot (scanAnchors,
	// foldRecord, nodeLog.stuck), settled behind its writer's walk.
	changed, stuck, gap bool

	// epoch is the epoch stamped on the anchor the slot was last adopted
	// from: the δ-records folded onto it are its writer's as of that epoch,
	// and the writer's epoch floor refuses them once it rises above it.
	epoch uint32
	seen  uint64 // the node walk's delivery count at the slot's last record (nodeLog.seq)

	// The anchor an earlier scan validated, with the summary region's
	// generation it was read at: an anchor no write has touched since is
	// not validated again.
	anchor    codec.DeltaHeader // the anchor's header
	anchorGen uint64            // 0: none
}

// deltaWriter is the writer-side state of one delta-group summary slot:
// where the next δ-record lands in the log area of the writer's own copy of
// the slot, how many calls have shipped since the last full-state anchor,
// and the open run — the δ-record the next call folds into while it is still
// the pending tail of every peer's batch in the coalescer.
type deltaWriter struct {
	anchored    bool // an anchor has shipped since the start or the last join
	logOff      int
	sinceAnchor int // calls shipped as δ-records since the last anchor (Replica.AnchorAge)

	open   bool      // a run is open: its record is at runAt, and at nodeAt in the node's log
	mark   uint64    // the coalescer's Mark right after the group's last enqueue
	runAt  int       // own log offset of the run's record
	nodeAt int       // node-log offset of the run's record
	ext    int       // bytes the run's record has covered in this flush: the longest encoding
	first  uint32    // slot version of the run's first call
	call   spec.Call // the group's Summarize over the run; the writer owns its arrays
}

// clientCall is a client call on its way from Invoke to its IssueCost item,
// and a query on from there to its QueryCost item.
type clientCall struct {
	u        spec.MethodID
	args     spec.Args
	submitAt sim.Time // Invoke entry
	fresh    bool     // InvokeFresh on a class with summaries: refresh the slots first
	onDone   func(any, error)
}

// freeCall is an accepted irreducible conflict-free call waiting for its
// ApplyCost item.
type freeCall struct {
	c      spec.Call
	d      spec.DepVec
	onDone func(any, error)
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

	// The call path: a client call waits in calls for its IssueCost item, a
	// query in queries for its QueryCost item, an accepted irreducible
	// conflict-free call in accepts for its ApplyCost item. Every push is paired
	// with one CPU.Submit of the queue's bound item in the same function, and
	// sim.CPU runs items in order and never discards one (Suspend and Crash only
	// pause it), so the k-th run of an item pops the k-th record.
	calls    fifo.Queue[clientCall]
	queries  fifo.Queue[clientCall]
	accepts  fifo.Queue[freeCall]
	issueFn  func() // r.issue, r.query and r.accept bound once: a call allocates no closure
	queryFn  func()
	acceptFn func()

	// Summaries.
	sums      [][]*sumSlot // [sum group][proc]
	haveSums  bool
	sumRegion string // the summary-slot region's name: the cluster's namespace + sumRegionBase
	// coal is the node's coalescer: it batches summary-slot writes per peer
	// into one chained doorbell, shared by every object on the node
	// (cross-object WRs to one peer ride one chain).
	coal *rdma.Coalescer
	// Per-group delta-writer state for the own slot.
	deltaW []deltaWriter
	// nlog is the node's δ-logs: every δ-record the replica ships to a peer
	// lands in the peer's copy of the node's log, and the node's scan walks
	// every peer's log into the replica's slots. Nil without summaries.
	nlog *nodeLog
	// What the node's current scan pass found for this replica: whether a
	// slot changed, and per source whether a slot was unreadable (only while
	// an epoch floor waits for its drain proof; nil otherwise).
	scanChanged bool
	scanBlocked []bool
	// recBuf is where nextDelta, accept, invokeConf and leaderTransform
	// encode the record or call they hand on; the summary region, the coalescer, the
	// broadcast, mu.Submit and mu (which copies Transform's result into the
	// entry) copy it before it is reused.
	recBuf []byte
	// The scratch records: walkLog decodes the δ-record it folds into
	// deltaRec (the node's scan, into its own), which Summarize and the views
	// only borrow; adoptAnchor decodes
	// an anchor into anchorRec, folds a read log onto it and swaps its arrays
	// with the slot's once it has passed every check; and callRec is where
	// leaderTransform decodes the call it orders, and onFreeDelivery and
	// onConfDelivery each call they buffer, to validate and admit it.
	deltaRec  codec.DeltaRecord
	anchorRec codec.DeltaRecord
	callRec   codec.DeltaRecord

	// Buffers: the delivered-but-unapplied calls, each buffer the bare calls
	// as they arrived, in storage it reuses (callBuffer).
	fQueues []callBuffer // per source proc
	lQueues []callBuffer // per sync group
	lNext   int          // the L buffer applyOne serves first: the one after the last served

	// Protocol components. bc and rx are nil for a class without an
	// irreducible conflict-free method (no F buffers); the broadcast types
	// tolerate the nil receiver, so the failure and epoch paths do not branch.
	bc     *broadcast.Broadcaster
	rx     *broadcast.Receiver
	groups []*mu.Instance
	// freeSink is the replica rx's deliveries go to: this one, or the partner
	// CrossWire gave it.
	freeSink *Replica
	// hb is the replica's subscription to its node's failure detection; nil
	// with failure handling disabled.
	hb *rdma.Subscription

	// Pending conflicting requests awaiting their ordered delivery.
	pendingConf map[uint64]func(any, error)

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
	mutateOrder bool   // the apply-order mutant (Cluster.MutateApplyOrder)
	mutateScan  bool   // the stale-scan mutant (Cluster.MutateStaleScan)
	mutateLocal bool   // the no-local-delta mutant (Cluster.MutateNoLocalDelta)

	// Per-source epoch floors for summary-slot adoption (dynamic
	// membership). A leave commit parks the departed source's new floor;
	// scanSummaries supplies the drain proof only after a pass in which that
	// source's slots were fully readable (no torn frame, no fetch in
	// flight), so frames the source legitimately wrote — and acked — before
	// losing its permission are adopted, never rejected, even if this
	// replica was suspended across the commit.
	floors []ring.EpochFloor

	// Instrumentation (nil instruments are free no-ops).
	mReduceLat *metrics.Histogram // client-observed reducible-call latency
	mFreeLat   *metrics.Histogram // irreducible conflict-free call latency
	mConfLat   *metrics.Histogram // conflicting-call latency (issue → ordered response)
	mQueryLat  *metrics.Histogram // query latency
	mFreeDepth *metrics.Gauge     // total F-buffer depth
	mConfDepth *metrics.Gauge     // total L-buffer depth

	// Stats; the registry's core.* counters read them through reads, which
	// Cluster.Stop retires.
	reads          []*metrics.Read
	statApplied    uint64 // calls applied to σ or a summary slot
	statIssued     uint64
	statRejected   uint64 // calls rejected as impermissible
	statRecovered  uint64
	statTorn       uint64 // slot reads rejected by CRC validation
	statDeltas     uint64 // δ-records written to peer slot logs
	statAnchors    uint64 // full-state anchor rewrites
	statGapFetch   uint64 // full-state fetches after a gap or CRC park
	statStaleSlots uint64 // anchors rejected by the epoch floor
	statValidated  uint64 // anchors the scan and log records the walks validated: one CRC pass each
}

func newReplica(c *Cluster, id spec.ProcID, live *rdma.Subscription) *Replica {
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
		fQueues:     make([]callBuffer, n),
		lQueues:     make([]callBuffer, len(c.An.SyncGroups)),
		pendingConf: make(map[uint64]func(any, error)),
		specA:       make(map[callKey2]uint32),
		haveSums:    len(cls.SumGroups) > 0,
		sumRegion:   c.ns + sumRegionBase,
	}
	r.freeSink = r
	r.live = view{r: r, base: cls.NewState()}
	r.issueFn, r.queryFn, r.acceptFn = r.issue, r.query, r.accept
	r.applyStepFn = r.applyStep
	r.floors = make([]ring.EpochFloor, n)
	r.coal = r.node.Coalescer()
	if reg := c.Fab.Metrics(); reg.Enabled() {
		r.mReduceLat = reg.Histogram("core.call.reduce", nil)
		r.mFreeLat = reg.Histogram("core.call.free", nil)
		r.mConfLat = reg.Histogram("core.call.conf", nil)
		r.mQueryLat = reg.Histogram("core.call.query", nil)
		r.mFreeDepth = reg.Gauge("core.queue.free_depth")
		r.mConfDepth = reg.Gauge("core.queue.conf_depth")
		r.reads = []*metrics.Read{
			reg.CounterFunc("core.applied", func() uint64 { return r.statApplied }),
			reg.CounterFunc("core.rejected", func() uint64 { return r.statRejected }),
			reg.CounterFunc("core.torn_rejects", func() uint64 { return r.statTorn }),
			reg.CounterFunc("core.delta_records", func() uint64 { return r.statDeltas }),
			reg.CounterFunc("core.anchor_writes", func() uint64 { return r.statAnchors }),
			reg.CounterFunc("core.gap_fetches", func() uint64 { return r.statGapFetch }),
			reg.CounterFunc("core.stale_slot_rejects", func() uint64 { return r.statStaleSlots }),
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
	// The first reducible call of each group anchors (deltaWriter.anchored),
	// so remote readers never fold onto an unanchored identity.
	r.deltaW = make([]deltaWriter, len(cls.SumGroups))

	// Broadcast: carries irreducible conflict-free calls into F buffers. A
	// class without such a method has no F buffers: bc and rx stay nil, and no
	// ring is registered or polled on its behalf.
	if c.An.HasFreeBuffers() {
		r.bc = broadcast.NewBroadcaster(c.Fab, r.node, c.Opts.Broadcast)
		r.rx = broadcast.NewReceiver(c.Fab, r.node, c.Opts.Broadcast, func(src rdma.NodeID, seq uint64, payload []byte) {
			r.freeSink.onFreeDelivery(src, seq, payload)
		})
	}

	// One consensus instance per synchronization group.
	for g := range c.An.SyncGroups {
		g := g
		in := mu.NewInstance(c.Fab, r.node, muGroup(c.ns, g), c.Opts.Mu, rdma.NodeID(c.leaders[g]))
		in.Transform = func(origin rdma.NodeID, payload []byte) []byte { return r.leaderTransform(g, origin, payload) }
		if c.Opts.Tracer != nil {
			in.Tracer = c.Opts.Tracer
			in.TraceLabel = confLabel
			if tag := c.Opts.Shard; tag != "" {
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

	r.hb = live

	// The summary scan: the node's, which the node's first replica starts.
	if r.haveSums {
		r.nlog = nodeLogOf(c.Fab, r.node, c.Opts.DeltaLogBytes)
		r.nlog.join(r, c.tags)
	}
	return r
}

// ID returns the replica's process id.
func (r *Replica) ID() spec.ProcID { return r.id }

// Node returns the underlying fabric node.
func (r *Replica) Node() *rdma.Node { return r.node }

// Beater returns the heartbeat thread of the replica's node (nil until an
// object on the node first subscribes to failure detection); tests suspend
// it to stop the node's heartbeat alone.
func (r *Replica) Beater() *rdma.Beater { return r.node.Beater() }

// Group returns the consensus instance of synchronization group g.
func (r *Replica) Group(g int) *mu.Instance { return r.groups[g] }

// Broadcaster returns the replica's broadcast source, nil for a class
// without F buffers.
func (r *Replica) Broadcaster() *broadcast.Broadcaster { return r.bc }

// Applied exposes the replica's applied-call map (read-only use).
func (r *Replica) Applied() spec.AppliedMap { return r.applied }

// Stats returns (issued, applied, rejected, recovered) counters.
func (r *Replica) Stats() (issued, applied, rejected, recovered uint64) {
	return r.statIssued, r.statApplied, r.statRejected, r.statRecovered
}

// TornRejects reports how many summary records — anchors and δ-records,
// scanned or read from a peer — the CRC validation rejected as torn.
func (r *Replica) TornRejects() uint64 { return r.statTorn }

// DeltaStats reports the delta-group pipeline's activity: δ-records written
// to peer logs, full-state anchor rewrites, and full-state fetches taken to
// recover from a version gap or a persistently torn frame.
func (r *Replica) DeltaStats() (deltas, anchors, gapFetches uint64) {
	return r.statDeltas, r.statAnchors, r.statGapFetch
}

// stop cancels the replica's background activity and takes it off its
// node's failure detection.
func (r *Replica) stop() {
	if r.nlog != nil {
		r.nlog.leave(r)
	}
	r.rx.Stop()
	for _, in := range r.groups {
		in.Stop()
	}
	r.hb.Stop()
}
