// Package rdma simulates an RDMA fabric with Reliable Connection (RC)
// semantics on top of the deterministic discrete-event engine.
//
// The fabric provides the primitives Hamband's protocols are built from:
//
//   - registered memory regions with per-remote-node write permissions,
//   - RC queue pairs carrying one-sided WRITE, READ and CAS verbs with
//     per-QP in-order delivery,
//   - completion callbacks charged to the posting node's CPU, which reaps its
//     one completion queue a batch per poll,
//   - fault injection: Suspend (the node's process stops, its NIC keeps
//     serving one-sided accesses — the paper's failure mode) and Crash
//     (the NIC dies too).
//
// Costs follow the cost model of the paper's platform: posting a verb
// occupies the sender CPU briefly, the write lands in remote memory after a
// wire delay with no remote CPU involvement, and the sender learns of
// completion one acknowledgment later. Two-sided messaging (package msgnet)
// charges CPU on both ends, which is the structural difference the paper's
// evaluation measures.
package rdma

import (
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
	"strings"

	"hamband/internal/metrics"
	"hamband/internal/sim"
	"hamband/internal/trace"
)

// NodeID identifies a node in the fabric. IDs are dense, starting at 0.
type NodeID int

// Errors returned through verb completions.
var (
	ErrCrashed     = errors.New("rdma: target node crashed")
	ErrNoRegion    = errors.New("rdma: no such memory region")
	ErrPermission  = errors.New("rdma: write permission denied")
	ErrOutOfBounds = errors.New("rdma: access out of region bounds")
)

// LatencyModel is the one cost model of the simulation: every price the
// fabric charges for its verbs, and every CPU price and poll period the
// layers above it (the node's poll loop, the replica's call path, the summary
// scan) charge on a node, and every period and threshold of failure detection
// and Mu's catch-up, each read from Fabric.Latency where it is charged.
// The verb defaults (DefaultLatency) are calibrated to published RDMA
// microbenchmarks for a 40 Gbps InfiniBand RC setup: ~1 µs one-sided write
// visibility, ~2 µs write-completion RTT, ~2.5 µs read/CAS RTT.
type LatencyModel struct {
	PostCost    sim.Duration // sender CPU occupancy to post one verb (WQE write + doorbell MMIO)
	PollCost    sim.Duration // sender CPU occupancy of one poll of its completion queue (cq.go)
	WireLatency sim.Duration // one-way NIC-to-NIC propagation (includes the payload DMA-read leg)
	AckLatency  sim.Duration // remote NIC ack generation + return
	BytesPerNS  int          // wire bandwidth, bytes per virtual ns
	CASExtra    sim.Duration // extra remote-NIC time for an atomic op
	FailTimeout sim.Duration // delay before an op on a crashed target errors

	// CRCBytesPerNS is the reader-CPU throughput of validating a frame's
	// CRC32-C — the compute leg every checksummed-object read pays. Modern
	// cores run hardware CRC32-C at ~20 bytes/ns; zero makes validation
	// free (the ablation baseline).
	CRCBytesPerNS int

	// Verb-chain refinements (doorbell batching, inline sends, selective
	// signaling). The zero values disable all of them, reproducing the
	// one-doorbell-per-verb model exactly.

	// ChainedPostCost is the sender CPU occupancy of each WR after the
	// first in a PostChain: the chain shares one doorbell, so chained WRs
	// pay only the WQE write. Setting it equal to PostCost models a NIC
	// without doorbell batching (the ablation baseline).
	ChainedPostCost sim.Duration
	// InlineThreshold is the largest payload posted inline
	// (IBV_SEND_INLINE): the payload travels inside the WQE, so the NIC
	// skips its DMA read of the payload from registered memory. Zero
	// disables inlining.
	InlineThreshold int
	// InlineCost is the extra sender CPU an inline post pays to copy the
	// payload into the WQE (it replaces the NIC-side staging the sender
	// otherwise does not see).
	InlineCost sim.Duration
	// InlineDMASaving is the slice of WireLatency attributable to the
	// NIC's DMA read of the payload; inline posts skip it and land that
	// much earlier.
	InlineDMASaving sim.Duration

	// The layers' prices, which no verb charges.

	// SweepPeriod is the period of a node's poll loop (Node.Poll), which
	// sweeps every ring in-channel of the node (a broadcast receiver, a Mu
	// instance), SweepCost its CPU per tick, whatever the number of sweeps,
	// and DeliverCost its CPU per record its one handoff (handoff.go) hands
	// on, whatever the number of in-channels delivering.
	SweepPeriod sim.Duration
	SweepCost   sim.Duration
	DeliverCost sim.Duration
	// ScanPeriod is the period of a replica's summary-slot scan.
	ScanPeriod sim.Duration
	// BeatPeriod is the period of a node's heartbeat thread and CheckPeriod
	// its detector's (heartbeat.go): a peer is suspected after SuspectAfter
	// consecutive stale checks and restored after TrustAfter consecutive
	// advancing ones. CatchUpAfter is how long a Mu follower goes without
	// delivery progress before it pulls the leader's journal, and how often
	// a new leader probes a follower's ring that still refuses it.
	BeatPeriod   sim.Duration
	CheckPeriod  sim.Duration
	SuspectAfter int
	TrustAfter   int
	CatchUpAfter sim.Duration
	// CallCosts price a replica's application work: accepting a client
	// call, applying an update, evaluating a query.
	sim.CallCosts
}

// DefaultLatency returns the calibrated cost model described above.
func DefaultLatency() LatencyModel {
	return LatencyModel{
		PostCost:    150 * sim.Nanosecond,
		PollCost:    100 * sim.Nanosecond,
		WireLatency: 800 * sim.Nanosecond,
		AckLatency:  700 * sim.Nanosecond,
		BytesPerNS:  5, // 40 Gbps
		CASExtra:    300 * sim.Nanosecond,
		FailTimeout: 100 * sim.Microsecond,

		ChainedPostCost: 40 * sim.Nanosecond,
		InlineThreshold: 220, // mlx5-style max_inline_data
		InlineCost:      20 * sim.Nanosecond,
		InlineDMASaving: 300 * sim.Nanosecond,

		CRCBytesPerNS: 20, // hardware CRC32-C, one core

		SweepPeriod: 2 * sim.Microsecond,
		SweepCost:   50 * sim.Nanosecond,
		DeliverCost: 100 * sim.Nanosecond,
		ScanPeriod:  2 * sim.Microsecond,

		BeatPeriod:   10 * sim.Microsecond,
		CheckPeriod:  25 * sim.Microsecond,
		SuspectAfter: 3,
		TrustAfter:   1,
		CatchUpAfter: 100 * sim.Microsecond,

		CallCosts: sim.CallCosts{
			IssueCost: 100 * sim.Nanosecond,
			ApplyCost: 50 * sim.Nanosecond,
			QueryCost: 100 * sim.Nanosecond,
		},
	}
}

// inline reports whether a payload of n bytes posts inline under this model.
func (m *LatencyModel) inline(n int) bool {
	return m.InlineThreshold > 0 && n <= m.InlineThreshold
}

// transfer returns the serialization delay for n bytes.
func (m *LatencyModel) transfer(n int) sim.Duration {
	if m.BytesPerNS <= 0 {
		return 0
	}
	return sim.Duration(n / m.BytesPerNS)
}

// CRCCost returns the reader-CPU occupancy of checksumming n bytes — the
// compute leg of a single-RTT validated read.
func (m *LatencyModel) CRCCost(n int) sim.Duration {
	if m.CRCBytesPerNS <= 0 {
		return 0
	}
	return sim.Duration(n / m.CRCBytesPerNS)
}

// Stats counts verb activity for tests and ablation reports. Each QP
// counts the verbs posted on it; link partitions are counted on the fabric.
type Stats struct {
	Writes, Reads, CASes uint64
	BytesWritten         uint64
	BytesRead            uint64 // bytes the reads asked for, counted with Reads
	Failed               uint64

	Chains       uint64 // PostChain calls with ≥ 2 WRs (doorbells shared)
	ChainedWRs   uint64 // WRs that rode an earlier WR's doorbell
	InlineWrites uint64 // writes posted inline (payload ≤ InlineThreshold)
	Unsignaled   uint64 // writes whose completion was suppressed (no CQE)

	Partitions uint64 // directed-link partitions installed (fault injection)
	Parked     uint64 // verbs parked at the NIC by a partitioned link
	TornWrites uint64 // writes landed in two fragments by a torn-link fault
}

// Fabric is a simulated RDMA network connecting a fixed set of nodes.
type Fabric struct {
	eng   *sim.Engine
	lat   LatencyModel
	nodes []*Node
	reg   *metrics.Registry
	tr    *trace.Tracer

	partitions uint64 // directed-link partitions installed (Stats.Partitions)

	// links holds per-directed-link injected faults (see fault.go). It
	// stays nil until the first fault is installed, so the fault-free verb
	// path pays only a nil map lookup.
	links map[linkKey]*linkState

	// freeVerbs recycles verb records of every kind (see verb). A plain list,
	// not a sync.Pool: the engine is single-threaded and reuse must not depend
	// on the collector. It starts empty and grows to the peak number of
	// doorbells in flight.
	freeVerbs *verb
}

// NewFabric creates a fabric with n nodes using the given cost model.
func NewFabric(eng *sim.Engine, n int, lat LatencyModel) *Fabric {
	f := &Fabric{eng: eng, lat: lat}
	for i := 0; i < n; i++ {
		f.nodes = append(f.nodes, &Node{
			id:      NodeID(i),
			fabric:  f,
			CPU:     sim.NewCPU(eng),
			regions: make(map[string]*Region),
			heard:   make([]sim.Time, n),
		})
	}
	for _, n := range f.nodes {
		n.coal = NewCoalescer(n)
		n.post = n.NewBatch(InlineWhenIdle)
		n.cq.init(n)
		n.hand.node, n.hand.nextFn = n, n.hand.next
	}
	return f
}

// Engine returns the engine the fabric runs on.
func (f *Fabric) Engine() *sim.Engine { return f.eng }

// Latency returns the fabric's cost model. It is the fabric's own, not a copy,
// so a reader on a hot path pays no copy of the whole model: callers read it
// and never write through it.
func (f *Fabric) Latency() *LatencyModel { return &f.lat }

// Size returns the number of nodes.
func (f *Fabric) Size() int { return len(f.nodes) }

// Node returns the node with the given id.
func (f *Fabric) Node(id NodeID) *Node { return f.nodes[id] }

// Stats returns the fabric's verb counters: the sum of every QP's, plus the
// link partitions.
func (f *Fabric) Stats() Stats {
	s := Stats{Partitions: f.partitions}
	for _, n := range f.nodes {
		for _, qp := range n.qps {
			s.add(&qp.stats)
		}
	}
	return s
}

// add accumulates o's verb counts into s.
func (s *Stats) add(o *Stats) {
	s.Writes += o.Writes
	s.Reads += o.Reads
	s.CASes += o.CASes
	s.BytesWritten += o.BytesWritten
	s.BytesRead += o.BytesRead
	s.Failed += o.Failed
	s.Chains += o.Chains
	s.ChainedWRs += o.ChainedWRs
	s.InlineWrites += o.InlineWrites
	s.Unsignaled += o.Unsignaled
	s.Parked += o.Parked
	s.TornWrites += o.TornWrites
}

// EnableMetrics attaches the run's one metrics registry: every layer built on
// the fabric registers its instruments in Metrics(). Each queue pair —
// existing and future — exports its verb counts (read from its Stats, so
// nothing is counted twice) and post-to-completion latency histograms under
// "rdma.qp.<from>-<to>.*". Attaching the attached registry again does
// nothing; a nil registry (the default) costs nothing on the verb paths.
func (f *Fabric) EnableMetrics(reg *metrics.Registry) {
	if reg == f.reg {
		return
	}
	f.reg = reg
	reg.CounterFunc("rdma.parked_verbs", func() uint64 { return f.Stats().Parked })
	reg.CounterFunc("rdma.link_partitions", func() uint64 { return f.partitions })
	reg.CounterFunc("rdma.torn_writes", func() uint64 { return f.Stats().TornWrites })
	reg.CounterFunc("rdma.coalesce_merged", func() uint64 {
		var n uint64
		for _, node := range f.nodes {
			n += node.coal.stats.Merged
		}
		return n
	})
	for _, n := range f.nodes {
		for _, qp := range n.qps {
			qp.instrument(reg)
		}
	}
}

// Metrics returns the attached registry (nil when metrics are disabled).
func (f *Fabric) Metrics() *metrics.Registry { return f.reg }

// EnableTracing attaches a lifecycle tracer to the fabric: labeled work
// requests (WR.Label) record Post at doorbell time, Wire when the write
// lands in remote memory, and CQE when the sender reaps the completion
// (signaled verbs only — an unsignaled write never learns it landed, and
// neither does its trace). Recording happens inside the verbs' existing
// stage events and costs no virtual time, so timings, stats and
// schedules are bit-identical with tracing on or off. Unlabeled verbs
// record nothing.
func (f *Fabric) EnableTracing(tr *trace.Tracer) { f.tr = tr }

// Tracer returns the attached tracer (nil when verb tracing is disabled).
func (f *Fabric) Tracer() *trace.Tracer { return f.tr }

// Node is one machine on the fabric: a CPU, registered memory regions, and
// queue pairs to its peers, plus the services every object the node hosts
// shares — its write coalescer, its broadcast post batch (Node.Batch), its
// poll loop (Node.Poll) and its failure detection (Node.Subscribe).
type Node struct {
	id      NodeID
	fabric  *Fabric
	CPU     *sim.CPU
	regions map[string]*Region
	qps     map[NodeID]*QP
	coal    *Coalescer
	post    *Batch
	cq      completionQueue
	poll    pollLoop
	hand    Handoff
	live    liveness
	heard   []sim.Time  // by peer: when the node last consumed a record of its (Heard)
	ext     map[any]any // see Attached

	crashed   bool
	suspended bool
}

// ID returns the node's identifier.
func (n *Node) ID() NodeID { return n.id }

// Coalescer returns the node's write coalescer, built with the node: every
// object on the node posts its summary writes through it, so writes of
// different objects to one peer ride one doorbell.
func (n *Node) Coalescer() *Coalescer { return n.coal }

// Batch returns the node's broadcast post batch, built with the node under
// InlineWhenIdle: every broadcaster on the node posts through it, so the
// messages all its objects send in one CPU round leave as one post item.
func (n *Node) Batch() *Batch { return n.post }

// Attached returns what a higher layer keeps on the node under key, built by
// mk on the first call: per-node state beside the node's own services, which
// every object on the node shares (core's δ-logs).
func (n *Node) Attached(key any, mk func() any) any {
	v, ok := n.ext[key]
	if !ok {
		if n.ext == nil {
			n.ext = make(map[any]any)
		}
		v = mk()
		n.ext[key] = v
	}
	return v
}

// Crashed reports whether the node's NIC is dead.
func (n *Node) Crashed() bool { return n.crashed }

// Suspended reports whether the node's process is paused.
func (n *Node) Suspended() bool { return n.suspended }

// Register allocates a memory region of the given size under name and
// returns it. Registering an existing name panics: region layout is part of
// protocol setup and a double registration is a programming error.
func (n *Node) Register(name string, size int) *Region {
	if _, ok := n.regions[name]; ok {
		panic(fmt.Sprintf("rdma: region %q already registered on node %d", name, n.id))
	}
	r := &Region{name: name, owner: n, buf: make([]byte, size), writers: make(map[NodeID]bool)}
	n.regions[name] = r
	return r
}

// Charge carves every registered region whose name matches out of a's
// budget, in name order, so the placement depends only on the names and the
// arena; Unregister returns a charged region's span. It is all or none: when
// a region does not fit, the spans this call carved are released and the
// error wraps ErrArenaExhausted. This is how a multi-object store holds a
// protocol stack's registrations — which know nothing about arenas — to one
// per-node registration budget. Charging a region twice panics.
func (n *Node) Charge(match func(name string) bool, a *Arena) error {
	regions := n.Regions(match)
	for i, r := range regions {
		if r.arena != nil {
			panic(fmt.Sprintf("rdma: region %q on node %d already charged", r.name, n.id))
		}
		if err := a.Carve(r.name, len(r.buf)); err != nil {
			for _, carved := range regions[:i] {
				a.release(carved.name)
				carved.arena = nil
			}
			return fmt.Errorf("rdma: charging node %d: %w", n.id, err)
		}
		r.arena = a
	}
	return nil
}

// Regions returns the registered regions whose names match, in name order.
func (n *Node) Regions(match func(name string) bool) []*Region {
	var out []*Region
	for name, r := range n.regions {
		if match(name) {
			out = append(out, r)
		}
	}
	slices.SortFunc(out, func(a, b *Region) int { return strings.Compare(a.name, b.name) })
	return out
}

// Region returns the region registered under name, or nil.
func (n *Node) Region(name string) *Region { return n.regions[name] }

// Unregister removes the region registered under name. Arena-carved
// regions return their span to the arena for reuse. Unknown names
// are a no-op. The caller is responsible for quiescence: in-flight verbs
// targeting the name after removal fail with ErrNoRegion, exactly as a
// real NIC invalidates an rkey.
func (n *Node) Unregister(name string) {
	r, ok := n.regions[name]
	if !ok {
		return
	}
	delete(n.regions, name)
	if r.arena != nil {
		r.arena.release(name)
	}
}

// UnregisterMatch unregisters every region whose name matches and returns
// how many were removed.
func (n *Node) UnregisterMatch(match func(name string) bool) int {
	regions := n.Regions(match)
	for _, r := range regions {
		n.Unregister(r.name)
	}
	return len(regions)
}

// QP returns the reliable-connection queue pair from this node to peer,
// creating it on first use. Verbs posted on the same QP apply at the target
// in posting order (RC ordering).
func (n *Node) QP(peer NodeID) *QP {
	if n.qps == nil {
		n.qps = make(map[NodeID]*QP)
	}
	qp, ok := n.qps[peer]
	if !ok {
		qp = &QP{from: n, to: n.fabric.nodes[peer]}
		qp.instrument(n.fabric.reg)
		n.qps[peer] = qp
	}
	return qp
}

// Suspend pauses the node's process: its CPU stops executing work, but the
// NIC continues to serve remote one-sided operations. This is the failure
// the paper injects ("suspending its heartbeat thread").
func (n *Node) Suspend() {
	n.suspended = true
	n.CPU.Suspend()
}

// Resume reverses Suspend.
func (n *Node) Resume() {
	n.suspended = false
	n.CPU.Resume()
}

// Crash kills the node entirely: the CPU stops and the NIC no longer
// serves remote accesses. In-flight operations already on the wire still
// land at their targets; completions destined to this node are dropped.
func (n *Node) Crash() {
	n.crashed = true
	n.CPU.Suspend()
}

// Region is a registered memory region. The owner accesses it directly via
// Bytes; remote nodes access it through verbs, subject to write permission.
type Region struct {
	name     string
	owner    *Node
	buf      []byte
	writers  map[NodeID]bool
	allowAll bool
	arena    *Arena // non-nil when charged to an arena's budget (see Node.Charge)

	// Write generations (Write, Moved): gen counts the region's writes,
	// gens[i] is the gen of the last write that touched chunk i, and pages[j]
	// that of the last write that touched page j — kept once TrackWrites is
	// called, so a region no reader asks about keeps none.
	gen   uint64
	gens  []uint64
	pages []uint64
}

// GenChunk is the granularity of a region's write generations: a write
// stamps every GenChunk-byte chunk it touches, and every page of genPage
// chunks, so Moved steps over an unwritten page in one comparison. The
// stamps take 1/32 of a tracked region's memory.
const (
	GenChunk = 256
	genPage  = 16
)

// Name returns the region's registered name.
func (r *Region) Name() string { return r.name }

// Size returns the region's length in bytes.
func (r *Region) Size() int { return len(r.buf) }

// Bytes exposes the region's memory for local access by the owner.
func (r *Region) Bytes() []byte { return r.buf }

// Write copies b into the region at off and stamps every chunk it touches
// with the region's next generation. Every byte the fabric lands goes
// through Write — a WRITE, each part of a torn one, a CAS — so a reader that
// remembers a generation can tell, by Moved, whether bytes it validated may
// have changed since. Bytes the owner writes through Bytes are not stamped:
// a reader that relies on Moved must see its region written only by Write.
func (r *Region) Write(off int, b []byte) {
	copy(r.buf[off:], b)
	if len(b) == 0 {
		return
	}
	r.gen++
	if r.gens == nil {
		return
	}
	lo, hi := off/GenChunk, (off+len(b)-1)/GenChunk
	for c := lo; c <= hi; c++ {
		r.gens[c] = r.gen
	}
	for pg := lo / genPage; pg <= hi/genPage; pg++ {
		r.pages[pg] = r.gen
	}
}

// TrackWrites makes the region keep its chunks' write generations from now
// on, for Moved; writes before it count as older than any generation Gen
// returns after it.
func (r *Region) TrackWrites() {
	if r.gens == nil {
		r.gens = make([]uint64, (len(r.buf)+GenChunk-1)/GenChunk)
		r.pages = make([]uint64, (len(r.gens)+genPage-1)/genPage)
	}
}

// Gen returns the generation of the region's last Write, 0 before the first.
func (r *Region) Gen() uint64 { return r.gen }

// Moved reports whether a Write after generation since touched a chunk of
// [off, off+n) of a region that tracks writes. It is exact at chunk
// granularity: false means no byte of the range changed since; true means
// some byte of a chunk the range shares may have. An untracked region
// reports every range moved.
func (r *Region) Moved(off, n int, since uint64) bool {
	if r.gens == nil {
		return true
	}
	if r.gen <= since || n <= 0 {
		return false
	}
	hi := (off + n - 1) / GenChunk
	for c := off / GenChunk; c <= hi; c++ {
		if r.pages[c/genPage] <= since {
			c |= genPage - 1 // the page's last chunk: the loop steps to the next page
			continue
		}
		if r.gens[c] > since {
			return true
		}
	}
	return false
}

// AllowWrite grants remote write permission to from.
func (r *Region) AllowWrite(from NodeID) { r.writers[from] = true }

// RevokeWrite removes remote write permission from from. Revocation takes
// effect for verbs that land after this call (queued wire traffic that
// arrives later is rejected), which is the property Mu's leader-change
// protocol relies on.
func (r *Region) RevokeWrite(from NodeID) { delete(r.writers, from) }

// AllowAllWrites grants write permission to every node.
func (r *Region) AllowAllWrites() { r.allowAll = true }

// CanWrite reports whether from currently holds write permission.
func (r *Region) CanWrite(from NodeID) bool { return r.allowAll || r.writers[from] }

// QP is a reliable-connection queue pair from one node to another carrying
// one-sided verbs. Completion callbacks run on the posting node's CPU.
type QP struct {
	from, to *Node
	lastLand sim.Time // delivery ordering horizon (RC in-order)
	lastCQE  sim.Time // completion ordering horizon (CQEs in posting order)
	stats    Stats    // the verbs posted on this QP (Partitions stays 0)

	// Post-to-completion latency; nil (free no-ops) when the fabric has no
	// registry attached.
	writeLat, readLat, casLat *metrics.Histogram
}

// instrument exports the QP's counts and creates its histograms in reg
// (no-op for a nil registry). Name formatting happens here, once, never on a
// verb path.
func (qp *QP) instrument(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	prefix := fmt.Sprintf("rdma.qp.%d-%d.", qp.from.id, qp.to.id)
	s := &qp.stats
	reg.CounterFunc(prefix+"writes", func() uint64 { return s.Writes })
	reg.CounterFunc(prefix+"reads", func() uint64 { return s.Reads })
	reg.CounterFunc(prefix+"cases", func() uint64 { return s.CASes })
	reg.CounterFunc(prefix+"bytes_written", func() uint64 { return s.BytesWritten })
	reg.CounterFunc(prefix+"bytes_read", func() uint64 { return s.BytesRead })
	reg.CounterFunc(prefix+"chains", func() uint64 { return s.Chains })
	reg.CounterFunc(prefix+"chained_wrs", func() uint64 { return s.ChainedWRs })
	reg.CounterFunc(prefix+"inline_writes", func() uint64 { return s.InlineWrites })
	reg.CounterFunc(prefix+"unsignaled", func() uint64 { return s.Unsignaled })
	qp.writeLat = reg.Histogram(prefix+"write_latency", nil)
	qp.readLat = reg.Histogram(prefix+"read_latency", nil)
	qp.casLat = reg.Histogram(prefix+"cas_latency", nil)
}

// From returns the posting node's ID.
func (qp *QP) From() NodeID { return qp.from.id }

// To returns the target node's ID.
func (qp *QP) To() NodeID { return qp.to.id }

func (qp *QP) fabric() *Fabric { return qp.from.fabric }

// landAt computes the (in-order) delivery time for a payload of n bytes
// posted now, and advances the QP's ordering horizon. Inline posts skip the
// NIC's DMA read of the payload and land InlineDMASaving earlier; the clamp
// to the horizon keeps RC ordering regardless.
func (qp *QP) landAt(n int, inline bool) sim.Time {
	f := qp.fabric()
	wire := f.lat.WireLatency
	if inline {
		wire -= f.lat.InlineDMASaving
		if wire < 0 {
			wire = 0
		}
	}
	wire += qp.linkDelay() // injected latency spike + jitter, usually 0
	t := f.eng.Now() + sim.Time(wire+f.lat.transfer(n))
	if t <= qp.lastLand {
		t = qp.lastLand + 1
	}
	qp.lastLand = t
	return t
}

// cqeAt computes the completion time of a verb whose response left the
// target at landed, and advances the QP's completion horizon. RC queue pairs
// deliver completions in posting order, so the time is clamped to that
// horizon: a verb whose response is slow (a CAS waiting on the remote atomic
// unit) delays later verbs' completions — but not, per landAt, their wire
// delivery.
func (qp *QP) cqeAt(landed sim.Time) sim.Time {
	t := landed + sim.Time(qp.fabric().lat.AckLatency)
	if t <= qp.lastCQE {
		t = qp.lastCQE + 1
	}
	qp.lastCQE = t
	return t
}

// Write posts a one-sided RDMA write of data into (region, off) at the
// target. The data is copied at post time. onDone, if non-nil, receives the
// completion on the posting node's CPU; RC semantics guarantee that a
// successful completion implies the data is in remote memory.
func (qp *QP) Write(region string, off int, data []byte, onDone func(error)) {
	if qp.from.crashed {
		return
	}
	v := qp.fabric().acquireVerb(qp, opWrite)
	v.add(region, off, data, "", true)
	v.onDone = onDone
	v.post()
}

// traceVerb records one stage-boundary event for a labeled verb; a no-op
// unless the fabric has a tracer attached and the label is non-empty.
func (qp *QP) traceVerb(kind trace.Kind, label, verb, note string, bytes int) {
	f := qp.fabric()
	if f.tr == nil || label == "" {
		return
	}
	f.tr.RecordData(qp.node(kind), kind, label,
		fmt.Sprintf("%s %s→p%d %dB", note, verb, qp.to.id, bytes),
		trace.VerbRecord{Verb: verb, From: int(qp.from.id), To: int(qp.to.id), Bytes: bytes})
}

// node picks the acting node for a verb event: writes land at the target,
// posts and completions happen at the sender.
func (qp *QP) node(kind trace.Kind) int {
	if kind == trace.Wire {
		return int(qp.to.id)
	}
	return int(qp.from.id)
}

// tearAt returns the landing time of a write's interior bytes: landed
// itself on a healthy link, later when the link carries a torn-write fault
// and the payload is large enough to split (the boundary fragment is the
// first and last four bytes, so tearing needs more than eight). The QP's
// ordering horizon advances to the interior time, keeping later writes on
// this RC QP ordered after every byte of this one.
func (qp *QP) tearAt(landed sim.Time, n int) sim.Time {
	tear := qp.tearDelay()
	if tear <= 0 || n <= 8 {
		return landed
	}
	qp.stats.TornWrites++
	interior := landed + sim.Time(tear)
	if interior > qp.lastLand {
		qp.lastLand = interior
	}
	return interior
}

// land copies one write's payload into the target region. On a healthy
// link (interior == landed, the current time) the whole payload lands
// atomically. Under a torn-link fault the boundary bytes — the first and
// last four, exactly the words the length/canary and seqlock validation
// schemes sample — land now, and the interior follows at interior: the
// out-of-order byte landing real NICs permit within one work request. A
// target that crashes in between is left permanently torn.
func (qp *QP) land(r *Region, off int, buf []byte, interior sim.Time, label, verb string) {
	f := qp.fabric()
	if interior <= f.eng.Now() {
		r.Write(off, buf)
		qp.traceVerb(trace.Wire, label, verb, "landed", len(buf))
		return
	}
	r.Write(off, buf[:4])
	r.Write(off+len(buf)-4, buf[len(buf)-4:])
	qp.traceVerb(trace.Wire, label, verb, "boundary landed (torn)", len(buf))
	// buf belongs to a verb record that may be recycled before the interior
	// lands (an unsignaled write is done at its boundary landing), so the
	// fragment in flight keeps its own copy.
	rest := append([]byte(nil), buf[4:len(buf)-4]...)
	n := len(buf)
	f.eng.At(interior, func() {
		if qp.to.crashed {
			return // the write's remaining bytes die with the NIC: region stays torn
		}
		r.Write(off+4, rest)
		qp.traceVerb(trace.Wire, label, verb, "interior landed", n)
	})
}

// WR is one write request in a verb chain posted via PostChain.
type WR struct {
	Region string
	Off    int
	Data   []byte

	// Label, when non-empty and the fabric has a tracer attached (see
	// Fabric.EnableTracing), tags this WR's post/wire/completion trace
	// events with a call identity. An empty label records nothing.
	Label string
}

// PostChain posts wrs as a single linked chain of WRITE work requests: one
// ibv_post_send, one doorbell. The first WR pays the full PostCost; each
// subsequent WR pays only ChainedPostCost. Payloads at or under
// InlineThreshold post inline (see Write). Intermediate WRs are unsignaled —
// only the tail generates a CQE, delivered to onDone — so a chain lands at
// most one completion. RC ordering still applies WR-by-WR: the tail's
// completion implies every WR in the chain has landed.
//
// Failure semantics follow an RC QP transitioning to the error state: the
// first WR to fail (permission, bounds, target crash) records the chain
// error, subsequent WRs are flushed without touching remote memory, and the
// tail completion reports that first error. A target already crashed at the
// doorbell fails the whole chain through the usual FailTimeout path.
//
// Data is copied at post time. A chain of one WR degenerates to Write; an
// empty chain is a no-op.
func (qp *QP) PostChain(wrs []WR, onDone func(error)) { qp.postChain(wrs, onDone, true) }

// postChain is PostChain; with inline false every payload posts by DMA,
// whatever its size, as a Coalescer's batch does on a busy node.
func (qp *QP) postChain(wrs []WR, onDone func(error), inline bool) {
	if v := qp.chain(wrs, onDone, inline); v != nil {
		v.post()
	}
}

// chain assembles the verb postChain posts, or returns nil when there is
// nothing to post: wrs is empty or the node has crashed.
func (qp *QP) chain(wrs []WR, onDone func(error), inline bool) *verb {
	if len(wrs) == 0 || qp.from.crashed {
		return nil
	}
	v := qp.fabric().acquireVerb(qp, opWrite)
	n := 0
	for _, wr := range wrs {
		n += len(wr.Data)
	}
	// Room for the whole chain at once: a record grows its buffers once, not
	// once per doubling.
	v.wrs, v.data = slices.Grow(v.wrs, len(wrs)), slices.Grow(v.data, n)
	for _, wr := range wrs {
		v.add(wr.Region, wr.Off, wr.Data, wr.Label, inline)
	}
	v.onDone = onDone
	return v
}

// verbOp is the kind of one-sided verb a record carries.
type verbOp uint8

const (
	opWrite verbOp = iota // one WRITE, or a PostChain of them
	opRead
	opCAS
)

// verb is the in-flight state of one doorbell — a WRITE, a PostChain, a READ
// or a CAS — from post to completion. One record travels through every stage
// (sender CPU → link gate → wire → landing → CQE → poll) and each stage is a
// func bound to the record once, when it is first allocated, so posting a
// verb on a warm fabric allocates nothing: no closure per stage, no fresh
// payload or response buffer, not even to park at a partitioned link.
// Records of every kind are recycled through Fabric.freeVerbs when their last
// stage has run; one that never gets there (its poster crashed while it sat
// queued on its CPU) is left to the collector.
type verb struct {
	qp *QP
	// wrs holds a WRITE's requests, one per WR of a chain, and a READ's or a
	// CAS's one target (lo is 0, hi the bytes it reads or swaps).
	wrs []verbWR
	// data holds a WRITE's payloads, copied at post time, back to back; a
	// CAS's compare and swap operands, and then the value it found; a READ's
	// response, copied at landing and lent to onRead.
	data   []byte
	onDone func(error)                  // WRITE
	onRead func(data []byte, err error) // READ
	onCAS  func(old uint64, err error)  // CAS
	landed int32                        // WRs landed so far; landings fire in posting order
	op     verbOp
	parked bool      // waiting at a partitioned link, or released from it by a heal
	err    error     // first failure: later WRs flush, the CQE reports it
	sent   *sim.Time // if set, stamped when the verb first reaches its link gate

	gateFn, landFn, cqeFn func()
	nextFree              *verb
}

// verbWR is one request of a verb.
type verbWR struct {
	region string
	off    int
	lo, hi int // payload is data[lo:hi]
	inline bool
	label  string
	// interior is when a write's last byte lands (later than the boundary on a
	// torn link), or when a READ's or CAS's response leaves the target.
	interior sim.Time
}

func (w *verbWR) size() int { return w.hi - w.lo }

func (f *Fabric) acquireVerb(qp *QP, op verbOp) *verb {
	v := f.freeVerbs
	if v == nil {
		v = &verb{}
		v.gateFn, v.landFn, v.cqeFn = v.gate, v.land, v.cqe
	} else {
		f.freeVerbs, v.nextFree = v.nextFree, nil
	}
	v.qp, v.op = qp, op
	return v
}

// release returns the record to the free list. Nothing may reference it
// afterwards: callers release only from a verb's final stage.
func (v *verb) release() {
	f := v.qp.fabric()
	clear(v.wrs)
	v.qp, v.wrs, v.data, v.landed, v.parked, v.err, v.sent = nil, v.wrs[:0], v.data[:0], 0, false, nil, nil
	v.onDone, v.onRead, v.onCAS = nil, nil, nil
	v.nextFree, f.freeVerbs = f.freeVerbs, v
}

// name is a WRITE's name in traces (READ and CAS carry no label).
func (v *verb) name() string {
	if len(v.wrs) > 1 {
		return "chain"
	}
	return "write"
}

// add appends one WR, copying its payload; it posts inline if inline allows
// it and the payload fits InlineThreshold.
func (v *verb) add(region string, off int, data []byte, label string, inline bool) {
	lo := len(v.data)
	v.data = append(v.data, data...)
	v.wrs = append(v.wrs, verbWR{region: region, off: off, lo: lo, hi: len(v.data), label: label,
		inline: inline && v.qp.fabric().lat.inline(len(data))})
}

// post rings the doorbell: the sender CPU pays postCost, then the verb
// reaches the link gate.
func (v *verb) post() {
	v.qp.from.CPU.Submit(v.postCost(), v.gateFn)
}

// postCost is the sender CPU a verb's doorbell takes: PostCost for the first
// WR, ChainedPostCost for each further one and InlineCost per inline payload.
func (v *verb) postCost() sim.Duration {
	lat := &v.qp.fabric().lat
	cost := lat.PostCost + sim.Duration(len(v.wrs)-1)*lat.ChainedPostCost
	for i := range v.wrs {
		if v.wrs[i].inline {
			cost += lat.InlineCost
		}
	}
	return cost
}

// wire is the NIC-side stage, run once the link gate lets the verb through.
func (v *verb) wire() {
	switch v.op {
	case opRead:
		v.wireRead()
	case opCAS:
		v.wireCAS()
	default:
		v.wireWrite()
	}
}

// wireWrite counts a WRITE's WRs, then schedules each one's landing in
// posting order.
func (v *verb) wireWrite() {
	qp := v.qp
	f := qp.fabric()
	st := &qp.stats
	n := len(v.wrs)
	if n > 1 {
		st.Chains++
		st.ChainedWRs += uint64(n - 1)
	}
	for i := range v.wrs {
		w := &v.wrs[i]
		st.Writes++
		st.BytesWritten += uint64(w.size())
		if w.inline {
			st.InlineWrites++
		}
	}
	// Only the tail WR is signaled, and only if the caller asked.
	st.Unsignaled += uint64(n - 1)
	if v.onDone == nil {
		st.Unsignaled++
	}
	for i := range v.wrs {
		qp.traceVerb(trace.Post, v.wrs[i].label, v.name(), "posted", v.wrs[i].size())
	}
	if qp.to.crashed {
		st.Failed++
		if v.onDone == nil {
			v.release()
			return
		}
		v.failLater()
		return
	}
	posted := f.eng.Now()
	for i := range v.wrs {
		w := &v.wrs[i]
		landed := qp.landAt(w.size(), w.inline)
		w.interior = qp.tearAt(landed, w.size())
		if i == n-1 {
			qp.writeLat.Observe(sim.Duration(w.interior-posted) + f.lat.AckLatency)
		}
		f.eng.At(landed, v.landFn)
	}
}

// wireRead sends a READ's request; the response streams back behind it.
func (v *verb) wireRead() {
	qp := v.qp
	f := qp.fabric()
	w := &v.wrs[0]
	qp.stats.Reads++
	qp.stats.BytesRead += uint64(w.size())
	if qp.to.crashed {
		qp.stats.Failed++
		v.failLater()
		return
	}
	posted := f.eng.Now()
	landed := qp.landAt(0, false) // request is small; payload returns with the ack
	// The response payload streams back at wire bandwidth over the same QP,
	// so it occupies the in-order wire horizon: back-to-back large reads
	// complete no faster than the wire can carry their payloads.
	w.interior = landed + sim.Time(f.lat.transfer(w.size()))
	if w.interior > qp.lastLand {
		qp.lastLand = w.interior
	}
	qp.readLat.Observe(sim.Duration(w.interior-posted) + f.lat.AckLatency)
	f.eng.At(landed, v.landFn)
}

// wireCAS sends a CAS's 8-byte operand. It occupies the wire like any verb;
// the remote NIC's atomic unit then takes CASExtra to execute and produce
// the response. That extra time delays this verb's completion (and, via the
// CQE horizon, later completions), but not the wire delivery of subsequent
// verbs: CASExtra is remote-NIC latency, not wire occupancy.
func (v *verb) wireCAS() {
	qp := v.qp
	f := qp.fabric()
	w := &v.wrs[0]
	qp.stats.CASes++
	if qp.to.crashed {
		qp.stats.Failed++
		v.failLater()
		return
	}
	posted := f.eng.Now()
	landed := qp.landAt(w.size(), false)
	w.interior = landed + sim.Time(f.lat.CASExtra)
	qp.casLat.Observe(sim.Duration(w.interior-posted) + f.lat.AckLatency)
	f.eng.At(landed, v.landFn)
}

// failLater reports a target already crashed at the doorbell: the sender
// learns of it after the fabric's failure timeout.
func (v *verb) failLater() {
	f := v.qp.fabric()
	v.err = ErrCrashed
	f.eng.After(f.lat.FailTimeout, v.cqeFn)
}

// land is the verb reaching the target's memory.
func (v *verb) land() {
	switch v.op {
	case opRead:
		v.landRead()
	case opCAS:
		v.landCAS()
	default:
		v.landNext()
	}
}

// landNext delivers a WRITE's next WR into remote memory. landAt hands out
// strictly increasing times on a QP, so the landings of one verb fire in
// posting order and a cursor identifies the WR.
func (v *verb) landNext() {
	qp := v.qp
	f := qp.fabric()
	w := &v.wrs[v.landed]
	v.landed++
	switch {
	case qp.to.crashed: // crashed while in flight
		qp.stats.Failed++
		if v.err == nil {
			v.err = ErrCrashed
		}
	case v.err != nil:
		// An earlier WR failed: the QP is in the error state and this WR
		// flushes without landing.
		qp.stats.Failed++
	default:
		r := qp.to.regions[w.region]
		if err := checkAccess(r, qp.from.id, w.off, w.size(), true); err == nil {
			qp.land(r, w.off, v.data[w.lo:w.hi], w.interior, w.label, v.name())
		} else {
			qp.stats.Failed++
			v.err = err
		}
	}
	switch {
	case int(v.landed) < len(v.wrs): // only the tail WR is signaled
	case v.onDone == nil:
		v.release()
	default:
		f.eng.At(qp.cqeAt(w.interior), v.cqeFn)
	}
}

// landRead copies a READ's response out of remote memory into the record.
func (v *verb) landRead() {
	qp := v.qp
	f := qp.fabric()
	w := &v.wrs[0]
	respond := w.interior
	if qp.to.crashed {
		// The request found the target's NIC dead: no response to wait for.
		v.err, respond = ErrCrashed, f.eng.Now()
	} else {
		r := qp.to.regions[w.region]
		if v.err = checkAccess(r, qp.from.id, w.off, w.size(), false); v.err == nil {
			v.data = append(v.data[:0], r.buf[w.off:w.off+w.size()]...)
		}
	}
	if v.err != nil {
		qp.stats.Failed++
	}
	f.eng.At(qp.cqeAt(respond), v.cqeFn)
}

// landCAS executes a CAS at the target's atomic unit.
func (v *verb) landCAS() {
	qp := v.qp
	f := qp.fabric()
	w := &v.wrs[0]
	if qp.to.crashed {
		v.err = ErrCrashed
	} else {
		r := qp.to.regions[w.region]
		if v.err = checkAccess(r, qp.from.id, w.off, w.size(), true); v.err == nil {
			old := readU64(r.buf[w.off:])
			if old == readU64(v.data) {
				r.Write(w.off, v.data[8:16])
			}
			putU64(v.data, old)
		}
	}
	if v.err != nil {
		qp.stats.Failed++
	}
	f.eng.At(qp.cqeAt(w.interior), v.cqeFn)
}

// cqe is the completion arriving at the sender's NIC: it lands in the
// sender's completion queue, whose next poll reaps it. Completions destined to
// a crashed node are dropped.
func (v *verb) cqe() {
	if v.qp.from.crashed {
		v.release()
		return
	}
	v.qp.from.cq.land(v)
}

// poll hands the completion to the caller. A READ's callback borrows the
// response, so its record returns to the free list only once the callback
// has returned; a WRITE's and a CAS's return first, so a callback that posts
// again reuses its own record.
func (v *verb) poll() {
	switch v.op {
	case opRead:
		var data []byte
		if v.err == nil {
			data = v.data
		}
		v.onRead(data, v.err)
		v.release()
	case opCAS:
		var old uint64
		if v.err == nil {
			old = readU64(v.data)
		}
		cb, err := v.onCAS, v.err
		v.release()
		cb(old, err)
	default:
		// The tail CQE is the moment the sender learns the whole chain
		// landed, so it is attributed to every labeled WR.
		for i := range v.wrs {
			v.qp.traceVerb(trace.CQE, v.wrs[i].label, v.name(), "completion of", v.wrs[i].size())
		}
		cb, err := v.onDone, v.err
		v.release()
		cb(err)
	}
}

// Read posts a one-sided RDMA read of n bytes from (region, off) at the
// target. onDone receives the remote bytes on the posting node's CPU, copied
// when the read reached the target's memory. It borrows them: they are valid
// until onDone returns and are then overwritten by a later verb, so a caller
// that keeps the bytes copies them.
func (qp *QP) Read(region string, off, n int, onDone func(data []byte, err error)) {
	qp.ReadStamped(region, off, n, onDone, nil)
}

// ReadStamped is Read that, when sent is non-nil, sets *sent to when the
// read reaches its link gate, as Batch.PostChain does for a write.
func (qp *QP) ReadStamped(region string, off, n int, onDone func(data []byte, err error), sent *sim.Time) {
	if qp.from.crashed {
		return
	}
	v := qp.fabric().acquireVerb(qp, opRead)
	v.wrs = append(v.wrs, verbWR{region: region, off: off, hi: n})
	v.onRead, v.sent = onDone, sent
	v.post()
}

// TornLooks is the one bound on torn reads. A record whose boundary bytes
// landed ahead of its interior fails validation; such a tear heals within one
// fabric delay, so every reader of remote memory acts on the TornLooks-th
// consecutive look (a poll, a scan or a READ) that finds the same record torn:
// a ring reader parks and reports, a summary scan fetches the writer's copy,
// a one-sided read gives up.
const TornLooks = 4

// ReadValid is Read for bytes validated on arrival: torn sees every read and
// reports whether the bytes are torn, and the region is read again while they
// are, up to TornLooks reads in all. onDone gets the last read, which borrows
// the bytes the way Read's callback does. A read error ends the reads.
func (qp *QP) ReadValid(region string, off, n int, torn func([]byte) bool, onDone func([]byte, error)) {
	looks := 0
	var read func([]byte, error)
	read = func(data []byte, err error) {
		if looks++; err == nil && torn(data) && looks < TornLooks {
			qp.Read(region, off, n, read)
			return
		}
		onDone(data, err)
	}
	qp.Read(region, off, n, read)
}

// CAS posts a one-sided 8-byte compare-and-swap on (region, off). onDone
// receives the previous value; the swap succeeded iff old == expect.
// Hamband's protocols avoid CAS by design (single-writer buffers); it is
// provided for completeness and for tests demonstrating its extra cost.
func (qp *QP) CAS(region string, off int, expect, swap uint64, onDone func(old uint64, err error)) {
	if qp.from.crashed {
		return
	}
	v := qp.fabric().acquireVerb(qp, opCAS)
	v.wrs = append(v.wrs, verbWR{region: region, off: off, hi: 8})
	v.data = binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(v.data, expect), swap)
	v.onCAS = onDone
	v.post()
}

func checkAccess(r *Region, from NodeID, off, n int, write bool) error {
	if r == nil {
		return ErrNoRegion
	}
	if off < 0 || n < 0 || off+n > len(r.buf) {
		return ErrOutOfBounds
	}
	if write && !r.CanWrite(from) {
		return ErrPermission
	}
	return nil
}

func readU64(b []byte) uint64 {
	_ = b[7]
	return uint64(b[0]) | uint64(b[1])<<8 | uint64(b[2])<<16 | uint64(b[3])<<24 |
		uint64(b[4])<<32 | uint64(b[5])<<40 | uint64(b[6])<<48 | uint64(b[7])<<56
}

func putU64(b []byte, v uint64) {
	_ = b[7]
	b[0] = byte(v)
	b[1] = byte(v >> 8)
	b[2] = byte(v >> 16)
	b[3] = byte(v >> 24)
	b[4] = byte(v >> 32)
	b[5] = byte(v >> 40)
	b[6] = byte(v >> 48)
	b[7] = byte(v >> 56)
}
