// Package rdma simulates an RDMA fabric with Reliable Connection (RC)
// semantics on top of the deterministic discrete-event engine.
//
// The fabric provides the primitives Hamband's protocols are built from:
//
//   - registered memory regions with per-remote-node write permissions,
//   - RC queue pairs carrying one-sided WRITE, READ and CAS verbs with
//     per-QP in-order delivery,
//   - completion callbacks charged to the posting node's CPU,
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
	"errors"
	"fmt"

	"hamband/internal/metrics"
	"hamband/internal/sim"
	"hamband/internal/trace"
)

// NodeID identifies a node in the fabric. IDs are dense, starting at 0.
type NodeID int

// Errors returned through verb completions.
var (
	ErrCrashed      = errors.New("rdma: target node crashed")
	ErrNoRegion     = errors.New("rdma: no such memory region")
	ErrPermission   = errors.New("rdma: write permission denied")
	ErrOutOfBounds  = errors.New("rdma: access out of region bounds")
	ErrLocalCrashed = errors.New("rdma: local node crashed")
)

// LatencyModel holds the fabric's cost parameters. The defaults
// (DefaultLatency) are calibrated to published RDMA microbenchmarks for a
// 40 Gbps InfiniBand RC setup: ~1 µs one-sided write visibility, ~2 µs
// write-completion RTT, ~2.5 µs read/CAS RTT.
type LatencyModel struct {
	PostCost    sim.Duration // sender CPU occupancy to post one verb (WQE write + doorbell MMIO)
	PollCost    sim.Duration // sender CPU occupancy to reap one completion
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
	// ChainSignalAll, when set, makes every WR in a chain generate a CQE
	// (each paying PollCost) instead of only the tail — the ablation
	// baseline for selective signaling.
	ChainSignalAll bool
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
	}
}

// inline reports whether a payload of n bytes posts inline under this model.
func (m LatencyModel) inline(n int) bool {
	return m.InlineThreshold > 0 && n <= m.InlineThreshold
}

// transfer returns the serialization delay for n bytes.
func (m LatencyModel) transfer(n int) sim.Duration {
	if m.BytesPerNS <= 0 {
		return 0
	}
	return sim.Duration(n / m.BytesPerNS)
}

// CRCCost returns the reader-CPU occupancy of checksumming n bytes — the
// compute leg of a single-RTT validated read.
func (m LatencyModel) CRCCost(n int) sim.Duration {
	if m.CRCBytesPerNS <= 0 {
		return 0
	}
	return sim.Duration(n / m.CRCBytesPerNS)
}

// Stats counts verb activity for tests and ablation reports.
type Stats struct {
	Writes, Reads, CASes uint64
	BytesWritten         uint64
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
	stats Stats
	reg   *metrics.Registry
	tr    *trace.Tracer

	// links holds per-directed-link injected faults (see fault.go). It
	// stays nil until the first fault is installed, so the fault-free verb
	// path pays only a nil map lookup.
	links map[linkKey]*linkState

	// freeVerbs recycles write/chain records (see verb). A plain list, not a
	// sync.Pool: the engine is single-threaded and reuse must not depend on
	// the collector. It starts empty and grows to the peak number of
	// doorbells in flight.
	freeVerbs *verb

	mParked     *metrics.Counter // verbs parked by partitioned links
	mPartitions *metrics.Counter // link partitions installed
	mTorn       *metrics.Counter // writes landed out of order by torn links
	mMerged     *metrics.Counter // coalescer enqueues that extended a pending WR
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
		})
	}
	return f
}

// Engine returns the engine the fabric runs on.
func (f *Fabric) Engine() *sim.Engine { return f.eng }

// Latency returns the fabric's cost model.
func (f *Fabric) Latency() LatencyModel { return f.lat }

// Size returns the number of nodes.
func (f *Fabric) Size() int { return len(f.nodes) }

// Node returns the node with the given id.
func (f *Fabric) Node(id NodeID) *Node { return f.nodes[id] }

// Stats returns a snapshot of verb counters.
func (f *Fabric) Stats() Stats { return f.stats }

// EnableMetrics attaches a metrics registry to the fabric: every queue
// pair — existing and future — records per-verb counters, bytes and
// post-to-completion latency histograms under "rdma.qp.<from>-<to>.*".
// A nil registry (the default) costs nothing on the verb paths.
func (f *Fabric) EnableMetrics(reg *metrics.Registry) {
	f.reg = reg
	f.mParked = reg.Counter("rdma.parked_verbs")
	f.mPartitions = reg.Counter("rdma.link_partitions")
	f.mTorn = reg.Counter("rdma.torn_writes")
	f.mMerged = reg.Counter("rdma.coalesce_merged")
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
// queue pairs to its peers.
type Node struct {
	id      NodeID
	fabric  *Fabric
	CPU     *sim.CPU
	regions map[string]*Region
	qps     map[NodeID]*QP
	routes  []regionRoute

	crashed   bool
	suspended bool
}

// regionRoute diverts matching Register calls into an arena (see Route).
type regionRoute struct {
	match func(name string) bool
	arena *Arena
}

// ID returns the node's identifier.
func (n *Node) ID() NodeID { return n.id }

// Crashed reports whether the node's NIC is dead.
func (n *Node) Crashed() bool { return n.crashed }

// Suspended reports whether the node's process is paused.
func (n *Node) Suspended() bool { return n.suspended }

// Register allocates a memory region of the given size under name and
// returns it. Registering an existing name panics: region layout is part of
// protocol setup and a double registration is a programming error.
//
// If an installed route (see Route) matches the name, the region is carved
// out of the route's arena instead of freshly allocated. The caller is
// expected to have reserved the arena budget beforehand — a carve failure
// here means the reservation accounting is wrong, so it panics rather than
// silently spilling outside the budget.
func (n *Node) Register(name string, size int) *Region {
	if _, ok := n.regions[name]; ok {
		panic(fmt.Sprintf("rdma: region %q already registered on node %d", name, n.id))
	}
	for _, rt := range n.routes {
		if !rt.match(name) {
			continue
		}
		r, err := rt.arena.Carve(name, size)
		if err != nil {
			panic(fmt.Sprintf("rdma: routed region %q on node %d: %v (budget not reserved?)", name, n.id, err))
		}
		n.regions[name] = r
		return r
	}
	r := &Region{name: name, owner: n, buf: make([]byte, size), writers: make(map[NodeID]bool)}
	n.regions[name] = r
	return r
}

// Route installs an arena route: subsequent Register calls whose name
// matches are carved out of the arena rather than freshly allocated. Routes
// are consulted in installation order; the first match wins. This is how a
// multi-object store funnels a protocol stack's region registrations —
// which know nothing about arenas — into one budgeted parent region.
func (n *Node) Route(match func(name string) bool, a *Arena) {
	n.routes = append(n.routes, regionRoute{match: match, arena: a})
}

// Region returns the region registered under name, or nil.
func (n *Node) Region(name string) *Region { return n.regions[name] }

// Unregister removes the region registered under name. Arena-carved
// regions return their span (zeroed) to the arena for reuse. Unknown names
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
	removed := 0
	for name := range n.regions {
		if match(name) {
			n.Unregister(name)
			removed++
		}
	}
	return removed
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
	arena    *Arena // non-nil when carved from an arena (see Arena.Carve)
}

// Name returns the region's registered name.
func (r *Region) Name() string { return r.name }

// Size returns the region's length in bytes.
func (r *Region) Size() int { return len(r.buf) }

// Bytes exposes the region's memory for local access by the owner.
func (r *Region) Bytes() []byte { return r.buf }

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
	m        qpMetrics
}

// qpMetrics holds the per-QP instruments; all nil (free no-ops) when the
// fabric has no registry attached.
type qpMetrics struct {
	writes, reads, cases *metrics.Counter
	bytes                *metrics.Counter
	chains, chainedWRs   *metrics.Counter
	inline, unsignaled   *metrics.Counter
	writeLat             *metrics.Histogram
	readLat              *metrics.Histogram
	casLat               *metrics.Histogram
}

// instrument creates the QP's instruments in reg (idempotent; no-op for a
// nil registry). Name formatting happens here, once, never on a verb path.
func (qp *QP) instrument(reg *metrics.Registry) {
	if reg == nil || qp.m.writes != nil {
		return
	}
	prefix := fmt.Sprintf("rdma.qp.%d-%d.", qp.from.id, qp.to.id)
	qp.m = qpMetrics{
		writes:     reg.Counter(prefix + "writes"),
		reads:      reg.Counter(prefix + "reads"),
		cases:      reg.Counter(prefix + "cases"),
		bytes:      reg.Counter(prefix + "bytes_written"),
		chains:     reg.Counter(prefix + "chains"),
		chainedWRs: reg.Counter(prefix + "chained_wrs"),
		inline:     reg.Counter(prefix + "inline_writes"),
		unsignaled: reg.Counter(prefix + "unsignaled"),
		writeLat:   reg.Histogram(prefix+"write_latency", nil),
		readLat:    reg.Histogram(prefix+"read_latency", nil),
		casLat:     reg.Histogram(prefix+"cas_latency", nil),
	}
}

// From returns the posting node's ID.
func (qp *QP) From() NodeID { return qp.from.id }

// To returns the target node's ID.
func (qp *QP) To() NodeID { return qp.to.id }

// post charges the post cost to the sender CPU and then runs fire, the
// wire-side work of a READ or CAS, through the link-fault gate: a
// partitioned link parks the verb at the NIC until heal (see fault.go). If
// the sender has crashed nothing happens. Writes post through verb.post.
func (qp *QP) post(fire func()) {
	if qp.from.crashed {
		return
	}
	qp.from.CPU.Exec(qp.fabric().lat.PostCost, func() { qp.gate(fire) })
}

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

// complete schedules cb(err) on the posting node's CPU after the ack
// travels back. cb may be nil (an unsignaled verb). RC queue pairs deliver
// completions in posting order, so the CQE time is clamped to the QP's
// completion horizon: a verb whose response is slow (e.g. a CAS waiting on
// the remote atomic unit) delays later verbs' completions — but not, per
// landAt, their wire delivery.
func (qp *QP) complete(landed sim.Time, cb func(error), err error) {
	if cb == nil {
		return
	}
	f := qp.fabric()
	f.eng.At(qp.cqeAt(landed), func() {
		if qp.from.crashed {
			return
		}
		qp.from.CPU.Exec(f.lat.PollCost, func() { cb(err) })
	})
}

// cqeAt computes the (in-order) completion time of a verb whose response
// left the target at landed, and advances the QP's completion horizon.
func (qp *QP) cqeAt(landed sim.Time) sim.Time {
	t := landed + sim.Time(qp.fabric().lat.AckLatency)
	if t <= qp.lastCQE {
		t = qp.lastCQE + 1
	}
	qp.lastCQE = t
	return t
}

// failLocal reports a local posting failure (crashed target) through cb
// after the fabric's failure timeout.
func (qp *QP) failLocal(cb func(error)) {
	f := qp.fabric()
	f.stats.Failed++
	if cb == nil {
		return
	}
	f.eng.After(f.lat.FailTimeout, func() {
		if qp.from.crashed {
			return
		}
		qp.from.CPU.Exec(f.lat.PollCost, func() { cb(ErrCrashed) })
	})
}

// Write posts a one-sided RDMA write of data into (region, off) at the
// target. The data is copied at post time. onDone, if non-nil, receives the
// completion on the posting node's CPU; RC semantics guarantee that a
// successful completion implies the data is in remote memory.
func (qp *QP) Write(region string, off int, data []byte, onDone func(error)) {
	if qp.from.crashed {
		return
	}
	v := qp.fabric().acquireVerb(qp)
	v.add(region, off, data, "")
	v.post(onDone)
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
	f := qp.fabric()
	f.stats.TornWrites++
	f.mTorn.Inc()
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
		copy(r.buf[off:], buf)
		qp.traceVerb(trace.Wire, label, verb, "landed", len(buf))
		return
	}
	copy(r.buf[off:off+4], buf[:4])
	copy(r.buf[off+len(buf)-4:], buf[len(buf)-4:])
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
		copy(r.buf[off+4:], rest)
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
// only the tail generates a CQE, delivered to onDone — so a chain pays at
// most one PollCost. RC ordering still applies WR-by-WR: the tail's
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
func (qp *QP) PostChain(wrs []WR, onDone func(error)) {
	if len(wrs) == 0 || qp.from.crashed {
		return
	}
	v := qp.fabric().acquireVerb(qp)
	for _, wr := range wrs {
		v.add(wr.Region, wr.Off, wr.Data, wr.Label)
	}
	v.post(onDone)
}

// verb is the in-flight state of one WRITE doorbell — a single write or a
// PostChain — from post to completion. One record travels through every
// stage (sender CPU → link gate → wire → one landing per WR → CQE → poll)
// and each stage is a func bound to the record once, when it is first
// allocated, so posting a verb on a warm fabric allocates nothing: no
// closure per stage, no fresh payload buffer per WR. Records are recycled through
// Fabric.freeVerbs when their last stage has run; one that never gets there
// (its poster crashed while it sat parked or queued) is left to the
// collector.
type verb struct {
	qp     *QP
	wrs    []verbWR
	data   []byte // the WRs' payloads, copied at post time, back to back
	onDone func(error)
	landed int   // WRs landed so far; landings fire in posting order
	err    error // first WR failure: later WRs flush, the CQE reports it

	gateFn, wireFn, landFn, cqeFn, pollFn func()
	nextFree                              *verb
}

// verbWR is one write request of a verb.
type verbWR struct {
	region   string
	off      int
	lo, hi   int // payload is data[lo:hi]
	inline   bool
	label    string
	interior sim.Time // when the last byte lands (later than the boundary on a torn link)
}

func (w *verbWR) size() int { return w.hi - w.lo }

func (f *Fabric) acquireVerb(qp *QP) *verb {
	v := f.freeVerbs
	if v == nil {
		v = &verb{}
		v.gateFn, v.wireFn, v.landFn, v.cqeFn, v.pollFn = v.gate, v.wire, v.landNext, v.cqe, v.poll
	} else {
		f.freeVerbs, v.nextFree = v.nextFree, nil
	}
	v.qp = qp
	return v
}

// release returns the record to the free list. Nothing may reference it
// afterwards: callers release only from a verb's final stage.
func (v *verb) release() {
	f := v.qp.fabric()
	clear(v.wrs)
	v.qp, v.wrs, v.data, v.onDone, v.landed, v.err = nil, v.wrs[:0], v.data[:0], nil, 0, nil
	v.nextFree, f.freeVerbs = f.freeVerbs, v
}

// name is the verb's name in traces.
func (v *verb) name() string {
	if len(v.wrs) > 1 {
		return "chain"
	}
	return "write"
}

// add appends one WR, copying its payload.
func (v *verb) add(region string, off int, data []byte, label string) {
	lo := len(v.data)
	v.data = append(v.data, data...)
	v.wrs = append(v.wrs, verbWR{region: region, off: off, lo: lo, hi: len(v.data), label: label,
		inline: v.qp.fabric().lat.inline(len(data))})
}

// post rings the doorbell: the sender CPU pays PostCost for the first WR,
// ChainedPostCost for each further one and InlineCost per inline payload,
// then the verb reaches the link gate.
func (v *verb) post(onDone func(error)) {
	lat := v.qp.fabric().lat
	cost := lat.PostCost + sim.Duration(len(v.wrs)-1)*lat.ChainedPostCost
	for i := range v.wrs {
		if v.wrs[i].inline {
			cost += lat.InlineCost
		}
	}
	v.onDone = onDone
	v.qp.from.CPU.Exec(cost, v.gateFn)
}

// gate passes the verb to the wire, or parks it on a partitioned link.
func (v *verb) gate() { v.qp.gate(v.wireFn) }

// wire is the NIC-side stage: count the WRs, then schedule each one's
// landing in posting order.
func (v *verb) wire() {
	qp := v.qp
	f := qp.fabric()
	n := len(v.wrs)
	if n > 1 {
		f.stats.Chains++
		f.stats.ChainedWRs += uint64(n - 1)
		qp.m.chains.Inc()
		qp.m.chainedWRs.Add(uint64(n - 1))
	}
	for i := range v.wrs {
		w := &v.wrs[i]
		f.stats.Writes++
		f.stats.BytesWritten += uint64(w.size())
		qp.m.writes.Inc()
		qp.m.bytes.Add(uint64(w.size()))
		if w.inline {
			f.stats.InlineWrites++
			qp.m.inline.Inc()
		}
	}
	// Only the tail WR is signaled, and only if the caller asked.
	unsig := uint64(n - 1)
	if f.lat.ChainSignalAll {
		unsig = 0
	}
	if v.onDone == nil {
		unsig++
	}
	f.stats.Unsignaled += unsig
	qp.m.unsignaled.Add(unsig)
	for i := range v.wrs {
		qp.traceVerb(trace.Post, v.wrs[i].label, v.name(), "posted", v.wrs[i].size())
	}
	if qp.to.crashed {
		f.stats.Failed++
		if v.onDone == nil {
			v.release()
			return
		}
		v.err = ErrCrashed
		f.eng.After(f.lat.FailTimeout, v.cqeFn)
		return
	}
	posted := f.eng.Now()
	for i := range v.wrs {
		w := &v.wrs[i]
		landed := qp.landAt(w.size(), w.inline)
		w.interior = qp.tearAt(landed, w.size())
		if i == n-1 {
			qp.m.writeLat.Observe(sim.Duration(w.interior-posted) + f.lat.AckLatency)
		}
		f.eng.At(landed, v.landFn)
	}
}

// landNext delivers the next WR into remote memory. landAt hands out
// strictly increasing times on a QP, so the landings of one verb fire in
// posting order and a cursor identifies the WR.
func (v *verb) landNext() {
	qp := v.qp
	f := qp.fabric()
	w := &v.wrs[v.landed]
	v.landed++
	switch {
	case qp.to.crashed: // crashed while in flight
		f.stats.Failed++
		if v.err == nil {
			v.err = ErrCrashed
		}
	case v.err != nil:
		// An earlier WR failed: the QP is in the error state and this WR
		// flushes without landing.
		f.stats.Failed++
	default:
		r := qp.to.regions[w.region]
		if err := checkAccess(r, qp.from.id, w.off, w.size(), true); err == nil {
			qp.land(r, w.off, v.data[w.lo:w.hi], w.interior, w.label, v.name())
		} else {
			f.stats.Failed++
			v.err = err
		}
	}
	switch {
	case v.landed < len(v.wrs):
		if f.lat.ChainSignalAll {
			qp.complete(w.interior, func(error) {}, nil)
		}
	case v.onDone == nil:
		v.release()
	default:
		f.eng.At(qp.cqeAt(w.interior), v.cqeFn)
	}
}

// cqe is the completion arriving at the sender's NIC; reaping it costs the
// sender CPU PollCost. Completions destined to a crashed node are dropped.
func (v *verb) cqe() {
	if v.qp.from.crashed {
		v.release()
		return
	}
	v.qp.from.CPU.Exec(v.qp.fabric().lat.PollCost, v.pollFn)
}

// poll hands the completion to the caller. The tail CQE is the moment the
// sender learns the whole chain landed, so it is attributed to every
// labeled WR.
func (v *verb) poll() {
	for i := range v.wrs {
		v.qp.traceVerb(trace.CQE, v.wrs[i].label, v.name(), "completion of", v.wrs[i].size())
	}
	cb, err := v.onDone, v.err
	v.release()
	cb(err)
}

// Read posts a one-sided RDMA read of n bytes from (region, off) at the
// target. onDone receives a copy of the remote bytes.
func (qp *QP) Read(region string, off, n int, onDone func([]byte, error)) {
	qp.post(func() {
		f := qp.fabric()
		f.stats.Reads++
		qp.m.reads.Inc()
		if qp.to.crashed {
			qp.failLocal(func(err error) { onDone(nil, err) })
			return
		}
		posted := f.eng.Now()
		landed := qp.landAt(0, false) // request is small; payload returns with the ack
		// The response payload streams back at wire bandwidth over the same
		// QP, so it occupies the in-order wire horizon: back-to-back large
		// reads complete no faster than the wire can carry their payloads.
		back := landed + sim.Time(f.lat.transfer(n))
		if back > qp.lastLand {
			qp.lastLand = back
		}
		qp.m.readLat.Observe(sim.Duration(back-posted) + f.lat.AckLatency)
		f.eng.At(landed, func() {
			if qp.to.crashed {
				f.stats.Failed++
				qp.complete(landed, func(err error) { onDone(nil, err) }, ErrCrashed)
				return
			}
			r := qp.to.regions[region]
			err := checkAccess(r, qp.from.id, off, n, false)
			var data []byte
			if err == nil {
				data = append([]byte(nil), r.buf[off:off+n]...)
			} else {
				f.stats.Failed++
			}
			qp.complete(back, func(e error) { onDone(data, e) }, err)
		})
	})
}

// CAS posts a one-sided 8-byte compare-and-swap on (region, off). onDone
// receives the previous value; the swap succeeded iff old == expect.
// Hamband's protocols avoid CAS by design (single-writer buffers); it is
// provided for completeness and for tests demonstrating its extra cost.
func (qp *QP) CAS(region string, off int, expect, swap uint64, onDone func(old uint64, err error)) {
	qp.post(func() {
		f := qp.fabric()
		f.stats.CASes++
		qp.m.cases.Inc()
		if qp.to.crashed {
			qp.failLocal(func(err error) { onDone(0, err) })
			return
		}
		posted := f.eng.Now()
		// The 8-byte operand occupies the wire like any verb; the remote
		// NIC's atomic unit then takes CASExtra to execute and produce the
		// response. That extra time delays this verb's completion (and, via
		// the CQE horizon, later completions), but not the wire delivery of
		// subsequent verbs: CASExtra is remote-NIC latency, not wire
		// occupancy.
		landed := qp.landAt(8, false)
		responded := landed + sim.Time(f.lat.CASExtra)
		qp.m.casLat.Observe(sim.Duration(responded-posted) + f.lat.AckLatency)
		f.eng.At(landed, func() {
			if qp.to.crashed {
				f.stats.Failed++
				qp.complete(responded, func(err error) { onDone(0, err) }, ErrCrashed)
				return
			}
			r := qp.to.regions[region]
			err := checkAccess(r, qp.from.id, off, 8, true)
			var old uint64
			if err == nil {
				old = readU64(r.buf[off:])
				if old == expect {
					putU64(r.buf[off:], swap)
				}
			} else {
				f.stats.Failed++
			}
			qp.complete(responded, func(e error) { onDone(old, e) }, err)
		})
	})
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
