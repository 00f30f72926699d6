// Package broadcast implements Hamband's RDMA reliable broadcast (§4):
//
// A source node assigns each message a sequence number, writes it to a
// local *backup* region first, then remotely appends it to a single-writer
// ring at every other node, and clears the backup once every remote write
// has completed. If the source fails mid-fan-out, the agreement property
// ("if a message is delivered by some correct node, every correct node
// eventually delivers it") is preserved by recovery: when the failure
// detector suspects the source, the other nodes remotely read the source's
// backup region — its NIC still serves one-sided reads under the paper's
// suspension failure model — and deliver any pending message they have not
// seen.
//
// Receivers deduplicate by (source, sequence number), so a message that was
// both written to a ring and recovered from the backup is delivered once. A
// source that puts a message together over time stages what it has of it in
// the message's backup slot as it goes (Broadcaster.Stage), so recovery also
// finds what the source had accepted and not yet sent; the dedup entry is the
// length delivered, and the message's arrival delivers the rest.
package broadcast

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"hamband/internal/codec"
	"hamband/internal/metrics"
	"hamband/internal/rdma"
	"hamband/internal/ring"
)

// Region naming. The namespace prefix lets several broadcast domains (one
// per replicated object) share a fabric.
func (c Config) backupRegion() string { return c.Namespace + "rb-backup" }

func (c Config) inRegion(src rdma.NodeID) string { return InboundRegion(c.Namespace, src) }

// InboundRegion names the inbound ring on a receiving node that source src
// writes into. Exported so the membership layer (package core) can revoke
// and restore src's write permission on it across configuration changes.
func InboundRegion(ns string, src rdma.NodeID) string {
	return fmt.Sprintf("%srb-in-%d", ns, src)
}

// Config holds broadcast sizes. The receiver's poll period and CPU prices
// are the fabric's (rdma.LatencyModel's SweepPeriod, SweepCost and
// DeliverCost).
type Config struct {
	// Namespace prefixes every region name, isolating this broadcast
	// domain from others sharing the fabric (one per replicated object).
	Namespace string

	RingCapacity int // per-source inbound ring data capacity
	BackupSlots  int // concurrent in-flight broadcasts per source
	BackupSlot   int // backup slot size (bytes)
}

// DefaultConfig returns sizes suited to the benchmark workloads.
func DefaultConfig() Config {
	return Config{
		RingCapacity: 1 << 16,
		BackupSlots:  64,
		BackupSlot:   512,
	}
}

// Setup registers the broadcast regions on every node of the fabric:
// one backup region per node and one inbound ring per (node, source) pair,
// writable only by the source. Call once before creating broadcasters.
func Setup(fab *rdma.Fabric, cfg Config) {
	for i := 0; i < fab.Size(); i++ {
		node := fab.Node(rdma.NodeID(i))
		node.Register(cfg.backupRegion(), cfg.BackupSlots*cfg.BackupSlot)
		for s := 0; s < fab.Size(); s++ {
			src := rdma.NodeID(s)
			if src == node.ID() {
				continue
			}
			r := node.Register(cfg.inRegion(src), ring.RegionSize(cfg.RingCapacity))
			r.AllowWrite(src)
		}
	}
}

// message is the wire format: uvarint epoch | uvarint seq | payload, the
// call record's canonical varints (codec.AppendUvarint, codec.Uvarints). The
// epoch is the configuration the source believed current when it posted the
// write; receivers reject messages stamped before the source's minimum epoch
// (dynamic membership: a removed node that has not yet learned of its
// removal keeps stamping its old epoch, and those writes must not be
// delivered). An epoch beyond u32 is codec.ErrCorrupt.
func appendMessage(dst []byte, epoch uint32, seq uint64, payload []byte) []byte {
	dst = codec.AppendUvarint(dst, uint64(epoch))
	dst = codec.AppendUvarint(dst, seq)
	return append(dst, payload...)
}

// maxMessageHeader is the longest a message's fields pack to: a five-byte
// epoch and a ten-byte seq.
const maxMessageHeader = 5 + binary.MaxVarintLen64

// MaxPayload is the largest payload one message can carry under c. The ring
// record wraps it (the longest packed header, raw framing) and must fit a
// backup slot, which keeps the record as it is, half an inbound ring
// (ring.Writer's bound) and one codec record. Whichever is tighter decides.
func (c Config) MaxPayload() int {
	return min(c.BackupSlot, c.RingCapacity/2, codec.MaxRecord) - maxMessageHeader - codec.RawOverhead
}

func decodeMessage(b []byte) (epoch uint32, seq uint64, payload []byte, err error) {
	var e uint64
	payload, err = codec.Uvarints(b, &e, &seq)
	if err == nil && e > math.MaxUint32 {
		err = fmt.Errorf("%w: epoch %d beyond u32", codec.ErrCorrupt, e)
	}
	if err != nil {
		return 0, 0, nil, err
	}
	return uint32(e), seq, payload, nil
}

// Broadcaster is the source side of reliable broadcast on one node. A nil
// *Broadcaster is the source side of a class that has no F buffers: it stamps
// nothing, so SetEpoch on it is a no-op.
type Broadcaster struct {
	backup *ring.Slots
	seq    uint64
	epoch  uint32   // configuration epoch stamped on outgoing messages
	slots  []uint64 // seq occupying each backup slot, 0 if free
	rec    []byte   // scratch: the ring record being framed; ring.Sender.Send copies it

	peers []*ring.Sender // one out-channel per destination
	// waiting holds broadcasts blocked on a free backup slot.
	waiting []*pendingMsg
	// free holds finished messages' records for reuse, linked through
	// nextFree: a warm broadcaster allocates none per message.
	free *pendingMsg

	mSlotWaits *metrics.Counter // broadcasts queued waiting for a backup slot
}

// pendingMsg is one message from Broadcast to its last remote write's
// completion; finish puts it on the broadcaster's free list.
type pendingMsg struct {
	seq uint64
	// record is the message's own copy of its ring record while it waits for
	// a backup slot; the buffer stays with the pendingMsg for its next wait.
	record   []byte
	label    string // trace label of the write carrying the record (may be "")
	onAck    func() // first completion of the remote writes; nil once fired
	onDone   func()
	left     int         // outstanding remote writes
	written  func(error) // accounts one of them; bound once per pendingMsg
	nextFree *pendingMsg
}

// NewBroadcaster creates the source side on node. Setup must have run. Its
// counters go to the fabric's registry, if one is attached.
func NewBroadcaster(fab *rdma.Fabric, node *rdma.Node, cfg Config) *Broadcaster {
	reg := fab.Metrics()
	b := &Broadcaster{
		backup:     ring.NewSlots(node, cfg.backupRegion(), cfg.BackupSlots, cfg.BackupSlot),
		slots:      make([]uint64, cfg.BackupSlots),
		mSlotWaits: reg.Counter("broadcast.backup_slot_waits"),
	}
	region := cfg.inRegion(node.ID())
	headReads := reg.Counter("broadcast.head_reads")
	retries := reg.Counter("broadcast.ring_full_retries")
	for i := 0; i < fab.Size(); i++ {
		peer := rdma.NodeID(i)
		if peer == node.ID() {
			continue
		}
		pc := ring.NewSender(fab, node, peer, region, cfg.RingCapacity)
		pc.HeadReads, pc.Retries = headReads, retries
		b.peers = append(b.peers, pc)
	}
	return b
}

// Broadcast reliably delivers payload to every other node. onDone, if
// non-nil, runs when every remote write has completed (and the backup slot
// has been cleared). The local node does not deliver its own messages.
func (b *Broadcaster) Broadcast(payload []byte, onDone func()) error {
	return b.BroadcastLabeled("", payload, nil, onDone)
}

// SetEpoch installs the configuration epoch stamped on subsequent
// messages. Epochs only move forward; stale values are ignored.
func (b *Broadcaster) SetEpoch(e uint32) {
	if b != nil && e > b.epoch {
		b.epoch = e
	}
}

// Epoch returns the epoch currently stamped on outgoing messages.
func (b *Broadcaster) Epoch() uint32 { return b.epoch }

// BroadcastLabeled is Broadcast with a trace label: when the fabric has a
// tracer attached, the work request carrying this message's record is tagged
// with label, so the transport's post/wire/completion events can be
// attributed to the originating call (see rdma.WR.Label). An empty label
// records nothing.
//
// onAck, if non-nil, runs once, on the first completion of the message's
// remote writes — one round trip to the nearest peer after the message
// launched, whatever the slowest link does — or at launch when there is no
// peer to write to. It is the clock a source paces its messages by (package
// core's F out-channel). payload is copied before the call returns: the
// message is framed in a scratch buffer, and the backup slot and every peer's
// ring.Sender copy it from there. Only a message that has to wait for its
// backup slot keeps a copy of its own.
func (b *Broadcaster) BroadcastLabeled(label string, payload []byte, onAck, onDone func()) error {
	b.seq++
	record, err := b.record(b.seq, payload)
	if err != nil {
		return err
	}
	pm := b.pending()
	pm.seq, pm.label, pm.onAck, pm.onDone, pm.left = b.seq, label, onAck, onDone, len(b.peers)
	slot := int(pm.seq) % len(b.slots)
	if held := b.slots[slot]; held != 0 && held != pm.seq {
		// Slot occupied by an older in-flight broadcast: queue until free.
		b.mSlotWaits.Inc()
		pm.record = append(pm.record[:0], record...)
		b.waiting = append(b.waiting, pm)
		return nil
	}
	b.launch(pm, record)
	return nil
}

// record frames message seq for the rings in the scratch buffer. The record
// is valid until the next one is framed.
func (b *Broadcaster) record(seq uint64, payload []byte) ([]byte, error) {
	f := appendMessage(codec.BeginRaw(b.rec[:0]), b.epoch, seq, payload)
	rec, err := codec.FinishRaw(f, 0)
	if err != nil {
		b.rec = f
		return nil, err
	}
	b.rec = rec
	return rec, nil
}

// pending takes a pendingMsg off the free list, or makes one with its written
// func bound.
func (b *Broadcaster) pending() *pendingMsg {
	pm := b.free
	if pm == nil {
		pm = &pendingMsg{}
		// A failed write (crashed peer) is accounted as done, like a landed one.
		pm.written = func(error) {
			pm.ack()
			if pm.left--; pm.left == 0 {
				b.finish(pm)
			}
		}
		return pm
	}
	b.free, pm.nextFree = pm.nextFree, nil
	return pm
}

// ack fires onAck the first time it is called.
func (pm *pendingMsg) ack() {
	if ack := pm.onAck; ack != nil {
		pm.onAck = nil
		ack()
	}
}

// launch stores record, message pm's ring record, in its backup slot and
// queues it to every peer; both copy it.
func (b *Broadcaster) launch(pm *pendingMsg, record []byte) {
	slot := int(pm.seq) % len(b.slots)
	b.slots[slot] = pm.seq
	// Write the backup before any remote write (the protocol's ordering
	// requirement); this is a local store. A read racing the rewrite of a
	// staged slot fails the record's CRC.
	b.backup.Put(pm.seq, record)
	if pm.left == 0 { // single-node fabric
		pm.ack()
		b.finish(pm)
		return
	}
	// One remote write per peer and pump (see ring.Sender): broadcasts issued
	// by work already queued on the CPU share it.
	for _, pc := range b.peers {
		pc.Send(record, pm.label, pm.written)
	}
}

// Stage makes the NEXT message recoverable while its source is still putting
// it together: payload, what there is of it so far, goes into the backup slot
// that message will take, under its sequence number, the way launch will store
// the whole of it. The caller may stage again and must then broadcast a
// payload that extends each staged one by appending, in units the handler can
// parse on their own: a receiver that recovered a staged payload is handed
// only the rest when the message arrives (Receiver.deliver). So whatever the
// source has staged survives its failure, broadcast or not.
//
// Nothing is staged while the slot still holds an older message in flight:
// the window a broadcast queued for its slot has always had.
func (b *Broadcaster) Stage(payload []byte) {
	seq := b.seq + 1
	slot := int(seq) % len(b.slots)
	if held := b.slots[slot]; held != 0 && held != seq {
		return
	}
	record, err := b.record(seq, payload)
	if err != nil {
		return // the broadcast will refuse it
	}
	b.slots[slot] = seq
	b.backup.Put(seq, record)
}

// finish clears the backup slot, puts pm back on the free list and fires
// its completion callback, then launches any broadcast waiting for the freed
// slot.
func (b *Broadcaster) finish(pm *pendingMsg) {
	slot := int(pm.seq) % len(b.slots)
	if b.slots[slot] == pm.seq {
		b.slots[slot] = 0
		b.backup.Clear(pm.seq)
	}
	onDone := pm.onDone
	pm.label, pm.onAck, pm.onDone = "", nil, nil
	pm.nextFree, b.free = b.free, pm
	if onDone != nil {
		onDone()
	}
	for i, w := range b.waiting {
		if b.slots[int(w.seq)%len(b.slots)] == 0 {
			b.waiting = append(b.waiting[:i], b.waiting[i+1:]...)
			b.launch(w, w.record) // launch copies the record
			return
		}
	}
}

// Handler consumes delivered broadcast messages. The payload is borrowed for
// the call: when the handler returns, its buffer goes back to the receiver's
// handoff (ring.Handoff) and is overwritten by a later message, so a handler
// that keeps the bytes copies them.
type Handler func(src rdma.NodeID, seq uint64, payload []byte)

// Receiver is the delivery side of reliable broadcast on one node. A nil
// *Receiver is the delivery side of a class that has no F buffers (package
// core builds one only when the analysis finds an irreducible conflict-free
// method): it has no rings, no backup to recover from and no sweep in its
// node's poll loop, so RecoverFrom, FloorAfterDrain and Stop do nothing,
// StaleRejects is zero and Rings is empty. Callers on the failure, epoch and
// health paths therefore need no "has F buffers" flag of their own.
type Receiver struct {
	fab  *rdma.Fabric
	node *rdma.Node
	cfg  Config

	// readers[src] reads src's inbound ring, nil for this node. floors[src]
	// is src's epoch floor, which the sweep and recovery gate on, stale[src]
	// counts the ring records it rejected, and dedup[src] is what has been
	// delivered of src's messages.
	readers     []*ring.Reader
	floors      []ring.EpochFloor
	stale       []uint64
	dedup       []ring.Watermark
	validated   int         // the sweep's admitted ring bytes, framing included
	backup      *ring.Slots // reads a suspected source's backup slots; counts the torn ones
	staleBackup uint64      // stale backup slots rejected during recovery
	poll        *rdma.Sweep
	handoff     *ring.Handoff

	mDelivered  *metrics.Counter // messages handed to the handler
	mRecoveries *metrics.Counter // RecoverFrom sweeps started
	mRecovered  *metrics.Counter // backup slots holding a decodable pending message
}

// NewReceiver starts delivery on node, invoking handler on the node's CPU
// for every message. Setup must have run. Its counters go to the fabric's
// registry, if one is attached; broadcast.torn_rejects and
// broadcast.stale_rejects read TornRejects and StaleRejects.
func NewReceiver(fab *rdma.Fabric, node *rdma.Node, cfg Config, handler Handler) *Receiver {
	reg := fab.Metrics()
	r := &Receiver{
		fab:         fab,
		node:        node,
		cfg:         cfg,
		readers:     make([]*ring.Reader, fab.Size()),
		floors:      make([]ring.EpochFloor, fab.Size()),
		stale:       make([]uint64, fab.Size()),
		dedup:       make([]ring.Watermark, fab.Size()),
		backup:      ring.NewSlots(node, cfg.backupRegion(), cfg.BackupSlots, cfg.BackupSlot),
		handoff:     ring.NewHandoff(fab, node, new(ring.Buffers), handler),
		mDelivered:  reg.Counter("broadcast.delivered"),
		mRecoveries: reg.Counter("broadcast.recovery_sweeps"),
		mRecovered:  reg.Counter("broadcast.backup_slots_recovered"),
	}
	reg.CounterFunc("broadcast.torn_rejects", r.TornRejects)
	reg.CounterFunc("broadcast.stale_rejects", r.StaleRejects)
	for i := 0; i < fab.Size(); i++ {
		src := rdma.NodeID(i)
		if src == node.ID() {
			continue
		}
		r.readers[src] = ring.NewReader(node.Region(cfg.inRegion(src)).Bytes())
	}
	r.poll = node.Poll(r.sweep)
	return r
}

// Stop takes the receiver's sweep out of its node's poll loop.
func (r *Receiver) Stop() {
	if r != nil {
		r.poll.Stop()
	}
}

// FloorAfterDrain schedules an epoch-floor raise for src (call it when src
// leaves the configuration, with the departure epoch): ring records and
// backup slots src stamped with an older configuration are then rejected
// and counted instead of delivered. The raise takes effect only once this
// receiver has drained src's inbound ring: records src legitimately posted
// (and acked) while still a member must be delivered, not rejected, even if
// this node was suspended when the membership change committed and only
// drains its backlog much later. Raising the floor on a timer cannot give
// that guarantee; draining-then-raising can (ring.EpochFloor). The drain
// proof is the sweep's: the first poll that finds src's ring Quiescent
// promotes the floor.
func (r *Receiver) FloorAfterDrain(src rdma.NodeID, e uint32) {
	if r != nil {
		r.floors[src].RaiseAfterDrain(e)
	}
}

// TornRejects returns how many reads CRC validation has rejected across all
// sources (ring records and recovered backup slots).
func (r *Receiver) TornRejects() uint64 {
	if r == nil {
		return 0
	}
	return r.backup.TornRejects() + ring.TornRejects(r.readers)
}

// StaleRejects returns how many records the epoch gates have rejected
// across all sources (ring records and recovered backup slots).
func (r *Receiver) StaleRejects() uint64 {
	if r == nil {
		return 0
	}
	total := r.staleBackup
	for _, n := range r.stale {
		total += n
	}
	return total
}

// sweep is one poll's work on the reader CPU: drain every source's ring. An
// idle poll that finds a ring Quiescent is the drain proof a floor parked by
// FloorAfterDrain waits for.
func (r *Receiver) sweep() {
	r.validated = 0
	ring.Drain(r.readers, r.admit)
	for p, rd := range r.readers {
		if rd != nil && rd.Quiescent() {
			r.floors[p].Drained()
		}
	}
	if cost := r.fab.Latency().CRCCost(r.validated); cost > 0 {
		// The checksum compute leg of this sweep's validated reads:
		// occupy the reader CPU for the bytes re-hashed, so the cost
		// model charges single-RTT validation what it actually costs.
		r.node.CPU.Exec(cost, func() {})
	}
}

// admit delivers the ring record msg from src. A record stamped below its
// source's epoch floor is whole (it passed the CRC) but was posted before the
// current configuration: it is consumed — the head must advance for the
// writer's flow control — and counted instead of delivered. A record that
// does not decode ends the ring's drain for this sweep.
func (r *Receiver) admit(src rdma.NodeID, msg []byte) error {
	epoch, seq, payload, err := decodeMessage(msg)
	if err == nil && !r.floors[src].Admits(epoch) {
		r.stale[src]++
		return nil
	}
	r.validated += len(msg) + codec.RawOverhead
	if err != nil {
		return err
	}
	r.deliver(src, seq, payload, true)
	return nil
}

// deliver hands the handler what it has not yet had of message (src, seq). A
// ring record is the whole message. A backup slot may hold one its source was
// still putting together (Broadcaster.Stage) — a prefix of what the ring will
// carry — so only the tail a longer payload adds is handed on (ring.Watermark).
func (r *Receiver) deliver(src rdma.NodeID, seq uint64, payload []byte, byRing bool) {
	from, fresh := r.dedup[src].Admit(seq, len(payload), byRing)
	if !fresh {
		return
	}
	r.mDelivered.Inc()
	r.handoff.Push(src, seq, payload[from:])
}

// RecoverFrom reads src's backup slots remotely and delivers any pending
// message this node has not seen. Call it when the failure detector suspects
// src. Under the suspension failure model src's NIC still serves the read; if
// src truly crashed the read fails and recovery is skipped (its in-flight
// messages were not delivered anywhere they can be read back from). A slot
// intact in an earlier look of a torn read and empty in the last was cleared,
// which its source does only once the message has landed in every ring.
//
// Messages are delivered in sequence order, not slot order (which wraps): the
// handler buffers per source and serves head first, so a message delivered
// ahead of one it depends on would block its buffer.
func (r *Receiver) RecoverFrom(src rdma.NodeID) {
	if r == nil || src == r.node.ID() {
		return
	}
	r.mRecoveries.Inc()
	type recovered struct {
		epoch   uint32
		seq     uint64
		payload []byte
	}
	n := uint64(r.cfg.BackupSlots)
	r.backup.Read(r.node.QP(src), 0, n, func(rec func(uint64) []byte, err error) {
		if err != nil {
			return
		}
		var found []recovered // borrowing the read's bytes
		for slot := uint64(0); slot < n; slot++ {
			if epoch, seq, payload, err := decodeMessage(rec(slot)); err == nil {
				found = append(found, recovered{epoch, seq, payload})
			}
		}
		slices.SortFunc(found, func(a, b recovered) int { return cmp.Compare(a.seq, b.seq) })
		for _, m := range found {
			if !r.floors[src].Admits(m.epoch) {
				// Backup slot stamped before src's departure epoch: the
				// same stale-write rejection the sweep applies.
				r.staleBackup++
				continue
			}
			r.mRecovered.Inc()
			r.deliver(src, m.seq, m.payload, false)
		}
	})
}
