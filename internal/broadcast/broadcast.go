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
// source batching units into its next message (Broadcaster.Send) stages the
// batch in that message's backup slot as it grows, so recovery also finds
// what the source had accepted and not yet sent; the dedup entry is the
// length delivered, and the message's arrival delivers the rest.
package broadcast

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"strings"

	"hamband/internal/codec"
	"hamband/internal/metrics"
	"hamband/internal/rdma"
	"hamband/internal/ring"
	"hamband/internal/sim"
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
//
// Broadcast sends a payload as one message. Send is rule FREE's out-channel,
// one message per round trip: a unit joins the open batch, staged in the
// backup slot of the message it will leave as, so it survives its source from
// the moment Send returns. The batch leaves as ONE message (a) when no message
// is unacknowledged, (b) when the first completion of one leaves none
// unacknowledged — the first, so a parked link never holds the healthy peers
// back — or (c) when the next unit would not fit MaxPayload. (a) and (b)
// flush from a zero-cost deferred CPU item (the rdma.Batch.Defer trick): an
// idle source sends at once, and units sent by work already queued on the CPU
// share the message. No size, no delay, no timer; DESIGN.md §4, "The F
// out-channel", has the gates that were measured and declined.
type Broadcaster struct {
	node   *rdma.Node
	eng    *sim.Engine
	max    int // Config.MaxPayload: the longest payload a message carries
	backup *ring.Slots
	seq    uint64
	epoch  uint32   // configuration epoch stamped on outgoing messages
	slots  []uint64 // seq occupying each backup slot, 0 if free
	rec    []byte   // scratch: the ring record being framed; ring.Sender.Send copies it

	// The out-channel (Send): the open batch of units, and how many messages
	// have seen none of their writes complete. labels are the
	// batched units' trace labels (tracing only), since their send times
	// (metrics only).
	batch   []byte
	unacked int
	labels  []string
	since   []sim.Time
	idleFn  func() // b.idle bound once: a Send allocates nothing

	// peers holds one out-channel per destination, which connect builds on
	// the node's broadcast batch (rdma.Node.Batch): the messages of every
	// broadcaster on the node launched in one CPU round leave as one item.
	peers   []*ring.Sender
	connect func(post func() *rdma.Batch)
	// waiting holds broadcasts blocked on a free backup slot.
	waiting []*pendingMsg
	// free holds finished messages' records for reuse, linked through
	// nextFree: a warm broadcaster allocates none per message.
	free *pendingMsg

	mSlotWaits *metrics.Counter   // broadcasts queued waiting for a backup slot
	mHold      *metrics.Histogram // a unit: Send → its message's flush
	mBatch     *metrics.Histogram // units per batch Send flushed (a count, not a time)
}

// pendingMsg is one message from its send to its last remote write's
// completion; finish puts it on the broadcaster's free list.
type pendingMsg struct {
	seq uint64
	// record is the message's own copy of its ring record while it waits for
	// a backup slot; the buffer stays with the pendingMsg for its next wait.
	record   []byte
	label    string // trace label of the write carrying the record (may be "")
	onDone   func()
	left     int         // outstanding remote writes
	written  func(error) // accounts one of them; bound once per pendingMsg
	nextFree *pendingMsg
}

// NewBroadcaster creates the source side on node. Setup must have run. Its
// counters and histograms go to the fabric's registry, if one is attached.
func NewBroadcaster(fab *rdma.Fabric, node *rdma.Node, cfg Config) *Broadcaster {
	reg := fab.Metrics()
	b := &Broadcaster{
		node:       node,
		eng:        fab.Engine(),
		max:        cfg.MaxPayload(),
		backup:     ring.NewSlots(node, cfg.backupRegion(), cfg.BackupSlots, cfg.BackupSlot),
		slots:      make([]uint64, cfg.BackupSlots),
		mSlotWaits: reg.Counter("broadcast.backup_slot_waits"),
		mHold:      reg.Histogram("broadcast.hold", nil),
		mBatch:     reg.Histogram("broadcast.batch_entries", nil),
	}
	b.idleFn = b.idle
	region := cfg.inRegion(node.ID())
	headReads := reg.Counter("broadcast.head_reads")
	retries := reg.Counter("broadcast.ring_full_retries")
	b.connect = func(post func() *rdma.Batch) {
		b.peers = b.peers[:0]
		for i := 0; i < fab.Size(); i++ {
			peer := rdma.NodeID(i)
			if peer == node.ID() {
				continue
			}
			pc := ring.NewSender(fab, node, post(), peer, region, cfg.RingCapacity)
			pc.HeadReads, pc.Retries = headReads, retries
			b.peers = append(b.peers, pc)
		}
	}
	b.connect(node.Batch)
	return b
}

// Broadcast reliably delivers payload to every other node as one message,
// after the open batch if Send left one. onDone, if non-nil, runs when every
// remote write has completed (and the backup slot has been cleared). The
// local node does not deliver its own messages. A payload over
// Config.MaxPayload is refused with codec.ErrTooLarge before it takes a
// sequence number. payload is copied before the call returns.
func (b *Broadcaster) Broadcast(payload []byte, onDone func()) error {
	if err := b.fits(payload); err != nil {
		return err
	}
	b.flush()
	b.send("", payload, onDone)
	return nil
}

// Send adds unit to the open batch and stages the batch (see Broadcaster).
// Units go back to back: the handler must split a payload into units itself.
// A non-empty label joins the trace label of the write carrying the message.
// A unit over Config.MaxPayload is refused with codec.ErrTooLarge and nothing
// else happens. unit is copied.
func (b *Broadcaster) Send(unit []byte, label string) error {
	if err := b.fits(unit); err != nil {
		return err
	}
	if len(b.batch)+len(unit) > b.max {
		b.flush()
	}
	if len(b.batch) == 0 && b.unacked == 0 {
		b.node.CPU.Submit(0, b.idleFn)
	}
	b.batch = append(b.batch, unit...)
	b.stage()
	if label != "" {
		b.labels = append(b.labels, label)
	}
	if b.mHold != nil {
		b.since = append(b.since, b.eng.Now())
	}
	return nil
}

// Messages returns how many messages the broadcaster has sent.
func (b *Broadcaster) Messages() uint64 { return b.seq }

// Backlog returns what Send holds, the open batch's bytes, and the messages
// none of whose writes has completed, which the batch waits behind.
func (b *Broadcaster) Backlog() (batched, unacked int) { return len(b.batch), b.unacked }

func (b *Broadcaster) fits(payload []byte) error {
	if len(payload) > b.max {
		return fmt.Errorf("%w: %d-byte payload, broadcast messages carry %d", codec.ErrTooLarge, len(payload), b.max)
	}
	return nil
}

// stage makes the next message recoverable while the batch is still open:
// the batch goes into the backup slot that message will take, under its
// sequence number, the way launch will store the whole of it. A receiver that
// recovered a staged batch is handed only the rest when the message arrives
// (Receiver.deliver). Nothing is staged while the slot still holds an older
// message in flight: the window a message queued for its slot has always had.
func (b *Broadcaster) stage() {
	seq := b.seq + 1
	slot := int(seq) % len(b.slots)
	if held := b.slots[slot]; held != 0 && held != seq {
		return
	}
	b.slots[slot] = seq
	b.backup.Put(seq, b.record(seq, b.batch))
}

// acked is the first completion of a message's writes — one round trip to
// the nearest peer after it launched, whatever the slowest link does — or its
// launch when there is no peer to write to: the clock Send paces by.
func (b *Broadcaster) acked() {
	if b.unacked--; b.unacked == 0 && len(b.batch) > 0 {
		b.node.CPU.Submit(0, b.idleFn)
	}
}

// idle is the deferred flush. An overflow flush may have overtaken it, in
// which case the batch waits for that message's completion.
func (b *Broadcaster) idle() {
	if b.unacked == 0 {
		b.flush()
	}
}

// flush sends the open batch as one message; its trace label joins the
// batched units' labels with commas (package span splits them back out).
// The message copies the batch, so the batch's buffers are reused.
func (b *Broadcaster) flush() {
	if len(b.batch) == 0 {
		return
	}
	batch, label := b.batch, strings.Join(b.labels, ",")
	b.batch = b.batch[:0]
	clear(b.labels)
	b.labels = b.labels[:0]
	if b.mHold != nil {
		now := b.eng.Now()
		for _, at := range b.since {
			b.mHold.Observe(sim.Duration(now - at))
		}
		b.mBatch.Observe(sim.Duration(len(b.since)))
		b.since = b.since[:0]
	}
	b.send(label, batch, nil)
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

// send sends payload, at most MaxPayload bytes, as the next message. When the
// fabric has a tracer attached, the work request carrying its record is tagged
// with label (see rdma.WR.Label); an empty label records nothing. payload is
// framed in the scratch buffer, and the backup slot and every peer's
// ring.Sender copy it from there. Only a message that has to wait for its
// backup slot keeps a copy of its own.
func (b *Broadcaster) send(label string, payload []byte, onDone func()) {
	b.seq++
	b.unacked++ // the batch is already empty: with no peers acked runs inside the send
	record := b.record(b.seq, payload)
	pm := b.pending()
	pm.seq, pm.label, pm.onDone, pm.left = b.seq, label, onDone, len(b.peers)
	slot := int(pm.seq) % len(b.slots)
	if held := b.slots[slot]; held != 0 && held != pm.seq {
		// Slot occupied by an older in-flight broadcast: queue until free.
		b.mSlotWaits.Inc()
		pm.record = append(pm.record[:0], record...)
		b.waiting = append(b.waiting, pm)
		return
	}
	b.launch(pm, record)
}

// record frames message seq for the rings in the scratch buffer. The record
// is valid until the next one is framed. A payload of at most MaxPayload
// bytes keeps it under codec.MaxRecord, so framing cannot fail.
func (b *Broadcaster) record(seq uint64, payload []byte) []byte {
	b.rec, _ = codec.FinishRaw(appendMessage(codec.BeginRaw(b.rec[:0]), b.epoch, seq, payload), 0)
	return b.rec
}

// pending takes a pendingMsg off the free list, or makes one with its written
// func bound.
func (b *Broadcaster) pending() *pendingMsg {
	pm := b.free
	if pm == nil {
		pm = &pendingMsg{}
		// A failed write (crashed peer) is accounted as done, like a landed one.
		pm.written = func(error) {
			if pm.left == len(b.peers) {
				b.acked()
			}
			if pm.left--; pm.left == 0 {
				b.finish(pm)
			}
		}
		return pm
	}
	b.free, pm.nextFree = pm.nextFree, nil
	return pm
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
		b.acked()
		b.finish(pm)
		return
	}
	// One remote write per peer and pump (see ring.Sender), every peer's in
	// one post item: broadcasts issued by work already queued on the CPU share
	// it, and its completions land together, so one poll reaps them.
	for _, pc := range b.peers {
		pc.Send(record, pm.label, pm.written)
	}
}

// MutatePerPeer rebuilds the out-channels each on a batch of its own, inline
// whatever fits: the schedule before a message was one batch. The ledger's
// control, not a mode; call it before the first message.
func (b *Broadcaster) MutatePerPeer() {
	b.connect(func() *rdma.Batch { return b.node.NewBatch(rdma.InlineFits) })
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
	pm.label, pm.onDone = "", nil
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
	handler     rdma.Handler // called through the node's handoff

	mDelivered  *metrics.Counter // messages handed to the handler
	mRecoveries *metrics.Counter // RecoverFrom sweeps started
	mRecovered  *metrics.Counter // backup slots holding a decodable pending message
	reads       [2]*metrics.Read // broadcast.torn_rejects and .stale_rejects; Stop retires them
}

// NewReceiver starts delivery on node, invoking handler on the node's CPU
// for every message. Setup must have run. Its counters go to the fabric's
// registry, if one is attached; broadcast.torn_rejects and
// broadcast.stale_rejects read TornRejects and StaleRejects.
func NewReceiver(fab *rdma.Fabric, node *rdma.Node, cfg Config, handler rdma.Handler) *Receiver {
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
		handler:     handler,
		mDelivered:  reg.Counter("broadcast.delivered"),
		mRecoveries: reg.Counter("broadcast.recovery_sweeps"),
		mRecovered:  reg.Counter("broadcast.backup_slots_recovered"),
	}
	r.reads[0] = reg.CounterFunc("broadcast.torn_rejects", r.TornRejects)
	r.reads[1] = reg.CounterFunc("broadcast.stale_rejects", r.StaleRejects)
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
		for _, rd := range r.reads {
			rd.Retire()
		}
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

// sweep is one poll's work on the reader CPU: drain every source's ring and
// add the messages found to the node's handoff, in ring order, for the
// record the poll loop closes. An idle poll that finds a ring Quiescent is
// the drain proof a floor parked by FloorAfterDrain waits for.
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
		r.node.CPU.Submit(cost, func() {})
	}
}

// admit delivers the ring record msg from src, which it counts as word from
// src (rdma.Node.Heard). A record stamped below its source's epoch floor is
// whole (it passed the CRC) but was posted before the current configuration:
// it is consumed — the head must advance for the writer's flow control — and
// counted instead of delivered. A record that does not decode ends the
// ring's drain for this sweep.
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
	r.node.Heard(src)
	r.deliver(src, seq, payload, true)
	return nil
}

// deliver adds to the node's open handoff record what the handler has not yet
// had of message (src, seq), in a copy from the node's free list. A ring
// record is the whole message. A backup slot may hold one its source was still
// putting together (Broadcaster.Send) — a prefix of what the ring will carry —
// so only the tail a longer payload adds is handed on (ring.Watermark).
func (r *Receiver) deliver(src rdma.NodeID, seq uint64, payload []byte, byRing bool) {
	from, fresh := r.dedup[src].Admit(seq, len(payload), byRing)
	if !fresh {
		return
	}
	r.mDelivered.Inc()
	h := r.node.Handoff()
	h.Add(r.handler, src, seq, h.Keep(payload[from:]))
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
// ahead of one it depends on would block its buffer. The messages one read
// recovers are handed on as one record, as a sweep's are.
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
		r.node.Handoff().Hand()
	})
}
