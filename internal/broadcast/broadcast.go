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
	"errors"
	"fmt"
	"math"
	"slices"

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

// Config holds broadcast parameters.
type Config struct {
	// Namespace prefixes every region name, isolating this broadcast
	// domain from others sharing the fabric (one per replicated object).
	Namespace string

	RingCapacity int          // per-source inbound ring data capacity
	BackupSlots  int          // concurrent in-flight broadcasts per source
	BackupSlot   int          // backup slot size (bytes)
	PollPeriod   sim.Duration // receiver ring poll period
	RetryDelay   sim.Duration // writer retry delay when a ring is full
	PollCost     sim.Duration // CPU cost of one poll sweep
	DeliverCost  sim.Duration // CPU cost of delivering one message

	// Metrics, when non-nil, receives protocol counters (ring-full
	// retries, backup-slot recoveries). Nil disables instrumentation.
	Metrics *metrics.Registry
}

// DefaultConfig returns sizes suited to the benchmark workloads.
func DefaultConfig() Config {
	return Config{
		RingCapacity: 1 << 16,
		BackupSlots:  64,
		BackupSlot:   512,
		PollPeriod:   2 * sim.Microsecond,
		RetryDelay:   5 * sim.Microsecond,
		PollCost:     50 * sim.Nanosecond,
		DeliverCost:  100 * sim.Nanosecond,
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

// message is the wire format: u32 epoch | u64 seq | payload. The epoch is
// the configuration the source believed current when it posted the write;
// receivers reject messages stamped before the source's minimum epoch
// (dynamic membership: a removed node that has not yet learned of its
// removal keeps stamping its old epoch, and those writes must not be
// delivered).
const messageHeader = 12

func appendMessage(dst []byte, epoch uint32, seq uint64, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, epoch)
	dst = binary.LittleEndian.AppendUint64(dst, seq)
	return append(dst, payload...)
}

// MaxPayload is the largest payload one message can carry under c. The ring
// record wraps it (message header, raw framing) and may take at most half an
// inbound ring (ring.Writer's bound) and one codec record; the backup slot
// stores that record behind a message header of its own inside a validated
// slot frame. Whichever is tighter decides.
func (c Config) MaxPayload() int {
	record := min(c.BackupSlot-codec.SlotOverhead-messageHeader, c.RingCapacity/2, codec.MaxRecord)
	return record - messageHeader - codec.RawOverhead
}

func decodeMessage(b []byte) (epoch uint32, seq uint64, payload []byte, err error) {
	if len(b) < messageHeader {
		return 0, 0, nil, codec.ErrCorrupt
	}
	return binary.LittleEndian.Uint32(b), binary.LittleEndian.Uint64(b[4:]), b[messageHeader:], nil
}

// recordEpoch extracts the epoch stamp from a framed ring record — the
// extractor installed on every inbound ring reader's epoch gate.
func recordEpoch(rec []byte) (uint32, bool) {
	msg, _, err := codec.DecodeRaw(rec)
	if err != nil || len(msg) < messageHeader {
		return 0, false
	}
	return binary.LittleEndian.Uint32(msg), true
}

// Broadcaster is the source side of reliable broadcast on one node. A nil
// *Broadcaster is the source side of a class that has no F buffers: it stamps
// nothing, so SetEpoch on it is a no-op.
type Broadcaster struct {
	cfg    Config
	backup *rdma.Region
	seq    uint64
	epoch  uint32   // configuration epoch stamped on outgoing messages
	slots  []uint64 // seq occupying each backup slot, 0 if free
	msg    []byte   // scratch: the message a ring record is being framed from

	peers []*ring.Sender // one out-channel per destination
	// waiting holds broadcasts blocked on a free backup slot.
	waiting []*pendingMsg

	mSlotWaits *metrics.Counter // broadcasts queued waiting for a backup slot
}

type pendingMsg struct {
	seq     uint64
	record  []byte // codec-framed ring record
	label   string // trace label of the write carrying the record (may be "")
	onAck   func() // first completion of the remote writes; nil once fired
	onDone  func()
	left    int         // outstanding remote writes
	written func(error) // accounts one of them; bound once per message
}

// NewBroadcaster creates the source side on node. Setup must have run.
func NewBroadcaster(fab *rdma.Fabric, node *rdma.Node, cfg Config) *Broadcaster {
	b := &Broadcaster{
		cfg:        cfg,
		backup:     node.Region(cfg.backupRegion()),
		slots:      make([]uint64, cfg.BackupSlots),
		mSlotWaits: cfg.Metrics.Counter("broadcast.backup_slot_waits"),
	}
	region := cfg.inRegion(node.ID())
	headReads := cfg.Metrics.Counter("broadcast.head_reads")
	retries := cfg.Metrics.Counter("broadcast.ring_full_retries")
	for i := 0; i < fab.Size(); i++ {
		peer := rdma.NodeID(i)
		if peer == node.ID() {
			continue
		}
		pc := ring.NewSender(fab, node, peer, region, cfg.RingCapacity, cfg.RetryDelay)
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
// core's F out-channel). payload is copied before the call returns.
func (b *Broadcaster) BroadcastLabeled(label string, payload []byte, onAck, onDone func()) error {
	b.seq++
	record, err := b.record(b.seq, payload)
	if err != nil {
		return err
	}
	pm := &pendingMsg{seq: b.seq, record: record, label: label, onAck: onAck, onDone: onDone, left: len(b.peers)}
	// A failed write (crashed peer) is accounted as done, like a landed one.
	pm.written = func(error) {
		pm.ack()
		if pm.left--; pm.left == 0 {
			b.finish(pm)
		}
	}
	slot := int(pm.seq) % b.cfg.BackupSlots
	if held := b.slots[slot]; held != 0 && held != pm.seq {
		// Slot occupied by an older in-flight broadcast: queue until free.
		b.mSlotWaits.Inc()
		b.waiting = append(b.waiting, pm)
		return nil
	}
	b.launch(pm)
	return nil
}

// record frames message seq for the rings. EncodeRaw copies, so the message
// is put together in one buffer reused from call to call.
func (b *Broadcaster) record(seq uint64, payload []byte) ([]byte, error) {
	b.msg = appendMessage(b.msg[:0], b.epoch, seq, payload)
	return codec.EncodeRaw(b.msg)
}

// ack fires onAck the first time it is called.
func (pm *pendingMsg) ack() {
	if ack := pm.onAck; ack != nil {
		pm.onAck = nil
		ack()
	}
}

func (b *Broadcaster) launch(pm *pendingMsg) {
	slot := int(pm.seq) % b.cfg.BackupSlots
	b.slots[slot] = pm.seq
	// Write the backup before any remote write (the protocol's ordering
	// requirement); this is a local store.
	b.backUp(pm.seq, pm.record)
	if pm.left == 0 { // single-node fabric
		pm.ack()
		b.finish(pm)
		return
	}
	// One remote write per peer and pump (see ring.Sender): broadcasts issued
	// by work already queued on the CPU share it.
	for _, pc := range b.peers {
		pc.Send(pm.record, pm.label, pm.written)
	}
}

// backUp stores seq's framed ring record in its backup slot, framed where it
// is to live. A staged slot is rewritten under one version, so it is the
// frame's CRC, not its version pair, that rejects a read racing a rewrite.
func (b *Broadcaster) backUp(seq uint64, record []byte) {
	if need := codec.SlotOverhead + messageHeader + len(record); need > b.cfg.BackupSlot {
		// Oversized for the backup slot: configuration error.
		panic(fmt.Sprintf("broadcast: a %d-byte record needs %d bytes of a %d-byte backup slot", len(record), need, b.cfg.BackupSlot))
	}
	off := int(seq) % b.cfg.BackupSlots * b.cfg.BackupSlot
	f := codec.BeginSlot(b.backup.Bytes()[off:off:off+b.cfg.BackupSlot], uint32(seq))
	codec.FinishSlot(appendMessage(f, b.epoch, seq, record), 0)
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
	slot := int(seq) % b.cfg.BackupSlots
	if held := b.slots[slot]; held != 0 && held != seq {
		return
	}
	record, err := b.record(seq, payload)
	if err != nil {
		return // the broadcast will refuse it
	}
	b.slots[slot] = seq
	b.backUp(seq, record)
}

// finish clears the backup slot and fires the completion callback, then
// launches any broadcast waiting for the freed slot.
func (b *Broadcaster) finish(pm *pendingMsg) {
	slot := int(pm.seq) % b.cfg.BackupSlots
	if b.slots[slot] == pm.seq {
		b.slots[slot] = 0
		clear(b.backup.Bytes()[slot*b.cfg.BackupSlot : (slot+1)*b.cfg.BackupSlot])
	}
	if pm.onDone != nil {
		pm.onDone()
	}
	for i, w := range b.waiting {
		if b.slots[int(w.seq)%b.cfg.BackupSlots] == 0 {
			b.waiting = append(b.waiting[:i], b.waiting[i+1:]...)
			b.launch(w)
			return
		}
	}
}

// Handler consumes delivered broadcast messages.
type Handler func(src rdma.NodeID, seq uint64, payload []byte)

// Receiver is the delivery side of reliable broadcast on one node. A nil
// *Receiver is the delivery side of a class that has no F buffers (package
// core builds one only when the analysis finds an irreducible conflict-free
// method): it has no rings, no backup to recover from and no poller, so
// RecoverFrom, FloorAfterDrain and Stop do nothing, StaleRejects is zero and
// Rings is empty. Callers on the failure, epoch and health paths therefore
// need no "has F buffers" flag of their own.
type Receiver struct {
	fab     *rdma.Fabric
	node    *rdma.Node
	cfg     Config
	handler Handler

	readers     map[rdma.NodeID]*ring.Reader // each holds its source's epoch floor
	delivered   map[rdma.NodeID]map[uint64]int
	low         map[rdma.NodeID]uint64 // contiguous delivery watermark per source
	tornSeen    uint64                 // ring torn-rejects already counted into mTorn
	staleSeen   uint64                 // ring stale-rejects already counted into mStale
	staleBackup uint64                 // stale backup slots rejected during recovery
	ticker      *sim.Ticker
	sweepFn     func() // r.sweep bound once: a poll allocates nothing

	mDelivered  *metrics.Counter // messages handed to the handler
	mRecoveries *metrics.Counter // RecoverFrom sweeps started
	mRecovered  *metrics.Counter // backup slots holding a decodable pending message
	mTorn       *metrics.Counter // reads rejected by CRC validation (ring + backup)
	mStale      *metrics.Counter // records rejected by the epoch gate
}

// NewReceiver starts delivery on node, invoking handler on the node's CPU
// for every message. Setup must have run.
func NewReceiver(fab *rdma.Fabric, node *rdma.Node, cfg Config, handler Handler) *Receiver {
	r := &Receiver{
		fab:         fab,
		node:        node,
		cfg:         cfg,
		handler:     handler,
		readers:     make(map[rdma.NodeID]*ring.Reader),
		delivered:   make(map[rdma.NodeID]map[uint64]int),
		low:         make(map[rdma.NodeID]uint64),
		mDelivered:  cfg.Metrics.Counter("broadcast.delivered"),
		mRecoveries: cfg.Metrics.Counter("broadcast.recovery_sweeps"),
		mRecovered:  cfg.Metrics.Counter("broadcast.backup_slots_recovered"),
		mTorn:       cfg.Metrics.Counter("broadcast.torn_rejects"),
		mStale:      cfg.Metrics.Counter("broadcast.stale_rejects"),
	}
	for i := 0; i < fab.Size(); i++ {
		src := rdma.NodeID(i)
		if src == node.ID() {
			continue
		}
		rd := ring.NewReader(node.Region(cfg.inRegion(src)).Bytes())
		rd.SetEpochGate(recordEpoch)
		r.readers[src] = rd
		r.delivered[src] = make(map[uint64]int)
	}
	r.sweepFn = r.sweep
	r.ticker = fab.Engine().NewTicker(cfg.PollPeriod, r.poll)
	return r
}

// Stop cancels the receiver's poll loop.
func (r *Receiver) Stop() {
	if r != nil {
		r.ticker.Cancel()
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
// proof is the ring reader's: the first poll that finds src's ring
// quiescent promotes the floor.
func (r *Receiver) FloorAfterDrain(src rdma.NodeID, e uint32) {
	if r != nil {
		r.readers[src].Floor().RaiseAfterDrain(e)
	}
}

// StaleRejects returns how many records the epoch gates have rejected
// across all sources (ring records and recovered backup slots).
func (r *Receiver) StaleRejects() uint64 {
	if r == nil {
		return 0
	}
	total := r.staleBackup
	for _, rd := range r.readers {
		total += rd.StaleRejects()
	}
	return total
}

func (r *Receiver) poll() {
	if r.node.Suspended() || r.node.Crashed() {
		return
	}
	r.node.CPU.Exec(r.cfg.PollCost, r.sweepFn)
}

// sweep is one poll's work on the reader CPU: drain every source's ring.
func (r *Receiver) sweep() {
	validated := 0
	var torn, stale uint64
	for p := 0; p < r.fab.Size(); p++ {
		src := rdma.NodeID(p)
		rd := r.readers[src]
		if rd == nil {
			continue
		}
		for {
			rec, ok, err := rd.Poll()
			if err != nil || !ok {
				break
			}
			validated += len(rec)
			msg, _, err := codec.DecodeRaw(rec)
			if err != nil {
				break
			}
			_, seq, payload, err := decodeMessage(msg)
			if err != nil {
				break
			}
			r.deliver(src, seq, payload, true)
		}
		torn += rd.TornRejects()
		stale += rd.StaleRejects()
	}
	if torn > r.tornSeen {
		r.mTorn.Add(torn - r.tornSeen)
		r.tornSeen = torn
	}
	if stale += r.staleBackup; stale > r.staleSeen {
		r.mStale.Add(stale - r.staleSeen)
		r.staleSeen = stale
	}
	if cost := r.fab.Latency().CRCCost(validated); cost > 0 {
		// The checksum compute leg of this sweep's validated reads:
		// occupy the reader CPU for the bytes re-hashed, so the cost
		// model charges single-RTT validation what it actually costs.
		r.node.CPU.Exec(cost, func() {})
	}
}

// whole is the dedup entry of a message that came by ring: that is all of it.
const whole = math.MaxInt

// deliver hands the handler what it has not yet had of message (src, seq). A
// ring record is the whole message. A backup slot may hold one its source was
// still putting together (Broadcaster.Stage) — a prefix of what the ring will
// carry — so the dedup entry is the payload length delivered so far, and a
// longer payload delivers its tail. Only whole messages move the contiguous
// watermark the set is compacted against, so memory stays proportional to
// reordering and to recovered messages still awaited on a ring, not to the
// message count.
func (r *Receiver) deliver(src rdma.NodeID, seq uint64, payload []byte, byRing bool) {
	seen := r.delivered[src]
	had, dup := seen[seq]
	if seq <= r.low[src] || had == whole {
		return
	}
	fresh := !dup || len(payload) > had
	if byRing {
		seen[seq] = whole
		for seen[r.low[src]+1] == whole {
			r.low[src]++
			delete(seen, r.low[src])
		}
	} else if fresh {
		seen[seq] = len(payload)
	}
	if !fresh {
		return
	}
	r.mDelivered.Inc()
	buf := append([]byte(nil), payload[had:]...)
	r.node.CPU.Exec(r.cfg.DeliverCost, func() { r.handler(src, seq, buf) })
}

// RecoverFrom reads src's backup region remotely and delivers any pending
// message this node has not seen. Call it when the failure detector
// suspects src. Under the suspension failure model src's NIC still serves
// the read; if src truly crashed the read fails and recovery is skipped
// (its in-flight messages were not delivered anywhere they can be read
// back from).
func (r *Receiver) RecoverFrom(src rdma.NodeID) {
	if r == nil || src == r.node.ID() {
		return
	}
	r.mRecoveries.Inc()
	r.recoverSweep(src, backupReadRetries, make(map[int]uint32))
}

// backupReadRetries bounds the re-reads a recovery sweep earns when a
// backup slot fails CRC validation — a torn read heals within one fabric
// delay, so a handful of extra RTTs is enough; a slot still torn after
// that belongs to a source that died mid-write and carries nothing
// recoverable.
const backupReadRetries = 3

// recoverSweep reads the whole backup region and recovers every validated
// slot, in sequence order: a slot's index is its sequence number modulo
// BackupSlots, which is sequence order except across the wrap, and the handler
// buffers per source and serves head first, so a message delivered ahead of one
// it depends on would block its buffer. A torn slot earns a bounded re-read of
// the region; seen maps slot index → slot version across those passes so a slot
// recovered in an earlier pass is not processed (and counted) again when only
// its torn neighbour needed the retry.
func (r *Receiver) recoverSweep(src rdma.NodeID, retriesLeft int, seen map[int]uint32) {
	size := r.cfg.BackupSlots * r.cfg.BackupSlot
	r.node.QP(src).Read(r.cfg.backupRegion(), 0, size, func(data []byte, err error) {
		if err != nil {
			return
		}
		tornSeen := false
		type recovered struct {
			seq     uint64
			payload []byte
		}
		var found []recovered
		for slot := 0; slot < r.cfg.BackupSlots; slot++ {
			framed := data[slot*r.cfg.BackupSlot : (slot+1)*r.cfg.BackupSlot]
			msg, ver, derr := codec.DecodeSlot(framed)
			if derr != nil {
				if errors.Is(derr, codec.ErrTorn) {
					r.mTorn.Inc()
					tornSeen = true
				}
				continue
			}
			if seen[slot] == ver {
				continue
			}
			seen[slot] = ver
			epoch, seq, record, derr := decodeMessage(msg)
			if derr != nil {
				continue
			}
			if !r.readers[src].Floor().Admits(epoch) {
				// Backup slot stamped before src's departure epoch: the
				// same stale-write rejection the ring gate applies.
				r.staleBackup++
				continue
			}
			// The backup stores the framed ring record; unwrap it.
			inner, _, derr := codec.DecodeRaw(record)
			if derr != nil {
				continue
			}
			_, iseq, payload, derr := decodeMessage(inner)
			if derr != nil || iseq != seq {
				continue
			}
			r.mRecovered.Inc()
			found = append(found, recovered{seq, payload})
		}
		slices.SortFunc(found, func(a, b recovered) int { return cmp.Compare(a.seq, b.seq) })
		for _, m := range found {
			r.deliver(src, m.seq, m.payload, false)
		}
		if tornSeen && retriesLeft > 0 {
			// Bounded retry-on-invalid: re-read the backups so a torn slot
			// whose interior lands momentarily is still recovered.
			r.recoverSweep(src, retriesLeft-1, seen)
		}
	})
}
