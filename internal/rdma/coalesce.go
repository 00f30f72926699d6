package rdma

// Coalescer batches write requests bound for the same peer into one
// PostChain — one doorbell — regardless of which stream (shard, protocol
// instance) produced them. A node hosting many replicated objects shares
// one RC QP per peer; every object's summary writes to that peer can ride
// one doorbell, which is the whole point of hosting them together.
//
// Usage mirrors the deferred-flush pattern the single-object replica used
// privately: producers Enqueue WRs during an invoke, and the first enqueue
// arms a zero-cost flush on the node's CPU. Because the discrete-event CPU
// runs queued work in FIFO order, every producer that enqueues within the
// same scheduling round lands in the same flush — and therefore the same
// chain — before the doorbell rings.
//
// A WR to the region of the batch's last WR that starts inside that WR, or
// right after it, is written onto the tail's staged bytes, extending them if
// it reaches further, instead of queueing another: remote memory ends
// byte-identical to posting both in order, which RC ordering guarantees
// anyway. A burst of reducible calls rewrites one slot's δ-record at one log
// offset and appends the next record right behind it; both are one RDMA
// WRITE, not one per call. Only the tail merges, so the chain keeps enqueue
// order and an anchor at the slot head followed by the δ after it stay
// ordered on the QP (DESIGN.md §4, "The summary out-channel").
//
// A batch posts inline only when no work waits on the CPU behind the flush
// (InlineWhenIdle, the rule a broadcast Batch shares). Copying the payloads
// into the WQE charges the sender InlineCost per WR to land them
// InlineDMASaving sooner: an idle node's peers see the write earlier, but on
// a busy node every queued item waits behind the copies. A busy node posts
// the batch by DMA from the stage it already sits in; nobody waits for its
// completion.
//
// The stream tag exists only for accounting: a chain whose WRs carry more
// than one distinct tag is a cross-stream chain, the measurable win of
// sharing QPs across shards. Tag comparison is two pointer-sized loads per
// enqueue and allocates nothing, preserving the invoke path's zero-alloc
// discipline.
type Coalescer struct {
	node    *Node
	out     []peerBatch // indexed by peer NodeID
	armed   bool
	flushFn func() // co.flush bound once, so arming allocates nothing
	mark    uint64 // advanced by every enqueue and every flush; see Mark
	stats   CoalesceStats

	// perStream is the per-stream mutant (MutatePerStream): a WR merges
	// onto the tail only when both come from one stream.
	perStream bool
}

// peerBatch accumulates one peer's pending WRs between flushes. Their
// payloads sit back to back in stage, which is reused from flush to flush;
// a pending WR's Data stays nil and lens holds its payload's length, since an
// append may move the buffer under a sub-slice.
type peerBatch struct {
	wrs    []WR
	lens   []int  // payload bytes of wrs[i], in stage right after wrs[i-1]'s
	stage  []byte // payload bytes, copied at enqueue
	stream string // tag of the first pending WR
	tail   string // tag of the last pending WR
	mixed  bool   // true when ≥ 2 distinct tags are pending
}

// CoalesceStats counts flush activity. Chains counts per-peer PostChain
// batches of ≥ 2 WRs; CrossChains/CrossWRs count the subset whose WRs came
// from more than one stream — doorbells that only exist because streams
// share the QP.
type CoalesceStats struct {
	Flushes     uint64 // flush passes executed
	Chains      uint64 // batches of ≥ 2 WRs posted as one chain
	CrossChains uint64 // chains mixing ≥ 2 streams
	CrossWRs    uint64 // WRs that rode a cross-stream chain
	Merged      uint64 // enqueues written onto the pending tail WR instead of adding one
	Batches     uint64 // per-peer batches posted, one doorbell each
	WRs         uint64 // WRs those batches carried
}

// NewCoalescer creates a coalescer posting from node, with one pending
// batch per fabric peer. Every node is built with one (Node.Coalescer), the
// one rdma.coalesce_merged counts.
func NewCoalescer(node *Node) *Coalescer {
	co := &Coalescer{node: node, out: make([]peerBatch, node.fabric.Size())}
	co.flushFn = co.flush
	return co
}

// Enqueue adds a WR bound for peer under the given stream tag and arms the
// deferred flush if it is not already armed. wr.Data is copied: the caller
// may reuse its buffer as soon as Enqueue returns. Must be called from the
// node's CPU (it is, on every protocol path: enqueues happen inside invoke
// processing).
func (co *Coalescer) Enqueue(peer NodeID, stream string, wr WR) {
	co.mark++
	b := &co.out[peer]
	if len(b.wrs) == 0 {
		b.stream = stream
	} else if b.stream != stream {
		b.mixed = true
	}
	if n := len(b.wrs); n > 0 && b.wrs[n-1].Region == wr.Region && (!co.perStream || b.tail == stream) &&
		b.wrs[n-1].Off <= wr.Off && wr.Off <= b.wrs[n-1].Off+b.lens[n-1] {
		// The tail's payload is the last lens[n-1] bytes of stage.
		last := &b.wrs[n-1]
		in := copy(b.stage[len(b.stage)-b.lens[n-1]+wr.Off-last.Off:], wr.Data)
		b.stage = append(b.stage, wr.Data[in:]...)
		b.lens[n-1] += len(wr.Data) - in
		// Labels sharing a write are joined with commas, as ring.Sender joins
		// them; the span layer splits them back out. No tracer, no label.
		if last.Label == "" {
			last.Label = wr.Label
		} else if wr.Label != "" {
			last.Label += "," + wr.Label
		}
		co.stats.Merged++
	} else {
		b.stage = append(b.stage, wr.Data...)
		b.lens = append(b.lens, len(wr.Data))
		wr.Data = nil
		b.wrs = append(b.wrs, wr)
	}
	b.tail = stream
	if co.armed {
		return
	}
	co.armed = true
	co.node.CPU.Submit(0, co.flushFn)
}

// MutatePerStream installs the per-stream mutant: a WR is written onto the
// pending tail only when both come from one stream, so each object's writes
// to a peer post as WRs of their own, as when every summary slot kept its
// own δ-log. It is for the ledger's mutation control only.
func (co *Coalescer) MutatePerStream() { co.perStream = true }

// Mark returns a value that changes with every Enqueue and every flush. A
// producer that reads it right after enqueueing a WR for each of its peers
// and finds it unchanged later knows that WR is still every such batch's
// pending tail: a WR it enqueues now at an offset inside or right after it
// rewrites those bytes of the same write.
func (co *Coalescer) Mark() uint64 { return co.mark }

// flush posts every pending batch, one chain per peer, and rearms. Whether
// the batches post inline is decided once, before the first post queues its
// own item on the CPU: idle, every batch inlines; busy, none does.
func (co *Coalescer) flush() {
	co.mark++
	co.armed = false
	co.stats.Flushes++
	inline := co.node.inlines(InlineWhenIdle)
	for p := range co.out {
		b := &co.out[p]
		if len(b.wrs) == 0 {
			continue
		}
		co.stats.Batches++
		co.stats.WRs += uint64(len(b.wrs))
		if len(b.wrs) >= 2 {
			co.stats.Chains++
			if b.mixed {
				co.stats.CrossChains++
				co.stats.CrossWRs += uint64(len(b.wrs))
			}
		}
		lo := 0
		for i, n := range b.lens {
			b.wrs[i].Data = b.stage[lo : lo+n]
			lo += n
		}
		co.node.QP(NodeID(p)).postChain(b.wrs, nil, inline) // copies the payloads into the verb
		b.wrs, b.lens, b.stage = b.wrs[:0], b.lens[:0], b.stage[:0]
		b.stream = ""
		b.mixed = false
	}
}

// Stats returns a snapshot of the coalescer's counters.
func (co *Coalescer) Stats() CoalesceStats { return co.stats }
