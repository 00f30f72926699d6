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
// A WR that continues the batch's last WR — same region, first byte right
// after the last one's — extends that WR instead of queueing another: the
// δ-records a burst of reducible calls appends to one slot's log are adjacent
// remote bytes, which is one RDMA WRITE, not one per record. Only the tail
// merges, so the chain keeps enqueue order and an anchor at the slot head
// followed by the δ after it stay ordered on the QP (DESIGN.md §4, "The
// summary out-channel").
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
	stats   CoalesceStats
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
	Merged      uint64 // enqueues that extended the pending tail WR instead of adding one
}

// NewCoalescer creates a coalescer posting from node, with one pending
// batch per fabric peer.
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
	b := &co.out[peer]
	if len(b.wrs) == 0 {
		b.stream = stream
	} else if b.stream != stream {
		b.mixed = true
	}
	b.stage = append(b.stage, wr.Data...)
	if n := len(b.wrs); n > 0 && b.wrs[n-1].Region == wr.Region && b.wrs[n-1].Off+b.lens[n-1] == wr.Off {
		// Labels sharing a write are joined with commas, as ring.Sender joins
		// them; the span layer splits them back out. No tracer, no label.
		if last := &b.wrs[n-1]; last.Label == "" {
			last.Label = wr.Label
		} else if wr.Label != "" {
			last.Label += "," + wr.Label
		}
		b.lens[n-1] += len(wr.Data)
		co.stats.Merged++
		co.node.fabric.mMerged.Inc()
	} else {
		b.lens = append(b.lens, len(wr.Data))
		wr.Data = nil
		b.wrs = append(b.wrs, wr)
	}
	if co.armed {
		return
	}
	co.armed = true
	co.node.CPU.Exec(0, co.flushFn)
}

// flush posts every pending batch, one chain per peer, and rearms.
func (co *Coalescer) flush() {
	co.armed = false
	co.stats.Flushes++
	for p := range co.out {
		b := &co.out[p]
		if len(b.wrs) == 0 {
			continue
		}
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
		co.node.QP(NodeID(p)).PostChain(b.wrs, nil) // copies the payloads into the verb
		b.wrs, b.lens, b.stage = b.wrs[:0], b.lens[:0], b.stage[:0]
		b.stream = ""
		b.mixed = false
	}
}

// Stats returns a snapshot of the coalescer's counters.
func (co *Coalescer) Stats() CoalesceStats { return co.stats }
