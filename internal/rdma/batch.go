package rdma

import "hamband/internal/sim"

// Batch posts verbs to several of one node's queue pairs as one work item on
// its CPU: the item costs what posting each verb alone would (PostCost,
// ChainedPostCost per further WR of a chain, InlineCost per inline payload),
// and every verb goes to its link gate, in the order it was added, when the
// item ends. Verbs posted one item each reach the wire a post cost apart and
// each costs a poll of the completion queue; a batch's completions land
// together, and one poll reaps them all. Every ring.Sender posts through the
// batch it is built with: a node's broadcasters through the node's one
// (Node.Batch), each Mu channel through its own, and a Mu leader's quorum
// writes through one more (ring.Sender.SendIn).
//
// Defer arms a zero-cost flush on the node's CPU, so every producer that
// defers within the same scheduling round lands in the same post. The flush
// calls each deferred fill, which adds its verbs with PostChain, and submits
// one item for all of them. A warm batch allocates nothing.
//
// A batch's Inline rule says whether its payloads post inline (InlineFits, a
// Mu channel's writes, which a conflicting call's response waits on) or only
// on an idle node (InlineWhenIdle, a broadcast message's writes, which rule
// FREE answers before). Each flush decides once, before any fill runs.
type Batch struct {
	node     *Node
	rule     Inline
	fills    []func(*Batch) // deferred to the next flush, in order
	verbs    []*verb        // added by the last flush, posted by its item
	cost     sim.Duration   // their post cost
	armed    bool           // a flush is queued on the CPU
	flushing bool           // the flush is calling its fills
	inline   bool           // the running flush's decision (Node.inlines)
	posting  bool           // the flush's post item is queued on the CPU
	posts    int            // post items submitted (Posts)
	flushFn  func()         // b.flush and b.post bound once
	postFn   func()
}

// Inline is when a poster's payloads post inline.
type Inline uint8

const (
	// InlineFits inlines every payload that fits InlineThreshold: a caller
	// waits on the writes, and the copy lands them InlineDMASaving sooner.
	InlineFits Inline = iota
	// InlineWhenIdle inlines only when no work waits on the CPU behind the
	// flush: nobody waits on the writes, and on a busy node every queued
	// item would wait behind InlineCost per payload.
	InlineWhenIdle
)

// inlines is the one inline rule of a flush posting under rule: the summary
// coalescer's, a batch's, and a batch Sender's lone post. A flush calls it
// once, before it queues any item of its own: checked per post, a flush would
// find its own earlier post items queued and stop inlining on an idle node.
func (n *Node) inlines(rule Inline) bool {
	return rule == InlineFits || n.CPU.QueueLen() == 0
}

// NewBatch returns an empty batch posting from n under rule.
func (n *Node) NewBatch(rule Inline) *Batch {
	b := &Batch{node: n, rule: rule}
	b.flushFn, b.postFn = b.flush, b.post
	return b
}

// Defer has the batch's next flush call fill, and arms the flush unless it is
// armed. fill is bound once by the caller, and defers nothing itself.
func (b *Batch) Defer(fill func(*Batch)) {
	b.fills = append(b.fills, fill)
	if !b.armed {
		b.armed = true
		b.node.CPU.Submit(0, b.flushFn)
	}
}

// PostChain adds wrs, a chain to qp's target, to the post of the running
// flush: the verb qp.PostChain would post alone, signaled only if onDone is
// non-nil, inline as the flush decided. A fill calls it; qp must be one of the
// batch's node's queue pairs. Called outside a flush (a ring pump after a head
// read) it posts the verb alone, a flush of its own under the batch's rule.
// When sent is non-nil, *sent is set to when the verb reaches its link gate:
// leaves the node's CPU for the wire, or parks at a partitioned link. A
// poster that shares the queue pair with others reads its own completions'
// due times from it. Data is copied now.
func (b *Batch) PostChain(qp *QP, wrs []WR, onDone func(error), sent *sim.Time) {
	if qp.from != b.node {
		panic("rdma: a batch posts from its own node only")
	}
	inline := b.inline
	if !b.flushing {
		inline = b.node.inlines(b.rule)
	}
	v := qp.chain(wrs, onDone, inline)
	if v == nil {
		return
	}
	v.sent = sent
	if !b.flushing {
		v.post()
		return
	}
	b.cost += v.postCost()
	b.verbs = append(b.verbs, v)
}

// Posts returns how many post items the batch has submitted.
func (b *Batch) Posts() int { return b.posts }

// Pending reports whether a flush or a post item of the batch waits on the
// CPU: verbs deferred to it have not left yet.
func (b *Batch) Pending() bool { return b.armed || b.posting }

// flush decides whether its payloads post inline, calls the deferred fills
// and submits one item of the verbs they added, unless they added none. The
// CPU runs its work in submission order, so the item ends before the next
// flush runs: one post item at most is in flight.
func (b *Batch) flush() {
	b.armed = false
	b.inline, b.flushing = b.node.inlines(b.rule), true
	for i, fill := range b.fills {
		b.fills[i] = nil
		fill(b)
	}
	b.fills, b.flushing = b.fills[:0], false
	if len(b.verbs) == 0 {
		return
	}
	b.posting = true
	b.posts++
	cost := b.cost
	b.cost = 0
	b.node.CPU.Submit(cost, b.postFn)
}

// post is the end of the post item: its verbs reach their link gates in the
// order they were added.
func (b *Batch) post() {
	b.posting = false
	for i, v := range b.verbs {
		b.verbs[i] = nil
		v.gate()
	}
	b.verbs = b.verbs[:0]
}
