package ring

import (
	"encoding/binary"

	"hamband/internal/fifo"
	"hamband/internal/metrics"
	"hamband/internal/rdma"
	"hamband/internal/sim"
)

// retryDelay is the base delay between head reads of a ring that stays
// full, and maxBackoff caps the delay at this multiple of it.
const (
	retryDelay = 5 * sim.Microsecond
	maxBackoff = 32
)

// Sender is the writer's end of one remote ring: a local FIFO of framed
// records, the ring's Writer, and the pump that moves the one into the
// other. It is the out-channel of reliable broadcast (one per peer) and of
// every Mu channel (log, request, vote, grant).
//
// A Sender is built with the rdma.Batch it posts through. Send copies the
// record into a queue buffer the Sender reuses and defers the pump to that
// batch, so records queued by work already on the CPU reach the ring
// together, and the records of every Sender of one batch leave in one post
// item; SendIn defers it to another batch (a Mu leader's quorum batch).
// Records appended back to back are adjacent bytes of the ring, so the pump
// posts them as one remote write — two when the run crosses the wrap
// boundary — built in a staging buffer reused from pump to pump. RC ordering
// makes the tail completion cover the whole post; it and any error fan out to
// every batched record's onDone through one callback bound at construction
// and a queue of the onDones each post carries: a warm Sender allocates
// nothing per record or per post.
//
// When the ring looks full the pump reads the remote head counter, and the
// records a read frees room for post alone, under the batch's inline rule. A
// read that frees nothing (a suspended reader) holds every further read until
// a retry timer fires; the delay doubles from the base up to maxBackoff times
// it and resets when a read frees space, so a stalled reader costs a bounded
// trickle of reads however many sends pile up.
type Sender struct {
	node   *rdma.Node
	eng    *sim.Engine
	qp     *rdma.QP
	out    *rdma.Batch // the batch Send defers to
	region string
	w      *Writer
	queue  []sendItem
	data   []byte // the queued records' bytes, back to back, in queue order
	stage  []byte // the pump's merged runs; reused across pumps

	// posted holds, for every post in flight that carries an onDone, how many
	// it carries, oldest post first; dones holds those onDones in send order.
	// doneFn, bound once, is each such post's completion: an RC queue pair
	// completes its posts in posting order, so it pops the oldest count.
	posted fifo.Queue[int]
	dones  fifo.Queue[func(error)]
	doneFn func(error)

	armed   bool              // a pump is deferred to out
	batched bool              // a pump is deferred to another batch (SendIn)
	outFn   func(*rdma.Batch) // the pump deferred to out, bound once: a Send allocates nothing
	inFn    func(*rdma.Batch) // the pump deferred to another batch, bound once
	waiting bool              // head read in flight, or held back by the retry timer
	delay   sim.Duration      // next retry delay
	sentAt  sim.Time          // when the newest post or head read left (SentAt)

	// HeadReads and Retries, when non-nil, count remote head-counter reads
	// and the reads that found no space freed.
	HeadReads, Retries *metrics.Counter
}

// sendItem is one queued record: the next size bytes of data.
type sendItem struct {
	size   int
	label  string
	onDone func(error)
}

// NewSender returns node's out-channel to the ring of the given data
// capacity in region at peer, posting through out, a batch of node.
func NewSender(fab *rdma.Fabric, node *rdma.Node, out *rdma.Batch, peer rdma.NodeID, region string, capacity int) *Sender {
	s := &Sender{
		node:   node,
		eng:    fab.Engine(),
		qp:     node.QP(peer),
		out:    out,
		region: region,
		w:      NewWriter(capacity),
		delay:  retryDelay,
	}
	s.outFn = func(b *rdma.Batch) { s.armed = false; s.pump(b) }
	s.inFn = func(b *rdma.Batch) { s.batched = false; s.pump(b) }
	s.doneFn = s.completed
	return s
}

// Send queues a copy of a framed record: the caller may reuse record as soon
// as Send returns. label, when non-empty, tags the remote write carrying the
// record (rdma.WR.Label; labels sharing a write are joined with commas). onDone, if
// non-nil, receives that write's completion, or the error that cost the
// record its place: a failed write, or a failed head read while it queued.
// The onDones of one Sender run in send order: records leave the queue in
// order, a write's completion reaches the records it carried in order, and an
// RC queue pair completes its writes in posting order.
func (s *Sender) Send(record []byte, label string, onDone func(error)) {
	s.queue = append(s.queue, sendItem{len(record), label, onDone})
	s.data = append(s.data, record...)
	if !s.armed {
		s.armed = true
		s.out.Defer(s.outFn)
	}
}

// SendIn is Send with the pump deferred to b, one other batch of the Sender's
// node: the records the ring has room for when b flushes, this one and any
// queued with it, ride b's post instead of the Sender's batch's.
func (s *Sender) SendIn(b *rdma.Batch, record []byte, label string, onDone func(error)) {
	s.queue = append(s.queue, sendItem{len(record), label, onDone})
	s.data = append(s.data, record...)
	if !s.batched {
		s.batched = true
		b.Defer(s.inFn)
	}
}

// SentAt returns when the newest verb the Sender posted, a post of records or
// a head read, left the node's CPU for the link: went to the wire, or parked
// at a partitioned link. The queue pair to the peer carries other posters'
// verbs too, so a poster that waits on this Sender's completions reads their
// due time from it, not from the queue pair.
func (s *Sender) SentAt() sim.Time { return s.sentAt }

// Drop discards every queued record without completing it and returns how
// many of them carried an onDone. A peer's onDones run in send order and the
// queue holds the newest sends, so a caller that tracks its outstanding
// completions in a FIFO forgets that many from the tail.
func (s *Sender) Drop() (withDone int) {
	for i := range s.queue {
		if s.queue[i].onDone != nil {
			withDone++
		}
	}
	clear(s.queue)
	s.queue, s.data = s.queue[:0], s.data[:0]
	return withDone
}

// RestartAt repositions the writer at logical offset head — the reader's
// head counter, read after the ring was wiped (see NewWriterAt).
func (s *Sender) RestartAt(head uint64) {
	s.w = NewWriterAt(int(s.w.capacity), head)
	s.delay = retryDelay
}

// pump moves every queued record the ring has room for into one post of b.
// Records leave the queue as they are staged, so a later crash drain in
// onHead cannot complete them a second time.
func (s *Sender) pump(b *rdma.Batch) {
	if s.node.Crashed() {
		return
	}
	// The ring never has more than one lap free, so a pump crosses the wrap
	// boundary at most once: the run stage[:split] goes at data offset off,
	// the run stage[split:] at offset zero.
	off, split, run := 0, 0, 0
	var labels [2]string
	stage := s.stage[:0]
	sent, staged, withDone := 0, 0, 0 // records, their bytes of data, and their onDones
	for ; sent < len(s.queue); sent++ {
		it := &s.queue[sent]
		pos, skip, ok := s.w.reserve(it.size)
		if !ok {
			break
		}
		if sent == 0 {
			off = pos
		}
		if skip >= 4 {
			stage = binary.LittleEndian.AppendUint32(stage, skipMarker)
		}
		if skip > 0 || (pos == 0 && sent > 0) {
			// The record opens a lap: after a skip, or after a record that
			// ended exactly at the boundary.
			split, run = len(stage), 1
		}
		stage = append(stage, s.data[staged:staged+it.size]...)
		staged += it.size
		if l := &labels[run]; *l == "" {
			*l = it.label
		} else if it.label != "" {
			*l += "," + it.label
		}
		if it.onDone != nil {
			s.dones.Push(it.onDone)
			withDone++
		}
	}
	s.stage = stage
	if sent > 0 {
		n := copy(s.queue, s.queue[sent:])
		clear(s.queue[n:])
		s.queue = s.queue[:n]
		s.data = s.data[:copy(s.data, s.data[staged:])]
		if run == 0 {
			split = len(stage)
		}
		var wrs [2]rdma.WR
		k := 0
		if split > 0 { // empty when the first record wraps past a remainder too short for a marker
			wrs[0] = rdma.WR{Region: s.region, Off: HeaderSize + off, Data: stage[:split], Label: labels[0]}
			k = 1
		}
		if split < len(stage) {
			wrs[k] = rdma.WR{Region: s.region, Off: HeaderSize, Data: stage[split:], Label: labels[1]}
			k++
		}
		var cb func(error) // unsignaled when no record asked for its completion
		if withDone > 0 {
			s.posted.Push(withDone)
			cb = s.doneFn
		}
		b.PostChain(s.qp, wrs[:k], cb, &s.sentAt)
	}
	s.refreshHead() // a no-op unless records are left behind a ring that looks full
}

// completed is the completion of the oldest post in flight that carries an
// onDone: it runs that post's onDones, in send order.
func (s *Sender) completed(err error) {
	for n := s.posted.Pop(); n > 0; n-- {
		s.dones.Pop()(err)
	}
}

// refreshHead reads the remote head counter, unless a read is in flight or
// held back by the retry timer.
func (s *Sender) refreshHead() {
	if s.waiting || len(s.queue) == 0 {
		return
	}
	s.waiting = true
	s.HeadReads.Inc()
	s.qp.ReadStamped(s.region, 0, HeaderSize, s.onHead, &s.sentAt)
}

func (s *Sender) onHead(data []byte, err error) {
	if err != nil {
		// Peer crashed: fail the queue. It is detached first, so a record an
		// onDone sends is queued afresh instead of being dropped with it.
		queue := s.queue
		s.queue, s.data, s.waiting = nil, s.data[:0], false
		for _, it := range queue {
			if it.onDone != nil {
				it.onDone(err)
			}
		}
		return
	}
	before := s.w.Free()
	s.w.NoteHead(DecodeHead(data))
	if s.w.Free() == before && len(s.queue) > 0 {
		s.Retries.Inc()
		s.eng.After(s.delay, func() { s.waiting = false; s.refreshHead() })
		if s.delay < maxBackoff*retryDelay {
			s.delay *= 2
		}
		return
	}
	s.waiting, s.delay = false, retryDelay
	s.pump(s.out)
}
