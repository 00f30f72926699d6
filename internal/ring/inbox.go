package ring

import (
	"math"

	"hamband/internal/fifo"
	"hamband/internal/rdma"
	"hamband/internal/sim"
)

// Drain hands every record waiting on readers — one ring per sender, indexed
// by sender, nil for none — to handle, sender by sender. A ring's drain ends
// for the sweep when it is idle or parked or handle returns an error. handle
// borrows the record until its ring's next Poll and does not escape, so a
// method value passed per sweep allocates nothing.
func Drain(readers []*Reader, handle func(from rdma.NodeID, msg []byte) error) {
	for p, rd := range readers {
		for rd != nil {
			msg, ok, err := rd.Poll()
			if err != nil || !ok || handle(rdma.NodeID(p), msg) != nil {
				break
			}
		}
	}
}

// TornRejects totals the CRC rejects of the readers in sets; nil ones count
// nothing.
func TornRejects(sets ...[]*Reader) (n uint64) {
	for _, readers := range sets {
		for _, rd := range readers {
			if rd != nil {
				n += rd.TornRejects()
			}
		}
	}
	return n
}

// Watermark is what has been delivered of one sender's messages: all up to
// Low, and the ones above it in a set, each with the payload bytes delivered.
// A ring record is a whole message; a copy recovered from its sender (a staged
// broadcast backup slot) may be a prefix, and a longer copy delivers only its
// tail. Only whole messages move Low, so the set stays the size of the
// reordering and of the prefixes awaiting their message.
type Watermark struct {
	low  uint64
	seen map[uint64]int // seq above low → payload bytes delivered; whole for all
}

const whole = math.MaxInt

// Low returns the contiguous watermark.
func (w *Watermark) Low() uint64 { return w.low }

// Above returns how many sequence numbers above Low are in the set.
func (w *Watermark) Above() int { return len(w.seen) }

// Delivered reports whether message seq has been delivered whole.
func (w *Watermark) Delivered(seq uint64) bool { return seq <= w.low || w.seen[seq] == whole }

// Admit records the delivery of n bytes of message seq's payload, all of it
// when all is set. The caller hands on payload[from:] if fresh: what those
// bytes add to what was delivered before.
func (w *Watermark) Admit(seq uint64, n int, all bool) (from int, fresh bool) {
	if w.Delivered(seq) {
		return 0, false
	}
	if w.seen == nil {
		w.seen = make(map[uint64]int)
	}
	had, dup := w.seen[seq]
	fresh = !dup || n > had
	switch {
	case all:
		w.seen[seq] = whole
		for w.seen[w.low+1] == whole {
			w.low++
			delete(w.seen, w.low)
		}
	case fresh:
		w.seen[seq] = n
	}
	return had, fresh
}

// Handoff hands delivered records to the layer above in the order added. A
// record is one entry or several — the messages one broadcast sweep found,
// what one write completion decides at a Mu leader, or a Mu round a follower
// delivers at once — and each is a DeliverCost work item of its own on the
// node's CPU, which runs its items in order and only pauses them while
// suspended or crashed. Each entry waits in a
// buffer from a free list shared with the holder, who fills it (Buffers.Keep)
// and gives it to Add, and the handler borrows it until it returns.
type Handoff struct {
	cpu    *sim.CPU
	cost   sim.Duration
	handle func(src rdma.NodeID, seq uint64, payload []byte)
	queue  fifo.Queue[handoffEntry] // every queued entry, oldest first
	items  fifo.Queue[int]          // the entries of each queued record, oldest first
	open   int                      // entries added since the last Hand
	bufs   *Buffers
	nextFn func() // h.next bound once

	perEntry bool // the per-entry mutant (MutatePerEntry)
}

type handoffEntry struct {
	src          rdma.NodeID
	seq          uint64
	buf, payload []byte // payload lies in buf
}

// NewHandoff returns node's handoff to handle, taking its buffers from bufs
// and returning them there.
func NewHandoff(fab *rdma.Fabric, node *rdma.Node, bufs *Buffers, handle func(src rdma.NodeID, seq uint64, payload []byte)) *Handoff {
	h := &Handoff{cpu: node.CPU, cost: fab.Latency().DeliverCost, handle: handle, bufs: bufs}
	h.nextFn = h.next
	return h
}

// Add queues an entry of the record Hand closes, without the copy: payload
// lies in buf, a buffer from the shared list, which the caller gives away.
func (h *Handoff) Add(src rdma.NodeID, seq uint64, buf, payload []byte) {
	h.queue.Push(handoffEntry{src, seq, buf, payload})
	h.open++
	if h.perEntry {
		h.Hand()
	}
}

// Hand closes the record the entries added since the last Hand make up: they
// reach the handler in the order added, in one DeliverCost work item. A record
// of no entries costs nothing.
func (h *Handoff) Hand() {
	if h.open == 0 {
		return
	}
	h.items.Push(h.open)
	h.open = 0
	h.cpu.Submit(h.cost, h.nextFn)
}

// Len returns how many added entries still wait for their work item.
func (h *Handoff) Len() int { return h.queue.Len() }

// Records returns how many closed records still wait for their work item.
func (h *Handoff) Records() int { return h.items.Len() }

func (h *Handoff) next() {
	for n := h.items.Pop(); n > 0; n-- {
		h.hand(h.queue.Pop())
	}
}

func (h *Handoff) hand(e handoffEntry) {
	h.handle(e.src, e.seq, e.payload)
	h.bufs.Release(e.buf)
}

// MutateLIFO makes the handoff hand on its newest record first, and that
// record's entries newest first. It is for the mutation controls only, a bug
// the delivery-order tests must catch.
func (h *Handoff) MutateLIFO() {
	h.nextFn = func() {
		for n := h.items.PopBack(); n > 0; n-- {
			h.hand(h.queue.PopBack())
		}
	}
}

// MutatePerEntry makes the handoff close a record at every entry, so each
// costs a DeliverCost item of its own. It is for the mutation controls only,
// a cost the delivery-cost tests must catch.
func (h *Handoff) MutatePerEntry() { h.perEntry = true }

// Buffers is a free list of byte buffers, so a warm holder of copies
// allocates none.
type Buffers [][]byte

// Keep copies b into a buffer from the list, or into a new one.
func (f *Buffers) Keep(b []byte) []byte {
	var buf []byte
	if n := len(*f); n > 0 {
		buf, (*f)[n-1] = (*f)[n-1], nil
		*f = (*f)[:n-1]
	}
	return append(buf, b...)
}

// Release puts b, a buffer from Keep, back on the list.
func (f *Buffers) Release(b []byte) {
	if cap(b) > 0 {
		*f = append(*f, b[:0])
	}
}
