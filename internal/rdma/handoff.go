package rdma

import "hamband/internal/fifo"

// Handler takes in entry seq from src that a node's handoff hands on: a
// broadcast message from its source, a decided Mu entry from its origin. The
// payload is borrowed: its buffer goes back to the node's free list when the
// handler returns, so a handler that keeps the bytes copies them.
type Handler func(src NodeID, seq uint64, payload []byte)

// Handoff is a node's one delivery queue. Every in-channel on the node — a
// broadcast receiver, the Mu instance of each sync group, of every store
// shard — adds the entries it delivers, each with its handler, and they reach
// their handlers in the order added. A record is the entries added since the
// last Hand, and each is a DeliverCost work item of its own on the node's CPU,
// which runs its items in order and only pauses them while suspended or
// crashed. The poll loop closes its sweeps' record once, at the end of its
// item; a delivery outside a sweep (a completion, a call) closes its own at
// once. Each entry waits in a buffer from the node's free list, the embedded
// Buffers, which the in-channel fills (Keep) and gives to Add.
type Handoff struct {
	Buffers
	node   *Node
	queue  fifo.Queue[handoffEntry] // every queued entry, oldest first
	items  fifo.Queue[int]          // the entries of each queued record, oldest first
	open   int                      // entries added since the last Hand
	nextFn func()                   // h.next bound once

	perEntry bool // the per-entry mutant (MutatePerEntry)
}

type handoffEntry struct {
	handle  Handler
	src     NodeID
	seq     uint64
	payload []byte // a buffer from the free list
}

// Handoff returns the node's delivery queue.
func (n *Node) Handoff() *Handoff { return &n.hand }

// Add queues an entry for handle in the record Hand closes, without a copy:
// payload is a buffer from the free list, which the caller gives away.
func (h *Handoff) Add(handle Handler, src NodeID, seq uint64, payload []byte) {
	h.queue.Push(handoffEntry{handle, src, seq, payload})
	h.open++
	if h.perEntry {
		h.Hand()
	}
}

// Hand closes the record the entries added since the last Hand make up: they
// reach their handlers in the order added, in one DeliverCost work item. A
// record of no entries costs nothing.
func (h *Handoff) Hand() {
	if h.open == 0 {
		return
	}
	h.items.Push(h.open)
	h.open = 0
	h.node.CPU.Submit(h.node.fabric.lat.DeliverCost, h.nextFn)
}

// Len returns how many added entries still wait for their work item.
func (h *Handoff) Len() int { return h.queue.Len() }

func (h *Handoff) next() {
	for n := h.items.Pop(); n > 0; n-- {
		h.hand(h.queue.Pop())
	}
}

func (h *Handoff) hand(e handoffEntry) {
	e.handle(e.src, e.seq, e.payload)
	h.Release(e.payload)
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
