package ring

import (
	"math"

	"hamband/internal/rdma"
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
