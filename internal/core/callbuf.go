package core

import (
	"fmt"

	"hamband/internal/codec"
	"hamband/internal/fifo"
)

// callBuffer is an F or L buffer: the bare calls (codec.AppendCall) peers
// wrote into this node's rings, kept as they arrived — back to back, oldest
// first, in storage the buffer reuses — until the apply pump takes them. A
// buffered call costs its wire bytes and a length word. Only a call the pump
// looks at is decoded, into the buffer's one scratch record, so a warm buffer
// allocates nothing per call. The zero callBuffer is empty and ready to use.
type callBuffer struct {
	recs []byte             // recs[off:] holds the queued calls back to back
	off  int                // where the oldest call starts
	lens fifo.Queue[uint32] // each queued call's length, oldest first
	// rec is the scratch record: the oldest call while decoded is set, and
	// what Pop or PopBack last took out until the buffer is used again.
	rec     codec.DeltaRecord
	decoded bool
}

// Len returns the number of calls buffered.
func (b *callBuffer) Len() int { return b.lens.Len() }

// Push copies rec, exactly one call that codec.DecodeCall accepts, behind
// everything already buffered; the caller keeps rec. When the storage is full,
// a consumed prefix at least as long as the queued calls is reclaimed in
// place; otherwise the storage doubles, and only the queued calls move.
func (b *callBuffer) Push(rec []byte) {
	if len(b.recs)+len(rec) > cap(b.recs) {
		live := b.recs[b.off:]
		if b.off >= len(live) && len(live)+len(rec) <= cap(b.recs) {
			b.recs = b.recs[:copy(b.recs, live)]
		} else {
			buf := make([]byte, len(live), max(2*cap(b.recs), len(live)+len(rec), 64))
			copy(buf, live)
			b.recs = buf
		}
		b.off = 0
	}
	b.recs = append(b.recs, rec...)
	b.lens.Push(uint32(len(rec)))
}

// Head returns the oldest call, decoded. The record is the buffer's and is
// borrowed: it stays valid until the next Pop or PopBack, which reuse its
// arrays. The buffer must not be empty.
func (b *callBuffer) Head() *codec.DeltaRecord {
	if !b.decoded {
		b.decode(b.recs[b.off:][:b.lens.Head()])
		b.decoded = true
	}
	return &b.rec
}

// Pop removes the oldest call and returns it decoded, borrowed until the
// buffer's next Head, Pop or PopBack. The buffer must not be empty.
func (b *callBuffer) Pop() *codec.DeltaRecord {
	rec := b.Head()
	b.off += int(b.lens.Pop())
	b.decoded = false
	b.reset()
	return rec
}

// PopBack removes the newest call and returns it decoded, borrowed like Pop's.
// It serves the apply-order mutant (Cluster.MutateApplyOrder) only. The buffer must not be empty.
func (b *callBuffer) PopBack() *codec.DeltaRecord {
	at := len(b.recs) - int(b.lens.PopBack())
	b.decode(b.recs[at:])
	b.recs = b.recs[:at]
	b.decoded = false
	b.reset()
	return &b.rec
}

// reset rewinds the storage once the last call has left.
func (b *callBuffer) reset() {
	if b.lens.Len() == 0 {
		b.recs, b.off = b.recs[:0], 0
	}
}

// decode decodes rec, a call Push accepted, into the scratch record.
func (b *callBuffer) decode(rec []byte) {
	if n, err := codec.DecodeCall(&b.rec, rec); err != nil || n != len(rec) {
		panic(fmt.Sprintf("core: a buffered call no longer decodes: %d of %d bytes, %v", n, len(rec), err))
	}
}
