package ring

import (
	"cmp"
	"encoding/binary"
	"fmt"

	"hamband/internal/codec"
	"hamband/internal/rdma"
)

// Slots is a region of n size-byte slots registered on every node, ring record
// seq held in slot seq mod n as the ring carries it: a broadcast source's
// backup slots, a Mu leader's journal. The owner writes its own copy with Put
// and Clear, and Read reads a peer's one-sidedly, as recovery reads a suspect.
type Slots struct {
	region  string
	mem     []byte // this node's copy
	n, size int
	torn    uint64       // torn slots seen, one per slot per look
	spare   rdma.Buffers // keeps a wrapped read's first span until the second lands
}

// NewSlots returns node's copy of region, n slots of size bytes.
func NewSlots(node *rdma.Node, region string, n, size int) *Slots {
	return &Slots{region: region, mem: node.Region(region).Bytes(), n: n, size: size}
}

// Put copies rec, record seq, into its slot as it is; the slot's stale tail is
// never read. A record larger than a slot (nil: one over codec.MaxRecord) is
// a configuration error.
func (s *Slots) Put(seq uint64, rec []byte) {
	if rec == nil || len(rec) > s.size {
		panic(fmt.Sprintf("ring: a %d-byte record does not fit a %d-byte slot of %s", len(rec), s.size, s.region))
	}
	copy(s.mem[s.at(seq):], rec)
}

// Clear empties seq's slot.
func (s *Slots) Clear(seq uint64) { clear(s.mem[s.at(seq):][:s.size]) }

func (s *Slots) at(seq uint64) int { return int(seq%uint64(s.n)) * s.size }

// TornRejects returns the torn slots Read has seen, one per slot per look.
func (s *Slots) TornRejects() uint64 { return s.torn }

// Read reads the slots of records [lo, hi) from qp's peer: one READ, or two
// when the range wraps past the last slot, and all n slots at most. Each is an
// rdma.QP.ReadValid, read again while a slot in it is torn. got receives the
// record in seq's slot for any seq in the range — nil when empty, or torn at
// the last look — valid until got returns, or the first error. An empty range
// reads nothing.
func (s *Slots) Read(qp *rdma.QP, lo, hi uint64, got func(rec func(seq uint64) []byte, err error)) {
	var parts [2][]byte // lo's slot on, then slot 0 on: (seq-lo) mod n indexes both
	rec := func(seq uint64) []byte {
		i, p := int((seq-lo)%uint64(s.n))*s.size, parts[0]
		if i >= len(p) {
			i, p = i-len(p), parts[1]
		}
		r, _, _ := codec.DecodeRaw(p[i : i+s.size])
		return r
	}
	if hi <= lo {
		got(rec, nil)
		return
	}
	first, n := int(lo%uint64(s.n)), int(min(hi-lo, uint64(s.n)))
	spans := [][2]int{{first, min(first+n, s.n)}, {0, first + n - s.n}}
	if first+n <= s.n {
		spans = spans[:1]
	}
	reads, failed := len(spans), error(nil)
	for i, sp := range spans {
		qp.ReadValid(s.region, sp[0]*s.size, (sp[1]-sp[0])*s.size, s.tornIn, func(data []byte, err error) {
			failed = cmp.Or(failed, err)
			if reads--; reads > 0 {
				parts[i] = s.spare.Keep(data) // lent only until this callback returns
				return
			}
			parts[i] = data
			got(rec, failed)
			s.spare.Release(parts[1-i]) // nil unless the range wrapped
		})
	}
}

// tornIn counts data's torn slots and reports whether there is one: a slot is
// empty when its length word is zero, torn when anything else fails DecodeRaw.
func (s *Slots) tornIn(data []byte) (found bool) {
	for off := 0; off < len(data); off += s.size {
		slot := data[off : off+s.size]
		if _, _, err := codec.DecodeRaw(slot); err != nil && binary.LittleEndian.Uint32(slot) != 0 {
			s.torn++
			found = true
		}
	}
	return found
}
