// Package ring implements the single-writer remote ring buffers Hamband
// stores its F (conflict-free) and L (conflicting) call buffers in (§4).
//
// Each buffer lives in one RDMA memory region on the reader's node:
//
//	bytes [0,8):       head counter — the logical number of bytes the local
//	                   reader has consumed; written locally by the reader,
//	                   read remotely by the writer for flow control.
//	bytes [8, 8+cap):  the data ring, written remotely by the single writer.
//
// The writer keeps the tail locally (the paper: "a tail that is remotely
// stored at the single writer node") and a cached copy of the head; an
// append is therefore a purely local computation followed by one remote
// write. Records are self-delimiting (codec framing: u32 length … u32 crc,
// canary byte); the reader detects a complete record by its non-zero
// length word and trailing canary, validates the whole frame against the
// CRC32-C trailer (the canary alone cannot prove the interior bytes have
// landed), consumes it, zeroes the bytes for reuse and advances its head.
// That one check is all the validation a record gets: the reader hands back
// the payload with the framing stripped, so the layer above reads its own
// message and never sees the frame. Records never span the wrap boundary:
// the writer leaves a skip marker and continues at offset zero.
package ring

import (
	"encoding/binary"
	"errors"
	"fmt"

	"hamband/internal/codec"
	"hamband/internal/rdma"
)

// HeaderSize is the region prefix holding the head counter.
const HeaderSize = 8

// skipMarker fills the length word of a wrap-skip record.
const skipMarker = 0xFFFFFFFF

// ErrCorrupt reports a reader finding an impossible record layout.
var ErrCorrupt = errors.New("ring: corrupt record")

// RegionSize returns the memory-region size for a ring of the given data
// capacity.
func RegionSize(capacity int) int { return HeaderSize + capacity }

// Write is one remote write the writer must post: Data at region offset Off.
type Write struct {
	Off  int
	Data []byte
}

// Writer is the remote-writer side of a ring. It is a pure state machine:
// Append computes placement and returns the remote writes to post; the
// caller performs them on its QP (in order) and refreshes the cached head
// with NoteHead after remotely reading the head counter.
type Writer struct {
	capacity   uint64
	tail       uint64 // logical bytes written (monotone)
	cachedHead uint64 // last observed head (monotone, lags reality)
}

// NewWriter returns a writer for a ring with the given data capacity.
func NewWriter(capacity int) *Writer {
	if capacity <= 0 {
		panic("ring: capacity must be positive")
	}
	return &Writer{capacity: uint64(capacity)}
}

// NewWriterAt returns a writer whose logical position starts at start —
// used when a new writer takes over an existing ring (e.g. a new consensus
// leader) and must continue exactly where the reader will look next. The
// caller is responsible for the ring data being empty (zeroed) from the
// reader's perspective.
func NewWriterAt(capacity int, start uint64) *Writer {
	w := NewWriter(capacity)
	w.tail = start
	w.cachedHead = start
	return w
}

// Append places record (a complete codec-framed record) and returns the
// remote writes to post. ok is false — and no state changes — when the ring
// may be full given the cached head; the caller should remotely read the
// head, call NoteHead, and retry.
func (w *Writer) Append(record []byte) (writes []Write, ok bool) {
	pos, skip, ok := w.reserve(len(record))
	if !ok {
		return nil, false
	}
	if skip >= 4 {
		marker := binary.LittleEndian.AppendUint32(nil, skipMarker)
		writes = append(writes, Write{Off: HeaderSize + pos, Data: marker})
	}
	if skip > 0 {
		pos = 0
	}
	return append(writes, Write{Off: HeaderSize + pos, Data: record}), true
}

// reserve claims ring space for a record of n bytes. The record goes at data
// offset pos when skip is zero. Otherwise it does not fit before the wrap
// boundary: the skip bytes at pos are left behind — a skip marker goes there
// when there is room for its length word (skip ≥ 4), shorter remainders stay
// zero and the reader skips them implicitly — and the record goes at offset
// zero. ok is false, and nothing is claimed, when the ring may be full.
func (w *Writer) reserve(n int) (pos, skip int, ok bool) {
	if n <= 0 || uint64(n) > w.capacity/2 {
		panic(fmt.Sprintf("ring: record size %d out of range for capacity %d", n, w.capacity))
	}
	pos = int(w.tail % w.capacity)
	if boundary := int(w.capacity) - pos; n > boundary {
		skip = boundary
	}
	if w.free() < uint64(skip+n) {
		return 0, 0, false
	}
	w.tail += uint64(skip + n)
	return pos, skip, true
}

// free returns the bytes available under the cached head.
func (w *Writer) free() uint64 { return w.capacity - (w.tail - w.cachedHead) }

// Free reports the writer's current view of available space.
func (w *Writer) Free() int { return int(w.free()) }

// Tail returns the logical tail.
func (w *Writer) Tail() uint64 { return w.tail }

// NoteHead installs a freshly read head counter value. Stale (smaller)
// values are ignored: the head is monotone.
func (w *Writer) NoteHead(h uint64) {
	if h > w.cachedHead {
		w.cachedHead = h
	}
}

// DecodeHead extracts the head counter from the first HeaderSize bytes of a
// region (as returned by a remote read).
func DecodeHead(b []byte) uint64 { return binary.LittleEndian.Uint64(b) }

// Reader is the local-reader side of a ring, operating directly on the
// region's memory.
type Reader struct {
	region     []byte // full region: header + data
	rec        []byte // the payload Poll returned last; reused by the next Poll
	capacity   uint64
	head       uint64
	torn       uint64 // records rejected by the CRC check
	tornStreak int    // consecutive polls rejecting the same offset
	parked     error  // quarantine diagnosis; nil while healthy
	final      bool   // parked by an impossible length word: never looked at again

	// Drain proof (see Quiescent). wrapPending is set when an explicit skip
	// marker is consumed: the writer only places one immediately before a
	// record at offset zero, so a zero length word there means that record
	// is still landing, not that the ring is empty. quiet records whether
	// the most recent Poll proved the ring genuinely idle.
	wrapPending bool
	quiet       bool
}

// NewReader returns a reader over region, which must have been sized with
// RegionSize.
func NewReader(region []byte) *Reader {
	if len(region) <= HeaderSize {
		panic("ring: region too small")
	}
	return &Reader{region: region, capacity: uint64(len(region) - HeaderSize)}
}

// Head returns the logical head (bytes consumed).
func (r *Reader) Head() uint64 { return r.head }

// TornRejects returns how many polls the CRC check has rejected — each one
// a read the canary-only scheme would have falsely accepted or a write
// still landing.
func (r *Reader) TornRejects() uint64 { return r.torn }

// Parked returns the diagnosis if the reader has quarantined the ring, nil
// while it is healthy. A parked reader reported the fault from Poll exactly
// once; afterwards Poll reports an idle ring rather than the same error
// forever. A reader parked by CRC failures is healthy again — Parked nil —
// from the poll on which the record validates; one parked by an impossible
// length word stays parked.
func (r *Reader) Parked() error { return r.parked }

// TornStreak returns how many consecutive polls have rejected the record at
// the current head — the progress of the one-shot parking diagnosis. It
// resets to zero the moment a poll validates, so a healed tear leaves no
// residue: a later tear must again fail rdma.TornLooks polls to park.
func (r *Reader) TornStreak() int { return r.tornStreak }

// Quiescent reports whether the most recent Poll proved the ring genuinely
// empty: no partially landed record visible at the head, no consumed wrap
// marker still waiting for its record at offset zero, and the reader not
// parked. It is the drain proof a parked EpochFloor waits for (the
// broadcast receiver's): an idle return alone also covers a record whose
// write is mid-flight (a wrap marker consumed with its record still
// landing, a torn record mid-heal), and raising the floor then would
// stale-reject a record the departed source legitimately posted before
// revocation.
func (r *Reader) Quiescent() bool { return r.quiet }

// Poll attempts to consume one record. It returns the record's payload —
// the bytes between its length word and its CRC trailer — when the record
// is complete and validated, and (nil, false, nil) when the ring is empty,
// the next record's write is still landing, or the reader is parked. The
// payload is copied into a buffer the reader owns and reuses: it stays valid until the next Poll, like bufio.Scanner.Bytes, and a
// caller that keeps it longer copies it. Writing into it leaves the region
// unchanged.
//
// A corrupt layout — an impossible length word, or a record whose CRC fails
// on rdma.TornLooks consecutive polls — is surfaced exactly once,
// with offset and head diagnostics, and parks the reader: subsequent polls
// return idle instead of re-reporting the same fault every poll. The length
// word is corruption and terminal; the CRC may be lateness, so a reader
// parked by it validates the same record once per poll and carries on when
// it passes. Consumed bytes are zeroed and the head counter in the region
// header is advanced for the remote writer's flow control.
func (r *Reader) Poll() ([]byte, bool, error) {
	r.quiet = false
	if r.final {
		return nil, false, nil
	}
	for {
		data := r.region[HeaderSize:]
		pos := r.head % r.capacity
		boundary := r.capacity - pos
		if boundary < 4 {
			// Too small for a length word: always skipped by the writer.
			r.advance(pos, boundary)
			continue
		}
		lenWord := binary.LittleEndian.Uint32(data[pos:])
		switch {
		case lenWord == 0:
			// Empty — unless a consumed wrap marker promised a record here
			// whose write has not landed yet.
			r.quiet = !r.wrapPending
			return nil, false, nil
		case lenWord == skipMarker:
			r.wrapPending = true
			r.advance(pos, boundary)
			continue
		}
		n := uint64(lenWord)
		if n < codec.RawOverhead || n > boundary || n > r.capacity/2 {
			r.final = true
			return r.park(fmt.Errorf("%w: length %d at offset %d (head %d): ring parked",
				ErrCorrupt, n, pos, r.head))
		}
		if data[pos+n-1] == 0 {
			// Canary missing: record write in flight; retry later. (The
			// canary byte is the last byte of every framed record and is
			// non-zero by construction.)
			return nil, false, nil
		}
		// The canary alone proves only that the record's final byte landed
		// — not its interior, which the fabric may deliver later. The CRC
		// trailer validates the whole frame in this single pass.
		if err := codec.ValidateRecord(data[pos : pos+n]); err != nil {
			if r.parked != nil {
				return nil, false, nil // diagnosed already: looked again, still torn
			}
			r.torn++
			r.tornStreak++
			if r.tornStreak >= rdma.TornLooks {
				return r.park(fmt.Errorf(
					"%w: record at offset %d (head %d) failed CRC on %d consecutive polls: ring parked",
					ErrCorrupt, pos, r.head, r.tornStreak))
			}
			return nil, false, nil // torn landing: retry next poll
		}
		r.tornStreak, r.parked = 0, nil // whole, however long it took: late, not lost
		r.wrapPending = false           // the promised post-wrap record has landed
		r.rec = append(r.rec[:0], data[pos+4:pos+n-codec.RecordTrailer]...)
		r.advance(pos, n)
		return r.rec, true, nil
	}
}

// park records the quarantine diagnosis and surfaces it this one time.
func (r *Reader) park(err error) ([]byte, bool, error) {
	r.parked = err
	return nil, false, err
}

// advance zeroes n bytes at pos, moves the head and publishes it in the
// region header.
func (r *Reader) advance(pos, n uint64) {
	data := r.region[HeaderSize:]
	for i := uint64(0); i < n; i++ {
		data[pos+i] = 0
	}
	r.head += n
	binary.LittleEndian.PutUint64(r.region, r.head)
}
