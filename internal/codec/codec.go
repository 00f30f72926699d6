// Package codec serializes method calls and their dependency records into
// the byte format Hamband writes into remote memory (§4): a length-prefixed
// record carrying the call, its variable-sized dependency arrays, and a
// CRC32-C + non-zero canary trailer that lets a reader validate a fully
// written record in a single read.
//
// Summary slots use a seqlock-style frame (a version word before and after
// the payload) plus a CRC32-C over version, length and payload. The version
// words are a cheap fast-path rejection of a torn concurrent overwrite; the
// CRC is authoritative, because a NIC may land a write's boundary bytes
// before its interior bytes, which fools any scheme that only samples frame
// edges. Every frame is therefore a checksummed RDMA object: a reader
// validates any remote or local read in one RTT by re-hashing.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"slices"

	"hamband/internal/spec"
)

// Canary is the non-zero byte terminating every complete record.
const Canary byte = 0xA5

// castagnoli is the CRC32-C polynomial table — the checksum RDMA NICs
// accelerate in hardware, and the one hydra-style validated objects use.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum returns the CRC32-C of b, the hash every validated frame stores.
func Checksum(b []byte) uint32 { return crc32.Checksum(b, castagnoli) }

// Errors returned by decoders.
var (
	ErrIncomplete = errors.New("codec: record incomplete or empty")
	ErrCorrupt    = errors.New("codec: record corrupt")
	ErrTooLarge   = errors.New("codec: record exceeds limit")
	ErrTorn       = errors.New("codec: torn slot read")

	// ErrTruncated marks a record whose header promises more bytes than
	// the buffer holds — a mid-write partial the reader should retry, as
	// opposed to ErrCorrupt's structural garbage that a retry can never
	// heal. It wraps ErrIncomplete so callers that only distinguish
	// retry-vs-park keep working unchanged.
	ErrTruncated = fmt.Errorf("%w (truncated mid-write)", ErrIncomplete)
)

// MaxRecord bounds a single encoded record. Buffers size their slots and
// rings against it.
const MaxRecord = 64 * 1024

// RecordTrailer is the validation suffix of every framed record: a u32
// CRC32-C over all preceding bytes, then the canary byte.
const RecordTrailer = 5

// RawOverhead is the framing cost of EncodeRaw beyond its payload: the u32
// length word plus the record trailer.
const RawOverhead = 4 + RecordTrailer

// minEntry is the smallest possible entry record: header, empty arg and
// dep arrays, trailer.
const minEntry = 4 + 2 + 2 + 8 + 2 + 2 + 4 + RecordTrailer

// AppendEntry appends (call, deps) to dst as a self-delimiting record and
// returns the extended slice:
//
//	u32 total length | u16 method | u16 proc | u64 seq |
//	u16 #ints | u16 #strs | ints | (u16 len + bytes)* |
//	u32 #deps | deps | u32 crc | canary
//
// The CRC32-C covers every byte of the record before it (length word
// included) and nothing of dst ahead of the record. With enough capacity in
// dst the call allocates nothing, so a frame that embeds an entry is built in
// one buffer.
func AppendEntry(dst []byte, c spec.Call, d spec.DepVec) ([]byte, error) {
	n := entrySize(c, d)
	if n > MaxRecord {
		return dst, fmt.Errorf("%w: %d bytes", ErrTooLarge, n)
	}
	start := len(dst)
	b := binary.LittleEndian.AppendUint32(slices.Grow(dst, n), uint32(n))
	b = binary.LittleEndian.AppendUint16(b, uint16(c.Method))
	b = binary.LittleEndian.AppendUint16(b, uint16(c.Proc))
	b = binary.LittleEndian.AppendUint64(b, c.Seq)
	b = binary.LittleEndian.AppendUint16(b, uint16(len(c.Args.I)))
	b = binary.LittleEndian.AppendUint16(b, uint16(len(c.Args.S)))
	for _, v := range c.Args.I {
		b = binary.LittleEndian.AppendUint64(b, uint64(v))
	}
	for _, s := range c.Args.S {
		b = binary.LittleEndian.AppendUint16(b, uint16(len(s)))
		b = append(b, s...)
	}
	b = binary.LittleEndian.AppendUint32(b, uint32(len(d)))
	for _, v := range d {
		b = binary.LittleEndian.AppendUint32(b, v)
	}
	b = binary.LittleEndian.AppendUint32(b, Checksum(b[start:]))
	b = append(b, Canary)
	if len(b)-start != n {
		panic("codec: size accounting mismatch")
	}
	return b, nil
}

// EncodeEntry is AppendEntry into a fresh buffer.
func EncodeEntry(c spec.Call, d spec.DepVec) ([]byte, error) {
	return AppendEntry(nil, c, d)
}

func entrySize(c spec.Call, d spec.DepVec) int {
	n := 4 + 2 + 2 + 8 + 2 + 2 // header
	n += 8 * len(c.Args.I)
	for _, s := range c.Args.S {
		n += 2 + len(s)
	}
	n += 4 + 4*len(d)
	n += RecordTrailer
	return n
}

// DecodeEntry parses a record produced by EncodeEntry from the front of b.
// It returns the call, its dependency record and the total record length
// consumed. ErrIncomplete is returned when the buffer starts with a zero
// length (no record); ErrTruncated (which wraps ErrIncomplete) when the
// length word promises bytes the buffer does not hold or the canary has
// not landed — a mid-write partial, distinct from ErrCorrupt so ring
// readers retry instead of parking.
func DecodeEntry(b []byte) (spec.Call, spec.DepVec, int, error) {
	var zero spec.Call
	if len(b) < 4 {
		return zero, nil, 0, ErrIncomplete
	}
	total := int(binary.LittleEndian.Uint32(b))
	if total == 0 {
		return zero, nil, 0, ErrIncomplete
	}
	if total < minEntry || total > MaxRecord {
		return zero, nil, 0, ErrCorrupt
	}
	if len(b) < total {
		return zero, nil, 0, ErrTruncated
	}
	if b[total-1] != Canary {
		return zero, nil, 0, ErrTruncated // write in flight
	}
	if binary.LittleEndian.Uint32(b[total-RecordTrailer:]) != Checksum(b[:total-RecordTrailer]) {
		return zero, nil, 0, ErrTorn
	}
	p := 4
	c := spec.Call{
		Method: spec.MethodID(binary.LittleEndian.Uint16(b[p:])),
		Proc:   spec.ProcID(binary.LittleEndian.Uint16(b[p+2:])),
		Seq:    binary.LittleEndian.Uint64(b[p+4:]),
	}
	p += 12
	ni := int(binary.LittleEndian.Uint16(b[p:]))
	ns := int(binary.LittleEndian.Uint16(b[p+2:]))
	p += 4
	if p+8*ni > total {
		return zero, nil, 0, ErrCorrupt
	}
	if ni > 0 {
		c.Args.I = make([]int64, ni)
		for i := range c.Args.I {
			c.Args.I[i] = int64(binary.LittleEndian.Uint64(b[p:]))
			p += 8
		}
	}
	if ns > 0 {
		c.Args.S = make([]string, ns)
		for i := range c.Args.S {
			if p+2 > total {
				return zero, nil, 0, ErrCorrupt
			}
			l := int(binary.LittleEndian.Uint16(b[p:]))
			p += 2
			if p+l > total {
				return zero, nil, 0, ErrCorrupt
			}
			c.Args.S[i] = string(b[p : p+l])
			p += l
		}
	}
	if p+4 > total {
		return zero, nil, 0, ErrCorrupt
	}
	nd := int(binary.LittleEndian.Uint32(b[p:]))
	p += 4
	if p+4*nd+RecordTrailer != total {
		return zero, nil, 0, ErrCorrupt
	}
	var d spec.DepVec
	if nd > 0 {
		d = make(spec.DepVec, nd)
		for i := range d {
			d[i] = binary.LittleEndian.Uint32(b[p:])
			p += 4
		}
	}
	return c, d, total, nil
}

// SlotOverhead is the framing cost of a validated slot beyond its payload.
const SlotOverhead = 16 // u32 version + u32 length + payload + u32 crc + u32 version

// BeginSlot opens a validated slot frame at the end of dst: the version word
// and a length word FinishSlot fills in. The caller appends the payload to
// the returned slice and closes the frame with FinishSlot, passing the length
// dst had here. Together they write the frame once, where it is to live —
// into a registered region, say — and allocate nothing while dst has room.
func BeginSlot(dst []byte, version uint32) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, version)
	return binary.LittleEndian.AppendUint32(dst, 0)
}

// FinishSlot closes the frame BeginSlot opened at b[start:]: it writes the
// payload length, then appends a CRC32-C over version, length and payload,
// and the version again. The trailing version sits last so the seqlock fast
// path samples the frame's outermost words; the CRC sits inside the frame,
// where a torn boundary-first landing cannot have refreshed it.
func FinishSlot(b []byte, start int) []byte {
	binary.LittleEndian.PutUint32(b[start+4:], uint32(len(b)-start-8))
	b = binary.LittleEndian.AppendUint32(b, Checksum(b[start:]))
	return append(b, b[start:start+4]...)
}

// EncodeSlot frames payload for an overwrite-in-place slot of the given
// size with BeginSlot and FinishSlot, in a fresh buffer. The returned frame
// is only the SlotOverhead+len(payload) bytes used — it is self-delimiting,
// so the slot's stale tail is never read and need not be written; slotSize
// only bounds the payload. The version must increase with every overwrite of
// the same slot.
func EncodeSlot(payload []byte, version uint32, slotSize int) ([]byte, error) {
	if len(payload)+SlotOverhead > slotSize {
		return nil, fmt.Errorf("%w: payload %d for slot %d", ErrTooLarge, len(payload), slotSize)
	}
	b := BeginSlot(make([]byte, 0, SlotOverhead+len(payload)), version)
	return FinishSlot(append(b, payload...), 0), nil
}

// DecodeSlot extracts a slot's payload and version, validating the full
// frame: the seqlock version pair as a cheap fast-path rejection, then the
// CRC32-C as the authoritative check. ErrTorn signals an overwrite whose
// bytes have not all landed — matching versions included, since a NIC may
// land both boundary words before the interior; the reader should retry. A
// zero version means the slot was never written.
func DecodeSlot(b []byte) (payload []byte, version uint32, err error) {
	payload, version, err = decodeSlotSeqlock(b)
	if err != nil {
		return nil, 0, err
	}
	n := len(payload)
	if binary.LittleEndian.Uint32(b[8+n:]) != Checksum(b[:8+n]) {
		return nil, 0, ErrTorn
	}
	return payload, version, nil
}

// decodeSlotSeqlock is DecodeSlot's fast-path half: it delimits the payload
// and checks only that the leading and trailing version words match. Alone
// it false-accepts any torn landing whose boundary words arrive before the
// interior payload bytes — the pre-CRC scheme the torn tests pin.
func decodeSlotSeqlock(b []byte) (payload []byte, version uint32, err error) {
	if len(b) < SlotOverhead {
		return nil, 0, ErrCorrupt
	}
	v1 := binary.LittleEndian.Uint32(b)
	if v1 == 0 {
		return nil, 0, ErrIncomplete
	}
	n := int(binary.LittleEndian.Uint32(b[4:]))
	if n < 0 || 8+n+8 > len(b) {
		return nil, 0, ErrCorrupt
	}
	v2 := binary.LittleEndian.Uint32(b[12+n:])
	if v1 != v2 {
		return nil, 0, ErrTorn
	}
	return b[8 : 8+n], v1, nil
}

// EncodeRaw frames an opaque payload as a self-delimiting ring record:
// u32 total length, payload, u32 crc, canary. Protocol layers (reliable
// broadcast, consensus) use it to carry their own message formats through
// ring buffers.
func EncodeRaw(payload []byte) ([]byte, error) {
	n := len(payload) + RawOverhead
	if n > MaxRecord {
		return nil, fmt.Errorf("%w: %d bytes", ErrTooLarge, n)
	}
	b := make([]byte, 0, n)
	b = binary.LittleEndian.AppendUint32(b, uint32(n))
	b = append(b, payload...)
	b = binary.LittleEndian.AppendUint32(b, Checksum(b))
	b = append(b, Canary)
	return b, nil
}

// DecodeRaw unwraps a record framed by EncodeRaw, returning the payload and
// the total record length consumed. ErrTorn reports a canary that landed
// ahead of interior bytes (CRC mismatch).
func DecodeRaw(b []byte) ([]byte, int, error) {
	if len(b) < 4 {
		return nil, 0, ErrIncomplete
	}
	total := int(binary.LittleEndian.Uint32(b))
	if total == 0 {
		return nil, 0, ErrIncomplete
	}
	if total < RawOverhead || total > MaxRecord {
		return nil, 0, ErrCorrupt
	}
	if len(b) < total {
		return nil, 0, ErrIncomplete
	}
	if b[total-1] != Canary {
		return nil, 0, ErrIncomplete
	}
	if binary.LittleEndian.Uint32(b[total-RecordTrailer:]) != Checksum(b[:total-RecordTrailer]) {
		return nil, 0, ErrTorn
	}
	return b[4 : total-RecordTrailer], total, nil
}

// ValidateRecord checks the trailer of one complete framed record (entry or
// raw — both share the crc+canary suffix) without decoding it: the ring
// reader's single-pass validation. It returns ErrIncomplete while the
// canary has not landed, ErrTorn when the canary landed ahead of interior
// bytes (CRC mismatch), and nil for an intact record.
func ValidateRecord(b []byte) error {
	if len(b) < RawOverhead {
		return ErrCorrupt
	}
	if b[len(b)-1] != Canary {
		return ErrIncomplete
	}
	if binary.LittleEndian.Uint32(b[len(b)-RecordTrailer:]) != Checksum(b[:len(b)-RecordTrailer]) {
		return ErrTorn
	}
	return nil
}
