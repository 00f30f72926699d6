// Package codec serializes what Hamband writes into remote memory (§4) as
// three frames, each validated by re-hashing one read:
//
//   - the call record (delta.go): a length-prefixed, varint-packed call with
//     its dependency record and, on summary records, the applied counts,
//     closed by a CRC32-C + non-zero canary trailer. Every path that ships a
//     call — F buffers, L buffers, the δ-log, the summary anchors, the
//     message-passing baseline — ships this record.
//   - the slot: a seqlock-style frame (a version word before and after the
//     payload) plus a CRC32-C over version, length and payload, for memory
//     overwritten in place. The version words are a cheap fast-path rejection
//     of a torn concurrent overwrite; the CRC is authoritative, because a NIC
//     may land a write's boundary bytes before its interior bytes, which
//     fools any scheme that only samples frame edges.
//   - the raw ring record: an opaque payload under the call record's length
//     word and trailer, for protocol layers that carry their own messages.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
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

// BeginRaw opens a raw ring record at the end of dst: the length word
// FinishRaw fills in. The caller appends the payload to the returned slice and
// closes the record with FinishRaw, passing the length dst had here — the
// BeginSlot/FinishSlot convention, for a layer that builds its message where
// the record is to carry it instead of copying it in.
func BeginRaw(dst []byte) []byte { return binary.LittleEndian.AppendUint32(dst, 0) }

// FinishRaw closes the record BeginRaw opened at b[start:]: it writes the
// total length, then appends the CRC32-C over length and payload, and the
// canary. The payload is b[start+4 : len(b)] as passed in.
func FinishRaw(b []byte, start int) ([]byte, error) {
	n := len(b) - start + RecordTrailer
	if n > MaxRecord {
		return nil, fmt.Errorf("%w: %d bytes", ErrTooLarge, n)
	}
	binary.LittleEndian.PutUint32(b[start:], uint32(n))
	b = binary.LittleEndian.AppendUint32(b, Checksum(b[start:]))
	return append(b, Canary), nil
}

// EncodeRaw frames an opaque payload as a self-delimiting ring record — u32
// total length, payload, u32 crc, canary — with BeginRaw and FinishRaw, in a
// fresh buffer. Protocol layers (reliable broadcast, consensus) use it to
// carry their own message formats through ring buffers.
func EncodeRaw(payload []byte) ([]byte, error) {
	b := BeginRaw(make([]byte, 0, len(payload)+RawOverhead))
	return FinishRaw(append(b, payload...), 0)
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

// ValidateRecord checks the trailer of one complete framed record (call or
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
