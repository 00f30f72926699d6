// The call record: the one serialization of a call and what travels with it.
// It is a self-delimiting, CRC-validated frame,
//
//	u32 total | kind | uvarint version | packed counts | packed call | u32 crc | canary
//
// whose kind byte names its role: FrameFull is a full call record — (c, D) in
// an F or L buffer, or a summary anchor's call with its applied counts —
// and FrameDelta one folded reducible call of a slot's δ-log (Almeida et al.:
// a δ-mutation and the state it joins into share a format), whose version is
// the slot version it establishes.
//
// All integers are varint-packed; spec.DepVec and the per-method applied
// counts use a columnar delta encoding (first value, then zigzag deltas
// between consecutive values) since neighbouring counts are near each
// other. Varints must be canonical: an overlong encoding (a value that fits
// fewer bytes, or more than ten bytes) decodes as ErrCorrupt, never as a
// second representation of the same record.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"

	"hamband/internal/spec"
)

// Call-record kinds.
const (
	FrameFull  byte = 0xF1 // full call record: a buffered (c, D), or a summary anchor
	FrameDelta byte = 0xF2 // one folded reducible call of a slot's δ-log
)

// minDelta is the smallest possible call record: length word, kind,
// one-byte version, one-byte count vector, minimal packed call, trailer.
const minDelta = 4 + 1 + 1 + 1 + 6 + RecordTrailer

// DeltaRecord is the decoded form of one call record.
type DeltaRecord struct {
	Kind    byte
	Version uint32      // slot version this record establishes (0 on FrameFull)
	Counts  []uint32    // absolute per-method applied counts (summary records)
	C       spec.Call   // the buffered call, folded call, or full summary
	D       spec.DepVec // dependency record (buffered calls)
}

// AppendUvarint appends v in canonical unsigned varint form.
func AppendUvarint(b []byte, v uint64) []byte {
	return binary.AppendUvarint(b, v)
}

// Uvarint decodes a canonical unsigned varint from the front of b. It
// returns ErrTruncated when b ends mid-varint and ErrCorrupt for an
// overlong encoding (a non-minimal form or more than ten bytes), so a
// reader can tell a mid-write partial from structural garbage.
func Uvarint(b []byte) (uint64, int, error) {
	v, n := binary.Uvarint(b)
	if n == 0 {
		return 0, 0, ErrTruncated
	}
	if n < 0 {
		return 0, 0, fmt.Errorf("%w: varint overflows 64 bits", ErrCorrupt)
	}
	if n > 1 && b[n-1] == 0 {
		return 0, 0, fmt.Errorf("%w: overlong varint", ErrCorrupt)
	}
	return v, n, nil
}

// zigzag maps signed to unsigned so small magnitudes stay short.
func zigzag(v int64) uint64   { return uint64(v<<1) ^ uint64(v>>63) }
func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// appendU32Packed appends a []uint32 in columnar delta form: uvarint count,
// first value, then zigzag deltas between consecutive values.
func appendU32Packed(b []byte, vs []uint32) []byte {
	b = AppendUvarint(b, uint64(len(vs)))
	prev := uint32(0)
	for _, v := range vs {
		b = AppendUvarint(b, zigzag(int64(v)-int64(prev)))
		prev = v
	}
	return b
}

// decodeU32Packed decodes a vector written by appendU32Packed.
func decodeU32Packed(b []byte) ([]uint32, int, error) {
	n, p, err := Uvarint(b)
	if err != nil {
		return nil, 0, err
	}
	// Each value costs at least one byte; a count beyond the buffer is
	// structural garbage, not a short read (the caller bounds b).
	if n > uint64(len(b)) {
		return nil, 0, fmt.Errorf("%w: packed vector count %d exceeds buffer", ErrCorrupt, n)
	}
	if n == 0 {
		return nil, p, nil
	}
	vs := make([]uint32, n)
	prev := int64(0)
	for i := range vs {
		u, m, err := Uvarint(b[p:])
		if err != nil {
			return nil, 0, err
		}
		p += m
		prev += unzigzag(u)
		if prev < 0 || prev > int64(^uint32(0)) {
			return nil, 0, fmt.Errorf("%w: packed value out of uint32 range", ErrCorrupt)
		}
		vs[i] = uint32(prev)
	}
	return vs, p, nil
}

// AppendDepVec appends a dependency record in packed columnar form.
// Neighbouring cells of a DepVec are applied counts of adjacent processes,
// so the zigzag deltas are near zero and the vector shrinks from 4 bytes a
// cell to roughly one.
func AppendDepVec(b []byte, d spec.DepVec) []byte {
	return appendU32Packed(b, d)
}

// DecodeDepVec decodes a dependency record written by AppendDepVec,
// returning the vector and the bytes consumed.
func DecodeDepVec(b []byte) (spec.DepVec, int, error) {
	vs, n, err := decodeU32Packed(b)
	return spec.DepVec(vs), n, err
}

// appendPackedCall appends a varint-packed call and dependency record:
// method, proc, seq, int args (zigzag), string args, packed DepVec.
func appendPackedCall(b []byte, c spec.Call, d spec.DepVec) []byte {
	b = AppendUvarint(b, uint64(c.Method))
	b = AppendUvarint(b, uint64(c.Proc))
	b = AppendUvarint(b, c.Seq)
	b = AppendUvarint(b, uint64(len(c.Args.I)))
	for _, v := range c.Args.I {
		b = AppendUvarint(b, zigzag(v))
	}
	b = AppendUvarint(b, uint64(len(c.Args.S)))
	for _, s := range c.Args.S {
		b = AppendUvarint(b, uint64(len(s)))
		b = append(b, s...)
	}
	return AppendDepVec(b, d)
}

// decodePackedCall decodes a call written by appendPackedCall.
func decodePackedCall(b []byte) (spec.Call, spec.DepVec, int, error) {
	var c spec.Call
	p := 0
	next := func() (uint64, error) {
		v, n, err := Uvarint(b[p:])
		p += n
		return v, err
	}
	m, err := next()
	if err != nil {
		return c, nil, 0, err
	}
	pr, err := next()
	if err != nil {
		return c, nil, 0, err
	}
	seq, err := next()
	if err != nil {
		return c, nil, 0, err
	}
	c.Method = spec.MethodID(m)
	c.Proc = spec.ProcID(pr)
	c.Seq = seq
	ni, err := next()
	if err != nil {
		return c, nil, 0, err
	}
	if ni > uint64(len(b)-p) {
		return c, nil, 0, fmt.Errorf("%w: %d int args exceed buffer", ErrCorrupt, ni)
	}
	if ni > 0 {
		c.Args.I = make([]int64, ni)
		for i := range c.Args.I {
			u, err := next()
			if err != nil {
				return c, nil, 0, err
			}
			c.Args.I[i] = unzigzag(u)
		}
	}
	ns, err := next()
	if err != nil {
		return c, nil, 0, err
	}
	if ns > uint64(len(b)-p) {
		return c, nil, 0, fmt.Errorf("%w: %d string args exceed buffer", ErrCorrupt, ns)
	}
	if ns > 0 {
		c.Args.S = make([]string, ns)
		for i := range c.Args.S {
			l, err := next()
			if err != nil {
				return c, nil, 0, err
			}
			if l > uint64(len(b)-p) {
				return c, nil, 0, fmt.Errorf("%w: string length %d exceeds buffer", ErrCorrupt, l)
			}
			c.Args.S[i] = string(b[p : p+int(l)])
			p += int(l)
		}
	}
	d, n, err := DecodeDepVec(b[p:])
	if err != nil {
		return c, nil, 0, err
	}
	return c, d, p + n, nil
}

// AppendDeltaRecord appends one call record to dst as a self-delimiting frame
// and returns the extended slice:
//
//	u32 total | kind | uvarint version | packed counts | packed call | u32 crc | canary
//
// The CRC32-C covers every byte of the record before it (length word
// included) and nothing of dst ahead of the record, so a frame that embeds a
// record is built in one buffer. With enough capacity in dst the call
// allocates nothing; on error dst comes back unextended.
func AppendDeltaRecord(dst []byte, r DeltaRecord) ([]byte, error) {
	switch r.Kind {
	case FrameFull, FrameDelta:
	default:
		return dst, fmt.Errorf("%w: unknown delta kind 0x%02x", ErrCorrupt, r.Kind)
	}
	start := len(dst)
	b := append(dst, 0, 0, 0, 0, r.Kind)
	b = AppendUvarint(b, uint64(r.Version))
	b = appendU32Packed(b, r.Counts)
	b = appendPackedCall(b, r.C, r.D)
	total := len(b) - start + RecordTrailer
	if total > MaxRecord {
		return dst, fmt.Errorf("%w: %d bytes", ErrTooLarge, total)
	}
	binary.LittleEndian.PutUint32(b[start:], uint32(total))
	b = binary.LittleEndian.AppendUint32(b, Checksum(b[start:]))
	return append(b, Canary), nil
}

// EncodeDeltaRecord is AppendDeltaRecord into a fresh buffer.
func EncodeDeltaRecord(r DeltaRecord) ([]byte, error) {
	return AppendDeltaRecord(make([]byte, 0, 64), r)
}

// EncodeEntry and DecodeEntry are the names benchmark/micro.go measures the
// call record under (codec.entry_*); they go when that benchmark is unfrozen.
func EncodeEntry(c spec.Call, d spec.DepVec) ([]byte, error) {
	return EncodeDeltaRecord(DeltaRecord{Kind: FrameFull, C: c, D: d})
}

func DecodeEntry(b []byte) (spec.Call, spec.DepVec, int, error) {
	r, n, err := DecodeDeltaRecord(b)
	return r.C, r.D, n, err
}

// DeltaHeader is what validating a delta record yields without decoding its
// body: enough for a log walker to skip, fold or stop, at no allocation.
type DeltaHeader struct {
	Kind    byte
	Version uint32 // slot version the record establishes (0 on FrameFull)
	Total   int    // frame length, length word through canary
	body    int    // offset of the packed counts, just past the version
}

// PeekDeltaRecord validates the delta record at the front of b — length
// word, canary, CRC32-C over the whole frame, kind byte, version varint —
// and returns its header without touching the packed counts and call. It is
// the single validation routine for delta frames: DecodeDeltaRecord is this
// plus DecodeDeltaBody. Error classes, with the truncation distinction the
// ring readers need:
//
//   - ErrIncomplete — no record (zero length word, or fewer than 4 bytes);
//   - ErrTruncated  — a record header promises bytes b does not hold, or
//     the canary has not landed: a mid-write partial, retry later;
//   - ErrTorn       — the canary landed ahead of interior bytes (CRC);
//   - ErrCorrupt    — structural garbage (bad length; or, inside a
//     CRC-intact record, bad kind or overlong version varint).
//
// The length, canary and kind rejections return the bare sentinel: a δ-log
// walk ends on its garbage tail every scan and must not pay for a message.
func PeekDeltaRecord(b []byte) (DeltaHeader, error) {
	var zero DeltaHeader
	if len(b) < 4 {
		return zero, ErrIncomplete
	}
	total := int(binary.LittleEndian.Uint32(b))
	if total == 0 {
		return zero, ErrIncomplete
	}
	if total < minDelta || total > MaxRecord {
		return zero, ErrCorrupt
	}
	if len(b) < total {
		return zero, ErrTruncated
	}
	if b[total-1] != Canary {
		return zero, ErrTruncated // write in flight
	}
	if binary.LittleEndian.Uint32(b[total-RecordTrailer:]) != Checksum(b[:total-RecordTrailer]) {
		return zero, ErrTorn
	}
	h := DeltaHeader{Kind: b[4], Total: total}
	switch h.Kind {
	case FrameFull, FrameDelta:
	default:
		return zero, ErrCorrupt
	}
	ver, n, err := Uvarint(b[5 : total-RecordTrailer])
	if err != nil {
		return zero, asCorrupt(err)
	}
	if ver > uint64(^uint32(0)) {
		return zero, fmt.Errorf("%w: version overflows u32", ErrCorrupt)
	}
	h.Version = uint32(ver)
	h.body = 5 + n
	return h, nil
}

// DecodeDeltaBody decodes the packed counts, call and dependency record of
// the frame PeekDeltaRecord validated as h at the front of b. Every failure
// is ErrCorrupt: the frame is CRC-intact, so a field that overruns it is
// writer garbage, not a mid-write partial.
func DecodeDeltaBody(b []byte, h DeltaHeader) (DeltaRecord, error) {
	var zero DeltaRecord
	body := b[h.body : h.Total-RecordTrailer]
	counts, p, err := decodeU32Packed(body)
	if err != nil {
		return zero, asCorrupt(err)
	}
	c, d, n, err := decodePackedCall(body[p:])
	if err != nil {
		return zero, asCorrupt(err)
	}
	if p+n != len(body) {
		return zero, fmt.Errorf("%w: %d trailing bytes inside record", ErrCorrupt, len(body)-p-n)
	}
	return DeltaRecord{Kind: h.Kind, Version: h.Version, Counts: counts, C: c, D: d}, nil
}

// DecodeDeltaRecord parses a delta record from the front of b, returning
// the record and the total length consumed; error classes as for
// PeekDeltaRecord.
func DecodeDeltaRecord(b []byte) (DeltaRecord, int, error) {
	h, err := PeekDeltaRecord(b)
	if err != nil {
		return DeltaRecord{}, 0, err
	}
	r, err := DecodeDeltaBody(b, h)
	if err != nil {
		return DeltaRecord{}, 0, err
	}
	return r, h.Total, nil
}

// asCorrupt reclassifies a truncation hit inside a CRC-validated record
// body: the bytes all landed and still ran out, so the writer produced
// structural garbage, not a mid-write partial.
func asCorrupt(err error) error {
	if errors.Is(err, ErrTruncated) {
		return fmt.Errorf("%w: packed field overruns record body", ErrCorrupt)
	}
	return err
}
