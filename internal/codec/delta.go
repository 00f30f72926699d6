// The call and the call record: the one serialization of a call and what
// travels with it. A call (AppendCall) is bare — method, proc, seq, args and
// dependency record, packed — and rides inside a frame that validates it: a
// ring record, a journal or backup slot, a message. A call record is a call
// framed on its own, for what is written into a summary slot as a write of
// its own and torn-checked alone: a self-delimiting, CRC-validated frame,
//
//	u32 total | kind | uvarint version | [uvarint span | uvarint epoch] | packed counts | packed call | u32 crc | canary
//
// whose kind byte names its role: FrameAnchor a summary anchor, a slot's whole
// summary call with its applied counts and the configuration epoch its writer
// stamped; FrameDelta a δ-group of a slot's δ-log: the span ≥ 1 reducible
// calls that took the slot to version, folded by their group's Summarize into
// one call (Almeida et al.: a join of δ-mutations is itself a δ-mutation, and
// a δ and the state it joins into share a format); and FrameFull a bare call
// framed alone, which no runtime path writes (EncodeEntry). Only FrameDelta
// carries the span; it covers versions version−span+1 through version. Only
// FrameAnchor carries the epoch, in the same place.
//
// All integers are varint-packed; spec.DepVec, the per-method applied
// counts and the call's int args use a columnar delta encoding (first value,
// then zigzag deltas between consecutive values) since neighbouring counts are
// near each other and a set's elements travel sorted. Varints must be
// canonical: an overlong encoding (a value that fits fewer bytes, or more than
// ten bytes) decodes as ErrCorrupt, never as a second representation of the
// same record. The headers mu and broadcast pack ahead of their raw ring
// records are runs of the same varints (Uvarints).
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"

	"hamband/internal/spec"
)

// Call-record kinds.
const (
	FrameFull   byte = 0xF1 // a bare call framed alone: EncodeEntry's only
	FrameDelta  byte = 0xF2 // a run of folded reducible calls of a slot's δ-log
	FrameAnchor byte = 0xF4 // a slot's full summary, counts and writer's epoch (0xF3 is retired)
)

// minDelta is the smallest possible call record: length word, kind,
// one-byte version, one-byte count vector, minimal packed call, trailer.
const minDelta = 4 + 1 + 1 + 1 + 6 + RecordTrailer

// DeltaRecord is the decoded form of one call record.
type DeltaRecord struct {
	Kind    byte
	Version uint32      // slot version this record establishes (0 on FrameFull)
	Span    uint32      // calls folded into C, 1..Version (FrameDelta; an encoder reads 0 as 1)
	Epoch   uint32      // configuration epoch the writer stamped (FrameAnchor)
	Counts  []uint32    // absolute per-method applied counts (summary records)
	C       spec.Call   // the call, folded call, or full summary
	D       spec.DepVec // dependency record (FrameFull; a summary record has none)
	Pass    uint32      // the δ-log pass a summary record was written in, in place of D
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

// Uvarints decodes canonical uvarints off the front of b into vs, in order,
// and returns the bytes that follow them: how a protocol layer reads the
// header it packs ahead of a raw ring record's payload. Errors as for
// Uvarint: a b that ends inside the run is ErrTruncated.
func Uvarints(b []byte, vs ...*uint64) ([]byte, error) {
	for _, v := range vs {
		x, n, err := Uvarint(b)
		if err != nil {
			return nil, err
		}
		*v, b = x, b[n:]
	}
	return b, nil
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

// resize returns s with length n, in s's own array when it has the room; a
// new array doubles s's capacity, or holds exactly n for an s without one (a
// fresh decode), and a nil s stays nil for n == 0.
func resize[T any](s []T, n int) []T {
	if n <= cap(s) {
		return s[:n]
	}
	return make([]T, n, max(n, 2*cap(s)))
}

// decodeU32Packed decodes a vector written by appendU32Packed into dst's
// array (see resize).
func decodeU32Packed(dst []uint32, b []byte) ([]uint32, int, error) {
	n, p, err := Uvarint(b)
	if err != nil {
		return nil, 0, err
	}
	// Each value costs at least one byte; a count beyond the buffer is
	// structural garbage, not a short read (the caller bounds b).
	if n > uint64(len(b)) {
		return nil, 0, fmt.Errorf("%w: packed vector count %d exceeds buffer", ErrCorrupt, n)
	}
	vs := resize(dst, int(n))
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

// appendDepVec appends a dependency record in packed columnar form.
// Neighbouring cells of a DepVec are applied counts of adjacent processes,
// so the zigzag deltas are near zero and the vector shrinks from 4 bytes a
// cell to roughly one.
func appendDepVec(b []byte, d spec.DepVec) []byte {
	return appendU32Packed(b, d)
}

// MaxDepVecBytes is the most bytes a DepVec of cells cells packs into: its
// count, then five bytes a cell, the longest zigzag delta between two u32s.
func MaxDepVecBytes(cells int) int { return UvarintLen(uint64(cells)) + 5*cells }

// AppendCall appends c and its dependency record d to b as a bare call:
//
//	uvarint method | uvarint proc | uvarint seq | int args | string args | packed DepVec
//
// the int args a count, then each arg's zigzag delta from the one before it
// (the first from 0), the string args a count, then each string's length and
// bytes — and nothing before or after it. A bare call is self-delimiting, and
// it is what every carrier of a buffered or conflicting call ships: a broadcast
// message's run of calls, a CONF payload behind its flag byte, an F or L
// buffer, the message-passing baseline's message. The ring record, journal
// slot, backup slot or message around it validates its bytes, so it needs no
// frame of its own; a call record (AppendDeltaRecord) is this body framed.
// The deltas wrap like int64 arithmetic, and the decoder adds them back the
// same way.
func AppendCall(b []byte, c spec.Call, d spec.DepVec) []byte {
	return appendDepVec(appendCallBody(b, c), d)
}

// appendCallBody appends c without its dependency record: a bare call's
// fields up to the DepVec, which a summary record replaces by its pass.
func appendCallBody(b []byte, c spec.Call) []byte {
	b = AppendUvarint(b, uint64(c.Method))
	b = AppendUvarint(b, uint64(c.Proc))
	b = AppendUvarint(b, c.Seq)
	b = AppendUvarint(b, uint64(len(c.Args.I)))
	prev := int64(0)
	for _, v := range c.Args.I {
		b = AppendUvarint(b, zigzag(v-prev))
		prev = v
	}
	b = AppendUvarint(b, uint64(len(c.Args.S)))
	for _, s := range c.Args.S {
		b = AppendUvarint(b, uint64(len(s)))
		b = append(b, s...)
	}
	return b
}

// DecodeCall decodes the bare call at the front of b (AppendCall) into dst.C
// and dst.D, reusing their arrays (see resize), and returns the bytes it took;
// dst's other fields are left as they are. Calls back to back decode one at a
// time. Every failure is ErrCorrupt: a bare call is read only out of bytes the
// frame around it validated, so a call that overruns them, or an overlong
// varint, is the writer's garbage, not a mid-write partial; dst is then left
// partly decoded. The caller decides what the call may be (a method, process
// and dependency record of its cluster's): the codec knows no class.
func DecodeCall(dst *DeltaRecord, b []byte) (int, error) {
	n, err := decodePackedCall(dst, b)
	if err != nil {
		return 0, asCorrupt(err)
	}
	return n, nil
}

// decodePackedCall is DecodeCall with Uvarint's error classes.
func decodePackedCall(dst *DeltaRecord, b []byte) (int, error) {
	p, err := decodeCallBody(dst, b)
	if err != nil {
		return 0, err
	}
	d, n, err := decodeU32Packed(dst.D, b[p:])
	if err != nil {
		return 0, err
	}
	dst.D = d
	return p + n, nil
}

// decodeCallBody decodes what appendCallBody wrote into dst.C and returns
// the bytes it took.
func decodeCallBody(dst *DeltaRecord, b []byte) (int, error) {
	c := &dst.C
	p := 0
	next := func() (uint64, error) {
		v, n, err := Uvarint(b[p:])
		p += n
		return v, err
	}
	m, err := next()
	if err != nil {
		return 0, err
	}
	pr, err := next()
	if err != nil {
		return 0, err
	}
	seq, err := next()
	if err != nil {
		return 0, err
	}
	c.Method = spec.MethodID(m)
	c.Proc = spec.ProcID(pr)
	c.Seq = seq
	ni, err := next()
	if err != nil {
		return 0, err
	}
	if ni > uint64(len(b)-p) {
		return 0, fmt.Errorf("%w: %d int args exceed buffer", ErrCorrupt, ni)
	}
	c.Args.I = resize(c.Args.I, int(ni))
	prev := int64(0)
	for i := range c.Args.I {
		u, err := next()
		if err != nil {
			return 0, err
		}
		prev += unzigzag(u)
		c.Args.I[i] = prev
	}
	ns, err := next()
	if err != nil {
		return 0, err
	}
	if ns > uint64(len(b)-p) {
		return 0, fmt.Errorf("%w: %d string args exceed buffer", ErrCorrupt, ns)
	}
	c.Args.S = resize(c.Args.S, int(ns))
	for i := range c.Args.S {
		l, err := next()
		if err != nil {
			return 0, err
		}
		if l > uint64(len(b)-p) {
			return 0, fmt.Errorf("%w: string length %d exceeds buffer", ErrCorrupt, l)
		}
		c.Args.S[i] = string(b[p : p+int(l)])
		p += int(l)
	}
	return p, nil
}

// AppendDeltaRecord appends one call record to dst as a self-delimiting frame
// and returns the extended slice:
//
//	u32 total | kind | uvarint version | [uvarint span | uvarint epoch] | packed counts | packed call | u32 crc | canary
//
// The span is written for FrameDelta only, where a zero Span stands for one
// call and a Span beyond Version is refused as ErrCorrupt; the epoch for
// FrameAnchor only.
// The CRC32-C covers every byte of the record before it (length word
// included) and nothing of dst ahead of the record, so a frame that embeds a
// record is built in one buffer. With enough capacity in dst the call
// allocates nothing; on error dst comes back unextended.
func AppendDeltaRecord(dst []byte, r DeltaRecord) ([]byte, error) {
	start := len(dst)
	b := append(dst, 0, 0, 0, 0, r.Kind)
	b = AppendUvarint(b, uint64(r.Version))
	switch r.Kind {
	case FrameFull:
	case FrameDelta:
		span := max(r.Span, 1)
		if span > r.Version {
			return dst, fmt.Errorf("%w: span %d exceeds version %d", ErrCorrupt, span, r.Version)
		}
		b = AppendUvarint(b, uint64(span))
	case FrameAnchor:
		b = AppendUvarint(b, uint64(r.Epoch))
	default:
		return dst, fmt.Errorf("%w: unknown delta kind 0x%02x", ErrCorrupt, r.Kind)
	}
	b = appendU32Packed(b, r.Counts)
	if r.Kind == FrameFull {
		b = AppendCall(b, r.C, r.D)
	} else {
		b = AppendUvarint(appendCallBody(b, r.C), uint64(r.Pass))
	}
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

// EncodeEntry and DecodeEntry frame a bare call alone, as a FrameFull record,
// and read one back. No runtime path ships that frame — a call rides bare
// inside the record that carries it — so they are only the names
// benchmark/micro.go measures (codec.entry_*), and they go when that benchmark
// is unfrozen.
func EncodeEntry(c spec.Call, d spec.DepVec) ([]byte, error) {
	return EncodeDeltaRecord(DeltaRecord{Kind: FrameFull, C: c, D: d})
}

func DecodeEntry(b []byte) (spec.Call, spec.DepVec, int, error) {
	r, n, err := DecodeDeltaRecord(b)
	return r.C, r.D, n, err
}

// DeltaHeader is what validating a delta record yields without decoding its
// body: enough for a log walker to skip, fold or stop, at no allocation. It
// keeps to four fields so the compiler holds it in registers across a log
// walk; a fifth puts every return through memory, which slowed a summary
// scan's walk by about a third. So Span holds a FrameAnchor record's epoch,
// the varint in the span's place; Epoch names it.
type DeltaHeader struct {
	Kind    byte
	Version uint32 // slot version the record establishes (0 on FrameFull)
	Span    uint32 // calls the record folds, 1..Version (FrameDelta); the epoch (FrameAnchor); 0 on FrameFull
	Total   int    // frame length, length word through canary
}

// First is the first slot version a FrameDelta record covers: the record
// folds onto a slot at First−1.
func (h DeltaHeader) First() uint32 { return h.Version - h.Span + 1 }

// Epoch is the configuration epoch a FrameAnchor record's writer stamped.
func (h DeltaHeader) Epoch() uint32 { return h.Span }

// bodyOffset is where the packed counts start: past the length word, the kind
// byte and the version and span (or epoch) varints, whose lengths their
// values fix since Uvarint refuses an overlong encoding.
func (h DeltaHeader) bodyOffset() int {
	n := 5 + UvarintLen(uint64(h.Version))
	if h.Kind != FrameFull {
		n += UvarintLen(uint64(h.Span))
	}
	return n
}

// UvarintLen is the length of v's shortest uvarint encoding: what
// AppendUvarint appends.
func UvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// PeekDeltaRecord validates the delta record at the front of b — length
// word, canary, CRC32-C over the whole frame, kind byte, version varint and,
// on FrameDelta, the span varint or, on FrameAnchor, the epoch varint — and
// returns its header without touching the packed counts and call. It is
// the single validation routine for delta frames: DecodeDeltaRecord is this
// plus DecodeDeltaBody. Error classes, with the truncation distinction the
// ring readers need:
//
//   - ErrIncomplete — no record (zero length word, or fewer than 4 bytes);
//   - ErrTruncated  — a record header promises bytes b does not hold, or
//     the canary has not landed: a mid-write partial, retry later;
//   - ErrTorn       — the canary landed ahead of interior bytes (CRC);
//   - ErrCorrupt    — structural garbage (bad length; or, inside a
//     CRC-intact record, bad kind, an overlong version, span or epoch
//     varint, a span of zero or beyond the version, or an epoch beyond u32).
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
	case FrameFull, FrameDelta, FrameAnchor:
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
	if h.Kind != FrameFull {
		v, _, err := Uvarint(b[5+n : total-RecordTrailer])
		if err != nil {
			return zero, asCorrupt(err)
		}
		if h.Kind == FrameDelta && (v == 0 || v > ver) {
			return zero, fmt.Errorf("%w: span %d outside 1..%d", ErrCorrupt, v, ver)
		}
		if v > uint64(^uint32(0)) {
			return zero, fmt.Errorf("%w: epoch overflows u32", ErrCorrupt)
		}
		h.Span = uint32(v)
	}
	return h, nil
}

// DecodeDeltaBody decodes the packed counts, call and dependency record of
// the frame PeekDeltaRecord validated as h at the front of b into dst,
// reusing the arrays of dst's Counts, C.Args and D: a reader that folds one
// record at a time decodes into the same record and, once its arrays are
// large enough, allocates nothing but the string arguments. Every slice dst
// ends with holds exactly what the frame does.
// Every failure is ErrCorrupt: the frame is CRC-intact, so a field that
// overruns it is writer garbage, not a mid-write partial; dst is then left
// partly decoded.
func DecodeDeltaBody(dst *DeltaRecord, b []byte, h DeltaHeader) error {
	body := b[h.bodyOffset() : h.Total-RecordTrailer]
	counts, p, err := decodeU32Packed(dst.Counts, body)
	if err != nil {
		return asCorrupt(err)
	}
	dst.Counts = counts
	var n int
	if h.Kind == FrameFull {
		n, err = DecodeCall(dst, body[p:])
	} else {
		n, err = decodeSummaryCall(dst, body[p:])
	}
	if err != nil {
		return err
	}
	if p+n != len(body) {
		return fmt.Errorf("%w: %d trailing bytes inside record", ErrCorrupt, len(body)-p-n)
	}
	dst.Kind, dst.Version, dst.Span, dst.Epoch = h.Kind, h.Version, h.Span, 0
	if h.Kind == FrameAnchor {
		dst.Span, dst.Epoch = 0, h.Span
	}
	return nil
}

// decodeSummaryCall decodes a summary record's call and pass, the call's
// dependency record left empty; errors as for DecodeCall.
func decodeSummaryCall(dst *DeltaRecord, b []byte) (int, error) {
	p, err := decodeCallBody(dst, b)
	if err != nil {
		return 0, asCorrupt(err)
	}
	pass, n, err := Uvarint(b[p:])
	if err != nil {
		return 0, asCorrupt(err)
	}
	if pass > uint64(^uint32(0)) {
		return 0, fmt.Errorf("%w: pass overflows u32", ErrCorrupt)
	}
	dst.Pass, dst.D = uint32(pass), dst.D[:0]
	return p + n, nil
}

// DecodeDeltaRecord parses a delta record from the front of b into fresh
// storage, returning the record and the total length consumed; error classes
// as for PeekDeltaRecord.
func DecodeDeltaRecord(b []byte) (DeltaRecord, int, error) {
	h, err := PeekDeltaRecord(b)
	if err != nil {
		return DeltaRecord{}, 0, err
	}
	var r DeltaRecord
	if err := DecodeDeltaBody(&r, b, h); err != nil {
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
