package codec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"

	"hamband/internal/schema"
	"hamband/internal/spec"
)

func sampleDelta() DeltaRecord {
	return DeltaRecord{
		Kind:    FrameDelta,
		Version: 41,
		Span:    6,
		Counts:  []uint32{17, 3, 17},
		C: spec.Call{
			Method: 2, Proc: 3, Seq: 99,
			Args: spec.Args{I: []int64{-5, 1 << 33, 0}, S: []string{"k", ""}},
		},
		D: spec.DepVec{9, 9, 10, 8},
	}
}

// sampleAnchor is a summary anchor: a slot's whole summary call with its
// counts, stamped with its writer's epoch.
func sampleAnchor() DeltaRecord {
	return DeltaRecord{
		Kind:    FrameAnchor,
		Version: 41,
		Epoch:   3,
		Counts:  []uint32{17, 3, 17},
		C:       spec.Call{Method: 2, Proc: 3, Seq: 99, Args: spec.Args{I: []int64{-5, 1 << 33, 0}, S: []string{"k", ""}}},
	}
}

// TestDeltaRecordRoundTrip covers one- to five-byte versions, spans and
// epochs: the body starts where their varints' lengths put it.
func TestDeltaRecordRoundTrip(t *testing.T) {
	for _, vs := range [][2]uint32{{41, 6}, {127, 127}, {128, 128}, {1 << 20, 300}, {1<<32 - 1, 1 << 31}} {
		for _, kind := range []byte{FrameFull, FrameDelta, FrameAnchor} {
			r := sampleDelta()
			r.Kind, r.Version, r.Span = kind, vs[0], 0
			switch kind {
			case FrameDelta: // only a δ-record names a run
				r.Span = vs[1]
			case FrameAnchor: // only an anchor carries an epoch
				r.Epoch = vs[1]
			}
			if kind != FrameFull { // a summary record carries a pass in place of a dependency record
				r.D, r.Pass = nil, vs[1]
			}
			b, err := EncodeDeltaRecord(r)
			if err != nil {
				t.Fatal(err)
			}
			got, n, err := DecodeDeltaRecord(b)
			if err != nil {
				t.Fatalf("kind 0x%02x v%d: %v", kind, r.Version, err)
			}
			if n != len(b) {
				t.Fatalf("consumed %d of %d", n, len(b))
			}
			if !reflect.DeepEqual(got, r) {
				t.Fatalf("round trip:\n got %+v\nwant %+v", got, r)
			}
			// Self-delimiting: decoding from a longer buffer consumes only the
			// record.
			got2, n2, err := DecodeDeltaRecord(append(append([]byte(nil), b...), 0xEE, 0xEE))
			if err != nil || n2 != len(b) || !reflect.DeepEqual(got2, r) {
				t.Fatalf("decode with trailing bytes: n=%d err=%v", n2, err)
			}
		}
	}
}

// TestBundledCallsRoundTrip: for every update method of the 18 bundled classes,
// random calls — the class generator's, and the same with string arguments
// added — with empty and full-width dependency records, with and without
// applied counts, under all three kinds, encode to bytes that decode to the
// record and re-encode to the same bytes.
func TestBundledCallsRoundTrip(t *testing.T) {
	const nodes = 7
	r := rand.New(rand.NewSource(22))
	classes := schema.Bundled()
	if len(classes) != 18 {
		t.Fatalf("%d bundled classes, want 18", len(classes))
	}
	for _, cls := range classes {
		for _, u := range cls.UpdateMethods() {
			for trial := 0; trial < 40; trial++ {
				rec := DeltaRecord{Kind: FrameFull, C: cls.Gen.Call(r, u)}
				rec.C.Proc, rec.C.Seq = spec.ProcID(r.Intn(nodes)), uint64(r.Int63())>>uint(r.Intn(64))
				if trial%2 == 1 {
					rec.C.Args.S = append(rec.C.Args.S, strings.Repeat("é", r.Intn(40)), "")
				}
				if trial%4 >= 2 {
					rec.D = make(spec.DepVec, nodes*max(1, len(cls.DependsOn[u])))
					for i := range rec.D {
						rec.D[i] = uint32(r.Int63()) >> uint(r.Intn(32))
					}
				}
				if trial%8 >= 4 {
					rec.Kind, rec.Version = FrameDelta, max(1, uint32(r.Int63()))
					if rec.Span = 1 + uint32(r.Int63n(int64(min(rec.Version, 1<<10)))); trial%16 >= 8 {
						rec.Kind, rec.Span, rec.Epoch = FrameAnchor, 0, uint32(r.Int63())>>uint(r.Intn(32))
					}
					rec.Counts = make([]uint32, 1+r.Intn(4))
					for i := range rec.Counts {
						rec.Counts[i] = uint32(r.Intn(1 << 20))
					}
					rec.D, rec.Pass = nil, uint32(len(rec.D))<<uint(r.Intn(20))
				}
				b, err := AppendDeltaRecord([]byte("prefix"), rec)
				if err != nil {
					t.Fatalf("%s.%s: %v", cls.Name, cls.Methods[u].Name, err)
				}
				got, n, err := DecodeDeltaRecord(b[6:])
				if err != nil || n != len(b)-6 {
					t.Fatalf("%s.%s: decoded %d of %d bytes, %v", cls.Name, cls.Methods[u].Name, n, len(b)-6, err)
				}
				if got.Kind != rec.Kind || got.Version != rec.Version || got.Span != rec.Span || got.Epoch != rec.Epoch || got.C.Method != rec.C.Method ||
					got.C.Proc != rec.C.Proc || got.C.Seq != rec.C.Seq || !got.C.Args.Equal(rec.C.Args) ||
					!slices.Equal(got.Counts, rec.Counts) || !slices.Equal(got.D, rec.D) || got.Pass != rec.Pass {
					t.Fatalf("%s.%s round trip:\n got %+v\nwant %+v", cls.Name, cls.Methods[u].Name, got, rec)
				}
				if re, err := EncodeDeltaRecord(got); err != nil || !bytes.Equal(re, b[6:]) {
					t.Fatalf("%s.%s: re-encoding differs (%v):\n got %x\nwant %x", cls.Name, cls.Methods[u].Name, err, re, b[6:])
				}
			}
		}
	}
}

// TestBareCallIsTheRecordLessItsFrame pins the bare call's size: for every
// update method of the 18 bundled classes, with empty and full-width
// dependency records, AppendCall is exactly 12 bytes shorter than the framed
// FrameFull record of the same call — length word, kind, version, empty
// counts and trailer — and is that record's body byte for byte. A carrier
// that went back to shipping the framed record would pay those 12 bytes a call
// again; this fails first. Every call decodes back (DecodeCall) to itself.
func TestBareCallIsTheRecordLessItsFrame(t *testing.T) {
	const nodes, frame = 7, 12
	r := rand.New(rand.NewSource(50))
	for _, cls := range schema.Bundled() {
		for _, u := range cls.UpdateMethods() {
			for trial := 0; trial < 8; trial++ {
				c := cls.Gen.Call(r, u)
				c.Proc, c.Seq = spec.ProcID(r.Intn(nodes)), uint64(r.Int63())>>uint(r.Intn(64))
				var d spec.DepVec
				if trial%2 == 1 {
					d = make(spec.DepVec, nodes*max(1, len(cls.DependsOn[u])))
					for i := range d {
						d[i] = uint32(r.Int63()) >> uint(r.Intn(32))
					}
				}
				bare := AppendCall([]byte("prefix"), c, d)[6:]
				framed, err := EncodeDeltaRecord(DeltaRecord{Kind: FrameFull, C: c, D: d})
				if err != nil {
					t.Fatal(err)
				}
				if len(framed)-len(bare) != frame || !bytes.Equal(framed[7:len(framed)-RecordTrailer], bare) {
					t.Fatalf("%s.%s: bare call %d bytes, framed record %d; want the record's body, %d bytes shorter",
						cls.Name, cls.Methods[u].Name, len(bare), len(framed), frame)
				}
				var got DeltaRecord
				if n, err := DecodeCall(&got, bare); err != nil || n != len(bare) || got.C.Method != c.Method || got.C.Proc != c.Proc ||
					got.C.Seq != c.Seq || !got.C.Args.Equal(c.Args) || !slices.Equal(got.D, d) {
					t.Fatalf("%s.%s: DecodeCall took %d of %d bytes (%v): %+v, want %+v D=%v", cls.Name, cls.Methods[u].Name, n, len(bare), err, got, c, d)
				}
			}
		}
	}
}

// TestDepVecPackingShrinks: a buffered call's dependency record travels
// packed, so 64 neighbouring cells cost about a byte each, not four, and
// come back as they went.
func TestDepVecPackingShrinks(t *testing.T) {
	d := make(spec.DepVec, 64)
	for i := range d {
		d[i] = uint32(1000 + i%3)
	}
	c := spec.Call{Method: 1, Proc: 2, Seq: 3}
	bare, err := AppendDeltaRecord(nil, DeltaRecord{Kind: FrameFull, C: c})
	if err != nil {
		t.Fatal(err)
	}
	b, err := AppendDeltaRecord(nil, DeltaRecord{Kind: FrameFull, C: c, D: d})
	if err != nil {
		t.Fatal(err)
	}
	if packed := len(b) - len(bare) + 1; packed >= 4*len(d) { // +1: the bare record's empty vector
		t.Fatalf("packed DepVec is %d bytes for %d cells; want < %d", packed, len(d), 4*len(d))
	}
	got, n, err := DecodeDeltaRecord(b)
	if err != nil || n != len(b) {
		t.Fatalf("decode: n=%d err=%v", n, err)
	}
	if !reflect.DeepEqual(got.D, d) {
		t.Fatalf("round trip mismatch: %v != %v", got.D, d)
	}
}

// TestIntArgsPackAsDeltas: int args pack like the DepVec, each as the zigzag
// delta from the one before, the first from 0. A one-arg call packs as it did
// when each arg was its own zigzag value; a sorted run of nearby keys costs its
// first key and then a byte a key; the extremes, whose deltas wrap, round trip;
// and args alternating between MinInt64 and 0 still cost ten bytes each.
func TestIntArgsPackAsDeltas(t *testing.T) {
	argBytes := func(args ...int64) int {
		t.Helper()
		c := spec.Call{Method: 1, Proc: 2, Seq: 3, Args: spec.Args{I: args}}
		b, err := AppendDeltaRecord(nil, DeltaRecord{Kind: FrameFull, C: c})
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := DecodeDeltaRecord(b)
		if err != nil || !reflect.DeepEqual(got.C.Args.I, c.Args.I) {
			t.Fatalf("args %v decode to %v, %v", args, got.C.Args.I, err)
		}
		bare, _ := AppendDeltaRecord(nil, DeltaRecord{Kind: FrameFull, C: spec.Call{Method: 1, Proc: 2, Seq: 3}})
		return len(b) - len(bare)
	}
	for _, v := range []int64{0, 1, -1, 63, -64, 1 << 40, math.MinInt64, math.MaxInt64} {
		if got, want := argBytes(v), len(AppendUvarint(nil, zigzag(v))); got != want {
			t.Fatalf("one arg %d packs to %d bytes, want %d", v, got, want)
		}
	}
	keys := make([]int64, 16)
	for i := range keys {
		keys[i] = 1<<40 + int64(i)
	}
	if got, want := argBytes(keys...), len(AppendUvarint(nil, zigzag(keys[0])))+len(keys)-1; got != want {
		t.Fatalf("16 sorted neighbouring keys pack to %d bytes, want %d", got, want)
	}
	argBytes(math.MaxInt64, math.MinInt64, math.MaxInt64, 0, -1, math.MinInt64)
	alternating := make([]int64, 8)
	for i := 0; i < len(alternating); i += 2 {
		alternating[i] = math.MinInt64
	}
	if got := argBytes(alternating...); got != 10*len(alternating) {
		t.Fatalf("8 args alternating MinInt64 and 0 pack to %d bytes, want 80", got)
	}
}

// TestDepVecRandomRoundTrip: dependency records of any width and any u32
// cells, behind a prefix, decode to themselves.
func TestDepVecRandomRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		d := make(spec.DepVec, r.Intn(20))
		for i := range d {
			d[i] = uint32(r.Int63n(1 << 32))
		}
		b, err := AppendDeltaRecord([]byte("prefix"), DeltaRecord{Kind: FrameFull, C: spec.Call{Method: 1}, D: d})
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		got, n, err := DecodeDeltaRecord(b[6:])
		if err != nil || n != len(b)-6 {
			t.Fatalf("trial %d: n=%d err=%v", trial, n, err)
		}
		if len(d) == 0 && len(got.D) == 0 {
			continue
		}
		if !reflect.DeepEqual(got.D, d) {
			t.Fatalf("trial %d: %v != %v", trial, got.D, d)
		}
	}
}

// TestDeltaTruncationSweep: every proper prefix of a valid record must decode
// as a retryable mid-write partial (ErrIncomplete or ErrTruncated), never as
// success, corruption or a torn frame — a ring reader polling mid-write must
// keep waiting, not park.
func TestDeltaTruncationSweep(t *testing.T) {
	b, err := EncodeDeltaRecord(sampleDelta())
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < len(b); k++ {
		_, _, derr := DecodeDeltaRecord(b[:k])
		if derr == nil {
			t.Fatalf("prefix %d/%d decoded successfully", k, len(b))
		}
		if !errors.Is(derr, ErrIncomplete) {
			t.Fatalf("prefix %d/%d: err = %v, want a retryable incomplete/truncated error", k, len(b), derr)
		}
		if k >= 4 && !errors.Is(derr, ErrTruncated) {
			t.Fatalf("prefix %d/%d: err = %v, want ErrTruncated once the header landed", k, len(b), derr)
		}
	}
}

// TestEntryTruncationDistinguished: a buffered call's record cut short is
// ErrTruncated (retry), not ErrCorrupt (park), and ErrTruncated still
// satisfies errors.Is(_, ErrIncomplete) for callers that only branch on
// retryability.
func TestEntryTruncationDistinguished(t *testing.T) {
	b, err := encodeCall(spec.Call{Method: 1, Proc: 2, Seq: 3,
		Args: spec.Args{I: []int64{7}, S: []string{"s"}}}, spec.DepVec{1, 2})
	if err != nil {
		t.Fatal(err)
	}
	for k := 4; k < len(b); k++ {
		_, _, _, derr := decodeCall(b[:k])
		if !errors.Is(derr, ErrTruncated) {
			t.Fatalf("prefix %d/%d: err = %v, want ErrTruncated", k, len(b), derr)
		}
		if !errors.Is(derr, ErrIncomplete) {
			t.Fatalf("prefix %d/%d: ErrTruncated must wrap ErrIncomplete", k, len(b))
		}
		if errors.Is(derr, ErrCorrupt) {
			t.Fatalf("prefix %d/%d classified corrupt; ring readers would park", k, len(b))
		}
	}
}

// reframe recomputes the CRC trailer of a hand-mutated record so structural
// checks are exercised behind a valid checksum.
func reframe(b []byte) []byte {
	binary.LittleEndian.PutUint32(b[len(b)-RecordTrailer:], Checksum(b[:len(b)-RecordTrailer]))
	b[len(b)-1] = Canary
	return b
}

// TestOverlongVarintRejected checks non-canonical varints inside a
// CRC-intact record decode as ErrCorrupt: an overlong encoding is writer
// garbage, never a second representation of the same record.
func TestOverlongVarintRejected(t *testing.T) {
	good, err := EncodeDeltaRecord(sampleDelta())
	if err != nil {
		t.Fatal(err)
	}
	// The version varint starts at offset 5 (len word + kind). Version 41
	// encodes as one byte 0x29; rewrite it as the overlong 0xA9 0x00.
	if good[5] != 0x29 {
		t.Fatalf("fixture drift: version byte = 0x%02x", good[5])
	}
	bad := make([]byte, 0, len(good)+1)
	bad = append(bad, good[:5]...)
	bad = append(bad, 0xA9, 0x00)
	bad = append(bad, good[6:len(good)-RecordTrailer]...)
	bad = append(bad, make([]byte, RecordTrailer)...)
	binary.LittleEndian.PutUint32(bad, uint32(len(bad)))
	reframe(bad)
	if _, _, derr := DecodeDeltaRecord(bad); !errors.Is(derr, ErrCorrupt) {
		t.Fatalf("overlong varint: err = %v, want ErrCorrupt", derr)
	}

	// Direct decoder check, including the >10-byte form.
	if _, _, derr := Uvarint([]byte{0x80, 0x00}); !errors.Is(derr, ErrCorrupt) {
		t.Fatalf("Uvarint(0x80 0x00) = %v, want ErrCorrupt", derr)
	}
	over := bytes.Repeat([]byte{0x80}, 10)
	over = append(over, 0x02)
	if _, _, derr := Uvarint(over); !errors.Is(derr, ErrCorrupt) {
		t.Fatalf("11-byte varint: err = %v, want ErrCorrupt", derr)
	}
	if _, _, derr := Uvarint([]byte{0x80}); !errors.Is(derr, ErrTruncated) {
		t.Fatalf("mid-varint end of buffer: err = %v, want ErrTruncated", derr)
	}
}

// TestDeltaRecordTornAndCorrupt covers the remaining error classes, on a
// δ-record and on an anchor: flipped interior bytes behind an intact canary
// are ErrTorn; an unknown kind byte behind a valid CRC is ErrCorrupt; a field
// overrunning the CRC-validated body is ErrCorrupt, not truncation; and an
// anchor's epoch beyond u32 is ErrCorrupt.
func TestDeltaRecordTornAndCorrupt(t *testing.T) {
	for _, rec := range []DeltaRecord{sampleDelta(), sampleAnchor()} {
		good, err := EncodeDeltaRecord(rec)
		if err != nil {
			t.Fatal(err)
		}
		torn := append([]byte(nil), good...)
		torn[7] ^= 0xFF
		if _, _, derr := DecodeDeltaRecord(torn); !errors.Is(derr, ErrTorn) {
			t.Fatalf("kind %#x, interior flip: err = %v, want ErrTorn", rec.Kind, derr)
		}
		badkind := append([]byte(nil), good...)
		badkind[4] = 0x07
		reframe(badkind)
		if _, _, derr := DecodeDeltaRecord(badkind); !errors.Is(derr, ErrCorrupt) {
			t.Fatalf("kind %#x, bad kind: err = %v, want ErrCorrupt", rec.Kind, derr)
		}
		// 0xF3 was an anchor kind both switches accepted but nothing ever
		// encoded; retired, it is as corrupt as any other unknown kind, on the
		// header step, the full decode and the encoder alike.
		retired := retiredKindFrame(good)
		if _, derr := PeekDeltaRecord(retired); !errors.Is(derr, ErrCorrupt) {
			t.Fatalf("kind %#x, retired kind 0xF3, header: err = %v, want ErrCorrupt", rec.Kind, derr)
		}
		if _, _, derr := DecodeDeltaRecord(retired); !errors.Is(derr, ErrCorrupt) {
			t.Fatalf("kind %#x, retired kind 0xF3, decode: err = %v, want ErrCorrupt", rec.Kind, derr)
		}
		r := rec
		r.Kind = 0xF3
		if _, eerr := EncodeDeltaRecord(r); !errors.Is(eerr, ErrCorrupt) {
			t.Fatalf("kind %#x, retired kind 0xF3, encode: err = %v, want ErrCorrupt", rec.Kind, eerr)
		}
		// Truncate the body but keep the frame CRC-valid: a varint that runs
		// off the end of a *complete* record is corruption.
		short := append([]byte(nil), good[:len(good)-RecordTrailer-3]...)
		short = append(short, make([]byte, RecordTrailer)...)
		binary.LittleEndian.PutUint32(short, uint32(len(short)))
		reframe(short)
		if _, _, derr := DecodeDeltaRecord(short); !errors.Is(derr, ErrCorrupt) {
			t.Fatalf("kind %#x, overrunning field in CRC-valid record: err = %v, want ErrCorrupt", rec.Kind, derr)
		}
	}
	wide := epochFrame(sampleAnchor(), 1<<32)
	if _, derr := PeekDeltaRecord(wide); !errors.Is(derr, ErrCorrupt) {
		t.Fatalf("epoch 2^32, header: err = %v, want ErrCorrupt", derr)
	}
	if _, _, derr := DecodeDeltaRecord(wide); !errors.Is(derr, ErrCorrupt) {
		t.Fatalf("epoch 2^32, decode: err = %v, want ErrCorrupt", derr)
	}
}

// epochFrame encodes anchor r with its epoch varint replaced by epoch, which
// may exceed u32, behind a recomputed CRC.
func epochFrame(r DeltaRecord, epoch uint64) []byte {
	r.Epoch = 0
	good, err := EncodeDeltaRecord(r)
	if err != nil {
		panic(err)
	}
	at := 5 + UvarintLen(uint64(r.Version)) // the epoch varint, one byte for 0
	b := AppendUvarint(append([]byte(nil), good[:at]...), epoch)
	b = append(b, good[at+1:]...)
	binary.LittleEndian.PutUint32(b, uint32(len(b)))
	return reframe(b)
}

// spanFrame rewrites the span byte of sampleDelta's encoding (version 41, a
// one-byte span behind a one-byte version) behind a recomputed CRC.
func spanFrame(good []byte, span byte) []byte {
	b := append([]byte(nil), good...)
	b[6] = span
	return reframe(b)
}

// TestDeltaSpanBounds: a δ-record names 1..version calls. The header step and
// the full decode reject a span of zero or beyond the version as corrupt, the
// encoder refuses a span beyond the version and reads a zero span as one call,
// and a one-call δ-record is one byte, the span, longer than the same call
// under FrameFull at a one-byte version.
func TestDeltaSpanBounds(t *testing.T) {
	good, err := EncodeDeltaRecord(sampleDelta())
	if err != nil {
		t.Fatal(err)
	}
	if h, err := PeekDeltaRecord(good); err != nil || h.Span != 6 || h.First() != 36 {
		t.Fatalf("sample header: %+v (first v%d), %v; want span 6 from v36", h, h.First(), err)
	}
	for _, span := range []byte{0, 42} {
		b := spanFrame(good, span)
		if _, err := PeekDeltaRecord(b); !errors.Is(err, ErrCorrupt) {
			t.Errorf("span %d at v41, header: err = %v, want ErrCorrupt", span, err)
		}
		if _, _, err := DecodeDeltaRecord(b); !errors.Is(err, ErrCorrupt) {
			t.Errorf("span %d at v41, decode: err = %v, want ErrCorrupt", span, err)
		}
	}
	r := sampleDelta()
	r.Span = 42
	if _, err := EncodeDeltaRecord(r); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("encoding span 42 at v41: err = %v, want ErrCorrupt", err)
	}
	r.Span, r.D = 0, nil // a summary record's pass takes the empty dependency record's byte
	one, err := EncodeDeltaRecord(r)
	if err != nil {
		t.Fatal(err)
	}
	if h, err := PeekDeltaRecord(one); err != nil || h.Span != 1 {
		t.Fatalf("a zero span encodes as %+v, %v; want one call", h, err)
	}
	r.Kind = FrameFull
	full, err := EncodeDeltaRecord(r)
	if err != nil {
		t.Fatal(err)
	}
	if grow := len(one) - len(full); grow != 1 {
		t.Fatalf("a one-call δ-record is %d bytes longer than its FrameFull, want 1", grow)
	}
}

// retiredKindFrame rewrites a valid record's kind byte to the retired 0xF3
// behind a recomputed CRC.
func retiredKindFrame(good []byte) []byte {
	b := append([]byte(nil), good...)
	b[4] = 0xF3
	return reframe(b)
}

// errClass names the declared error value err wraps, most specific first
// (ErrTruncated wraps ErrIncomplete).
func errClass(err error) string {
	for _, c := range []struct {
		err  error
		name string
	}{{ErrTruncated, "truncated"}, {ErrIncomplete, "incomplete"}, {ErrTorn, "torn"},
		{ErrCorrupt, "corrupt"}, {ErrTooLarge, "too-large"}} {
		if errors.Is(err, c.err) {
			return c.name
		}
	}
	if err == nil {
		return "ok"
	}
	return "unclassified: " + err.Error()
}

// longDelta is a record longer than any seed in every field the decoder
// reuses: counts, int and string arguments, and dependency cells.
func longDelta() DeltaRecord {
	r := DeltaRecord{Kind: FrameFull, Version: 0, C: spec.Call{Method: 9, Proc: 6, Seq: 1 << 40}}
	for i := 0; i < 48; i++ {
		r.Counts = append(r.Counts, uint32(1000+i))
		r.C.Args.I = append(r.C.Args.I, int64(-i)<<20)
		r.C.Args.S = append(r.C.Args.S, strings.Repeat("s", i))
		r.D = append(r.D, uint32(7*i))
	}
	return r
}

// sameRecord reports whether two decoded records hold the same fields,
// element for element: a slice with a leftover cell differs in length.
func sameRecord(a, b DeltaRecord) bool {
	return a.Kind == b.Kind && a.Version == b.Version && a.Span == b.Span && a.Epoch == b.Epoch && slices.Equal(a.Counts, b.Counts) &&
		a.C.Method == b.C.Method && a.C.Proc == b.C.Proc && a.C.Seq == b.C.Seq &&
		a.C.Args.Equal(b.C.Args) && slices.Equal(a.D, b.D)
}

// FuzzDeltaEntry asserts the call-record decoder never panics, never
// over-reads, and classifies every failure as one of the declared error
// values on arbitrary remote bytes — and that the header step the δ-log walk
// uses on its own (PeekDeltaRecord) never disagrees with the full decode: a
// frame the header rejects, the decoder rejects with the same class; a
// frame the header accepts decodes to the same kind, version, span or epoch
// and length, or fails as corrupt in its body and nothing else. A body decoded into a
// record that already holds an earlier, longer decode (a reader's scratch
// record) fails as the fresh decode does, or equals it with no leftover
// count, argument or dependency cell.
func FuzzDeltaEntry(f *testing.F) {
	long, err := EncodeDeltaRecord(longDelta())
	if err != nil {
		f.Fatal(err)
	}
	longHdr, err := PeekDeltaRecord(long)
	if err != nil {
		f.Fatal(err)
	}
	good, _ := EncodeDeltaRecord(sampleDelta())
	f.Add(good)
	f.Add([]byte{})
	f.Add(make([]byte, 64))
	f.Add(good[:len(good)/2])
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, FrameDelta, 1, 2})
	bad := append([]byte(nil), good...)
	bad[len(bad)-1] ^= 0xff
	f.Add(bad)
	full, _ := EncodeDeltaRecord(DeltaRecord{Kind: FrameFull,
		C: spec.Call{Method: 1}, D: spec.DepVec{1}})
	f.Add(full)
	f.Add(retiredKindFrame(good))
	f.Add(spanFrame(good, 0))
	f.Add(spanFrame(good, 42))
	// Torn: the canary landed ahead of an interior byte.
	torn := append([]byte(nil), good...)
	torn[7] ^= 0xff
	f.Add(torn)
	// A header-valid frame whose body overruns: only the body step can tell.
	short := append([]byte(nil), good[:len(good)-RecordTrailer-3]...)
	short = append(short, make([]byte, RecordTrailer)...)
	binary.LittleEndian.PutUint32(short, uint32(len(short)))
	reframe(short)
	f.Add(short)
	// Two records back to back, as a δ-log holds them.
	f.Add(append(append([]byte(nil), good...), full...))
	// A buffered call with arguments and dependencies, cut in half, and with
	// its canary flipped; a hostile length word over a tiny buffer.
	call, _ := encodeCall(spec.Call{Method: 3, Proc: 1, Seq: 9,
		Args: spec.Args{I: []int64{1, 2}, S: []string{"x"}}}, spec.DepVec{4, 5})
	f.Add(call)
	f.Add(call[:len(call)/2])
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, 1, 2, 3})
	nocanary := append([]byte(nil), call...)
	nocanary[len(nocanary)-1] ^= 0xff
	f.Add(nocanary)
	// A summary anchor, whole and with an epoch beyond u32.
	anchor, _ := EncodeDeltaRecord(sampleAnchor())
	f.Add(anchor)
	f.Add(epochFrame(sampleAnchor(), 1<<32))
	f.Fuzz(func(t *testing.T, data []byte) {
		h, herr := PeekDeltaRecord(data)
		r, n, err := DecodeDeltaRecord(data)
		switch {
		case herr != nil:
			if err == nil || errClass(err) != errClass(herr) {
				t.Fatalf("header rejects as %v, decoder says %v", herr, err)
			}
		case err != nil:
			if errClass(err) != "corrupt" {
				t.Fatalf("header accepts, decoder fails as %v; a body can only be corrupt", err)
			}
		case h.Kind != r.Kind || h.Version != r.Version || h.Span != r.Span+r.Epoch || h.Total != n:
			t.Fatalf("header (kind %#x, v%d, span %d, %d B) disagrees with decode (kind %#x, v%d, span %d, epoch %d, %d B)",
				h.Kind, h.Version, h.Span, h.Total, r.Kind, r.Version, r.Span, r.Epoch, n)
		case r.Span != 0 && r.Epoch != 0:
			t.Fatalf("decode gives a record both a span and an epoch: %+v", r)
		case h.Kind == FrameDelta && (h.Span == 0 || h.Span > h.Version):
			t.Fatalf("header accepts a δ-record spanning %d calls up to v%d", h.Span, h.Version)
		}
		if herr == nil {
			var reused DeltaRecord
			if err := DecodeDeltaBody(&reused, long, longHdr); err != nil {
				t.Fatal(err)
			}
			rerr := DecodeDeltaBody(&reused, data, h)
			if errClass(rerr) != errClass(err) {
				t.Fatalf("decoding into a used record fails as %v, a fresh decode as %v", rerr, err)
			}
			if err == nil && !sameRecord(reused, r) {
				t.Fatalf("decoding into a used record gives %+v, a fresh decode %+v", reused, r)
			}
		}
		if err != nil {
			if strings.HasPrefix(errClass(err), "unclassified") {
				t.Fatalf("unclassified error %v", err)
			}
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("consumed %d of %d bytes", n, len(data))
		}
		// A successful decode must re-encode to the identical bytes —
		// canonical varints make the encoding bijective.
		re, eerr := EncodeDeltaRecord(r)
		if eerr != nil {
			t.Fatalf("re-encode failed: %v", eerr)
		}
		if !bytes.Equal(re, data[:n]) {
			t.Fatalf("re-encode differs:\n got %x\nwant %x", re, data[:n])
		}
	})
}

// FuzzCall holds the bare call to its contract on arbitrary bytes: no input
// panics; every failure is ErrCorrupt (a bare call is read only from bytes its
// carrier's frame validated); whatever decodes re-encodes to exactly the bytes
// it took, and every strict prefix of those bytes fails; the same bytes with
// their first varint rewritten overlong fail; and decoding into a record that
// holds an earlier, longer decode gives the fresh decode.
func FuzzCall(f *testing.F) {
	long := longDelta()
	sample := sampleDelta()
	good := AppendCall(nil, sample.C, sample.D)
	f.Add(good)
	f.Add(AppendCall(nil, spec.Call{}, nil))
	f.Add(AppendCall(nil, long.C, long.D))
	f.Add(append(AppendCall(nil, spec.Call{Method: 1, Seq: 2}, spec.DepVec{1}), good...)) // two calls back to back
	f.Add(good[:len(good)/2])
	f.Add([]byte{})
	f.Add([]byte{0x80, 0x00})                         // an overlong method
	f.Add([]byte{1, 0, 1, 0xff, 0xff, 0xff, 0x7f, 0}) // an int-arg count past the buffer
	f.Fuzz(func(t *testing.T, data []byte) {
		var r DeltaRecord
		n, err := DecodeCall(&r, data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("DecodeCall fails as %v, want ErrCorrupt", err)
			}
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("DecodeCall took %d of %d bytes", n, len(data))
		}
		if re := AppendCall(nil, r.C, r.D); !bytes.Equal(re, data[:n]) {
			t.Fatalf("re-encode differs:\n got %x\nwant %x", re, data[:n])
		}
		for i := 0; i < n; i++ {
			if _, err := DecodeCall(&DeltaRecord{}, data[:i]); !errors.Is(err, ErrCorrupt) {
				t.Fatalf("a %d-byte prefix of a %d-byte call decodes (%v)", i, n, err)
			}
		}
		_, m, _ := Uvarint(data)
		over := append(append(append([]byte(nil), data[:m-1]...), data[m-1]|0x80, 0), data[m:n]...)
		if _, err := DecodeCall(&DeltaRecord{}, over); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("the call with an overlong method varint %x decodes (%v)", over, err)
		}
		reused := DeltaRecord{}
		if _, err := DecodeCall(&reused, AppendCall(nil, long.C, long.D)); err != nil {
			t.Fatal(err)
		}
		if rn, err := DecodeCall(&reused, data); err != nil || rn != n || !sameRecord(reused, r) {
			t.Fatalf("decoding into a used record gives %+v (%d bytes, %v), a fresh decode %+v (%d bytes)", reused, rn, err, r, n)
		}
	})
}

// TestAppendDeltaRecordInPlace: the append-style encoder writes the record
// EncodeDeltaRecord returns, behind whatever dst already holds and with a CRC
// over the record alone, allocates nothing when dst has room, and hands dst
// back as it was when the record cannot be encoded.
func TestAppendDeltaRecordInPlace(t *testing.T) {
	r := sampleDelta()
	want, err := EncodeDeltaRecord(r)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 0, 256)
	var got []byte
	allocs := testing.AllocsPerRun(1000, func() {
		got, _ = AppendDeltaRecord(append(buf[:0], "prefix"...), r)
	})
	if allocs != 0 {
		t.Errorf("appending a record to a buffer with capacity allocates %.1f objects, want 0", allocs)
	}
	if &got[0] != &buf[:1][0] {
		t.Fatal("the record left the buffer it was given")
	}
	if string(got[:6]) != "prefix" || !bytes.Equal(got[6:], want) {
		t.Fatalf("appended record differs from EncodeDeltaRecord:\n got %x\nwant %x", got[6:], want)
	}
	if dec, n, err := DecodeDeltaRecord(got[6:]); err != nil || n != len(want) || dec.Version != r.Version {
		t.Fatalf("DecodeDeltaRecord = v%d, %d bytes, %v", dec.Version, n, err)
	}
	r.Kind = 0x07
	if b, err := AppendDeltaRecord(got[:6], r); !errors.Is(err, ErrCorrupt) || len(b) != 6 {
		t.Fatalf("unknown kind: %d bytes, err = %v; want dst unextended and ErrCorrupt", len(b), err)
	}
}
