package codec

import (
	"bytes"
	"encoding/binary"
	"errors"
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
		Counts:  []uint32{17, 3, 17},
		C: spec.Call{
			Method: 2, Proc: 3, Seq: 99,
			Args: spec.Args{I: []int64{-5, 1 << 33, 0}, S: []string{"k", ""}},
		},
		D: spec.DepVec{9, 9, 10, 8},
	}
}

func TestDeltaRecordRoundTrip(t *testing.T) {
	for _, kind := range []byte{FrameFull, FrameDelta} {
		r := sampleDelta()
		r.Kind = kind
		b, err := EncodeDeltaRecord(r)
		if err != nil {
			t.Fatal(err)
		}
		got, n, err := DecodeDeltaRecord(b)
		if err != nil {
			t.Fatalf("kind 0x%02x: %v", kind, err)
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

// TestBundledCallsRoundTrip: for every update method of the 18 bundled classes,
// random calls — the class generator's, and the same with string arguments
// added — with empty and full-width dependency records, with and without
// applied counts, under both kinds, encode to bytes that decode to the record
// and re-encode to the same bytes.
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
					rec.Kind, rec.Version = FrameDelta, uint32(r.Int63())
					rec.Counts = make([]uint32, 1+r.Intn(4))
					for i := range rec.Counts {
						rec.Counts[i] = uint32(r.Intn(1 << 20))
					}
				}
				b, err := AppendDeltaRecord([]byte("prefix"), rec)
				if err != nil {
					t.Fatalf("%s.%s: %v", cls.Name, cls.Methods[u].Name, err)
				}
				got, n, err := DecodeDeltaRecord(b[6:])
				if err != nil || n != len(b)-6 {
					t.Fatalf("%s.%s: decoded %d of %d bytes, %v", cls.Name, cls.Methods[u].Name, n, len(b)-6, err)
				}
				if got.Kind != rec.Kind || got.Version != rec.Version || got.C.Method != rec.C.Method ||
					got.C.Proc != rec.C.Proc || got.C.Seq != rec.C.Seq || !got.C.Args.Equal(rec.C.Args) ||
					!slices.Equal(got.Counts, rec.Counts) || !slices.Equal(got.D, rec.D) {
					t.Fatalf("%s.%s round trip:\n got %+v\nwant %+v", cls.Name, cls.Methods[u].Name, got, rec)
				}
				if re, err := EncodeDeltaRecord(got); err != nil || !bytes.Equal(re, b[6:]) {
					t.Fatalf("%s.%s: re-encoding differs (%v):\n got %x\nwant %x", cls.Name, cls.Methods[u].Name, err, re, b[6:])
				}
			}
		}
	}
}

func TestDepVecPackingShrinks(t *testing.T) {
	d := make(spec.DepVec, 64)
	for i := range d {
		d[i] = uint32(1000 + i%3)
	}
	packed := AppendDepVec(nil, d)
	if len(packed) >= 4*len(d) {
		t.Fatalf("packed DepVec is %d bytes for %d cells; want < %d", len(packed), len(d), 4*len(d))
	}
	got, n, err := DecodeDepVec(packed)
	if err != nil || n != len(packed) {
		t.Fatalf("decode: n=%d err=%v", n, err)
	}
	if !reflect.DeepEqual(got, d) {
		t.Fatalf("round trip mismatch: %v != %v", got, d)
	}
}

func TestDepVecRandomRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		d := make(spec.DepVec, r.Intn(20))
		for i := range d {
			d[i] = uint32(r.Int63n(1 << 32))
		}
		packed := AppendDepVec(nil, d)
		got, n, err := DecodeDepVec(packed)
		if err != nil || n != len(packed) {
			t.Fatalf("trial %d: n=%d err=%v", trial, n, err)
		}
		if len(d) == 0 && len(got) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, d) {
			t.Fatalf("trial %d: %v != %v", trial, got, d)
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

// TestDeltaRecordTornAndCorrupt covers the remaining error classes: flipped
// interior bytes behind an intact canary are ErrTorn; an unknown kind byte
// behind a valid CRC is ErrCorrupt; a field overrunning the CRC-validated
// body is ErrCorrupt, not truncation.
func TestDeltaRecordTornAndCorrupt(t *testing.T) {
	good, err := EncodeDeltaRecord(sampleDelta())
	if err != nil {
		t.Fatal(err)
	}
	torn := append([]byte(nil), good...)
	torn[7] ^= 0xFF
	if _, _, derr := DecodeDeltaRecord(torn); !errors.Is(derr, ErrTorn) {
		t.Fatalf("interior flip: err = %v, want ErrTorn", derr)
	}
	badkind := append([]byte(nil), good...)
	badkind[4] = 0x07
	reframe(badkind)
	if _, _, derr := DecodeDeltaRecord(badkind); !errors.Is(derr, ErrCorrupt) {
		t.Fatalf("bad kind: err = %v, want ErrCorrupt", derr)
	}
	// 0xF3 was FrameAnchor, a kind both switches accepted but nothing ever
	// encoded; retired, it is as corrupt as any other unknown kind, on the
	// header step, the full decode and the encoder alike.
	retired := retiredKindFrame(good)
	if _, derr := PeekDeltaRecord(retired); !errors.Is(derr, ErrCorrupt) {
		t.Fatalf("retired kind 0xF3, header: err = %v, want ErrCorrupt", derr)
	}
	if _, _, derr := DecodeDeltaRecord(retired); !errors.Is(derr, ErrCorrupt) {
		t.Fatalf("retired kind 0xF3, decode: err = %v, want ErrCorrupt", derr)
	}
	r := sampleDelta()
	r.Kind = 0xF3
	if _, eerr := EncodeDeltaRecord(r); !errors.Is(eerr, ErrCorrupt) {
		t.Fatalf("retired kind 0xF3, encode: err = %v, want ErrCorrupt", eerr)
	}
	// Truncate the body but keep the frame CRC-valid: a varint that runs
	// off the end of a *complete* record is corruption.
	short := append([]byte(nil), good[:len(good)-RecordTrailer-3]...)
	short = append(short, make([]byte, RecordTrailer)...)
	binary.LittleEndian.PutUint32(short, uint32(len(short)))
	reframe(short)
	if _, _, derr := DecodeDeltaRecord(short); !errors.Is(derr, ErrCorrupt) {
		t.Fatalf("overrunning field in CRC-valid record: err = %v, want ErrCorrupt", derr)
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

// FuzzDeltaEntry asserts the call-record decoder never panics, never
// over-reads, and classifies every failure as one of the declared error
// values on arbitrary remote bytes — and that the header step the δ-log walk
// uses on its own (PeekDeltaRecord) never disagrees with the full decode: a
// frame the header rejects, the decoder rejects with the same class; a
// frame the header accepts decodes to the same kind, version and length, or
// fails as corrupt in its body and nothing else.
func FuzzDeltaEntry(f *testing.F) {
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
		case h.Kind != r.Kind || h.Version != r.Version || h.Total != n:
			t.Fatalf("header (kind %#x, v%d, %d B) disagrees with decode (kind %#x, v%d, %d B)",
				h.Kind, h.Version, h.Total, r.Kind, r.Version, n)
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
