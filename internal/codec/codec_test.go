package codec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"hamband/internal/spec"
)

// encodeCall and decodeCall are the call record as the buffered paths use it:
// a FrameFull record of (c, D).
func encodeCall(c spec.Call, d spec.DepVec) ([]byte, error) {
	return EncodeDeltaRecord(DeltaRecord{Kind: FrameFull, C: c, D: d})
}

func decodeCall(b []byte) (spec.Call, spec.DepVec, int, error) {
	r, n, err := DecodeDeltaRecord(b)
	return r.C, r.D, n, err
}

func TestEntryRoundTrip(t *testing.T) {
	c := spec.Call{
		Method: 3,
		Args:   spec.Args{I: []int64{-5, 1 << 40}, S: []string{"hello", ""}},
		Proc:   2,
		Seq:    99,
	}
	d := spec.DepVec{1, 0, 7}
	b, err := encodeCall(c, d)
	if err != nil {
		t.Fatal(err)
	}
	c2, d2, n, err := decodeCall(b)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(b) {
		t.Fatalf("consumed %d, want %d", n, len(b))
	}
	if c2.Method != c.Method || c2.Proc != c.Proc || c2.Seq != c.Seq || !c2.Args.Equal(c.Args) {
		t.Fatalf("call round-trip mismatch: %+v vs %+v", c2, c)
	}
	if len(d2) != 3 || d2[0] != 1 || d2[1] != 0 || d2[2] != 7 {
		t.Fatalf("deps round-trip mismatch: %v", d2)
	}
}

func TestEntryRoundTripEmpty(t *testing.T) {
	c := spec.Call{Method: 0, Proc: 0, Seq: 0}
	b, err := encodeCall(c, nil)
	if err != nil {
		t.Fatal(err)
	}
	c2, d2, _, err := decodeCall(b)
	if err != nil {
		t.Fatal(err)
	}
	if d2 != nil || c2.Seq != 0 {
		t.Fatalf("empty entry mismatch: %+v, %v", c2, d2)
	}
}

func TestEntryRoundTripQuick(t *testing.T) {
	r := rand.New(rand.NewSource(9))
	f := func(method uint8, proc uint8, seq uint64, ints []int64, nd uint8) bool {
		var strs []string
		for i := 0; i < int(nd)%3; i++ {
			strs = append(strs, strings.Repeat("s", r.Intn(20)))
		}
		c := spec.Call{
			Method: spec.MethodID(method), Proc: spec.ProcID(proc), Seq: seq,
			Args: spec.Args{I: ints, S: strs},
		}
		d := make(spec.DepVec, int(nd)%9)
		for i := range d {
			d[i] = uint32(r.Intn(1000))
		}
		if len(d) == 0 {
			d = nil
		}
		b, err := encodeCall(c, d)
		if err != nil {
			return false
		}
		c2, d2, n, err := decodeCall(b)
		if err != nil || n != len(b) {
			return false
		}
		if c2.Method != c.Method || c2.Proc != c.Proc || c2.Seq != c.Seq || !c2.Args.Equal(c.Args) {
			return false
		}
		if len(d2) != len(d) {
			return false
		}
		for i := range d {
			if d[i] != d2[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeEmptyBuffer(t *testing.T) {
	if _, _, _, err := decodeCall(make([]byte, 64)); !errors.Is(err, ErrIncomplete) {
		t.Fatalf("err = %v, want ErrIncomplete on zeroed buffer", err)
	}
	if _, _, _, err := decodeCall(nil); !errors.Is(err, ErrIncomplete) {
		t.Fatalf("err = %v, want ErrIncomplete on nil", err)
	}
}

func TestDecodeMissingCanary(t *testing.T) {
	b, _ := encodeCall(spec.Call{Method: 1, Args: spec.ArgsI(5)}, nil)
	b[len(b)-1] = 0 // canary not yet landed
	if _, _, _, err := decodeCall(b); !errors.Is(err, ErrIncomplete) {
		t.Fatalf("err = %v, want ErrIncomplete without canary", err)
	}
}

func TestDecodeTruncated(t *testing.T) {
	b, _ := encodeCall(spec.Call{Method: 1, Args: spec.ArgsI(5, 6, 7)}, spec.DepVec{1})
	if _, _, _, err := decodeCall(b[:len(b)-4]); !errors.Is(err, ErrIncomplete) {
		t.Fatalf("err = %v, want ErrIncomplete on truncation", err)
	}
}

func TestDecodeCorruptLength(t *testing.T) {
	b, _ := encodeCall(spec.Call{Method: 1}, nil)
	b[0], b[1], b[2], b[3] = 5, 0, 0, 0 // below minimum record size
	if _, _, _, err := decodeCall(b); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
}

// TestEncodeTooLarge: a record of exactly MaxRecord bytes encodes and decodes;
// one byte more is ErrTooLarge, and dst comes back unextended.
func TestEncodeTooLarge(t *testing.T) {
	sized := func(n int) DeltaRecord {
		return DeltaRecord{Kind: FrameFull, C: spec.Call{Method: 1, Args: spec.Args{S: []string{strings.Repeat("x", n)}}}}
	}
	probe, err := EncodeDeltaRecord(sized(MaxRecord / 2))
	if err != nil {
		t.Fatal(err)
	}
	fits := MaxRecord/2 + MaxRecord - len(probe) // the length varint is 3 bytes at both sizes
	b, err := EncodeDeltaRecord(sized(fits))
	if err != nil || len(b) != MaxRecord {
		t.Fatalf("a %d-byte record: %d bytes, %v; want MaxRecord and no error", MaxRecord, len(b), err)
	}
	if _, n, err := DecodeDeltaRecord(b); err != nil || n != MaxRecord {
		t.Fatalf("decoding a MaxRecord record: %d bytes, %v", n, err)
	}
	dst := []byte("prefix")
	if b, err := AppendDeltaRecord(dst, sized(fits+1)); !errors.Is(err, ErrTooLarge) || len(b) != len(dst) {
		t.Fatalf("one byte over MaxRecord: %d bytes, err = %v; want dst unextended and ErrTooLarge", len(b), err)
	}
}

func TestSlotRoundTrip(t *testing.T) {
	payload := []byte("summary-payload")
	b, err := EncodeSlot(payload, 7, 64)
	if err != nil {
		t.Fatal(err)
	}
	// Only the used frame is returned, not the whole slot: callers copy it
	// into place and the frame is self-delimiting.
	if want := SlotOverhead + len(payload); len(b) != want {
		t.Fatalf("slot length = %d, want %d", len(b), want)
	}
	got, v, err := DecodeSlot(b)
	if err != nil {
		t.Fatal(err)
	}
	if v != 7 || string(got) != string(payload) {
		t.Fatalf("slot round-trip = (%q, %d)", got, v)
	}
}

func TestSlotNeverWritten(t *testing.T) {
	if _, _, err := DecodeSlot(make([]byte, 32)); !errors.Is(err, ErrIncomplete) {
		t.Fatalf("err = %v, want ErrIncomplete", err)
	}
}

func TestSlotTornRead(t *testing.T) {
	b, _ := EncodeSlot([]byte("x"), 3, 32)
	b[0] = 4 // leading version advanced, trailing not: torn
	if _, _, err := DecodeSlot(b); !errors.Is(err, ErrTorn) {
		t.Fatalf("err = %v, want ErrTorn", err)
	}
}

func TestSlotTooSmall(t *testing.T) {
	if _, err := EncodeSlot(make([]byte, 30), 1, 32); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("err = %v, want ErrTooLarge", err)
	}
}

func TestRawRoundTrip(t *testing.T) {
	payload := []byte("raw-message")
	b, err := EncodeRaw(payload)
	if err != nil {
		t.Fatal(err)
	}
	got, n, err := DecodeRaw(b)
	if err != nil || n != len(b) {
		t.Fatalf("decode = (%v, %d)", err, n)
	}
	if string(got) != string(payload) {
		t.Fatalf("payload = %q", got)
	}
}

func TestRawEmptyPayload(t *testing.T) {
	b, err := EncodeRaw(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := DecodeRaw(b)
	if err != nil || len(got) != 0 {
		t.Fatalf("decode = (%q, %v)", got, err)
	}
}

func TestRawIncomplete(t *testing.T) {
	b, _ := EncodeRaw([]byte("xy"))
	if _, _, err := DecodeRaw(b[:len(b)-1]); !errors.Is(err, ErrIncomplete) {
		t.Fatalf("err = %v, want ErrIncomplete", err)
	}
	b[len(b)-1] = 0
	if _, _, err := DecodeRaw(b); !errors.Is(err, ErrIncomplete) {
		t.Fatalf("err = %v, want ErrIncomplete without canary", err)
	}
}

// TestPollingRejectionsAreBareSentinels pins the rejections a poller hits
// in steady state — a garbage length word past the last record of a δ-log,
// a foreign kind byte, a canary not yet landed — to the sentinel values
// themselves: no formatted wrapper, so a scan that ends on one every 2 µs
// allocates nothing for it. errors.Is classes are what callers match.
func TestPollingRejectionsAreBareSentinels(t *testing.T) {
	badLen := []byte{3, 0, 0, 0, 0xFF, 0xFF, 0xFF, 0xFF}
	delta, err := EncodeDeltaRecord(DeltaRecord{Kind: FrameDelta, Version: 2, Counts: []uint32{1}, C: spec.Call{Method: 1}})
	if err != nil {
		t.Fatal(err)
	}
	badKind := append([]byte(nil), delta...)
	badKind[4] = 0x07
	binary.LittleEndian.PutUint32(badKind[len(badKind)-RecordTrailer:], Checksum(badKind[:len(badKind)-RecordTrailer]))
	noCanary := append([]byte(nil), delta...)
	noCanary[len(noCanary)-1] = 0

	var got error
	cases := []struct {
		name   string
		decode func()
		want   error
	}{
		{"delta bad length", func() { _, _, got = DecodeDeltaRecord(badLen) }, ErrCorrupt},
		{"delta bad kind", func() { _, _, got = DecodeDeltaRecord(badKind) }, ErrCorrupt},
		{"delta no canary", func() { _, _, got = DecodeDeltaRecord(noCanary) }, ErrTruncated},
		{"delta header bad length", func() { _, got = PeekDeltaRecord(badLen) }, ErrCorrupt},
		{"raw bad length", func() { _, _, got = DecodeRaw(badLen) }, ErrCorrupt},
	}
	for _, c := range cases {
		if allocs := testing.AllocsPerRun(100, c.decode); allocs != 0 {
			t.Errorf("%s: rejection allocates %.1f objects, want 0", c.name, allocs)
		}
		if got != c.want {
			t.Errorf("%s: err = %v, want the bare sentinel %v", c.name, got, c.want)
		}
	}
}

// TestAppendEncodersZeroAlloc pins what the append-style encoders are for: a
// slot frame holding an entry is built in one pass into a buffer with room —
// a registered region, in core — and allocates nothing, and the bytes are
// the ones EncodeSlot over EncodeEntry produces through two buffers.
func TestAppendEncodersZeroAlloc(t *testing.T) {
	c := spec.Call{Method: 3, Proc: 2, Seq: 41, Args: spec.Args{I: make([]int64, 64), S: []string{"key", "value"}}}
	for i := range c.Args.I {
		c.Args.I[i] = int64(i * 7)
	}
	d := spec.DepVec{1, 2, 3}
	buf := make([]byte, 0, 1024)
	var frame []byte
	allocs := testing.AllocsPerRun(1000, func() {
		b := BeginSlot(append(buf[:0], "prefix"...), 9)
		b, _ = AppendDeltaRecord(b, DeltaRecord{Kind: FrameFull, C: c, D: d})
		frame = FinishSlot(b, len("prefix"))
	})
	if allocs != 0 {
		t.Errorf("framing a record into a buffer with capacity allocates %.1f objects, want 0", allocs)
	}
	if &frame[0] != &buf[:1][0] {
		t.Fatal("the frame left the buffer it was given")
	}
	entry, err := encodeCall(c, d)
	if err != nil {
		t.Fatal(err)
	}
	want, err := EncodeSlot(entry, 9, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if got := frame[len("prefix"):]; !bytes.Equal(got, want) {
		t.Fatalf("one-pass frame differs from EncodeSlot(EncodeEntry):\n got %x\nwant %x", got, want)
	}
	payload, ver, err := DecodeSlot(frame[len("prefix"):])
	if err != nil || ver != 9 {
		t.Fatalf("DecodeSlot = v%d, %v", ver, err)
	}
	if got, gd, _, err := decodeCall(payload); err != nil || !got.Args.Equal(c.Args) || len(gd) != len(d) {
		t.Fatalf("DecodeDeltaRecord = %v %v, %v", got, gd, err)
	}
}
