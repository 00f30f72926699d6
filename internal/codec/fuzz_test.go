package codec

import (
	"bytes"
	"reflect"
	"testing"

	"hamband/internal/spec"
)

// FuzzDecodeEntry holds EncodeEntry and DecodeEntry — the names the frozen
// benchmark/micro.go measures the call record under — to being the call record
// and nothing else: on arbitrary bytes DecodeEntry returns what
// DecodeDeltaRecord does, and what it decodes EncodeEntry re-encodes. The
// record itself is fuzzed by FuzzDeltaEntry (which carries these seeds too, and
// is the target `make fuzz` runs); this one goes with the wrappers.
func FuzzDecodeEntry(f *testing.F) {
	good, _ := EncodeEntry(spec.Call{
		Method: 3, Proc: 1, Seq: 9,
		Args: spec.Args{I: []int64{1, 2}, S: []string{"x"}},
	}, spec.DepVec{4, 5})
	f.Add(good)
	f.Add([]byte{})
	f.Add(make([]byte, 64))
	f.Add(good[:len(good)/2])
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, 1, 2, 3}) // hostile length word
	bad := append([]byte(nil), good...)
	bad[len(bad)-1] ^= 0xff // canary
	f.Add(bad)
	f.Fuzz(func(t *testing.T, data []byte) {
		c, d, n, err := DecodeEntry(data)
		r, rn, rerr := DecodeDeltaRecord(data)
		if errClass(err) != errClass(rerr) || n != rn || !reflect.DeepEqual(c, r.C) || !reflect.DeepEqual(d, r.D) {
			t.Fatalf("DecodeEntry = (%v, %v, %d, %v), DecodeDeltaRecord = (%+v, %d, %v)", c, d, n, err, r, rn, rerr)
		}
		if err != nil || r.Kind != FrameFull || r.Version != 0 || len(r.Counts) != 0 {
			return
		}
		if re, eerr := EncodeEntry(c, d); eerr != nil || !bytes.Equal(re, data[:n]) {
			t.Fatalf("EncodeEntry of the decoded call: %x, %v; want %x", re, eerr, data[:n])
		}
	})
}

// FuzzDecodeSlot asserts the seqlock-slot decoder never panics.
func FuzzDecodeSlot(f *testing.F) {
	good, _ := EncodeSlot([]byte("payload"), 3, 64)
	f.Add(good)
	f.Add([]byte{})
	f.Add(make([]byte, 12))
	f.Add(good[:len(good)/2]) // torn seqlock frame
	// Mismatched leading/trailing versions (a torn concurrent write).
	torn := append([]byte(nil), good...)
	torn[0] ^= 1
	f.Add(torn)
	f.Fuzz(func(t *testing.T, data []byte) {
		payload, ver, err := DecodeSlot(data)
		if err == nil && ver == 0 {
			t.Fatal("version 0 must decode as never-written")
		}
		_ = payload
	})
}

// FuzzDecodeRaw asserts the raw-record decoder never panics.
func FuzzDecodeRaw(f *testing.F) {
	good, _ := EncodeRaw([]byte("msg"))
	f.Add(good)
	f.Add([]byte{0, 0, 0, 0})
	f.Add(good[:len(good)-1]) // canary byte missing
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		payload, n, err := DecodeRaw(data)
		if err != nil {
			return
		}
		if n <= 0 || n > len(data) {
			t.Fatalf("consumed %d of %d", n, len(data))
		}
		_ = payload
	})
}

// TestDecodersRejectEveryTruncation sweeps every strict prefix of a valid
// record through all three decoders: none may panic, and none may claim a
// successful decode of the full record from a truncated buffer. This pins
// deterministically what the fuzz targets probe probabilistically.
func TestDecodersRejectEveryTruncation(t *testing.T) {
	entry, err := encodeCall(spec.Call{
		Method: 2, Proc: 3, Seq: 17,
		Args: spec.Args{I: []int64{7, -1}, S: []string{"ab", ""}},
	}, spec.DepVec{1, 0, 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(entry); i++ {
		if _, _, _, derr := decodeCall(entry[:i]); derr == nil {
			t.Fatalf("DecodeDeltaRecord accepted a %d-byte prefix of a %d-byte record", i, len(entry))
		}
	}

	payload := []byte("slot-payload")
	slot, err := EncodeSlot(payload, 9, 64)
	if err != nil {
		t.Fatal(err)
	}
	// The seqlock frame is self-delimiting: prefixes shorter than
	// overhead+payload are torn and must fail, while the used prefix
	// itself must decode — core's summary writes ship only that prefix.
	used := SlotOverhead + len(payload)
	for i := 0; i < used; i++ {
		if _, _, derr := DecodeSlot(slot[:i]); derr == nil {
			t.Fatalf("DecodeSlot accepted a torn %d-byte prefix (used size %d)", i, used)
		}
	}
	if got, ver, derr := DecodeSlot(slot[:used]); derr != nil || ver != 9 || string(got) != string(payload) {
		t.Fatalf("DecodeSlot(used prefix) = %q, v%d, %v; want full payload at v9", got, ver, derr)
	}

	raw, err := EncodeRaw([]byte("raw-payload"))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(raw); i++ {
		if _, _, derr := DecodeRaw(raw[:i]); derr == nil {
			t.Fatalf("DecodeRaw accepted a %d-byte prefix of a %d-byte record", i, len(raw))
		}
	}
}
