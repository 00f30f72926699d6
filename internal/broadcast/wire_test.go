package broadcast

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"hamband/internal/codec"
)

// FuzzMessage fuzzes the message header, uvarint epoch | uvarint seq. Fields
// encode and decode back; every cut inside the packed fields is an error; an
// overlong varint (one more byte than the value needs, or an eleventh) is
// codec.ErrCorrupt; an epoch above u32 is codec.ErrCorrupt; and on arbitrary
// bytes decodeMessage does not panic, and what it accepts re-encodes to the
// same bytes.
func FuzzMessage(f *testing.F) {
	f.Add(uint64(0), uint64(1), []byte("payload"))
	f.Add(uint64(3), uint64(128), []byte{})
	f.Add(uint64(math.MaxUint32), uint64(math.MaxUint64), []byte{0x80})
	f.Add(uint64(math.MaxUint32+1), uint64(7), []byte{0x80, 0x00, 1})
	f.Add(uint64(1), uint64(1), []byte{0xff, 0xff, 0xff, 0xff, 0x1f, 1})
	f.Fuzz(func(t *testing.T, epoch, seq uint64, payload []byte) {
		msg := append(codec.AppendUvarint(codec.AppendUvarint(nil, epoch), seq), payload...)
		header := len(msg) - len(payload)
		e, s, p, err := decodeMessage(msg)
		if epoch > math.MaxUint32 {
			if !errors.Is(err, codec.ErrCorrupt) {
				t.Fatalf("epoch %d: %v, want codec.ErrCorrupt", epoch, err)
			}
		} else {
			if err != nil || uint64(e) != epoch || s != seq || !bytes.Equal(p, payload) {
				t.Fatalf("round trip of (%d, %d, %x) = (%d, %d, %x), %v", epoch, seq, payload, e, s, p, err)
			}
			if re := appendMessage(nil, e, s, p); !bytes.Equal(re, msg) {
				t.Fatalf("appendMessage writes %x, want %x", re, msg)
			}
			for cut := 0; cut < header; cut++ {
				if _, _, _, err := decodeMessage(msg[:cut]); err == nil {
					t.Fatalf("message %x cut to %d of its %d header bytes decoded", msg, cut, header)
				}
			}
			// Each field one byte longer than it needs.
			for _, at := range []int{0, header - len(codec.AppendUvarint(nil, seq))} {
				end := at
				for msg[end]&0x80 != 0 {
					end++
				}
				long := append(append(append([]byte(nil), msg[:end]...), msg[end]|0x80, 0), msg[end+1:]...)
				if _, _, _, err := decodeMessage(long); !errors.Is(err, codec.ErrCorrupt) {
					t.Fatalf("message %x with the varint at %d overlong: %v, want codec.ErrCorrupt", long, at, err)
				}
			}
		}
		if e, s, p, err := decodeMessage(payload); err == nil {
			if re := appendMessage(nil, e, s, p); !bytes.Equal(re, payload) {
				t.Fatalf("message %x decodes to (%d, %d, %x), which encodes as %x", payload, e, s, p, re)
			}
		}
	})
}
