package codec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

// landBoundary copies only the first and last four bytes of a write's used
// prefix into dst — the out-of-order landing a NIC is permitted to produce
// within one work request (rdma's torn fault kind models exactly this).
func landBoundary(dst, src []byte, used int) {
	copy(dst[:4], src[:4])
	copy(dst[used-4:used], src[used-4:used])
}

// TestSlotBoundaryFirstFalseAccept is the regression test for the torn-read
// false accept this package's CRC trailer fixes. A same-length overwrite
// whose boundary words (leading + trailing version) land before its
// interior refreshes both seqlock words, so the pre-CRC scheme decodes the
// stale interior payload under the new version with no error — a reader
// acting on it adopts a corrupt summary at a version it will never re-read.
// The CRC check rejects the same bytes as ErrTorn until the interior lands.
func TestSlotBoundaryFirstFalseAccept(t *testing.T) {
	const slotSize = 64
	oldPayload := []byte("old-interior-bytes-v1...")
	newPayload := []byte("new-interior-bytes-v2!!!")
	used := SlotOverhead + len(oldPayload)

	v1, err := EncodeSlot(oldPayload, 1, slotSize)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := EncodeSlot(newPayload, 2, slotSize)
	if err != nil {
		t.Fatal(err)
	}

	slot := append([]byte(nil), v1...) // v1 fully landed
	landBoundary(slot, v2, used)       // v2 boundary words only

	// The pre-CRC scheme: both version words read 2, so it hands back the
	// stale v1 payload stamped as v2 — corrupt payload, no error.
	pl, ver, serr := decodeSlotSeqlock(slot[:used])
	if serr != nil {
		t.Fatalf("seqlock decode rejected the torn slot (err %v); the false accept this test pins requires matching version words", serr)
	}
	if ver != 2 || !bytes.Equal(pl, oldPayload) {
		t.Fatalf("seqlock decode = (%q, v%d); expected the stale payload at v2", pl, ver)
	}

	// The CRC-validated decode refuses the same bytes.
	if _, _, cerr := DecodeSlot(slot[:used]); !errors.Is(cerr, ErrTorn) {
		t.Fatalf("DecodeSlot on torn slot = %v, want ErrTorn", cerr)
	}

	// Interior lands: one retry later the validated read heals.
	copy(slot, v2)
	pl, ver, err = DecodeSlot(slot[:used])
	if err != nil || ver != 2 || !bytes.Equal(pl, newPayload) {
		t.Fatalf("healed decode = (%q, v%d, %v); want v2 payload", pl, ver, err)
	}
}

// TestSlotShrinkingOverwrite pins the other residue hazard: a newer,
// shorter slot write only covers a prefix of the older, longer frame, so
// stale payload, CRC and trailing-version bytes survive past the new used
// prefix. A full landing must decode to exactly the new payload; a
// boundary-first landing must reject — never return bytes blending the two
// writes.
func TestSlotShrinkingOverwrite(t *testing.T) {
	const slotSize = 64
	longPayload := bytes.Repeat([]byte{0xA1}, 40)
	shortPayload := bytes.Repeat([]byte{0xB2}, 16)
	shortUsed := SlotOverhead + len(shortPayload)

	v1, err := EncodeSlot(longPayload, 1, slotSize)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := EncodeSlot(shortPayload, 2, slotSize)
	if err != nil {
		t.Fatal(err)
	}

	// Fully landed short overwrite: the v1 residue beyond the new used
	// prefix must be invisible.
	slot := append([]byte(nil), v1...)
	copy(slot[:shortUsed], v2[:shortUsed])
	pl, ver, derr := DecodeSlot(slot)
	if derr != nil || ver != 2 || !bytes.Equal(pl, shortPayload) {
		t.Fatalf("short overwrite decode = (%q, v%d, %v); want clean v2", pl, ver, derr)
	}

	// Boundary-first short overwrite: the stale length word still reads 40,
	// pointing every decoder at v1's trailing words. Both schemes must
	// reject; neither may return a blend of the two payloads.
	slot = append([]byte(nil), v1...)
	landBoundary(slot, v2, shortUsed)
	if pl, _, serr := decodeSlotSeqlock(slot); serr == nil {
		t.Fatalf("seqlock decode accepted a shrinking torn overwrite: %q", pl)
	}
	if pl, _, cerr := DecodeSlot(slot); cerr == nil {
		t.Fatalf("DecodeSlot accepted a shrinking torn overwrite: %q", pl)
	}
}

// TestRawShrinkingOverwrite is the ring-record flavor: a shorter record
// written over a longer one's bytes. Fully landed, the decoder must consume
// exactly the new record; boundary-first, it must reject the blend (the
// canary-only check cannot — the new record's final byte is a canary by
// construction).
func TestRawShrinkingOverwrite(t *testing.T) {
	longRec, err := EncodeRaw(bytes.Repeat([]byte{0xC3}, 48))
	if err != nil {
		t.Fatal(err)
	}
	shortPayload := bytes.Repeat([]byte{0xD4}, 16)
	shortRec, err := EncodeRaw(shortPayload)
	if err != nil {
		t.Fatal(err)
	}

	buf := append([]byte(nil), longRec...)
	copy(buf, shortRec)
	pl, n, derr := DecodeRaw(buf)
	if derr != nil || n != len(shortRec) || !bytes.Equal(pl, shortPayload) {
		t.Fatalf("short overwrite decode = (%q, %d, %v); want the new record", pl, n, derr)
	}

	buf = append([]byte(nil), longRec...)
	landBoundary(buf, shortRec, len(shortRec))
	// The new length word and canary are in place over a stale interior:
	// exactly what the canary-only ring reader consumed. The CRC rejects.
	if buf[len(shortRec)-1] != Canary {
		t.Fatal("test setup: boundary landing must include the canary")
	}
	if pl, _, cerr := DecodeRaw(buf[:len(shortRec)]); !errors.Is(cerr, ErrTorn) {
		t.Fatalf("DecodeRaw on torn shrink = (%q, %v), want ErrTorn", pl, cerr)
	}
	if verr := ValidateRecord(buf[:len(shortRec)]); !errors.Is(verr, ErrTorn) {
		t.Fatalf("ValidateRecord on torn shrink = %v, want ErrTorn", verr)
	}
}

// FuzzSlot fuzzes the validated-slot frame from the construction side:
// every valid slot must round-trip through encode/decode, and no crafted
// corruption of the frame's words may panic a decoder or yield a payload
// that differs from what was encoded without an error saying so.
func FuzzSlot(f *testing.F) {
	f.Add([]byte("payload"), uint32(3), uint32(0), byte(0))
	f.Add([]byte{}, uint32(1), uint32(4), byte(0xFF))
	f.Add(bytes.Repeat([]byte{7}, 48), uint32(1<<31), uint32(9), byte(1))
	f.Fuzz(func(t *testing.T, payload []byte, version uint32, corruptAt uint32, corruptXor byte) {
		if version == 0 || len(payload) > 96 {
			return
		}
		slotSize := SlotOverhead + len(payload) + 8
		b, err := EncodeSlot(payload, version, slotSize)
		if err != nil {
			t.Fatalf("EncodeSlot(%d bytes, slot %d): %v", len(payload), slotSize, err)
		}
		pl, ver, err := DecodeSlot(b)
		if err != nil || ver != version || !bytes.Equal(pl, payload) {
			t.Fatalf("round-trip = (%q, v%d, %v); want (%q, v%d)", pl, ver, err, payload, version)
		}

		// Corrupt one byte anywhere in the frame: the decoder must not
		// panic, and a nil error means the corruption was outside the used
		// prefix — the payload and version must then still be exact.
		mut := append([]byte(nil), b...)
		idx := int(corruptAt) % len(mut)
		mut[idx] ^= corruptXor
		pl, ver, err = DecodeSlot(mut)
		if err == nil {
			if ver != version || !bytes.Equal(pl, payload) {
				t.Fatalf("corrupt byte %d (^%#x) decoded silently to (%q, v%d)", idx, corruptXor, pl, ver)
			}
			used := SlotOverhead + len(payload)
			if idx < used && corruptXor != 0 {
				t.Fatalf("corruption inside the used prefix (byte %d of %d) went undetected", idx, used)
			}
		}

		// A crafted length word must never panic or over-read.
		huge := append([]byte(nil), b...)
		binary.LittleEndian.PutUint32(huge[4:], corruptAt)
		_, _, _ = DecodeSlot(huge)
	})
}
