package rdma

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"hamband/internal/codec"
	"hamband/internal/sim"
)

// payloadFor is the known-good slot payload for a version: the reader can
// tell a genuine decode from a false accept by checking the content
// actually belongs to the version the frame claims.
func payloadFor(ver uint32, n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte(ver)
	}
	return p
}

// seqlockOnlyDecode is the retired pre-CRC slot check, kept here only as the
// losing arm of the head-to-head below (PR 6 verdict: 767 false accepts vs 0;
// exported as codec.DecodeSlotSeqlock up to commit 3887d36): a frame is
// accepted when its leading and trailing version words match.
func seqlockOnlyDecode(b []byte) (payload []byte, version uint32, ok bool) {
	if len(b) < codec.SlotOverhead {
		return nil, 0, false
	}
	v1, n := binary.LittleEndian.Uint32(b), int(binary.LittleEndian.Uint32(b[4:]))
	if v1 == 0 || n < 0 || n+codec.SlotOverhead > len(b) || binary.LittleEndian.Uint32(b[12+n:]) != v1 {
		return nil, 0, false
	}
	return b[8 : 8+n], v1, true
}

// TestTornWriteLandsBoundaryFirst pins the fault model itself: under a
// torn link a write's first and last four bytes are visible at the normal
// delivery time while its interior lands only after the tear delay.
func TestTornWriteLandsBoundaryFirst(t *testing.T) {
	eng := sim.NewEngine(11)
	f := NewFabric(eng, 2, DefaultLatency())
	r := f.Node(1).Register("buf", 64)
	r.AllowWrite(0)
	f.SetLinkTorn(0, 1, 300*sim.Nanosecond, 0)

	data := []byte("0123456789abcdef")
	var landedAt, completedAt sim.Time
	eng.At(0, func() {
		f.Node(0).QP(1).Write("buf", 0, data, func(err error) {
			if err != nil {
				t.Errorf("torn write completion error: %v", err)
			}
			completedAt = eng.Now()
		})
	})
	// Sample the region the instant the boundary lands (one wire latency +
	// serialization after the post cost) and watch for the interior.
	probe := eng.NewTicker(10*sim.Nanosecond, func() {
		b := r.Bytes()[:len(data)]
		if landedAt == 0 && b[0] == '0' {
			landedAt = eng.Now()
			if !bytes.Equal(b[:4], data[:4]) || !bytes.Equal(b[12:], data[12:]) {
				t.Errorf("boundary fragment wrong: % x", b)
			}
			if bytes.Contains(b[4:12], []byte("456")) {
				t.Errorf("interior landed with the boundary: % x", b)
			}
		}
	})
	eng.RunUntil(sim.Time(50 * sim.Microsecond))
	probe.Cancel()
	if landedAt == 0 {
		t.Fatal("boundary never landed")
	}
	if !bytes.Equal(r.Bytes()[:len(data)], data) {
		t.Fatalf("interior never landed: % x", r.Bytes()[:len(data)])
	}
	if completedAt == 0 {
		t.Fatal("write never completed")
	}
	if got := f.Stats().TornWrites; got != 1 {
		t.Fatalf("TornWrites = %d, want 1", got)
	}
	// Small writes (≤ 8 bytes: heartbeats, head counters, skip markers)
	// land atomically even on a torn link and don't count as torn.
	eng.At(eng.Now()+1, func() {
		f.Node(0).QP(1).Write("buf", 32, []byte("headctr8"), nil)
	})
	eng.RunUntil(sim.Time(100 * sim.Microsecond))
	if !bytes.Equal(r.Bytes()[32:40], []byte("headctr8")) {
		t.Fatalf("small write did not land: % x", r.Bytes()[32:40])
	}
	if got := f.Stats().TornWrites; got != 1 {
		t.Fatalf("TornWrites after 8-byte write = %d, want 1", got)
	}
	f.SetLinkTorn(0, 1, 0, 0)
	if f.link(0, 1) != nil {
		t.Fatal("cleared torn fault left link state installed")
	}
}

// TestTornSlotHeadToHead is the regression test for the torn-read false
// accept: over a fixed-seed torn corpus of slot overwrites, a sampler
// decoding the slot with the seqlock-only scheme must observe at least one
// false accept — a corrupt payload returned with no error — while the
// CRC-validated scheme observes zero, rejecting every torn landing as
// ErrTorn until the interior arrives.
func TestTornSlotHeadToHead(t *testing.T) {
	const (
		slotSize   = 64
		payloadLen = 32
		used       = codec.SlotOverhead + payloadLen
		versions   = 40
	)
	eng := sim.NewEngine(42)
	f := NewFabric(eng, 2, DefaultLatency())
	reg := f.Node(1).Register("slot", slotSize)
	reg.AllowWrite(0)
	f.SetLinkTorn(0, 1, 400*sim.Nanosecond, 200*sim.Nanosecond)

	// The corpus: overwrites of one slot, same payload length so the
	// boundary words alone (leading+trailing version) can never tell a
	// fresh frame from a stale interior.
	for v := uint32(1); v <= versions; v++ {
		v := v
		eng.At(sim.Time(v)*5000, func() {
			framed, err := codec.EncodeSlot(payloadFor(v, payloadLen), v, slotSize)
			if err != nil {
				t.Fatalf("encode v%d: %v", v, err)
			}
			f.Node(0).QP(1).Write("slot", 0, framed[:used], nil)
		})
	}

	var legacyFalse, crcFalse, crcRejects int
	sampler := eng.NewTicker(25*sim.Nanosecond, func() {
		b := reg.Bytes()[:used]
		if pl, ver, ok := seqlockOnlyDecode(b); ok {
			if !bytes.Equal(pl, payloadFor(ver, payloadLen)) {
				legacyFalse++ // corrupt payload, no error: the bug
			}
		}
		if pl, ver, err := codec.DecodeSlot(b); err == nil {
			if !bytes.Equal(pl, payloadFor(ver, payloadLen)) {
				crcFalse++
			}
		} else if errors.Is(err, codec.ErrTorn) {
			crcRejects++
		}
	})
	eng.RunUntil(sim.Time(versions+2) * 5000)
	sampler.Cancel()
	eng.Run() // drain any interior landing scheduled past the deadline

	if legacyFalse == 0 {
		t.Fatal("seqlock-only decode never false-accepted a torn slot: the fault injection is not tearing")
	}
	if crcFalse != 0 {
		t.Fatalf("CRC-validated decode false-accepted %d torn reads", crcFalse)
	}
	if crcRejects == 0 {
		t.Fatal("CRC decode never saw a torn frame to reject")
	}
	if got := f.Stats().TornWrites; got != versions {
		t.Fatalf("TornWrites = %d, want %d", got, versions)
	}
	// Once quiescent every interior has landed: the validated read heals.
	pl, ver, err := codec.DecodeSlot(reg.Bytes()[:used])
	if err != nil || ver != versions || !bytes.Equal(pl, payloadFor(versions, payloadLen)) {
		t.Fatalf("final slot = v%d, %v; want clean v%d", ver, err, versions)
	}
	t.Logf("sampler: %d seqlock false accepts, %d CRC rejects, 0 CRC false accepts", legacyFalse, crcRejects)
}
