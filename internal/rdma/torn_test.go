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

// TestRegionWriteGenerations pins the write generations a tracked region
// keeps: a landing stamps every GenChunk-byte chunk it touches and no other,
// a torn landing stamps its boundary words when they land and its interior
// when that lands, a CAS stamps its word, and a region that does not track
// writes reports every range moved.
func TestRegionWriteGenerations(t *testing.T) {
	eng := sim.NewEngine(12)
	f := NewFabric(eng, 2, DefaultLatency())
	r := f.Node(1).Register("buf", 8*GenChunk)
	r.AllowWrite(0)
	if !r.Moved(0, 1, r.Gen()) {
		t.Fatal("an untracked region reports a range unmoved")
	}
	r.TrackWrites()
	write := func(off int, data []byte) {
		eng.At(eng.Now(), func() { f.Node(0).QP(1).Write("buf", off, data, nil) })
	}

	g0 := r.Gen()
	write(GenChunk+8, make([]byte, GenChunk)) // chunks 1 and 2
	eng.RunFor(10 * sim.Microsecond)
	for c, want := range []bool{false, true, true, false} {
		if got := r.Moved(c*GenChunk, GenChunk, g0); got != want {
			t.Errorf("chunk %d moved = %v after a write to chunks 1–2, want %v", c, got, want)
		}
	}
	if !r.Moved(0, 2*GenChunk, g0) || r.Moved(3*GenChunk, 5*GenChunk, g0) || r.Moved(GenChunk, 0, g0) {
		t.Error("Moved over a range is not the or of its chunks")
	}
	if g1 := r.Gen(); g1 != g0+1 || r.Moved(0, r.Size(), g1) {
		t.Errorf("generation %d → %d, want one step, and nothing moved since", g0, g1)
	}

	// A torn write across chunks 4–6: the boundary words (chunks 4 and 6)
	// land first, the interior (chunks 4–6 again) after the tear.
	f.SetLinkTorn(0, 1, 3*sim.Microsecond, 0)
	g1 := r.Gen()
	write(4*GenChunk+GenChunk/2, make([]byte, 2*GenChunk))
	var boundary, interior uint64
	probe := eng.NewTicker(100*sim.Nanosecond, func() {
		switch {
		case boundary == 0 && r.Moved(4*GenChunk, GenChunk, g1):
			boundary = r.Gen()
			if r.Moved(5*GenChunk, GenChunk, g1) || !r.Moved(6*GenChunk, GenChunk, g1) {
				t.Error("the boundary landing stamped the interior chunk or missed the tail")
			}
		case boundary != 0 && interior == 0 && r.Moved(5*GenChunk, GenChunk, g1):
			interior = r.Gen()
		}
	})
	eng.RunFor(10 * sim.Microsecond)
	probe.Cancel()
	if boundary != g1+2 || interior != g1+3 {
		t.Fatalf("torn write stamped generations %d then %d, want %d (both boundary words) then %d", boundary, interior, g1+2, g1+3)
	}
	f.SetLinkTorn(0, 1, 0, 0)

	g2 := r.Gen()
	eng.At(eng.Now(), func() { f.Node(0).QP(1).CAS("buf", 7*GenChunk, 0, 9, func(uint64, error) {}) })
	eng.RunFor(10 * sim.Microsecond)
	if !r.Moved(7*GenChunk, 8, g2) || r.Moved(0, 7*GenChunk, g2) {
		t.Error("a CAS did not stamp exactly its word's chunk")
	}

	// Over several pages: Moved steps over unwritten pages and still sees
	// each written chunk, and only it, in a written one.
	big := f.Node(1).Register("big", 3*genPage*GenChunk)
	big.TrackWrites()
	g3 := big.Gen()
	big.Write((genPage+5)*GenChunk+1, []byte{1}) // page 1, chunk 5 of it
	for c := 0; c < 3*genPage; c++ {
		if got, want := big.Moved(c*GenChunk, GenChunk, g3), c == genPage+5; got != want {
			t.Errorf("chunk %d moved = %v, want %v", c, got, want)
		}
	}
	if !big.Moved(0, big.Size(), g3) || big.Moved(0, (genPage+5)*GenChunk, g3) || big.Moved((genPage+6)*GenChunk, 2*genPage*GenChunk-6*GenChunk, g3) {
		t.Error("Moved over pages is not the or of their chunks")
	}
}

// TestReadValid pins the one validated read. torn sees every read, and the
// region is read again while it reports the bytes torn, up to TornLooks reads
// in all; onDone runs once, with the last read. A read error is not re-read.
// The region's first byte is 'v' once valid, and its second counts the looks
// torn has taken, so each read tells which look it follows.
func TestReadValid(t *testing.T) {
	type outcome struct {
		looks, dones int
		reads        uint64
		last         []byte
		err          error
	}
	run := func(region string, healAt int) (o outcome) {
		eng, f := testFabric(2)
		r := f.Node(1).Register("buf", 2)
		eng.At(0, func() {
			f.Node(0).QP(1).ReadValid(region, 0, 2, func(data []byte) bool {
				o.looks++
				if r.Bytes()[1] = byte(o.looks); o.looks == healAt {
					r.Bytes()[0] = 'v'
				}
				return data[0] != 'v'
			}, func(data []byte, err error) {
				o.dones++
				o.last, o.err = bytes.Clone(data), err
			})
		})
		eng.Run()
		o.reads = f.Stats().Reads
		return o
	}
	for k := 1; k < TornLooks; k++ {
		o := run("buf", k)
		if o.dones != 1 || o.err != nil || o.reads != uint64(k+1) || o.looks != k+1 || !bytes.Equal(o.last, []byte{'v', byte(k)}) {
			t.Fatalf("torn for %d reads: %+v; want one onDone after %d reads, with the valid bytes", k, o, k+1)
		}
	}
	if o := run("buf", 0); o.dones != 1 || o.err != nil || o.reads != TornLooks || o.looks != TornLooks || !bytes.Equal(o.last, []byte{0, TornLooks - 1}) {
		t.Fatalf("torn for good: %+v; want %d reads, each looked at, and the last one passed on", o, TornLooks)
	}
	if o := run("missing", 0); o.dones != 1 || !errors.Is(o.err, ErrNoRegion) || o.reads != 1 || o.looks != 0 {
		t.Fatalf("read error: %+v; want one read, not looked at, its error passed on", o)
	}
}
