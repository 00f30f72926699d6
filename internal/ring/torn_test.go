package ring

import (
	"bytes"
	"encoding/binary"
	"errors"
	"strings"
	"testing"

	"hamband/internal/codec"
	"hamband/internal/rdma"
	"hamband/internal/sim"
)

// landBoundary lands only a write's first and last four bytes — the
// out-of-order fragment a NIC may deliver first within one work request.
func landBoundary(region []byte, w Write) {
	copy(region[w.Off:], w.Data[:4])
	copy(region[w.Off+len(w.Data)-4:], w.Data[len(w.Data)-4:])
}

// canaryOnlyPoll is the retired pre-CRC reader, kept here only as the losing
// arm of the head-to-head evidence below (PR 6 verdict: 60 corrupt records
// consumed vs 0; Reader.DisableChecksum up to commit 3887d36): a record is
// taken as soon as its length word and canary byte are visible.
func canaryOnlyPoll(r *Reader) ([]byte, bool, error) {
	for {
		data := r.region[HeaderSize:]
		pos := r.head % r.capacity
		boundary := r.capacity - pos
		if boundary < 4 {
			r.advance(pos, boundary)
			continue
		}
		n := uint64(binary.LittleEndian.Uint32(data[pos:]))
		if n == skipMarker {
			r.advance(pos, boundary)
			continue
		}
		if n == 0 || data[pos+n-1] == 0 {
			return nil, false, nil
		}
		out := append([]byte(nil), data[pos:pos+n]...)
		r.advance(pos, n)
		return out, true, nil
	}
}

// TestCanaryFirstLandingRejected is the regression test for the canary
// false accept: a record whose final byte (the canary) lands before its
// interior used to be consumed corrupt. The CRC-validating reader must hold
// it back, count the rejection, and deliver it intact once the interior
// lands.
func TestCanaryFirstLandingRejected(t *testing.T) {
	region := make([]byte, RegionSize(256))
	w := NewWriter(256)
	r := NewReader(region)

	payload := bytes.Repeat([]byte{0xEE}, 32)
	rec, err := codec.EncodeRaw(payload)
	if err != nil {
		t.Fatal(err)
	}
	writes, ok := w.Append(rec)
	if !ok || len(writes) != 1 {
		t.Fatalf("append = (%d writes, %v)", len(writes), ok)
	}

	// Boundary fragment only: length word and canary present, interior
	// still zero. The canary check alone would consume this.
	landBoundary(region, writes[0])
	if got, ok, perr := r.Poll(); ok || perr != nil {
		t.Fatalf("poll consumed a torn record: (%q, %v, %v)", got, ok, perr)
	}
	if r.TornRejects() != 1 {
		t.Fatalf("TornRejects = %d, want 1", r.TornRejects())
	}

	// The canary-only reference consumes the same bytes — the bug being pinned.
	got, ok, perr := canaryOnlyPoll(NewReader(append([]byte(nil), region...)))
	if perr != nil || !ok {
		t.Fatalf("canary-only poll = (%v, %v); the false accept this test pins requires a consume", ok, perr)
	}
	if _, _, derr := codec.DecodeRaw(got); !errors.Is(derr, codec.ErrTorn) {
		t.Fatalf("canary-only reader delivered %v, want a corrupt (torn) record", derr)
	}

	// Interior lands: the validating reader delivers the intact record and
	// its torn streak resets.
	apply(region, writes)
	got, ok, perr = r.Poll()
	if perr != nil || !ok || !bytes.Equal(got, rec) {
		t.Fatalf("healed poll = (%q, %v, %v)", got, ok, perr)
	}
	if _, ok, _ := r.Poll(); ok {
		t.Fatal("phantom record after heal")
	}
}

// TestCorruptLengthParksOnce pins the reporting contract for impossible
// layouts: the diagnosis (with offset and head) surfaces from Poll exactly
// once, subsequent polls report an idle ring instead of hot-looping the
// same error, and Parked exposes the sticky diagnosis.
func TestCorruptLengthParksOnce(t *testing.T) {
	region := make([]byte, RegionSize(256))
	// A length word smaller than any framed record: impossible layout.
	region[HeaderSize] = 3
	r := NewReader(region)

	_, ok, err := r.Poll()
	if ok || !errors.Is(err, ErrCorrupt) {
		t.Fatalf("poll = (%v, %v), want ErrCorrupt", ok, err)
	}
	for _, want := range []string{"length 3", "offset 0", "head 0", "parked"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("diagnosis %q missing %q", err, want)
		}
	}
	for i := 0; i < 3; i++ {
		if _, ok, perr := r.Poll(); ok || perr != nil {
			t.Fatalf("poll %d after park = (%v, %v), want idle", i, ok, perr)
		}
	}
	if perr := r.Parked(); !errors.Is(perr, ErrCorrupt) {
		t.Fatalf("Parked() = %v, want the sticky ErrCorrupt", perr)
	}
	// Terminal: a length word that was impossible once is corruption, not
	// lateness, whatever the bytes read afterwards.
	rec, err := codec.EncodeRaw([]byte("too late"))
	if err != nil {
		t.Fatal(err)
	}
	copy(region[HeaderSize:], rec)
	if _, ok, perr := r.Poll(); ok || perr != nil || r.Parked() == nil {
		t.Fatalf("poll over rewritten bytes = (%v, %v), Parked %v; want idle and parked", ok, perr, r.Parked())
	}
}

// TestPersistentTornRecordParks pins the bounded retry: a record that fails
// its CRC on tornRetryLimit consecutive polls (the writer died mid-write;
// the interior is never coming) parks the ring with a one-time diagnosis
// instead of retrying forever.
func TestPersistentTornRecordParks(t *testing.T) {
	region := make([]byte, RegionSize(256))
	w := NewWriter(256)
	r := NewReader(region)

	rec, err := codec.EncodeRaw([]byte("never-completed"))
	if err != nil {
		t.Fatal(err)
	}
	writes, _ := w.Append(rec)
	landBoundary(region, writes[0]) // interior never lands

	var parked error
	polls := 0
	for i := 0; i < tornRetryLimit+4; i++ {
		_, ok, perr := r.Poll()
		if ok {
			t.Fatal("consumed a permanently torn record")
		}
		polls++
		if perr != nil {
			parked = perr
			break
		}
	}
	if parked == nil {
		t.Fatalf("reader never parked after %d polls of a dead record", polls)
	}
	if polls != tornRetryLimit {
		t.Fatalf("parked after %d polls, want %d", polls, tornRetryLimit)
	}
	for _, want := range []string{"failed CRC", "offset 0", "parked"} {
		if !strings.Contains(parked.Error(), want) {
			t.Errorf("diagnosis %q missing %q", parked, want)
		}
	}
	if got := r.TornRejects(); got != uint64(tornRetryLimit) {
		t.Fatalf("TornRejects = %d, want %d", got, tornRetryLimit)
	}
	// Parked is sticky and quiet.
	if _, ok, perr := r.Poll(); ok || perr != nil {
		t.Fatalf("poll after park = (%v, %v), want idle", ok, perr)
	}
	if r.Parked() == nil {
		t.Fatal("Parked() = nil after quarantine")
	}
}

// TestLateInteriorUnparks pins the other half of the bounded retry: the limit
// decides when a torn record is reported, not how long the reader waits for
// it. A link that tears by longer than the retry window (30 µs against eight
// 2 µs polls) lands the boundary bytes now and the interior later; the reader
// parks, reports once, validates the same record again on every poll and
// delivers it — and what follows it — when the interior arrives.
func TestLateInteriorUnparks(t *testing.T) {
	region := make([]byte, RegionSize(256))
	w := NewWriter(256)
	r := NewReader(region)

	first, err := codec.EncodeRaw(bytes.Repeat([]byte{0xC1}, 40))
	if err != nil {
		t.Fatal(err)
	}
	second, err := codec.EncodeRaw([]byte("behind the late one"))
	if err != nil {
		t.Fatal(err)
	}
	late, _ := w.Append(first)
	landBoundary(region, late[0])
	next, _ := w.Append(second)
	apply(region, next)

	reports := 0
	for i := 0; i < tornRetryLimit+7; i++ {
		_, ok, perr := r.Poll()
		if ok {
			t.Fatalf("poll %d consumed a record past a torn one", i)
		}
		if perr != nil {
			reports++
		}
	}
	if reports != 1 || r.Parked() == nil {
		t.Fatalf("%d reports, Parked() = %v; want the diagnosis once and the reader parked", reports, r.Parked())
	}
	if got := r.TornRejects(); got != tornRetryLimit {
		t.Fatalf("TornRejects = %d, want %d: a parked reader's looks are not new rejections", got, tornRetryLimit)
	}

	apply(region, late) // the interior lands
	for _, want := range [][]byte{first, second} {
		got, ok, perr := r.Poll()
		if perr != nil || !ok || !bytes.Equal(got, want) {
			t.Fatalf("poll after the interior landed = (%q, %v, %v), want %q", got, ok, perr, want)
		}
		if r.Parked() != nil || r.TornStreak() != 0 {
			t.Fatalf("Parked() = %v, TornStreak() = %d after a validated record", r.Parked(), r.TornStreak())
		}
	}
	if _, ok, perr := r.Poll(); ok || perr != nil || !r.Quiescent() {
		t.Fatalf("drained ring polls (%v, %v), quiescent %v", ok, perr, r.Quiescent())
	}
}

// TestTornStreakResetsAfterHeal pins the one-shot diagnosis counter the
// health layer exposes: TornStreak climbs one per rejecting poll while a
// tear persists, drops to zero the moment the record validates, and a later
// tear starts its park countdown from scratch — a healed episode leaves no
// residue toward the tornRetryLimit quarantine.
func TestTornStreakResetsAfterHeal(t *testing.T) {
	region := make([]byte, RegionSize(256))
	w := NewWriter(256)
	r := NewReader(region)

	tearAndPoll := func(payload []byte, polls int) []Write {
		rec, err := codec.EncodeRaw(payload)
		if err != nil {
			t.Fatal(err)
		}
		writes, ok := w.Append(rec)
		if !ok {
			w.NoteHead(DecodeHead(region))
			if writes, ok = w.Append(rec); !ok {
				t.Fatal("ring full")
			}
		}
		landBoundary(region, writes[len(writes)-1])
		for p := 0; p < polls; p++ {
			if _, ok, perr := r.Poll(); ok || perr != nil {
				t.Fatalf("torn poll %d = (%v, %v)", p, ok, perr)
			}
			if got := r.TornStreak(); got != p+1 {
				t.Fatalf("TornStreak after %d rejects = %d", p+1, got)
			}
		}
		return writes
	}

	// First tear: one poll short of the park limit, then the interior lands.
	writes := tearAndPoll(bytes.Repeat([]byte{0xAA}, 24), tornRetryLimit-1)
	apply(region, writes)
	if _, ok, perr := r.Poll(); !ok || perr != nil {
		t.Fatalf("healed poll = (%v, %v)", ok, perr)
	}
	if got := r.TornStreak(); got != 0 {
		t.Fatalf("TornStreak after heal = %d, want 0", got)
	}

	// Second tear: the countdown must restart — tornRetryLimit-1 more
	// rejects still do not park, despite the earlier episode.
	writes = tearAndPoll(bytes.Repeat([]byte{0xBB}, 24), tornRetryLimit-1)
	if r.Parked() != nil {
		t.Fatalf("parked with a reset streak: %v", r.Parked())
	}
	apply(region, writes)
	if _, ok, perr := r.Poll(); !ok || perr != nil {
		t.Fatalf("second healed poll = (%v, %v)", ok, perr)
	}
	if got := r.TornStreak(); got != 0 {
		t.Fatalf("TornStreak after second heal = %d, want 0", got)
	}
}

// TestTornStreakResetsAcrossRecords pins that the consecutive-failure
// counter is per-stuck-record, not cumulative: torn landings that heal
// within a few polls never add up to a park, even across many records.
func TestTornStreakResetsAcrossRecords(t *testing.T) {
	region := make([]byte, RegionSize(512))
	w := NewWriter(512)
	r := NewReader(region)

	for i := 0; i < 2*tornRetryLimit; i++ {
		rec, err := codec.EncodeRaw(bytes.Repeat([]byte{byte(i + 1)}, 24))
		if err != nil {
			t.Fatal(err)
		}
		writes, ok := w.Append(rec)
		if !ok {
			w.NoteHead(DecodeHead(region))
			if writes, ok = w.Append(rec); !ok {
				t.Fatalf("ring full at record %d", i)
			}
		}
		// Land any wrap skip marker fully, then only the record's boundary.
		apply(region, writes[:len(writes)-1])
		landBoundary(region, writes[len(writes)-1])
		// A few torn polls, each rejected...
		for p := 0; p < tornRetryLimit-1; p++ {
			if _, ok, perr := r.Poll(); ok || perr != nil {
				t.Fatalf("record %d poll %d = (%v, %v)", i, p, ok, perr)
			}
		}
		// ...then the interior lands and the record delivers.
		apply(region, writes)
		got, ok, perr := r.Poll()
		if perr != nil || !ok || !bytes.Equal(got, rec) {
			t.Fatalf("record %d healed poll = (%v, %v)", i, ok, perr)
		}
	}
	if r.Parked() != nil {
		t.Fatalf("healing torn records parked the ring: %v", r.Parked())
	}
	want := uint64(2 * tornRetryLimit * (tornRetryLimit - 1))
	if got := r.TornRejects(); got != want {
		t.Fatalf("TornRejects = %d, want %d", got, want)
	}
}

// TestTornRingHeadToHead drives ring records over a torn link: a reader
// running the pre-CRC canary-only validation consumes at least one corrupt
// record without an error, while the CRC-validating reader delivers every
// record intact, counting the torn polls it rejected.
func TestTornRingHeadToHead(t *testing.T) {
	const capacity = 1024
	run := func(validate bool) (corrupt, delivered int, tornRejects uint64) {
		eng := sim.NewEngine(9)
		f := rdma.NewFabric(eng, 2, rdma.DefaultLatency())
		reg := f.Node(1).Register("ring", RegionSize(capacity))
		reg.AllowWrite(0)
		// Tear (2±0.5 µs) is longer than the reader's poll period (1 µs),
		// so every torn record is polled mid-tear at least once — but far
		// under tornRetryLimit polls, so the validating reader retries
		// rather than parking.
		f.SetLinkTorn(0, 1, 2*sim.Microsecond, 500*sim.Nanosecond)

		w := NewWriter(capacity)
		rd := NewReader(reg.Bytes())
		pollOne := rd.Poll
		if !validate {
			pollOne = func() ([]byte, bool, error) { return canaryOnlyPoll(rd) }
		}
		// Seeded corpus: one record per period, same size so a torn
		// overwrite of reused ring bytes is indistinguishable by framing
		// words alone.
		var want [][]byte
		for i := 0; i < 60; i++ {
			i := i
			eng.At(sim.Time(i+1)*6000, func() {
				payload := bytes.Repeat([]byte{byte(i + 1)}, 40)
				record, err := codec.EncodeRaw(payload)
				if err != nil {
					t.Fatal(err)
				}
				want = append(want, payload)
				writes, ok := w.Append(record)
				if !ok {
					w.NoteHead(DecodeHead(reg.Bytes()))
					writes, ok = w.Append(record)
				}
				if !ok {
					t.Fatalf("ring full at record %d", i)
				}
				for _, wr := range writes {
					f.Node(0).QP(1).Write("ring", wr.Off, wr.Data, nil)
				}
			})
		}
		poll := eng.NewTicker(sim.Microsecond, func() {
			for {
				rec, ok, err := pollOne()
				if err != nil {
					t.Fatalf("reader parked unexpectedly: %v", err)
				}
				if !ok {
					return
				}
				payload, _, derr := codec.DecodeRaw(rec)
				if derr != nil {
					// The canary-only reader consumed a record whose
					// interior had not landed.
					corrupt++
					continue
				}
				if delivered < len(want) && !bytes.Equal(payload, want[delivered]) {
					corrupt++
				}
				delivered++
			}
		})
		eng.RunUntil(sim.Time(400 * sim.Microsecond))
		poll.Cancel()
		eng.Run() // drain remaining landings, then poll out the tail
		for {
			rec, ok, err := pollOne()
			if err != nil {
				t.Fatalf("reader parked during drain: %v", err)
			}
			if !ok {
				break
			}
			if payload, _, derr := codec.DecodeRaw(rec); derr != nil {
				corrupt++
			} else if delivered < len(want) && !bytes.Equal(payload, want[delivered]) {
				corrupt++
			}
			delivered++
		}
		return corrupt, delivered, rd.TornRejects()
	}

	corrupt, _, _ := run(false)
	if corrupt == 0 {
		t.Fatal("canary-only reader never consumed a torn record: the fault injection is not tearing")
	}
	vCorrupt, vDelivered, vTorn := run(true)
	if vCorrupt != 0 {
		t.Fatalf("CRC-validating reader delivered %d corrupt records", vCorrupt)
	}
	if vDelivered != 60 {
		t.Fatalf("CRC-validating reader delivered %d records, want 60", vDelivered)
	}
	if vTorn == 0 {
		t.Fatal("CRC-validating reader never rejected a torn poll")
	}
	t.Logf("canary-only: %d corrupt consumes; CRC: 0 corrupt, %d torn rejects", corrupt, vTorn)
}
