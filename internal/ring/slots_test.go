package ring

import (
	"bytes"
	"fmt"
	"slices"
	"strings"
	"testing"

	"hamband/internal/codec"
	"hamband/internal/rdma"
	"hamband/internal/sim"
)

// slotsRig is a region of four 64-byte slots on both nodes of a two-node
// fabric: node 0 owns the slots it writes, and node 1 reads node 0's copy.
type slotsRig struct {
	eng          *sim.Engine
	fab          *rdma.Fabric
	owner, local *Slots
}

const rigSlots, rigSlotSize = 4, 64

func newSlotsRig() *slotsRig {
	rig := &slotsRig{eng: sim.NewEngine(3)}
	rig.fab = rdma.NewFabric(rig.eng, 2, rdma.DefaultLatency())
	for i := 0; i < 2; i++ {
		rig.fab.Node(rdma.NodeID(i)).Register("slots", rigSlots*rigSlotSize)
	}
	rig.owner = NewSlots(rig.fab.Node(0), "slots", rigSlots, rigSlotSize)
	rig.local = NewSlots(rig.fab.Node(1), "slots", rigSlots, rigSlotSize)
	return rig
}

// rawRecord is the ring record of payload.
func rawRecord(t testing.TB, payload string) []byte {
	t.Helper()
	rec, err := codec.EncodeRaw([]byte(payload))
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

// tornRecord is the ring record of payload with an interior byte flipped: its length
// word and canary are in place and its CRC fails, a write whose interior has
// not landed.
func tornRecord(t testing.TB, payload string) []byte {
	rec := rawRecord(t, payload)
	rec[5] ^= 0xFF
	return rec
}

// slotOf returns seq's slot in the owner's memory.
func (rig *slotsRig) slotOf(seq uint64) []byte {
	off := rig.owner.at(seq)
	return rig.fab.Node(0).Region("slots").Bytes()[off : off+rigSlotSize]
}

// records runs node 1's read of records [lo, hi) to completion and returns
// a copy of what it found in each slot, and the READs the fabric posted.
func (rig *slotsRig) records(t *testing.T, lo, hi uint64) (found [][]byte, reads uint64) {
	t.Helper()
	before := rig.fab.Stats().Reads
	done := false
	rig.eng.At(rig.eng.Now(), func() {
		rig.local.Read(rig.fab.Node(1).QP(0), lo, hi, func(rec func(uint64) []byte, err error) {
			if err != nil {
				t.Fatalf("read [%d, %d): %v", lo, hi, err)
			}
			for seq := lo; seq < hi; seq++ {
				found = append(found, bytes.Clone(rec(seq)))
			}
			done = true
		})
	})
	rig.eng.RunFor(sim.Millisecond)
	if !done {
		t.Fatalf("read [%d, %d) did not complete", lo, hi)
	}
	return found, rig.fab.Stats().Reads - before
}

// read is records with each record as a string, "" for none.
func (rig *slotsRig) read(t *testing.T, lo, hi uint64) (found []string, reads uint64) {
	t.Helper()
	recs, reads := rig.records(t, lo, hi)
	for _, rec := range recs {
		found = append(found, string(rec))
	}
	return found, reads
}

// TestSlotsEmptyIsNotTorn: a slot with a zero length word is empty — nil and
// not counted — whatever the rest of it holds, and a cleared slot is empty;
// the read around them is one READ.
func TestSlotsEmptyIsNotTorn(t *testing.T) {
	rig := newSlotsRig()
	rig.owner.Put(0, rawRecord(t, "zero"))
	rig.owner.Put(1, rawRecord(t, "cleared"))
	rig.owner.Clear(1)
	copy(rig.slotOf(2)[4:], "stale tail behind a zero length word")
	found, reads := rig.read(t, 0, 4)
	if want := []string{"zero", "", "", ""}; !slices.Equal(found, want) {
		t.Fatalf("found %q, want %q", found, want)
	}
	if reads != 1 || rig.local.TornRejects() != 0 {
		t.Fatalf("%d READs, %d torn: want one READ and no torn slot", reads, rig.local.TornRejects())
	}
}

// TestSlotsTornSlotIsRereadThenNil: a slot torn for good is counted on each of
// rdma.TornLooks READs of its span and then read as nil, while its intact
// neighbour is read from the last look.
func TestSlotsTornSlotIsRereadThenNil(t *testing.T) {
	rig := newSlotsRig()
	rig.owner.Put(5, rawRecord(t, "intact"))
	copy(rig.slotOf(6), tornRecord(t, "never lands"))
	found, reads := rig.read(t, 5, 7)
	if want := []string{"intact", ""}; !slices.Equal(found, want) {
		t.Fatalf("found %q, want %q", found, want)
	}
	if reads != rdma.TornLooks || rig.local.TornRejects() != rdma.TornLooks {
		t.Fatalf("%d READs, %d torn: want %d of each", reads, rig.local.TornRejects(), rdma.TornLooks)
	}
}

// TestSlotsTornSlotHealsOnReread: a tear whose interior lands between two
// looks is counted once and read whole from the re-read.
func TestSlotsTornSlotHealsOnReread(t *testing.T) {
	rig := newSlotsRig()
	whole := rawRecord(t, "lands late")
	copy(rig.slotOf(3), tornRecord(t, "lands late"))
	var probe *sim.Ticker
	probe = rig.eng.NewTicker(10*sim.Nanosecond, func() {
		if rig.local.TornRejects() == 1 { // the first look saw the tear: the interior lands
			copy(rig.slotOf(3), whole)
			probe.Cancel()
		}
	})
	found, reads := rig.read(t, 3, 4)
	if want := []string{"lands late"}; !slices.Equal(found, want) {
		t.Fatalf("found %q, want %q", found, want)
	}
	if reads != 2 || rig.local.TornRejects() != 1 {
		t.Fatalf("%d READs, %d torn: want two READs and the tear counted once", reads, rig.local.TornRejects())
	}
}

// TestRereadWrappedSlotsKeepTheFirstSpan: a range that wraps past the last
// slot is two READs, and the first span to land must outlive its callback
// until the second does, although a READ lends its bytes only until then. The
// second span holds a tear that heals only on its last look, so node 1 posts
// reads of its own between the spans — each takes the verb record the first
// span's bytes were lent from — and every record must still read back as
// written. A range as long as the region is one READ of all of it.
func TestRereadWrappedSlotsKeepTheFirstSpan(t *testing.T) {
	rig := newSlotsRig()
	for seq := uint64(6); seq < 10; seq++ {
		rig.owner.Put(seq, rawRecord(t, fmt.Sprintf("rec-%d", seq)))
	}
	whole := rawRecord(t, "rec-9")
	copy(rig.slotOf(9), tornRecord(t, "rec-9"))
	var probe *sim.Ticker
	probe = rig.eng.NewTicker(250*sim.Nanosecond, func() {
		rig.fab.Node(1).QP(0).Read("slots", 0, rigSlotSize, func(data []byte, _ error) { clear(data) })
		if rig.local.TornRejects() == rdma.TornLooks-1 {
			copy(rig.slotOf(9), whole)
			probe.Cancel()
		}
	})
	found, _ := rig.read(t, 6, 10) // slots 2, 3, then 0, 1
	if want := []string{"rec-6", "rec-7", "rec-8", "rec-9"}; !slices.Equal(found, want) {
		t.Fatalf("found %q, want %q", found, want)
	}
	if n := rig.local.TornRejects(); n != rdma.TornLooks-1 {
		t.Fatalf("%d torn looks, want %d", n, rdma.TornLooks-1)
	}
	found, reads := rig.read(t, 4, 12)
	if want := []string{"rec-8", "rec-9", "rec-6", "rec-7", "rec-8", "rec-9", "rec-6", "rec-7"}; !slices.Equal(found, want) {
		t.Fatalf("an 8-record range over 4 slots found %q, want slot seq mod 4 for each seq: %q", found, want)
	}
	if reads != 1 {
		t.Fatalf("a range as long as the region took %d READs, want 1", reads)
	}
}

// TestOversizePutLeavesNoTornSlot: a record larger than a slot panics with
// both sizes before it writes a byte, so the slot keeps what it held.
func TestOversizePutLeavesNoTornSlot(t *testing.T) {
	rig := newSlotsRig()
	rig.owner.Put(1, rawRecord(t, "kept"))
	held := bytes.Clone(rig.slotOf(1))
	big := rawRecord(t, strings.Repeat("x", rigSlotSize))
	func() {
		defer func() {
			msg, _ := recover().(string)
			if !strings.Contains(msg, fmt.Sprintf("%d-byte record", len(big))) || !strings.Contains(msg, fmt.Sprintf("%d-byte slot", rigSlotSize)) {
				t.Fatalf("oversize Put: %q, want a panic naming both sizes", msg)
			}
		}()
		rig.owner.Put(1, big)
	}()
	if !bytes.Equal(rig.slotOf(1), held) {
		t.Fatal("the refused record was written into the slot")
	}
	if found, _ := rig.read(t, 1, 2); found[0] != "kept" || rig.local.TornRejects() != 0 {
		t.Fatalf("after the refused Put the slot reads %q with %d torn", found[0], rig.local.TornRejects())
	}
}

// FuzzSlots reads arbitrary bytes out of a slot. The read must not panic, and
// it has exactly one of three outcomes: empty (a zero length word: no record,
// no torn look), torn (no record, each of rdma.TornLooks looks counted), or a
// record that codec.EncodeRaw re-encodes into the slot's bytes exactly.
func FuzzSlots(f *testing.F) {
	f.Add(rawRecord(f, "a record"))
	f.Add(rawRecord(f, ""))
	f.Add(tornRecord(f, "torn"))
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0, 1, 2, 3})
	f.Add([]byte{9, 0, 0, 0, 'x', 0, 0, 0, 0, codec.Canary})
	f.Add(bytes.Repeat([]byte{0xFF}, rigSlotSize))
	rig := newSlotsRig()
	f.Fuzz(func(t *testing.T, b []byte) {
		slot := rig.slotOf(0)
		clear(slot)
		copy(slot, b)
		before := rig.local.TornRejects()
		found, _ := rig.records(t, 0, 1)
		rec, looks := found[0], rig.local.TornRejects()-before
		empty := slot[0] == 0 && slot[1] == 0 && slot[2] == 0 && slot[3] == 0
		switch {
		case rec != nil:
			enc, err := codec.EncodeRaw(rec)
			if err != nil || empty || looks != 0 || !bytes.Equal(enc, slot[:min(len(enc), len(slot))]) {
				t.Fatalf("record %x from slot %x (%d torn looks): re-encodes to %x, %v", rec, slot, looks, enc, err)
			}
		case empty:
			if looks != 0 {
				t.Fatalf("empty slot %x counted %d torn looks", slot, looks)
			}
		case looks != rdma.TornLooks:
			t.Fatalf("no record from slot %x after %d torn looks, want %d", slot, looks, rdma.TornLooks)
		}
	})
}
