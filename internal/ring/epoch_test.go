package ring

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"

	"hamband/internal/codec"
)

// epochRecord frames a payload whose first four bytes carry the epoch —
// the same shape the broadcast layer stamps on its messages.
func epochRecord(t *testing.T, epoch uint32, body byte) []byte {
	t.Helper()
	payload := make([]byte, 12)
	binary.LittleEndian.PutUint32(payload, epoch)
	payload[4] = body
	rec, err := codec.EncodeRaw(payload)
	if err != nil {
		t.Fatal(err)
	}
	return rec
}

func epochGate(rec []byte) (uint32, bool) {
	msg, _, err := codec.DecodeRaw(rec)
	if err != nil || len(msg) < 4 {
		return 0, false
	}
	return binary.LittleEndian.Uint32(msg), true
}

// TestEpochGateRejectsStaleDeterministically is the epoch-ordering property
// test: whatever the arrival interleaving — how many records land between
// consecutive polls — the gated reader delivers exactly the records stamped
// with a current epoch, in append order, and counts exactly the stale ones.
func TestEpochGateRejectsStaleDeterministically(t *testing.T) {
	prop := func(seed int64, nRecords uint8, minEpoch uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + int(nRecords)%24
		min := uint32(minEpoch % 4)

		region := make([]byte, RegionSize(1<<12))
		w := NewWriter(1 << 12)
		r := NewReader(region)
		r.SetEpochGate(epochGate)
		r.Floor().Raise(min)

		epochs := make([]uint32, n)
		var want [][]byte
		var wantStale uint64
		for i := range epochs {
			epochs[i] = uint32(rng.Intn(4))
			if epochs[i] < min {
				wantStale++
			}
		}

		var got [][]byte
		drain := func() {
			for {
				rec, ok, err := r.Poll()
				if err != nil {
					t.Errorf("poll: %v", err)
					return
				}
				if !ok {
					return
				}
				got = append(got, bytes.Clone(rec)) // valid only until the next Poll
			}
		}
		for i, e := range epochs {
			rec := epochRecord(t, e, byte(i))
			writes, ok := w.Append(rec)
			if !ok {
				t.Error("append refused")
				return false
			}
			apply(region, writes)
			if e >= min {
				want = append(want, rec)
			}
			// Random interleaving: sometimes poll after each landing,
			// sometimes let several records accumulate first.
			if rng.Intn(3) == 0 {
				drain()
			}
		}
		drain()

		if len(got) != len(want) {
			t.Errorf("delivered %d records, want %d (min epoch %d, epochs %v)",
				len(got), len(want), min, epochs)
			return false
		}
		for i := range want {
			if !bytes.Equal(got[i], want[i]) {
				t.Errorf("record %d out of order or corrupted", i)
				return false
			}
		}
		if r.StaleRejects() != wantStale {
			t.Errorf("StaleRejects = %d, want %d", r.StaleRejects(), wantStale)
			return false
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestEpochGateMonotone pins the floor's forward-only behavior and that
// an ungated reader (no extractor) ignores the minimum entirely.
func TestEpochGateMonotone(t *testing.T) {
	r := NewReader(make([]byte, RegionSize(256)))
	r.Floor().Raise(3)
	r.Floor().Raise(1) // stale configuration view: must not regress
	if r.Floor().Min() != 3 {
		t.Fatalf("floor = %d, want 3", r.Floor().Min())
	}

	region := make([]byte, RegionSize(256))
	w := NewWriter(256)
	ungated := NewReader(region)
	ungated.Floor().Raise(7) // no extractor installed: every record passes
	rec := epochRecord(t, 0, 1)
	writes, _ := w.Append(rec)
	apply(region, writes)
	if _, ok, _ := ungated.Poll(); !ok {
		t.Fatal("ungated reader rejected a record")
	}
	if ungated.StaleRejects() != 0 {
		t.Fatal("ungated reader counted a stale reject")
	}
}

// TestEpochFloorDrainProof pins the floor type the ring reader, the broadcast
// receiver and the summary scan share: a parked floor admits the old epoch
// until the drain proof arrives, the highest parked value wins, and neither
// path ever lowers the floor.
func TestEpochFloorDrainProof(t *testing.T) {
	var f EpochFloor
	f.RaiseAfterDrain(2)
	f.RaiseAfterDrain(1) // an older change's floor must not replace a newer one
	if !f.Admits(0) || f.Min() != 0 || f.Pending() != 2 {
		t.Fatalf("parked floor took effect early: min %d pending %d", f.Min(), f.Pending())
	}
	f.Drained()
	if f.Admits(1) || !f.Admits(2) || f.Pending() != 0 {
		t.Fatalf("after drain: min %d pending %d, want 2 and 0", f.Min(), f.Pending())
	}
	f.RaiseAfterDrain(2) // not above the active floor: nothing to park
	f.Raise(1)
	f.Drained() // a proof with nothing parked changes nothing
	if f.Min() != 2 || f.Pending() != 0 {
		t.Fatalf("floor regressed or re-parked: min %d pending %d", f.Min(), f.Pending())
	}

	// The reader brings its own proof: the first quiescent poll promotes.
	r := NewReader(make([]byte, RegionSize(256)))
	r.Floor().RaiseAfterDrain(5)
	if _, ok, err := r.Poll(); ok || err != nil || r.Floor().Min() != 5 {
		t.Fatalf("idle poll did not promote the parked floor: min %d", r.Floor().Min())
	}
}
