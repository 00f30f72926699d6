package core

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"hamband/internal/codec"
	"hamband/internal/crdt"
	"hamband/internal/schema"
	"hamband/internal/sim"
	"hamband/internal/spec"
)

// runLaw drives one δ-run of cls's group g from p0 to p1 and reports how p1's
// slot differs from p0's own, which folded the run's calls one at a time —
// what p1 holds after folding their k one-call records. p0 issues k random
// calls of the group inside one engine event, so they meet in one flush and
// fold into one record. With straddle, p1 first adopts p0's whole slot as it
// stood after j < k of them, as a fetch landing mid-run does (adoptSlot folds
// the run's record of j calls onto the anchor); p1 must then fetch rather
// than fold the grown record, which straddles its version. foldStraddle is
// the mutation: p1 forgets it is mid-run — its version drops back to the
// run's first version minus one, the summary stays — and so folds the
// straddling record as if it were next.
func runLaw(t *testing.T, cls *spec.Class, g int, seed int64, straddle, foldStraddle bool) error {
	t.Helper()
	h := newHarness(t, cls, 2, seed, func(o *Options) {
		o.DisableFailureHandling = true
		o.CheckIntegrity = false
	})
	rng := rand.New(rand.NewSource(seed))
	r0, r1 := h.cluster.Replica(0), h.cluster.Replica(1)
	methods := cls.SumGroups[g].Methods
	call := func() spec.Call { return cls.Gen.Call(rng, methods[rng.Intn(len(methods))]) }
	reduce := func(c spec.Call) { r0.invokeReduce(c.Method, c.Args, h.eng.Now(), nil) }

	// The first call anchors; a few single-call runs, each a flush apart,
	// give the slot a summary to fold onto.
	for i := 0; i < 1+rng.Intn(4); i++ {
		h.eng.At(h.eng.Now()+sim.Time(i)*sim.Time(5*sim.Microsecond), func() { reduce(call()) })
	}
	h.eng.RunFor(100 * sim.Microsecond)
	deltas, _, _ := r0.DeltaStats()

	k := 2 + rng.Intn(7)
	j := 1 + rng.Intn(k-1)
	off := r0.slotOffset(g, 0)
	h.eng.At(h.eng.Now(), func() {
		for i := 0; i < k; i++ {
			reduce(call())
			if straddle && i == j-1 {
				own := r0.node.Region(r0.sumRegion).Bytes()[off : off+r0.opts.SumSlotSize]
				hd, err := codec.PeekDeltaRecord(own)
				if err != nil || !r1.adoptSlot(g, 0, own, hd) || r1.sums[g][0].version != r0.sums[g][0].version {
					t.Fatalf("%s: p1 did not adopt p0's slot at v%d after %d of %d calls (%v)", cls.Name, r0.sums[g][0].version, j, k, err)
				}
				if foldStraddle {
					r1.sums[g][0].version -= uint32(j)
				}
			}
		}
	})
	h.eng.RunFor(100 * sim.Microsecond)

	want, got := r0.sums[g][0], r1.sums[g][0]
	if d, _, _ := r0.DeltaStats(); d != deltas+1 {
		return fmt.Errorf("%s: the %d-call burst shipped %d δ-records, want 1", cls.Name, k, d-deltas)
	}
	if got.version != want.version {
		return fmt.Errorf("%s: p1 holds v%d, p0 v%d", cls.Name, got.version, want.version)
	}
	for _, u := range methods {
		if a, b := r1.applied.Get(0, u), r0.applied.Get(0, u); a != b {
			return fmt.Errorf("%s: p1 counts %d calls of %s from p0, p0 %d", cls.Name, a, cls.Methods[u].Name, b)
		}
	}
	if got.call.Method != want.call.Method || !got.call.SameRequest(want.call) {
		return fmt.Errorf("%s: p1's summary is %s, p0's %s", cls.Name, got.call.Format(cls), want.call.Format(cls))
	}
	// Summaries may order their arguments differently (a union folded in
	// another association); what they must agree on is their effect.
	for i := 0; i < 4; i++ {
		base := cls.Gen.State(rng)
		a, b := base.Clone(), base.Clone()
		cls.ApplyCall(a, got.call)
		cls.ApplyCall(b, want.call)
		if !a.Equal(b) {
			return fmt.Errorf("%s: p1's summary %s and p0's %s differ in effect", cls.Name, got.call.Format(cls), want.call.Format(cls))
		}
	}
	if err := checkViews(r1); err != nil {
		return err
	}
	if _, _, fetches := r1.DeltaStats(); straddle != (fetches == 1) {
		return fmt.Errorf("%s: p1 made %d fetches, want %d", cls.Name, fetches, map[bool]int{false: 0, true: 1}[straddle])
	}
	return nil
}

// summarized are the bundled classes with a summarization group.
func summarized(t *testing.T) []*spec.Class {
	var out []*spec.Class
	for _, cls := range schema.Bundled() {
		if len(cls.SumGroups) > 0 {
			out = append(out, cls)
		}
	}
	if len(out) != 12 {
		t.Fatalf("%d bundled classes have a summarization group, want 12", len(out))
	}
	return out
}

// TestRunRecordFoldsLikeItsCalls is the δ-group law at the runtime: for each
// of the 12 summarized classes and each of their groups, a peer that folds a
// burst of k random calls as one run record holds the summary (in effect and
// identity), counts and version the issuer reached folding them one at a
// time — and a peer that a fetch left mid-run fetches again instead of
// folding the record that straddles its version.
func TestRunRecordFoldsLikeItsCalls(t *testing.T) {
	for _, cls := range summarized(t) {
		for g := range cls.SumGroups {
			for seed := int64(1); seed <= 6; seed++ {
				if err := runLaw(t, cls, g, 100*seed+int64(g), seed%2 == 0, false); err != nil {
					t.Errorf("group %d, seed %d: %v", g, seed, err)
				}
			}
		}
	}
}

// TestRunLawCatchesStraddleFold is the mutation control: a peer that folds a
// record straddling its version, instead of fetching, re-applies the calls
// the fetch already gave it — a counter adds them twice — and fails the law.
func TestRunLawCatchesStraddleFold(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		err := runLaw(t, crdt.NewCounter(), 0, seed, true, true)
		if err == nil || !strings.Contains(err.Error(), "differ in effect") {
			t.Fatalf("seed %d: a counter peer folding a straddling run: %v, want its summary to differ", seed, err)
		}
		t.Logf("seed %d: caught: %v", seed, err)
	}
}

// TestShrinkingRunReencode pins a run record that gets shorter as it grows:
// the counter run's first call carries its own identity, the folded call
// none, and the sum 64 − 1 packs a byte shorter than 64. The writer pads the
// shorter encoding with zeros to the write's extent, so behind the new record
// a peer's walk finds an empty length word and stops: no torn reject, no
// fetch, and the run folds whole.
func TestShrinkingRunReencode(t *testing.T) {
	h := newHarness(t, crdt.NewCounter(), 2, 80, func(o *Options) {
		o.DisableFailureHandling = true
	})
	r0, r1 := h.cluster.Replica(0), h.cluster.Replica(1)
	h.eng.At(0, func() { r0.invokeReduce(crdt.CounterAdd, spec.ArgsI(1), 0, nil) }) // the anchor
	h.eng.RunFor(20 * sim.Microsecond)
	r0.nextSeq = 1000 // a two-byte identity for the run's first call
	var lens []int
	h.eng.At(h.eng.Now(), func() {
		for _, v := range []int64{64, -1} {
			r0.invokeReduce(crdt.CounterAdd, spec.ArgsI(v), h.eng.Now(), nil)
			lens = append(lens, r0.deltaW[0].logOff)
		}
	})
	if !h.drain(20 * sim.Millisecond) {
		t.Fatal("the run did not replicate")
	}
	if lens[1] >= lens[0] {
		t.Fatalf("run record lengths %v: the re-encoding did not shrink", lens)
	}
	log := nodeLogOfWriter(r1, 0)
	hd, err := codec.PeekDeltaRecord(log)
	if err != nil || hd.Version != 3 || hd.Span != 2 || hd.Total != lens[1] {
		t.Fatalf("p1's log head is %+v (%v), want the %d-byte run v2..v3", hd, err, lens[1])
	}
	if _, err := codec.PeekDeltaRecord(log[hd.Total:]); !errors.Is(err, codec.ErrIncomplete) || errors.Is(err, codec.ErrTruncated) {
		t.Fatalf("behind the run: %v, want an empty length word", err)
	}
	if !slices.Equal(log[hd.Total:lens[0]], make([]byte, lens[0]-lens[1])) {
		t.Fatalf("bytes %d..%d of the log are %v, want the zero padding", hd.Total, lens[0], log[hd.Total:lens[0]])
	}
	if got := r1.CurrentState().(*crdt.CounterState).V; got != 64 {
		t.Fatalf("p1 reads %d, want 1+64−1 = 64", got)
	}
	if _, _, fetches := deltaStats(h.cluster); fetches != 0 || r1.TornRejects() != 0 {
		t.Fatalf("%d fetches and %d torn rejects, want none", fetches, r1.TornRejects())
	}
}
