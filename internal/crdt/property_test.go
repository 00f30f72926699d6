package crdt

import (
	"math/rand"
	"testing"
	"testing/quick"

	"hamband/internal/spec"
)

// pureCRDTs lists the classes whose updates must commute unconditionally
// (trivial invariant, no coordination): the property-test subjects this
// file covers beyond the handful with bespoke tests in crdt_test.go.
func pureCRDTs() []*spec.Class {
	return []*spec.Class{
		NewCart(), NewGSet(), NewLWW(), NewLWWMap(), NewORSet(), NewPNCounter(), NewTwoPSet(),
	}
}

// idempotentCRDTs lists the classes whose updates are additionally
// idempotent: re-applying a delivered call must not move the state. The
// counters are deliberately absent — increments are not idempotent.
func idempotentCRDTs() []*spec.Class {
	return []*spec.Class{
		NewCart(), NewGSet(), NewLWW(), NewLWWMap(), NewORSet(), NewTwoPSet(),
	}
}

// genCalls draws n random update calls from the class generators.
func genCalls(cls *spec.Class, r *rand.Rand, n int) []spec.Call {
	ups := cls.UpdateMethods()
	calls := make([]spec.Call, n)
	for i := range calls {
		calls[i] = cls.Gen.Call(r, ups[r.Intn(len(ups))])
	}
	return calls
}

func applyAll(cls *spec.Class, s spec.State, calls []spec.Call) spec.State {
	for _, c := range calls {
		cls.ApplyCall(s, c)
	}
	return s
}

// TestUpdatesCommutePairwise checks c1;c2 ≡ c2;c1 from random reachable
// states for every pure CRDT — the S-commutativity their conflict-free
// analysis claims.
func TestUpdatesCommutePairwise(t *testing.T) {
	for _, cls := range pureCRDTs() {
		cls := cls
		f := func(seed int64) bool {
			r := rand.New(rand.NewSource(seed))
			base := cls.Gen.State(r)
			calls := genCalls(cls, r, 2)
			s1 := applyAll(cls, base.Clone(), calls)
			s2 := applyAll(cls, base.Clone(), []spec.Call{calls[1], calls[0]})
			return s1.Equal(s2)
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("%s: %v", cls.Name, err)
		}
	}
}

// TestUpdatesIdempotent checks c;c ≡ c from random reachable states for
// the idempotent classes, so duplicate delivery can never corrupt them.
func TestUpdatesIdempotent(t *testing.T) {
	for _, cls := range idempotentCRDTs() {
		cls := cls
		f := func(seed int64) bool {
			r := rand.New(rand.NewSource(seed))
			base := cls.Gen.State(r)
			c := genCalls(cls, r, 1)[0]
			once := applyAll(cls, base.Clone(), []spec.Call{c})
			twice := applyAll(cls, base.Clone(), []spec.Call{c, c})
			return once.Equal(twice)
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("%s: %v", cls.Name, err)
		}
	}
}

// TestPairwiseMergeConverges models two replicas that each apply their own
// random sequence and then deliver the other's: both must converge to one
// state regardless of the interleaving — the op-based analogue of
// state-merge convergence.
func TestPairwiseMergeConverges(t *testing.T) {
	for _, cls := range pureCRDTs() {
		cls := cls
		f := func(seed int64) bool {
			r := rand.New(rand.NewSource(seed))
			mine := genCalls(cls, r, 1+r.Intn(5))
			theirs := genCalls(cls, r, 1+r.Intn(5))
			a := applyAll(cls, applyAll(cls, cls.NewState(), mine), theirs)
			b := applyAll(cls, applyAll(cls, cls.NewState(), theirs), mine)
			if !a.Equal(b) {
				return false
			}
			// A third replica interleaving the two sequences call-by-call
			// must land on the same state.
			c := cls.NewState()
			for i := 0; i < len(mine) || i < len(theirs); i++ {
				if i < len(mine) {
					cls.ApplyCall(c, mine[i])
				}
				if i < len(theirs) {
					cls.ApplyCall(c, theirs[i])
				}
			}
			return a.Equal(c)
		}
		if err := quick.Check(f, nil); err != nil {
			t.Errorf("%s: %v", cls.Name, err)
		}
	}
}

// TestSummarizeMatchesSequential checks, for every summarization group of
// every pure CRDT, that a run of 2–12 calls folded left by Summarize replays
// as the calls in order, and so do the two folds of any split of the run —
// the defining property that lets summary slots and δ-records stand for
// their calls, however many of them a reader finds in one pass.
func TestSummarizeMatchesSequential(t *testing.T) {
	for _, cls := range pureCRDTs() {
		for gi := range cls.SumGroups {
			cls, gi := cls, gi
			g := cls.SumGroups[gi]
			fold := func(calls []spec.Call) spec.Call {
				d := calls[0].Clone() // Summarize consumes its first argument
				for _, c := range calls[1:] {
					d = g.Summarize(d, c)
				}
				return d
			}
			f := func(seed int64) bool {
				r := rand.New(rand.NewSource(seed))
				calls := make([]spec.Call, 2+r.Intn(11))
				for i := range calls {
					calls[i] = cls.Gen.Call(r, g.Methods[r.Intn(len(g.Methods))])
				}
				base := cls.Gen.State(r)
				seq := applyAll(cls, base.Clone(), calls)
				if !seq.Equal(applyAll(cls, base.Clone(), []spec.Call{fold(calls)})) {
					return false
				}
				for mid := 1; mid < len(calls); mid++ {
					split := []spec.Call{fold(calls[:mid]), fold(calls[mid:])}
					if !seq.Equal(applyAll(cls, base.Clone(), split)) {
						return false
					}
				}
				return true
			}
			if err := quick.Check(f, nil); err != nil {
				t.Errorf("%s group %s: %v", cls.Name, g.Name, err)
			}
		}
	}
}

// TestSummaryIdentityIsNeutral checks each group's Identity call really is
// neutral: applying it moves no state and summarizing with it is a no-op.
func TestSummaryIdentityIsNeutral(t *testing.T) {
	for _, cls := range pureCRDTs() {
		for gi := range cls.SumGroups {
			cls, gi := cls, gi
			g := cls.SumGroups[gi]
			f := func(seed int64) bool {
				r := rand.New(rand.NewSource(seed))
				base := cls.Gen.State(r)
				moved := applyAll(cls, base.Clone(), []spec.Call{g.Identity()})
				if !base.Equal(moved) {
					return false
				}
				c := cls.Gen.Call(r, g.Methods[r.Intn(len(g.Methods))])
				viaSum := applyAll(cls, base.Clone(), []spec.Call{g.Summarize(g.Identity(), c)})
				direct := applyAll(cls, base.Clone(), []spec.Call{c})
				return viaSum.Equal(direct)
			}
			if err := quick.Check(f, nil); err != nil {
				t.Errorf("%s group %s: %v", cls.Name, g.Name, err)
			}
		}
	}
}
