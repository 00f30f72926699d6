package crdt

import (
	"fmt"
	"testing"
	"time"

	"hamband/internal/spec"
)

// tagged describes an OR-set-like class for the tests below: the calls that
// add an element (item) under a tag and remove a tag.
type tagged struct {
	cls         *spec.Class
	add, remove func(e, tag int64) spec.Call
}

func orsetTagged() tagged {
	return tagged{
		cls:    NewORSet(),
		add:    func(e, tag int64) spec.Call { return spec.Call{Method: ORSetAdd, Args: spec.ArgsI(e, tag)} },
		remove: func(e, tag int64) spec.Call { return spec.Call{Method: ORSetRemove, Args: spec.ArgsI(e, tag)} },
	}
}

func cartTagged() tagged {
	return tagged{
		cls:    NewCart(),
		add:    func(e, tag int64) spec.Call { return spec.Call{Method: CartAdd, Args: spec.ArgsI(e, 1, tag)} },
		remove: func(e, tag int64) spec.Call { return spec.Call{Method: CartRemove, Args: spec.ArgsI(e, tag)} },
	}
}

// churn returns a state of c's class holding n live tags, one per element,
// and a step that removes the oldest live tag and adds its element back under
// a fresh one, so the state keeps n live tags however many steps run.
func (c tagged) churn(n int) func() {
	st := c.cls.NewState()
	for i := 0; i < n; i++ {
		c.cls.ApplyCall(st, c.add(int64(i), Tag(0, uint64(i))))
	}
	next := uint64(n)
	return func() {
		old := next - uint64(n)
		e := int64(old % uint64(n))
		c.cls.ApplyCall(st, c.remove(e, Tag(0, old)))
		c.cls.ApplyCall(st, c.add(e, Tag(0, next)))
		next++
	}
}

// maxSizeRatio bounds what an effector may cost at 64 k live tags against
// 1 k. An effector that scans the state costs over 60×; a lookup in the larger
// maps costs up to about 2× more for its cache misses alone.
const maxSizeRatio = 4

// sizeCosts returns the least time that 512 calls of small and of large
// take, over 9 to 45 trials. Their trials alternate, so load from other
// processes falls on both alike; and as load only ever slows a trial down,
// trials go on past the ninth only while large costs maxSizeRatio× small or
// more.
func sizeCosts(small, large func()) (time.Duration, time.Duration) {
	var best [2]time.Duration
	for trial := 0; trial < 45 && (trial < 9 || best[1] >= maxSizeRatio*best[0]); trial++ {
		for i, step := range []func(){small, large} {
			start := time.Now()
			for range 512 {
				step()
			}
			if d := time.Since(start); trial == 0 || d < best[i] {
				best[i] = d
			}
		}
	}
	return best[0], best[1]
}

// TestRemoveCostIsIndependentOfSize: a remove touches only the tags it names.
// Removing (and re-adding) 512 tags of an OR-set or a cart of 64 k live tags
// costs less than maxSizeRatio× what it costs at 1 k; an effector that scans
// the elements for each tag costs over 100×.
func TestRemoveCostIsIndependentOfSize(t *testing.T) {
	for _, c := range []tagged{orsetTagged(), cartTagged()} {
		small, large := sizeCosts(c.churn(1<<10), c.churn(1<<16))
		ratio := float64(large) / float64(small)
		t.Logf("%s: 512 removes at 1k live tags %v, at 64k %v (%.1f×)", c.cls.Name, small, large, ratio)
		if ratio >= maxSizeRatio {
			t.Errorf("%s: remove at 64k live tags costs %.1f× what it costs at 1k, want < %d×", c.cls.Name, ratio, maxSizeRatio)
		}
	}
}

// permutations returns every order of 0..n-1.
func permutations(n int) [][]int {
	if n == 0 {
		return [][]int{nil}
	}
	var out [][]int
	for _, p := range permutations(n - 1) {
		for i := 0; i <= len(p); i++ {
			q := append(append(append([]int(nil), p[:i]...), n-1), p[i:]...)
			out = append(out, q)
		}
	}
	return out
}

// TestIllFormedDuplicateTagsCommute: a tag added under two elements (items)
// is ill-formed, since Tag mints each tag for one add, but users pass their
// own tags. Every order of three adds of one tag — two elements, one of them
// twice, the cart's with two quantities — an add of another tag to the second
// element and a remove of the first tag ends in Equal states with the same
// query answers; so does every order of the adds alone, whichever element each
// order stores the tag under first.
func TestIllFormedDuplicateTagsCommute(t *testing.T) {
	tag, other := Tag(1, 7), Tag(2, 7)
	cases := []struct {
		cls   *spec.Class
		calls []spec.Call
		query spec.MethodID
	}{
		{NewORSet(), []spec.Call{
			{Method: ORSetAdd, Args: spec.ArgsI(1, tag)},
			{Method: ORSetAdd, Args: spec.ArgsI(2, tag)},
			{Method: ORSetAdd, Args: spec.ArgsI(1, tag)},
			{Method: ORSetAdd, Args: spec.ArgsI(2, other)},
			{Method: ORSetRemove, Args: spec.ArgsI(1, tag)},
		}, ORSetContains},
		{NewCart(), []spec.Call{
			{Method: CartAdd, Args: spec.ArgsI(1, 3, tag)},
			{Method: CartAdd, Args: spec.ArgsI(2, 4, tag)},
			{Method: CartAdd, Args: spec.ArgsI(1, 5, tag)},
			{Method: CartAdd, Args: spec.ArgsI(2, 6, other)},
			{Method: CartRemove, Args: spec.ArgsI(1, tag)},
		}, CartQty},
	}
	for _, tc := range cases {
		for _, calls := range [][]spec.Call{tc.calls, tc.calls[:len(tc.calls)-1]} {
			var first spec.State
			var answers string
			for _, order := range permutations(len(calls)) {
				st := tc.cls.NewState()
				for _, i := range order {
					tc.cls.ApplyCall(st, calls[i])
				}
				got := fmt.Sprint(tc.cls.Methods[tc.query].Eval(st, spec.ArgsI(1)), tc.cls.Methods[tc.query].Eval(st, spec.ArgsI(2)))
				if first == nil {
					first, answers = st, got
					continue
				}
				if !st.Equal(first) || !first.Equal(st) {
					t.Errorf("%s: order %v of %d calls ends in a state that is not Equal to the first order's", tc.cls.Name, order, len(calls))
				}
				if got != answers {
					t.Errorf("%s: order %v of %d calls answers %s, the first order %s", tc.cls.Name, order, len(calls), got, answers)
				}
			}
			t.Logf("%s, %d calls: every order answers %s", tc.cls.Name, len(calls), answers)
		}
	}
}

// BenchmarkORSetRemove is one OR-set remove, plus the add that keeps the
// state at its size, at 1 k and at 64 k live tags.
func BenchmarkORSetRemove(b *testing.B) { benchmarkRemove(b, orsetTagged()) }

// BenchmarkCartRemove is BenchmarkORSetRemove for the cart.
func BenchmarkCartRemove(b *testing.B) { benchmarkRemove(b, cartTagged()) }

func benchmarkRemove(b *testing.B, c tagged) {
	for _, n := range []int{1 << 10, 1 << 16} {
		b.Run(fmt.Sprintf("tags=%dk", n>>10), func(b *testing.B) {
			step := c.churn(n)
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				step()
			}
		})
	}
}
