package spec

import (
	"fmt"
	"slices"
)

// I64Set is a set of int64: the set-valued component of the grow-only,
// two-phase and observed-remove sets and of the relational schemas.
type I64Set map[int64]bool

// Clone returns a copy of the set.
func (s I64Set) Clone() I64Set {
	c := make(I64Set, len(s))
	for k := range s {
		c[k] = true
	}
	return c
}

// Equal reports whether both sets hold the same elements.
func (s I64Set) Equal(o I64Set) bool {
	if len(s) != len(o) {
		return false
	}
	for k := range s {
		if !o[k] {
			return false
		}
	}
	return true
}

// Sorted returns the elements in increasing order.
func (s I64Set) Sorted() []int64 {
	out := make([]int64, 0, len(s))
	for k := range s {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}

func (s I64Set) String() string { return fmt.Sprint(s.Sorted()) }

// UnionSorted returns the sorted, duplicate-free union of first and second:
// the Summarize of every set-valued summarization group. first is the
// accumulated summary — an earlier result of this function, so already sorted
// and duplicate-free — and second one client call's few elements in any
// order, so the work is one merge pass instead of a rebuild: the result is
// first itself when second adds nothing, otherwise one slice of exactly the
// union's size. Neither argument is written through. A first that is not
// sorted and duplicate-free (a raw client call, as spec.Check passes) is
// normalised on a copy, which costs what the rebuild used to.
func UnionSorted(first, second []int64) []int64 {
	if !sortedUnique(first) {
		first = UnionSorted(nil, first)
	}
	var small [8]int64 // a client call's elements fit: no allocation to sort them
	add := normalize(append(small[:0], second...))

	missing := 0
	rest := first
	for _, e := range add {
		i, found := slices.BinarySearch(rest, e)
		if !found {
			missing++
		}
		rest = rest[i:]
	}
	if missing == 0 {
		return first
	}
	out := make([]int64, 0, len(first)+missing)
	rest = first
	for _, e := range add {
		i, found := slices.BinarySearch(rest, e)
		out = append(out, rest[:i]...)
		rest = rest[i:]
		if !found {
			out = append(out, e)
		}
	}
	return append(out, rest...)
}

func sortedUnique(xs []int64) bool {
	for i := 1; i < len(xs); i++ {
		if xs[i-1] >= xs[i] {
			return false
		}
	}
	return true
}

// normalize sorts xs in place and drops duplicates.
func normalize(xs []int64) []int64 {
	slices.Sort(xs)
	return slices.Compact(xs)
}
