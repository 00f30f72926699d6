package spec

import (
	"fmt"
	"slices"
)

// I64Set is a set of int64: the set-valued component of the grow-only,
// two-phase and observed-remove sets and of the relational schemas.
type I64Set map[int64]bool

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
// the Summarize of every set-valued summarization group, under its contract.
// first is consumed like append's slice — the accumulated summary, an earlier
// result of this function, so already sorted and duplicate-free — and second
// is borrowed: one client call's few elements in any order, sorted into a
// small stack copy, or a folded δ-run's union, read in place. second's new
// elements are inserted into first's array, which grows by doubling when it
// is full, so a summary that gains one element a call allocates O(log n)
// times over its life instead of once a call. A first that is not sorted and
// duplicate-free (a raw client call) is normalised in place first.
func UnionSorted(first, second []int64) []int64 {
	if !sortedUnique(first) {
		first = normalize(first)
	}
	add := second
	if !sortedUnique(second) {
		var small [8]int64 // a client call's elements fit: no allocation to sort them
		add = normalize(append(small[:0], second...))
	}

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
	n := len(first) + missing
	if n > cap(first) {
		grown := make([]int64, len(first), max(n, 2*cap(first)))
		copy(grown, first)
		first = grown
	}
	// Merge from the back, so each element of first moves once and only
	// into slots the merge has already read.
	out := first[:n]
	i, k := len(first)-1, n-1
	for j := len(add) - 1; j >= 0; {
		switch {
		case i >= 0 && first[i] > add[j]:
			out[k] = first[i]
			i--
		case i >= 0 && first[i] == add[j]:
			j-- // already held: it moves with first's run
			continue
		default:
			out[k] = add[j]
			j--
		}
		k--
	}
	return out
}

// UnionGroup is the summarization group of a method m whose arguments are a
// set of elements it adds (gset add, bankmap open, auction register): its
// identity adds nothing, and two calls fold into one adding their union
// (UnionSorted).
func UnionGroup(name string, m MethodID) SumGroup {
	return SumGroup{
		Name:     name,
		Methods:  []MethodID{m},
		Identity: func() Call { return Call{Method: m} },
		Summarize: func(a, b Call) Call {
			return Call{Method: m, Args: Args{I: UnionSorted(a.Args.I, b.Args.I)}}
		},
	}
}

// AddGroup is the summarization group of a method m whose one argument is
// an amount it adds (counter add, account deposit): its identity adds 0, and
// two calls fold into one adding both amounts.
func AddGroup(name string, m MethodID) SumGroup {
	return SumGroup{
		Name:     name,
		Methods:  []MethodID{m},
		Identity: func() Call { return Call{Method: m, Args: ArgsI(0)} },
		Summarize: func(a, b Call) Call {
			a.Args.I[0] += b.Args.I[0]
			return Call{Method: m, Args: Args{I: a.Args.I}}
		},
	}
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
