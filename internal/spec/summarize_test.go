package spec_test

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"hamband/internal/crdt"
	"hamband/internal/schema"
	"hamband/internal/spec"
)

// refUnion is the Summarize every set-valued group had before it became a
// merge: rebuild the union in a map, then sort it.
func refUnion(method spec.MethodID) func(a, b spec.Call) spec.Call {
	return func(a, b spec.Call) spec.Call {
		u := make(map[int64]bool)
		for _, e := range a.Args.I {
			u[e] = true
		}
		for _, e := range b.Args.I {
			u[e] = true
		}
		out := make([]int64, 0, len(u))
		for e := range u {
			out = append(out, e)
		}
		sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
		return spec.Call{Method: method, Args: spec.Args{I: out}}
	}
}

// refLWWMap is the rebuild lwwmap's set group had: per-key winners of both
// calls in a map, written out with sorted keys.
func refLWWMap(a, b spec.Call) spec.Call {
	type cell struct {
		v  string
		ts int64
	}
	beats := func(c, o cell) bool { return c.ts > o.ts || (c.ts == o.ts && c.v > o.v) }
	win := make(map[string]cell)
	for _, c := range []spec.Call{a, b} {
		for i := 0; i < len(c.Args.I) && 2*i+1 < len(c.Args.S); i++ {
			e := cell{c.Args.S[2*i+1], c.Args.I[i]}
			if cur, ok := win[c.Args.S[2*i]]; !ok || beats(e, cur) {
				win[c.Args.S[2*i]] = e
			}
		}
	}
	keys := make([]string, 0, len(win))
	for k := range win {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var args spec.Args
	for _, k := range keys {
		args.S = append(args.S, k, win[k].v)
		args.I = append(args.I, win[k].ts)
	}
	return spec.Call{Method: crdt.LWWMapSet, Args: args}
}

// sumCase is one summarization group under the contract test: how to draw
// a raw client call of it and what its Summarize must agree with. Groups
// whose summary is a scalar have no rebuild to replace; their reference is
// the Summarize itself and only the no-write-through half bites.
type sumCase struct {
	name string
	g    spec.SumGroup
	gen  func(r *rand.Rand) spec.Call
	ref  func(a, b spec.Call) spec.Call
	old  bool // ref is the rebuild this group's Summarize used to be
}

// sumCases lists every summarization group of every bundled class.
func sumCases() []sumCase {
	// Wide draws: many elements from a small space, so inputs are unsorted,
	// hold duplicates and overlap each other.
	ints := func(u spec.MethodID) func(*rand.Rand) spec.Call {
		return func(r *rand.Rand) spec.Call {
			es := make([]int64, r.Intn(12))
			for i := range es {
				es[i] = int64(r.Intn(24))
			}
			return spec.Call{Method: u, Args: spec.Args{I: es}}
		}
	}
	lww := func(r *rand.Rand) spec.Call {
		var a spec.Args
		for i, n := 0, r.Intn(8); i < n; i++ {
			a.S = append(a.S, fmt.Sprint("k", r.Intn(6)), fmt.Sprint("v", r.Intn(4)))
			a.I = append(a.I, int64(r.Intn(5)))
		}
		return spec.Call{Method: crdt.LWWMapSet, Args: a}
	}
	var out []sumCase
	for _, cls := range []*spec.Class{
		crdt.NewCounter(), crdt.NewLWW(), crdt.NewGSet(), crdt.NewAccount(), crdt.NewBankMap(),
		crdt.NewPNCounter(), crdt.NewTwoPSet(), crdt.NewLWWMap(),
		schema.NewProjectManagement(), schema.NewCourseware(), schema.NewAuction(), schema.NewTournament(),
	} {
		cls := cls
		for _, g := range cls.SumGroups {
			g := g
			c := sumCase{name: cls.Name + "/" + g.Name, g: g, ref: g.Summarize,
				gen: func(r *rand.Rand) spec.Call {
					return cls.Gen.Call(r, g.Methods[r.Intn(len(g.Methods))])
				}}
			switch cls.Name + "/" + g.Name {
			case "gset/add", "bankmap/open", "twopset/add", "twopset/remove",
				"projectmgmt/addEmployee", "courseware/registerStudent",
				"auction/register", "tournament/addPlayer":
				c.gen, c.ref, c.old = ints(g.Methods[0]), refUnion(g.Methods[0]), true
			case "lwwmap/set":
				c.gen, c.ref, c.old = lww, refLWWMap, true
			}
			out = append(out, c)
		}
	}
	return out
}

// checkSummarize runs the contract on one group: for raw inputs (unsorted,
// duplicated) and for an accumulated first, the result equals the
// reference's element for element; the arguments read the same after the
// call; and they still do after the result's backing arrays are scribbled
// over, unless the result is first itself (which Summarize may return when
// second adds nothing). first always has spare capacity, as a slice grown by
// append has, so a Summarize that inserts in place is seen shifting it.
func checkSummarize(c sumCase, sum func(a, b spec.Call) spec.Call, r *rand.Rand, iters int) error {
	acc := c.g.Identity()
	for it := 0; it < iters; it++ {
		first := c.gen(r)
		if it%2 == 1 {
			first = acc // an accumulated summary, as the runtime passes
		}
		first.Args.I = append(make([]int64, 0, len(first.Args.I)+8), first.Args.I...)
		first.Args.S = append(make([]string, 0, len(first.Args.S)+8), first.Args.S...)
		second := c.gen(r)
		a0, b0 := first.Args.Clone(), second.Args.Clone()
		want := c.ref(spec.Call{Method: first.Method, Args: a0.Clone()}, spec.Call{Method: second.Method, Args: b0.Clone()})
		got := sum(first, second)
		if got.Method != want.Method || !slices.Equal(got.Args.I, want.Args.I) || !slices.Equal(got.Args.S, want.Args.S) {
			return fmt.Errorf("iter %d: Summarize(%v, %v) = %v, reference %v", it, a0, b0, got, want)
		}
		if !first.Args.Equal(a0) || !second.Args.Equal(b0) {
			return fmt.Errorf("iter %d: Summarize wrote through an argument: %v, %v were %v, %v",
				it, first.Args, second.Args, a0, b0)
		}
		acc = spec.Call{Method: got.Method, Args: got.Args.Clone()}
		if !sameSlice(got.Args.I, first.Args.I) {
			for i := range got.Args.I {
				got.Args.I[i] = -1
			}
		}
		if !sameSlice(got.Args.S, first.Args.S) {
			for i := range got.Args.S {
				got.Args.S[i] = "scribble"
			}
		}
		if !first.Args.Equal(a0) || !second.Args.Equal(b0) {
			return fmt.Errorf("iter %d: the result of Summarize(%v, %v) shares memory with an argument", it, a0, b0)
		}
	}
	return nil
}

// sameSlice reports whether x and y are one slice (or both empty).
func sameSlice[T any](x, y []T) bool {
	return len(x) == len(y) && (len(x) == 0 || &x[0] == &y[0])
}

// TestSummarizeContract holds every summarization group of every class to
// the contract the merge-style Summarize promises.
func TestSummarizeContract(t *testing.T) {
	cases := sumCases()
	rebuilt := 0
	for _, c := range cases {
		if c.old {
			rebuilt++
		}
	}
	if len(cases) != 13 || rebuilt != 9 {
		t.Fatalf("%d summarization groups, %d of them set- or map-valued; want 13 and 9: the case list is stale", len(cases), rebuilt)
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			if err := checkSummarize(c, c.g.Summarize, rand.New(rand.NewSource(15)), 400); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSummarizeContractCatchesInPlaceInsert is the mutation control: a merge
// that inserts second's new elements into first's own backing array — right
// whenever first has no spare capacity, which is every time in a short test —
// must fail the contract.
func TestSummarizeContractCatchesInPlaceInsert(t *testing.T) {
	var gset sumCase
	for _, c := range sumCases() {
		if c.name == "gset/add" {
			gset = c
		}
	}
	inPlace := func(a, b spec.Call) spec.Call {
		out := a.Args.I
		for i := 1; i < len(out); i++ {
			if out[i-1] >= out[i] {
				return gset.g.Summarize(a, b) // a raw first: nothing to insert into
			}
		}
		for _, e := range b.Args.I {
			if i, found := slices.BinarySearch(out, e); !found {
				out = slices.Insert(out, i, e)
			}
		}
		return spec.Call{Method: a.Method, Args: spec.Args{I: out}}
	}
	err := checkSummarize(gset, inPlace, rand.New(rand.NewSource(15)), 400)
	if err == nil {
		t.Fatal("an in-place-insert Summarize passed the contract test")
	}
	t.Logf("caught: %v", err)
}
