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
// whose summary is a scalar have no rebuild to compare with; their reference
// is the Summarize itself, run on copies, and only the ownership half bites.
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

// checkSummarize runs the contract on one group. For a raw first (unsorted,
// duplicated) and for an accumulated one — the previous result itself, as the
// runtime keeps it — with spare capacity and without, so an in-place fold is
// seen both shifting first's array and growing it: the result equals the
// reference's element for element; second reads the same after the call; and
// it still does after the result's arrays are scribbled over, so the result
// shares no memory with second. first is consumed and not looked at again.
func checkSummarize(c sumCase, sum func(a, b spec.Call) spec.Call, r *rand.Rand, iters int) error {
	acc := c.g.Identity()
	for it := 0; it < iters; it++ {
		first := c.gen(r)
		if it%2 == 1 {
			first = acc
		}
		if it%4 < 2 {
			first.Args.I = append(make([]int64, 0, len(first.Args.I)+8), first.Args.I...)
			first.Args.S = append(make([]string, 0, len(first.Args.S)+8), first.Args.S...)
		}
		second := c.gen(r)
		a0, b0 := first.Args.Clone(), second.Args.Clone()
		want := c.ref(spec.Call{Method: first.Method, Args: a0.Clone()}, spec.Call{Method: second.Method, Args: b0.Clone()})
		got := sum(first, second)
		if got.Method != want.Method || !slices.Equal(got.Args.I, want.Args.I) || !slices.Equal(got.Args.S, want.Args.S) {
			return fmt.Errorf("iter %d: Summarize(%v, %v) = %v, reference %v", it, a0, b0, got, want)
		}
		if !second.Args.Equal(b0) {
			return fmt.Errorf("iter %d: Summarize(%v, %v) wrote through second: it reads %v", it, a0, b0, second.Args)
		}
		keep := got.Args.Clone()
		scribble(got.Args)
		if !second.Args.Equal(b0) {
			return fmt.Errorf("iter %d: the result of Summarize(%v, %v) shares memory with second", it, a0, b0)
		}
		copy(got.Args.I, keep.I)
		copy(got.Args.S, keep.S)
		acc = got
	}
	return nil
}

// scribble overwrites every element of a.
func scribble(a spec.Args) {
	for i := range a.I {
		a.I[i] = -1
	}
	for i := range a.S {
		a.S[i] = "scribble"
	}
}

// checkIdentity folds a different call into each of two Identity() results
// and requires the first fold to survive the second: two slots that start
// from Identity must not share an array to fold into.
func checkIdentity(c sumCase, r *rand.Rand, iters int) error {
	for it := 0; it < iters; it++ {
		x, y := c.gen(r), c.gen(r)
		sx := c.g.Summarize(c.g.Identity(), x)
		want := sx.Clone()
		c.g.Summarize(c.g.Identity(), y)
		if !sx.Args.Equal(want.Args) {
			return fmt.Errorf("iter %d: folding %v into one Identity() changed a fold of %v into another: %v, want %v",
				it, y.Args, x.Args, sx.Args, want.Args)
		}
	}
	return nil
}

// TestSummarizeContract holds every summarization group of every class to
// its reference result and to Summarize's contract: first is consumed,
// second is borrowed, and Identity hands out arrays no other call holds.
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
			if err := checkIdentity(c, rand.New(rand.NewSource(16)), 40); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestSummarizeContractCatchesAliasedSecond is the mutation control: a
// counter Summarize that, when first is the identity, answers with second
// itself — the right value, in second's array — must fail the contract, since
// the next fold into the slot would then write through the caller's call.
func TestSummarizeContractCatchesAliasedSecond(t *testing.T) {
	var counter sumCase
	for _, c := range sumCases() {
		if c.name == "counter/add" {
			counter = c
		}
	}
	aliasing := func(a, b spec.Call) spec.Call {
		if a.Args.I[0] == 0 {
			return spec.Call{Method: b.Method, Args: b.Args}
		}
		return counter.g.Summarize(a, b)
	}
	err := checkSummarize(counter, aliasing, rand.New(rand.NewSource(15)), 400)
	if err == nil {
		t.Fatal("a Summarize that returns second's array passed the contract test")
	}
	t.Logf("caught: %v", err)
}
