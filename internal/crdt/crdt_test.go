package crdt

import (
	"math/rand"
	"testing"
	"testing/quick"

	"hamband/internal/spec"
)

// All returns every data type in this package; shared by exhaustive tests.
func allClasses() []*spec.Class {
	return []*spec.Class{
		NewCounter(), NewLWW(), NewGSet(), NewGSetBuffered(), NewORSet(), NewCart(), NewAccount(), NewBankMap(), NewPNCounter(), NewTwoPSet(), NewRGA(), NewLWWMap(),
	}
}

func TestAllClassesAnalyzable(t *testing.T) {
	for _, cls := range allClasses() {
		if _, err := spec.Analyze(cls); err != nil {
			t.Errorf("%s: %v", cls.Name, err)
		}
	}
}

func TestAllClassesInitialInvariant(t *testing.T) {
	for _, cls := range allClasses() {
		if !cls.Invariant(cls.NewState()) {
			t.Errorf("%s: initial state violates invariant", cls.Name)
		}
	}
}

func TestAllClassesCloneIsolation(t *testing.T) {
	r := rand.New(rand.NewSource(2))
	for _, cls := range allClasses() {
		for i := 0; i < 50; i++ {
			s := cls.Gen.State(r)
			c := s.Clone()
			if !s.Equal(c) || !c.Equal(s) {
				t.Fatalf("%s: clone not equal", cls.Name)
			}
			// Mutate the clone with random updates; the original must not move.
			orig := s.Clone()
			for j := 0; j < 5; j++ {
				us := cls.UpdateMethods()
				cls.ApplyCall(c, cls.Gen.Call(r, us[r.Intn(len(us))]))
			}
			if !s.Equal(orig) {
				t.Fatalf("%s: mutating a clone changed the original", cls.Name)
			}
		}
	}
}

func TestCounterSemantics(t *testing.T) {
	cls := NewCounter()
	s := cls.NewState()
	cls.ApplyCall(s, spec.Call{Method: CounterAdd, Args: spec.ArgsI(7)})
	cls.ApplyCall(s, spec.Call{Method: CounterAdd, Args: spec.ArgsI(-3)})
	if v := cls.Methods[CounterValue].Eval(s, spec.Args{}); v.(int64) != 4 {
		t.Fatalf("value = %v, want 4", v)
	}
}

func TestCounterSummarizeAssociative(t *testing.T) {
	g := NewCounter().SumGroups[0]
	mk := func(n int64) spec.Call { return spec.Call{Method: CounterAdd, Args: spec.ArgsI(n)} }
	f := func(a, b, c int32) bool {
		l := g.Summarize(g.Summarize(mk(int64(a)), mk(int64(b))), mk(int64(c)))
		r := g.Summarize(mk(int64(a)), g.Summarize(mk(int64(b)), mk(int64(c))))
		return l.Args.I[0] == r.Args.I[0]
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLWWLastWriterWins(t *testing.T) {
	cls := NewLWW()
	s := cls.NewState()
	cls.ApplyCall(s, spec.Call{Method: LWWWrite, Args: spec.ArgsI(10, 5)})
	cls.ApplyCall(s, spec.Call{Method: LWWWrite, Args: spec.ArgsI(20, 3)}) // older ts loses
	if v := cls.Methods[LWWRead].Eval(s, spec.Args{}); v.(int64) != 10 {
		t.Fatalf("read = %v, want 10 (newer timestamp wins)", v)
	}
	cls.ApplyCall(s, spec.Call{Method: LWWWrite, Args: spec.ArgsI(30, 9)})
	if v := cls.Methods[LWWRead].Eval(s, spec.Args{}); v.(int64) != 30 {
		t.Fatalf("read = %v, want 30", v)
	}
}

func TestLWWTieBreakDeterministic(t *testing.T) {
	cls := NewLWW()
	a := spec.Call{Method: LWWWrite, Args: spec.ArgsI(10, 5)}
	b := spec.Call{Method: LWWWrite, Args: spec.ArgsI(20, 5)}
	s1 := cls.NewState()
	cls.ApplyCall(s1, a)
	cls.ApplyCall(s1, b)
	s2 := cls.NewState()
	cls.ApplyCall(s2, b)
	cls.ApplyCall(s2, a)
	if !s1.Equal(s2) {
		t.Fatal("equal-timestamp writes diverge under reordering")
	}
	if s1.(*LWWState).V != 20 {
		t.Fatalf("tie broke to %d, want the larger value 20", s1.(*LWWState).V)
	}
}

func TestLWWWritesCommuteQuick(t *testing.T) {
	cls := NewLWW()
	f := func(v1, v2 int16, t1, t2 uint8) bool {
		a := spec.Call{Method: LWWWrite, Args: spec.ArgsI(int64(v1), int64(t1))}
		b := spec.Call{Method: LWWWrite, Args: spec.ArgsI(int64(v2), int64(t2))}
		s1 := cls.NewState()
		cls.ApplyCall(s1, a)
		cls.ApplyCall(s1, b)
		s2 := cls.NewState()
		cls.ApplyCall(s2, b)
		cls.ApplyCall(s2, a)
		return s1.Equal(s2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestGSetAddAndQueries(t *testing.T) {
	cls := NewGSet()
	s := cls.NewState()
	cls.ApplyCall(s, spec.Call{Method: GSetAdd, Args: spec.ArgsI(1, 2, 3)})
	cls.ApplyCall(s, spec.Call{Method: GSetAdd, Args: spec.ArgsI(2, 4)})
	if got := cls.Methods[GSetSize].Eval(s, spec.Args{}); got.(int64) != 4 {
		t.Fatalf("size = %v, want 4", got)
	}
	if got := cls.Methods[GSetContains].Eval(s, spec.ArgsI(3)); got != true {
		t.Fatal("contains(3) = false, want true")
	}
	if got := cls.Methods[GSetContains].Eval(s, spec.ArgsI(9)); got != false {
		t.Fatal("contains(9) = true, want false")
	}
}

func TestGSetSummarizeIsUnion(t *testing.T) {
	g := NewGSet().SumGroups[0]
	a := spec.Call{Method: GSetAdd, Args: spec.ArgsI(1, 2)}
	b := spec.Call{Method: GSetAdd, Args: spec.ArgsI(2, 3)}
	sum := g.Summarize(a, b)
	if len(sum.Args.I) != 3 {
		t.Fatalf("summary = %v, want union {1,2,3}", sum.Args.I)
	}
}

func TestGSetBufferedHasNoSumGroup(t *testing.T) {
	if len(NewGSetBuffered().SumGroups) != 0 {
		t.Fatal("buffered GSet should not declare summarization")
	}
}

func TestORSetAddRemove(t *testing.T) {
	cls := NewORSet()
	s := cls.NewState()
	t1, t2 := Tag(0, 1), Tag(1, 1)
	cls.ApplyCall(s, spec.Call{Method: ORSetAdd, Args: spec.ArgsI(7, t1)})
	cls.ApplyCall(s, spec.Call{Method: ORSetAdd, Args: spec.ArgsI(7, t2)})
	cls.ApplyCall(s, spec.Call{Method: ORSetRemove, Args: spec.ArgsI(7, t1)})
	if got := cls.Methods[ORSetContains].Eval(s, spec.ArgsI(7)); got != true {
		t.Fatal("element with one surviving tag should be present")
	}
	cls.ApplyCall(s, spec.Call{Method: ORSetRemove, Args: spec.ArgsI(7, t2)})
	if got := cls.Methods[ORSetContains].Eval(s, spec.ArgsI(7)); got != false {
		t.Fatal("element with all tags removed should be absent")
	}
}

func TestORSetAddAfterRemoveIsSuppressed(t *testing.T) {
	// The tombstone makes a reordered (remove before add) delivery converge.
	cls := NewORSet()
	tag := Tag(2, 9)
	add := spec.Call{Method: ORSetAdd, Args: spec.ArgsI(5, tag)}
	rem := spec.Call{Method: ORSetRemove, Args: spec.ArgsI(5, tag)}
	s1 := cls.NewState()
	cls.ApplyCall(s1, add)
	cls.ApplyCall(s1, rem)
	s2 := cls.NewState()
	cls.ApplyCall(s2, rem)
	cls.ApplyCall(s2, add)
	if !s1.Equal(s2) {
		t.Fatal("add/remove with the same tag diverge under reordering")
	}
	if got := cls.Methods[ORSetContains].Eval(s2, spec.ArgsI(5)); got != false {
		t.Fatal("tombstoned add should be suppressed")
	}
}

func TestORSetConcurrentAddSurvivesRemove(t *testing.T) {
	// A remove only cancels observed tags: a concurrent add (fresh tag)
	// survives — the defining OR-set behaviour.
	cls := NewORSet()
	s := cls.NewState()
	old, fresh := Tag(0, 1), Tag(1, 1)
	cls.ApplyCall(s, spec.Call{Method: ORSetAdd, Args: spec.ArgsI(5, old)})
	cls.ApplyCall(s, spec.Call{Method: ORSetRemove, Args: spec.ArgsI(5, old)}) // observed only `old`
	cls.ApplyCall(s, spec.Call{Method: ORSetAdd, Args: spec.ArgsI(5, fresh)})
	if got := cls.Methods[ORSetContains].Eval(s, spec.ArgsI(5)); got != true {
		t.Fatal("concurrent add should survive a remove that did not observe it")
	}
}

func TestCartQuantities(t *testing.T) {
	cls := NewCart()
	s := cls.NewState()
	t1, t2 := Tag(0, 1), Tag(0, 2)
	cls.ApplyCall(s, spec.Call{Method: CartAdd, Args: spec.ArgsI(3, 2, t1)})
	cls.ApplyCall(s, spec.Call{Method: CartAdd, Args: spec.ArgsI(3, 5, t2)})
	if got := cls.Methods[CartQty].Eval(s, spec.ArgsI(3)); got.(int64) != 7 {
		t.Fatalf("quantity = %v, want 7", got)
	}
	cls.ApplyCall(s, spec.Call{Method: CartRemove, Args: spec.ArgsI(3, t1)})
	if got := cls.Methods[CartQty].Eval(s, spec.ArgsI(3)); got.(int64) != 5 {
		t.Fatalf("quantity after remove = %v, want 5", got)
	}
}

func TestAccountIntegrity(t *testing.T) {
	cls := NewAccount()
	s := cls.NewState()
	if cls.Permissible(s, spec.Call{Method: AccountWithdraw, Args: spec.ArgsI(1)}) {
		t.Fatal("withdraw on empty account should be impermissible")
	}
	cls.ApplyCall(s, spec.Call{Method: AccountDeposit, Args: spec.ArgsI(10)})
	if !cls.Permissible(s, spec.Call{Method: AccountWithdraw, Args: spec.ArgsI(10)}) {
		t.Fatal("withdraw within balance should be permissible")
	}
	cls.ApplyCall(s, spec.Call{Method: AccountWithdraw, Args: spec.ArgsI(4)})
	if got := cls.Methods[AccountBalance].Eval(s, spec.Args{}); got.(int64) != 6 {
		t.Fatalf("balance = %v, want 6", got)
	}
}

// TestRandomSequencesCommute is the package-level property test: for every
// pure CRDT (invariant true), applying a random pair of update calls in
// both orders converges; sequences of random updates applied in process
// order but interleaved per-process arbitrarily converge as well.
func TestRandomSequencesCommute(t *testing.T) {
	r := rand.New(rand.NewSource(77))
	for _, cls := range []*spec.Class{NewCounter(), NewLWW(), NewGSet(), NewORSet(), NewCart()} {
		ups := cls.UpdateMethods()
		for trial := 0; trial < 100; trial++ {
			n := 2 + r.Intn(6)
			calls := make([]spec.Call, n)
			for i := range calls {
				calls[i] = cls.Gen.Call(r, ups[r.Intn(len(ups))])
			}
			s1 := cls.NewState()
			for _, c := range calls {
				cls.ApplyCall(s1, c)
			}
			// Random permutation.
			perm := r.Perm(n)
			s2 := cls.NewState()
			for _, i := range perm {
				cls.ApplyCall(s2, calls[i])
			}
			if !s1.Equal(s2) {
				t.Fatalf("%s: permutation diverged (trial %d)", cls.Name, trial)
			}
		}
	}
}

func TestTagUniqueness(t *testing.T) {
	seen := map[int64]bool{}
	for p := spec.ProcID(0); p < 8; p++ {
		for s := uint64(0); s < 100; s++ {
			tag := Tag(p, s)
			if seen[tag] {
				t.Fatalf("duplicate tag for (%d,%d)", p, s)
			}
			seen[tag] = true
		}
	}
}

func TestPNCounterSemantics(t *testing.T) {
	cls := NewPNCounter()
	s := cls.NewState()
	cls.ApplyCall(s, spec.Call{Method: PNInc, Args: spec.ArgsI(10)})
	cls.ApplyCall(s, spec.Call{Method: PNDec, Args: spec.ArgsI(3)})
	cls.ApplyCall(s, spec.Call{Method: PNAdjust, Args: spec.ArgsI(2, 4)})
	if v := cls.Methods[PNValue].Eval(s, spec.Args{}); v.(int64) != 5 {
		t.Fatalf("value = %v, want 5", v)
	}
	st := s.(*PNCounterState)
	if st.P != 12 || st.N != 7 {
		t.Fatalf("P/N = %d/%d, want 12/7", st.P, st.N)
	}
}

func TestPNCounterMultiMethodGroupClosed(t *testing.T) {
	g := NewPNCounter().SumGroups[0]
	inc := spec.Call{Method: PNInc, Args: spec.ArgsI(3)}
	dec := spec.Call{Method: PNDec, Args: spec.ArgsI(5)}
	sum := g.Summarize(inc, dec)
	if sum.Method != PNAdjust || sum.Args.I[0] != 3 || sum.Args.I[1] != 5 {
		t.Fatalf("Summarize(inc, dec) = %v", sum)
	}
	sum2 := g.Summarize(sum, inc)
	if sum2.Args.I[0] != 6 || sum2.Args.I[1] != 5 {
		t.Fatalf("re-summarize = %v", sum2)
	}
}

func TestPNCounterAnalysis(t *testing.T) {
	a := spec.MustAnalyze(NewPNCounter())
	for _, u := range []spec.MethodID{PNInc, PNDec, PNAdjust} {
		if a.Category[u] != spec.CatReducible {
			t.Fatalf("method %d category = %v, want reducible", u, a.Category[u])
		}
		if a.SumGroupOf[u] != 0 {
			t.Fatalf("method %d should be in sum group 0", u)
		}
	}
}

func TestTwoPSetSemantics(t *testing.T) {
	cls := NewTwoPSet()
	s := cls.NewState()
	cls.ApplyCall(s, spec.Call{Method: TwoPAdd, Args: spec.ArgsI(1, 2)})
	cls.ApplyCall(s, spec.Call{Method: TwoPRemove, Args: spec.ArgsI(2)})
	if got := cls.Methods[TwoPContains].Eval(s, spec.ArgsI(1)); got != true {
		t.Fatal("added element missing")
	}
	if got := cls.Methods[TwoPContains].Eval(s, spec.ArgsI(2)); got != false {
		t.Fatal("removed element present")
	}
	// Re-adding a removed element has no effect: the 2P restriction.
	cls.ApplyCall(s, spec.Call{Method: TwoPAdd, Args: spec.ArgsI(2)})
	if got := cls.Methods[TwoPContains].Eval(s, spec.ArgsI(2)); got != false {
		t.Fatal("tombstoned element resurrected")
	}
}

func TestTwoPSetTwoSumGroups(t *testing.T) {
	a := spec.MustAnalyze(NewTwoPSet())
	if len(a.Class.SumGroups) != 2 {
		t.Fatalf("sum groups = %d, want 2", len(a.Class.SumGroups))
	}
	if a.SumGroupOf[TwoPAdd] == a.SumGroupOf[TwoPRemove] {
		t.Fatal("add and remove must summarize separately")
	}
	if a.Category[TwoPAdd] != spec.CatReducible || a.Category[TwoPRemove] != spec.CatReducible {
		t.Fatal("both methods should be reducible")
	}
}

func TestLWWMapSemantics(t *testing.T) {
	cls := NewLWWMap()
	s := cls.NewState()
	set := func(ts int64, k, v string) {
		cls.ApplyCall(s, spec.Call{Method: LWWMapSet,
			Args: spec.Args{S: []string{k, v}, I: []int64{ts}}})
	}
	set(5, "region", "eu-west")
	set(3, "region", "us-east") // older timestamp loses
	set(7, "quota", "100")
	if got := cls.Methods[LWWMapGet].Eval(s, spec.ArgsS("region")); got != "eu-west" {
		t.Fatalf("get(region) = %v, want eu-west", got)
	}
	if got := cls.Methods[LWWMapLen].Eval(s, spec.Args{}); got.(int64) != 2 {
		t.Fatalf("size = %v, want 2", got)
	}
	if got := cls.Methods[LWWMapGet].Eval(s, spec.ArgsS("missing")); got != "" {
		t.Fatalf("get(missing) = %v, want empty", got)
	}
}

func TestLWWMapSummarizeKeepsWinners(t *testing.T) {
	g := NewLWWMap().SumGroups[0]
	a := spec.Call{Method: LWWMapSet, Args: spec.Args{S: []string{"k", "old", "x", "1"}, I: []int64{1, 9}}}
	b := spec.Call{Method: LWWMapSet, Args: spec.Args{S: []string{"k", "new"}, I: []int64{2}}}
	sum := g.Summarize(a, b)
	dec := lwwMapDecode(nil, sum.Args)
	if len(dec) != 2 {
		t.Fatalf("summary entries = %d, want 2", len(dec))
	}
	for _, e := range dec {
		if e.K == "k" && e.C.V != "new" {
			t.Fatalf("summary kept stale value %q for k", e.C.V)
		}
	}
}

func TestLWWMapRelations(t *testing.T) {
	if err := spec.CheckRelations(NewLWWMap(), rand.New(rand.NewSource(43)), 600); err != nil {
		t.Fatal(err)
	}
}

func TestLWWMapAnalysisReducible(t *testing.T) {
	a := spec.MustAnalyze(NewLWWMap())
	if a.Category[LWWMapSet] != spec.CatReducible {
		t.Fatalf("set = %v, want reducible", a.Category[LWWMapSet])
	}
}
