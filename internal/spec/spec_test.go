package spec_test

import (
	"math/rand"
	"slices"
	"strings"
	"testing"

	"hamband/internal/crdt"
	"hamband/internal/schema"
	"hamband/internal/spec"
)

func TestArgsCloneAndEqual(t *testing.T) {
	a := spec.Args{I: []int64{1, 2}, S: []string{"x"}}
	b := a.Clone()
	if !a.Equal(b) {
		t.Fatal("clone not equal to original")
	}
	b.I[0] = 99
	if a.I[0] != 1 {
		t.Fatal("clone shares backing array")
	}
	if a.Equal(b) {
		t.Fatal("mutated clone still equal")
	}
	if a.Equal(spec.Args{I: []int64{1, 2}}) {
		t.Fatal("args with different string vectors reported equal")
	}
}

func TestCallStringAndFormat(t *testing.T) {
	cls := crdt.NewAccount()
	c := spec.Call{Method: crdt.AccountWithdraw, Args: spec.ArgsI(5), Proc: 1, Seq: 3}
	if got := c.Format(cls); got != "withdraw(5)@p1#3" {
		t.Fatalf("Format = %q", got)
	}
	if c.String() == "" {
		t.Fatal("String empty")
	}
	if !c.SameRequest(spec.Call{Proc: 1, Seq: 3}) {
		t.Fatal("SameRequest should match on (proc, seq)")
	}
}

func TestPermissible(t *testing.T) {
	cls := crdt.NewAccount()
	s := &crdt.AccountState{Balance: 5}
	if !cls.Permissible(s, spec.Call{Method: crdt.AccountWithdraw, Args: spec.ArgsI(5)}) {
		t.Fatal("withdraw(5) on balance 5 should be permissible")
	}
	if cls.Permissible(s, spec.Call{Method: crdt.AccountWithdraw, Args: spec.ArgsI(6)}) {
		t.Fatal("withdraw(6) on balance 5 should be impermissible")
	}
	if s.Balance != 5 {
		t.Fatal("Permissible mutated its argument state")
	}
}

func TestAnalyzeAccount(t *testing.T) {
	cls := crdt.NewAccount()
	a, err := spec.Analyze(cls)
	if err != nil {
		t.Fatal(err)
	}
	if got := a.Category[crdt.AccountDeposit]; got != spec.CatReducible {
		t.Fatalf("deposit category = %v, want reducible", got)
	}
	if got := a.Category[crdt.AccountWithdraw]; got != spec.CatConflicting {
		t.Fatalf("withdraw category = %v, want conflicting", got)
	}
	if got := a.Category[crdt.AccountBalance]; got != spec.CatQuery {
		t.Fatalf("balance category = %v, want query", got)
	}
	if len(a.SyncGroups) != 1 || len(a.SyncGroups[0]) != 1 || a.SyncGroups[0][0] != crdt.AccountWithdraw {
		t.Fatalf("sync groups = %v, want [[withdraw]]", a.SyncGroups)
	}
	if a.SyncGroupOf[crdt.AccountDeposit] != spec.NoGroup {
		t.Fatal("deposit should not be in a sync group")
	}
	deps := a.DependsOn[crdt.AccountWithdraw]
	if len(deps) != 1 || deps[0] != crdt.AccountDeposit {
		t.Fatalf("Dep(withdraw) = %v, want [deposit]", deps)
	}
	if a.Summary() == "" {
		t.Fatal("empty analysis summary")
	}
}

func TestAnalyzeCRDTsAllConflictFree(t *testing.T) {
	for _, cls := range []*spec.Class{crdt.NewCounter(), crdt.NewLWW(), crdt.NewGSet()} {
		a := spec.MustAnalyze(cls)
		if len(a.SyncGroups) != 0 {
			t.Errorf("%s: unexpected sync groups %v", cls.Name, a.SyncGroups)
		}
		for _, u := range cls.UpdateMethods() {
			if a.Category[u] != spec.CatReducible {
				t.Errorf("%s.%s category = %v, want reducible",
					cls.Name, cls.Methods[u].Name, a.Category[u])
			}
		}
	}
	for _, cls := range []*spec.Class{crdt.NewORSet(), crdt.NewCart(), crdt.NewGSetBuffered()} {
		a := spec.MustAnalyze(cls)
		for _, u := range cls.UpdateMethods() {
			if a.Category[u] != spec.CatIrreducibleFree {
				t.Errorf("%s.%s category = %v, want irreducible conflict-free",
					cls.Name, cls.Methods[u].Name, a.Category[u])
			}
		}
	}
}

func TestAnalyzeSyncGroupConnectivity(t *testing.T) {
	// Methods 0-1 conflict, 1-2 conflict, 3 conflicts with itself:
	// components {0,1,2} and {3}.
	mk := func() spec.Method {
		return spec.Method{Name: "m", Kind: spec.Update, Apply: func(spec.State, spec.Args) {}}
	}
	cls := &spec.Class{
		Name:      "graph",
		Methods:   []spec.Method{mk(), mk(), mk(), mk(), mk()},
		NewState:  func() spec.State { return &crdt.CounterState{} },
		Invariant: func(spec.State) bool { return true },
		ConflictsWith: map[spec.MethodID][]spec.MethodID{
			0: {1},
			1: {2},
			3: {3},
		},
	}
	a, err := spec.Analyze(cls)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.SyncGroups) != 2 {
		t.Fatalf("groups = %v, want 2 components", a.SyncGroups)
	}
	if a.SyncGroupOf[0] != a.SyncGroupOf[1] || a.SyncGroupOf[1] != a.SyncGroupOf[2] {
		t.Fatalf("0,1,2 should share a group: %v", a.SyncGroupOf)
	}
	if a.SyncGroupOf[3] == a.SyncGroupOf[0] || a.SyncGroupOf[3] == spec.NoGroup {
		t.Fatalf("3 should have its own group: %v", a.SyncGroupOf)
	}
	if a.SyncGroupOf[4] != spec.NoGroup {
		t.Fatalf("4 should be conflict-free: %v", a.SyncGroupOf)
	}
	if a.Category[4] != spec.CatIrreducibleFree {
		t.Fatalf("4 has no sum group; category = %v", a.Category[4])
	}
}

// TestSerializedAnalysis pins the SMR reading of every bundled class: all the
// update methods in one synchronization group, so nothing is left for the
// summary slots or the F buffers, and the class itself is not edited.
func TestSerializedAnalysis(t *testing.T) {
	bundled := schema.Bundled()
	if len(bundled) != 18 {
		t.Fatalf("%d bundled classes, want 18", len(bundled))
	}
	for _, cls := range bundled {
		own := spec.MustAnalyze(cls)
		an, err := spec.Analyze(spec.Serialized(cls))
		if err != nil {
			t.Fatalf("%s: %v", cls.Name, err)
		}
		ups := cls.UpdateMethods()
		if len(an.SyncGroups) != 1 || len(an.SyncGroups[0]) != len(ups) {
			t.Fatalf("%s: sync groups %v, want one of all %d update methods", cls.Name, an.SyncGroups, len(ups))
		}
		for u, cat := range an.Category {
			if want := cls.Methods[u].Kind == spec.Query; (cat == spec.CatQuery) != want || (!want && cat != spec.CatConflicting) {
				t.Fatalf("%s: %s is %v under Serialized", cls.Name, cls.Methods[u].Name, cat)
			}
			if an.SumGroupOf[u] != spec.NoGroup || len(an.DependsOn[u]) != 0 {
				t.Fatalf("%s: %s keeps a summarization group or a dependency under Serialized", cls.Name, cls.Methods[u].Name)
			}
		}
		if an.HasFreeBuffers() {
			t.Fatalf("%s: F buffers under Serialized", cls.Name)
		}
		if again := spec.MustAnalyze(cls); again.Summary() != own.Summary() {
			t.Fatalf("%s: Serialized changed the class's own analysis:\n%s\nwas\n%s", cls.Name, again.Summary(), own.Summary())
		}
	}
	if mu := spec.Serialized(schema.NewCourseware()); mu.Methods[schema.RefLink].Guard == nil {
		t.Fatal("the Mu baseline's courseware enroll lost its Guard under Serialized")
	}
}

func TestAnalyzeRejectsIllFormedClasses(t *testing.T) {
	base := func() *spec.Class {
		cls := crdt.NewAccount()
		return cls
	}
	cases := []struct {
		name   string
		mutate func(*spec.Class)
	}{
		{"conflict with query", func(c *spec.Class) {
			c.ConflictsWith[crdt.AccountWithdraw] = []spec.MethodID{crdt.AccountBalance}
		}},
		{"dependency on query", func(c *spec.Class) {
			c.DependsOn[crdt.AccountWithdraw] = []spec.MethodID{crdt.AccountBalance}
		}},
		{"sum group with query", func(c *spec.Class) {
			c.SumGroups[0].Methods = []spec.MethodID{crdt.AccountBalance}
		}},
		{"sum group without summarize", func(c *spec.Class) {
			c.SumGroups[0].Summarize = nil
		}},
		{"method in two sum groups", func(c *spec.Class) {
			c.SumGroups = append(c.SumGroups, c.SumGroups[0])
		}},
		{"reducible sharing group with conflicting", func(c *spec.Class) {
			c.SumGroups[0].Methods = []spec.MethodID{crdt.AccountDeposit, crdt.AccountWithdraw}
		}},
	}
	for _, tc := range cases {
		cls := base()
		tc.mutate(cls)
		if _, err := spec.Analyze(cls); err == nil {
			t.Errorf("%s: Analyze accepted an ill-formed class", tc.name)
		}
	}
}

func TestAppliedMapProjectAndSatisfies(t *testing.T) {
	a := spec.NewAppliedMap(2, 3)
	a.Inc(0, 1)
	a.Inc(0, 1)
	a.Inc(1, 2)
	deps := []spec.MethodID{1, 2}
	d := a.Project(deps)
	if len(d) != 4 {
		t.Fatalf("projection length = %d, want 4", len(d))
	}
	if !a.Satisfies(d, deps) {
		t.Fatal("map should satisfy its own projection")
	}
	b := spec.NewAppliedMap(2, 3)
	if b.Satisfies(d, deps) {
		t.Fatal("zero map should not satisfy a non-zero projection")
	}
	b.Set(0, 1, 2)
	b.Set(1, 2, 1)
	if !b.Satisfies(d, deps) {
		t.Fatal("pointwise-equal map should satisfy the projection")
	}
	b.Set(1, 2, 0)
	if b.Satisfies(d, deps) {
		t.Fatal("map lagging in one cell should not satisfy")
	}
	if !b.Satisfies(nil, nil) {
		t.Fatal("empty dependency record should always be satisfied")
	}
}

func TestAppliedMapClone(t *testing.T) {
	a := spec.NewAppliedMap(1, 2)
	a.Inc(0, 0)
	b := a.Clone()
	b.Inc(0, 0)
	if a.Get(0, 0) != 1 || b.Get(0, 0) != 2 {
		t.Fatal("clone shares storage")
	}
}

func TestCheckRelationsAllClasses(t *testing.T) {
	for _, cls := range schema.Bundled() {
		r := rand.New(rand.NewSource(11))
		if err := spec.CheckRelations(cls, r, 400); err != nil {
			t.Errorf("%s: %v", cls.Name, err)
		}
	}
}

func TestCheckRelationsCatchesBadDeclarations(t *testing.T) {
	// Declare withdraw/withdraw conflict-free: the checker must object
	// (two positive withdrawals fail to P-concur yet have no edge).
	cls := crdt.NewAccount()
	cls.ConflictsWith = map[spec.MethodID][]spec.MethodID{}
	r := rand.New(rand.NewSource(5))
	if err := spec.CheckRelations(cls, r, 500); err == nil {
		t.Fatal("checker accepted a missing conflict edge")
	}

	// Declare withdraw dependence-free: the checker must object.
	cls2 := crdt.NewAccount()
	cls2.DependsOn = map[spec.MethodID][]spec.MethodID{}
	if err := spec.CheckRelations(cls2, rand.New(rand.NewSource(5)), 500); err == nil {
		t.Fatal("checker accepted a missing dependency edge")
	}

	// Declare withdraw invariant-sufficient: the checker must object.
	cls3 := crdt.NewAccount()
	cls3.Rel.InvariantSufficient = func(spec.Call) bool { return true }
	if err := spec.CheckRelations(cls3, rand.New(rand.NewSource(5)), 500); err == nil {
		t.Fatal("checker accepted a bogus invariant-sufficiency claim")
	}

	// A wrong Summarize must be caught.
	cls4 := crdt.NewCounter()
	cls4.SumGroups[0].Summarize = func(a, b spec.Call) spec.Call {
		return spec.Call{Method: crdt.CounterAdd, Args: spec.ArgsI(a.Args.I[0] - b.Args.I[0])}
	}
	if err := spec.CheckRelations(cls4, rand.New(rand.NewSource(5)), 500); err == nil {
		t.Fatal("checker accepted a wrong Summarize")
	}

	// A false S-commute claim must be caught: make "add" non-commutative
	// by overwriting instead of adding.
	cls5 := crdt.NewCounter()
	cls5.Methods[crdt.CounterAdd].Apply = func(s spec.State, a spec.Args) {
		s.(*crdt.CounterState).V = a.I[0]
	}
	cls5.SumGroups = nil
	if err := spec.CheckRelations(cls5, rand.New(rand.NewSource(5)), 500); err == nil {
		t.Fatal("checker accepted a false S-commute claim")
	}

	// A courseware enroll guard that skips the student check must be
	// caught: it admits a row whose student was never registered.
	cls6 := schema.NewCourseware()
	cls6.Methods[schema.RefLink].Guard = func(s spec.State, a spec.Args) bool {
		return s.(*schema.RefState).Left[a.I[0]]
	}
	if err := spec.CheckRelations(cls6, rand.New(rand.NewSource(5)), 500); err == nil {
		t.Fatal("checker accepted an enroll guard without the student check")
	}

	// A bankmap deposit guard that ignores Open must be caught: it admits
	// money into an account that was never opened.
	cls7 := crdt.NewBankMap()
	cls7.Methods[crdt.BankDeposit].Guard = func(s spec.State, a spec.Args) bool {
		return s.(*crdt.BankMapState).Balances[a.I[0]]+a.I[1] >= 0
	}
	if err := spec.CheckRelations(cls7, rand.New(rand.NewSource(5)), 500); err == nil {
		t.Fatal("checker accepted a deposit guard that ignores Open")
	}

	// A method that needs a guard and declares none is named.
	cls8 := crdt.NewAccount()
	cls8.Methods[crdt.AccountWithdraw].Guard = nil
	if err := spec.CheckRelations(cls8, rand.New(rand.NewSource(5)), 500); err == nil ||
		!strings.Contains(err.Error(), "withdraw declares no Guard") {
		t.Fatalf("checker error %v does not name the unguarded withdraw", err)
	}
}

// keeper is a register whose state holds the argument array of the last set
// call itself, not a copy of it.
type keeper struct{ last []int64 }

func (k *keeper) Clone() spec.State { return &keeper{last: slices.Clone(k.last)} }

func (k *keeper) CopyFrom(src spec.State) { k.last = append(k.last[:0], src.(*keeper).last...) }

func (k *keeper) Equal(o spec.State) bool { return slices.Equal(k.last, o.(*keeper).last) }

// keeperClass is a one-method register over keeper whose declarations are
// all true: set calls conflict, are invariant-sufficient and P-commute. set
// copies its argument, or keeps it when keep is set.
func keeperClass(keep bool) *spec.Class {
	cls := &spec.Class{
		Name: "keeper",
		Methods: []spec.Method{
			{Name: "set", Kind: spec.Update, Apply: func(s spec.State, a spec.Args) {
				if keep {
					s.(*keeper).last = a.I
				} else {
					s.(*keeper).last = slices.Clone(a.I)
				}
			}},
			{Name: "get", Kind: spec.Query, Eval: func(s spec.State, _ spec.Args) any { return len(s.(*keeper).last) }},
		},
		NewState:         func() spec.State { return &keeper{} },
		Invariant:        func(spec.State) bool { return true },
		TrivialInvariant: true,
		Rel: spec.Relations{
			SCommute:            func(c1, c2 spec.Call) bool { return false },
			InvariantSufficient: func(spec.Call) bool { return true },
			PRCommute:           func(c1, c2 spec.Call) bool { return true },
			PLCommute:           func(c2, c1 spec.Call) bool { return true },
		},
		ConflictsWith: map[spec.MethodID][]spec.MethodID{0: {0}},
	}
	cls.Gen = spec.Generators{
		State: func(r spec.Rand) spec.State { return &keeper{last: []int64{int64(r.Intn(9))}} },
		Call: func(r spec.Rand, u spec.MethodID) spec.Call {
			return spec.Call{Method: u, Args: spec.ArgsI(int64(r.Intn(9)), int64(r.Intn(9)))}
		},
	}
	return cls
}

// TestCheckRelationsCatchesKeptArguments is the mutation control of the
// borrowed-arguments check: a class whose Apply keeps a.I must be caught, and
// the same class copying a.I must pass.
func TestCheckRelationsCatchesKeptArguments(t *testing.T) {
	if err := spec.CheckRelations(keeperClass(false), rand.New(rand.NewSource(5)), 200); err != nil {
		t.Fatalf("a set that copies its argument fails the checker: %v", err)
	}
	err := spec.CheckRelations(keeperClass(true), rand.New(rand.NewSource(5)), 200)
	if err == nil || !strings.Contains(err.Error(), "set keeps its arguments") {
		t.Fatalf("checker error %v does not name the set that keeps its argument", err)
	}
	t.Logf("caught: %v", err)
}

// aliasRef is courseware's RefState with a CopyFrom that, unless deep is
// set, assigns the source's maps instead of copying them. Clone goes through
// CopyFrom, as every bundled state's does.
type aliasRef struct {
	schema.RefState
	deep bool
}

func (s *aliasRef) Clone() spec.State { c := &aliasRef{deep: s.deep}; c.CopyFrom(s); return c }

func (s *aliasRef) CopyFrom(src spec.State) {
	t := src.(*aliasRef)
	if s.deep {
		s.RefState.CopyFrom(&t.RefState)
		return
	}
	s.Left, s.Right, s.Links = t.Left, t.Right, t.Links
}

func (s *aliasRef) Equal(o spec.State) bool { return s.RefState.Equal(&o.(*aliasRef).RefState) }

// aliasCourseware is courseware over aliasRef: every function of the class
// that takes a state unwraps it.
func aliasCourseware(deep bool) *spec.Class {
	cls := schema.NewCourseware()
	ref := func(s spec.State) spec.State { return &s.(*aliasRef).RefState }
	wrap := func(s spec.State) spec.State { return &aliasRef{RefState: *s.(*schema.RefState), deep: deep} }
	for i := range cls.Methods {
		m := &cls.Methods[i]
		if apply := m.Apply; apply != nil {
			m.Apply = func(s spec.State, a spec.Args) { apply(ref(s), a) }
		}
		if eval := m.Eval; eval != nil {
			m.Eval = func(s spec.State, a spec.Args) any { return eval(ref(s), a) }
		}
		if guard := m.Guard; guard != nil {
			m.Guard = func(s spec.State, a spec.Args) bool { return guard(ref(s), a) }
		}
	}
	newState, invariant, gen := cls.NewState, cls.Invariant, cls.Gen.State
	cls.NewState = func() spec.State { return wrap(newState()) }
	cls.Invariant = func(s spec.State) bool { return invariant(ref(s)) }
	cls.Gen.State = func(r spec.Rand) spec.State { return wrap(gen(r)) }
	return cls
}

// TestCheckRelationsCatchesSharedCopy is the mutation control of the copy
// law: a RefState whose CopyFrom assigns σ's maps must be caught by the copy
// check, before any check that clones reads a state it shares; the same
// wrapper copying deeply must pass.
func TestCheckRelationsCatchesSharedCopy(t *testing.T) {
	if err := spec.CheckRelations(aliasCourseware(true), rand.New(rand.NewSource(5)), 200); err != nil {
		t.Fatalf("a deep CopyFrom fails the checker: %v", err)
	}
	err := spec.CheckRelations(aliasCourseware(false), rand.New(rand.NewSource(5)), 200)
	if err == nil || !strings.Contains(err.Error(), "CopyFrom shares storage") {
		t.Fatalf("checker error %v does not name the CopyFrom that shares its source's maps", err)
	}
	t.Logf("caught: %v", err)
}

// TestAllowsAllocatesNothing pins the point of guards: the runtime's
// permissibility check copies no state. For every bundled class, Allows
// allocates nothing on a generated state for a generated call of each update
// method.
func TestAllowsAllocatesNothing(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	for _, cls := range schema.Bundled() {
		sigma := cls.Gen.State(r)
		for _, u := range cls.UpdateMethods() {
			c := cls.Gen.Call(r, u)
			if allocs := testing.AllocsPerRun(50, func() { cls.Allows(sigma, c) }); allocs != 0 {
				t.Errorf("%s: Allows(%s) allocates %.0f objects, want 0", cls.Name, c.Format(cls), allocs)
			}
		}
	}
}

func TestCategoryString(t *testing.T) {
	for _, c := range []spec.Category{spec.CatReducible, spec.CatIrreducibleFree, spec.CatConflicting, spec.CatQuery} {
		if c.String() == "" {
			t.Fatalf("category %d has empty name", int(c))
		}
	}
	if spec.Category(99).String() == "" {
		t.Fatal("unknown category should still format")
	}
}

func TestMethodByName(t *testing.T) {
	cls := crdt.NewAccount()
	if cls.MethodByName("withdraw") != crdt.AccountWithdraw {
		t.Fatal("MethodByName(withdraw) wrong")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MethodByName on missing name should panic")
		}
	}()
	cls.MethodByName("nope")
}

func TestUpdateAndQueryMethods(t *testing.T) {
	cls := crdt.NewAccount()
	ups := cls.UpdateMethods()
	qs := cls.QueryMethods()
	if len(ups) != 2 || len(qs) != 1 {
		t.Fatalf("updates = %v, queries = %v", ups, qs)
	}
}

func TestDerivedRelationOperators(t *testing.T) {
	// Direct unit tests of the §3.2 derivations over the account's
	// declared primitives.
	rel := crdt.NewAccount().Rel
	dep := func(n int64) spec.Call {
		return spec.Call{Method: crdt.AccountDeposit, Args: spec.ArgsI(n)}
	}
	wdr := func(n int64) spec.Call {
		return spec.Call{Method: crdt.AccountWithdraw, Args: spec.ArgsI(n)}
	}

	// P-concurrence: invariant sufficiency OR ▷_P.
	if !rel.PConcur(dep(5), wdr(5)) {
		t.Fatal("deposit must P-concur with anything (invariant-sufficient)")
	}
	if !rel.PConcur(wdr(5), dep(5)) {
		t.Fatal("withdraw ▷_P deposit must make them P-concur")
	}
	if rel.PConcur(wdr(5), wdr(5)) {
		t.Fatal("two positive withdrawals must not P-concur")
	}

	// Conflict: S-commute failure or P-concurrence failure either way.
	if !rel.Conflict(wdr(5), wdr(3)) {
		t.Fatal("withdraw/withdraw must conflict")
	}
	if rel.Conflict(dep(5), wdr(3)) {
		t.Fatal("deposit/withdraw must not conflict")
	}
	if rel.Conflict(dep(5), dep(3)) {
		t.Fatal("deposit/deposit must not conflict")
	}
	// Zero amounts are invariant-sufficient: no conflict.
	if rel.Conflict(wdr(0), wdr(5)) {
		t.Fatal("zero withdrawal must not conflict")
	}

	// Dependency: ¬(invariant-sufficient ∨ ◁_P).
	if !rel.Dependent(wdr(5), dep(3)) {
		t.Fatal("withdraw must depend on deposit")
	}
	if rel.Dependent(wdr(5), wdr(3)) {
		t.Fatal("withdraw must not depend on withdraw")
	}
	if rel.Dependent(dep(5), dep(3)) {
		t.Fatal("deposit must not depend on anything")
	}
	if !rel.Independent(dep(5), wdr(3)) {
		t.Fatal("Independent must be the negation of Dependent")
	}
}
