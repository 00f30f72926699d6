package spec

import (
	"fmt"
	"reflect"
)

// CheckRelations validates a class's declared coordination relations
// against their semantic definitions (§3.2) by randomized testing. It is
// this repository's substitute for the paper's solver-aided Hamsaz
// analysis: each declaration is a universally quantified claim over states,
// and the checker samples states and calls looking for counterexamples.
//
// Checked claims, for random invariant-satisfying states σ and random calls:
//
//   - declared S-commute(c1,c2) ⇒ c2(c1(σ)) = c1(c2(σ))
//   - declared invariant-sufficient(c) ⇒ P(σ, c)
//   - Allows(σ, c) = P(σ, c) on σ and on the post-states below, for a call
//     of every update method; Allows does not modify σ, and a call that is
//     not invariant-sufficient has a Guard to answer it
//   - declared c1 ▷_P c2 ⇒ (P(σ,c1) ⇒ P(c2(σ),c1))
//   - declared c2 ◁_P c1 ⇒ (P(c1(σ),c2) ⇒ P(σ,c2))
//   - call-level conflict ⇒ a method-level conflict edge exists
//   - call-level dependency ⇒ a method-level dependency edge exists
//   - Apply and Eval borrow their arguments: scribbling over a call's Args
//     after it ran leaves the state as it was, for a call of every method
//   - Summarize(c1,c2)(σ) = c2(c1(σ)) and Identity is a no-op
//   - CopyFrom(σ) into a used state Equals σ and shares no storage with it,
//     and neither does σ.Clone() (checked first: every other check clones)
//   - generated states and the initial state satisfy the invariant
//
// It returns the first counterexample found, or nil.
func CheckRelations(cls *Class, r Rand, iters int) error {
	a, err := Analyze(cls)
	if err != nil {
		return err
	}
	updates := cls.UpdateMethods()
	if len(updates) == 0 {
		return fmt.Errorf("spec: %s declares no update methods", cls.Name)
	}
	if !cls.Invariant(cls.NewState()) {
		return fmt.Errorf("spec: %s: initial state violates invariant", cls.Name)
	}

	hasConflictEdge := func(u, v MethodID) bool {
		for _, w := range cls.ConflictsWith[u] {
			if w == v {
				return true
			}
		}
		for _, w := range cls.ConflictsWith[v] {
			if w == u {
				return true
			}
		}
		return false
	}
	hasDepEdge := func(u, v MethodID) bool {
		for _, w := range a.DependsOn[u] {
			if w == v {
				return true
			}
		}
		return false
	}

	for it := 0; it < iters; it++ {
		if err := checkCopy(cls, r, updates, it); err != nil {
			return err
		}
		sigma := cls.Gen.State(r)
		if !cls.Invariant(sigma) {
			return fmt.Errorf("%s: generated state violates invariant (iter %d)", cls.Name, it)
		}
		u1 := updates[r.Intn(len(updates))]
		u2 := updates[r.Intn(len(updates))]
		c1 := cls.Gen.Call(r, u1)
		c2 := cls.Gen.Call(r, u2)

		// S-commutativity.
		s12 := sigma.Clone()
		cls.ApplyCall(s12, c1)
		cls.ApplyCall(s12, c2)
		s21 := sigma.Clone()
		cls.ApplyCall(s21, c2)
		cls.ApplyCall(s21, c1)
		commutes := s12.Equal(s21)
		if cls.Rel.SCommute(c1, c2) && !commutes {
			return fmt.Errorf("%s: declared S-commute fails: %s vs %s on state (iter %d)",
				cls.Name, c1.Format(cls), c2.Format(cls), it)
		}

		// Invariant sufficiency.
		for _, c := range []Call{c1, c2} {
			if cls.Rel.InvariantSufficient(c) && !cls.Permissible(sigma, c) {
				return fmt.Errorf("%s: declared invariant-sufficient %s impermissible in I-state (iter %d)",
					cls.Name, c.Format(cls), it)
			}
		}

		// Guards: the runtime's Allows against the definition, for a call
		// of every update method.
		for _, u := range updates {
			if err := checkGuard(cls, sigma, cls.Gen.Call(r, u), it); err != nil {
				return err
			}
		}

		// Borrowed arguments: Apply and Eval keep none of a call's arrays.
		for u := range cls.Methods {
			if err := checkBorrow(cls, sigma, cls.Gen.Call(r, MethodID(u)), it); err != nil {
				return err
			}
		}

		// P-R-commutativity: P(σ,c1) ⇒ P(c2(σ),c1). The interposed call
		// c2 must itself be permissible in σ — executions only ever apply
		// permissible calls, and the relation is used to reason about them.
		if cls.Rel.PRCommute(c1, c2) && cls.Permissible(sigma, c1) && cls.Permissible(sigma, c2) {
			post2 := sigma.Clone()
			cls.ApplyCall(post2, c2)
			if !cls.Permissible(post2, c1) {
				return fmt.Errorf("%s: declared ▷_P fails: %s after %s (iter %d)",
					cls.Name, c1.Format(cls), c2.Format(cls), it)
			}
			if err := checkGuard(cls, post2, c1, it); err != nil {
				return err
			}
		}

		// P-L-commutativity: P(c1(σ),c2) ⇒ P(σ,c2), for permissible c1.
		if cls.Rel.PLCommute(c2, c1) && cls.Permissible(sigma, c1) {
			post1 := sigma.Clone()
			cls.ApplyCall(post1, c1)
			if cls.Permissible(post1, c2) && !cls.Permissible(sigma, c2) {
				return fmt.Errorf("%s: declared ◁_P fails: %s w.r.t. %s (iter %d)",
					cls.Name, c2.Format(cls), c1.Format(cls), it)
			}
			if err := checkGuard(cls, post1, c2, it); err != nil {
				return err
			}
		}

		// Call-level relations must be covered by method-level edges.
		if cls.Rel.Conflict(c1, c2) && !hasConflictEdge(u1, u2) {
			return fmt.Errorf("%s: calls %s, %s conflict but methods lack a conflict edge (iter %d)",
				cls.Name, c1.Format(cls), c2.Format(cls), it)
		}
		if cls.Rel.Dependent(c2, c1) && !hasDepEdge(u2, u1) {
			return fmt.Errorf("%s: %s depends on %s but Dep(%s) misses %s (iter %d)",
				cls.Name, c2.Format(cls), c1.Format(cls),
				cls.Methods[u2].Name, cls.Methods[u1].Name, it)
		}

		// Summarization: within each group, Summarize(ca, cb) ≡ cb ∘ ca,
		// and Identity is neutral.
		for _, g := range cls.SumGroups {
			ca := cls.Gen.Call(r, g.Methods[r.Intn(len(g.Methods))])
			cb := cls.Gen.Call(r, g.Methods[r.Intn(len(g.Methods))])
			sum := g.Summarize(ca.Clone(), cb) // ca is applied below: pass a copy to consume
			if !inGroup(g, sum.Method) {
				return fmt.Errorf("%s: group %q not closed: Summarize yields method %d (iter %d)",
					cls.Name, g.Name, sum.Method, it)
			}
			direct := sigma.Clone()
			cls.ApplyCall(direct, ca)
			cls.ApplyCall(direct, cb)
			viaSum := sigma.Clone()
			cls.ApplyCall(viaSum, sum)
			if !direct.Equal(viaSum) {
				return fmt.Errorf("%s: Summarize(%s, %s) = %s is not their composition (iter %d)",
					cls.Name, ca.Format(cls), cb.Format(cls), sum.Format(cls), it)
			}
			idState := sigma.Clone()
			cls.ApplyCall(idState, g.Identity())
			if !idState.Equal(sigma) {
				return fmt.Errorf("%s: group %q Identity is not a no-op (iter %d)", cls.Name, g.Name, it)
			}
		}
	}
	return nil
}

// checkGuard holds Allows(σ, c) to P(σ, c) for a state σ that satisfies the
// invariant (a post-state that does not is skipped: the runtime never checks
// one), and requires Allows to leave σ as it found it.
func checkGuard(cls *Class, sigma State, c Call, it int) error {
	if !cls.Invariant(sigma) {
		return nil
	}
	m := cls.Methods[c.Method]
	if !cls.Vacuous(c) && m.Guard == nil {
		return fmt.Errorf("%s: %s declares no Guard, yet %s is not invariant-sufficient (iter %d)",
			cls.Name, m.Name, c.Format(cls), it)
	}
	before := sigma.Clone()
	allows := cls.Allows(sigma, c)
	if !sigma.Equal(before) {
		return fmt.Errorf("%s: %s's Guard modified the state on %s (iter %d)", cls.Name, m.Name, c.Format(cls), it)
	}
	if p := cls.Permissible(sigma, c); allows != p {
		return fmt.Errorf("%s: Allows(σ, %s) = %t but P(σ, %s) = %t (iter %d)",
			cls.Name, c.Format(cls), allows, c.Format(cls), p, it)
	}
	return nil
}

// checkBorrow runs c — an update through ApplyCall, a query through Eval — on
// a copy of σ, then scribbles over every element of c's arguments and
// requires the state to read as it did before the scribble: a method that
// keeps an argument array in the state would let a runtime that applies a
// call decoded into reused storage corrupt it on the next decode.
func checkBorrow(cls *Class, sigma State, c Call, it int) error {
	m := cls.Methods[c.Method]
	st := sigma.Clone()
	if m.Kind == Update {
		cls.ApplyCall(st, c)
	} else {
		m.Eval(st, c.Args)
	}
	want := st.Clone()
	for i := range c.Args.I {
		c.Args.I[i] = ^c.Args.I[i]
	}
	for i := range c.Args.S {
		c.Args.S[i] += "\x00scribbled"
	}
	if !st.Equal(want) {
		return fmt.Errorf("%s: %s keeps its arguments: scribbling over them after the call changed the state (iter %d)",
			cls.Name, m.Name, it)
	}
	return nil
}

// checkCopy holds CopyFrom, and Clone, to their contract before the other
// checks lean on Clone: a scratch state filled from another generated state,
// after CopyFrom(σ), Equals σ and shares no map, slice or pointer target with
// it, nor does σ.Clone(); and a random update applied to the copy leaves σ
// equal to its snapshot and brings the copy where it brings the snapshot.
func checkCopy(cls *Class, r Rand, updates []MethodID, it int) error {
	sigma := cls.Gen.State(r)
	cp := cls.Gen.State(r)
	cp.CopyFrom(sigma)
	if !cp.Equal(sigma) {
		return fmt.Errorf("%s: CopyFrom(σ) does not Equal σ (iter %d)", cls.Name, it)
	}
	if sharesStorage(cp, sigma) {
		return fmt.Errorf("%s: CopyFrom shares storage with its source (iter %d)", cls.Name, it)
	}
	snap := sigma.Clone()
	if sharesStorage(snap, sigma) {
		return fmt.Errorf("%s: Clone shares storage with its source (iter %d)", cls.Name, it)
	}
	c := cls.Gen.Call(r, updates[r.Intn(len(updates))])
	cls.ApplyCall(cp, c)
	if !sigma.Equal(snap) {
		return fmt.Errorf("%s: %s on a CopyFrom copy changed its source (iter %d)", cls.Name, c.Format(cls), it)
	}
	cls.ApplyCall(snap, c)
	if !cp.Equal(snap) {
		return fmt.Errorf("%s: %s on a CopyFrom copy differs from %s on a Clone (iter %d)",
			cls.Name, c.Format(cls), c.Format(cls), it)
	}
	return nil
}

// sharesStorage reports whether a and b reach a common map, slice array or
// pointer target. Strings are immutable and may be shared.
func sharesStorage(a, b State) bool {
	var sa, sb []span
	spans(reflect.ValueOf(a), &sa)
	spans(reflect.ValueOf(b), &sb)
	for _, x := range sa {
		for _, y := range sb {
			if x.lo < y.hi && y.lo < x.hi {
				return true
			}
		}
	}
	return false
}

// span is a half-open address range of storage a state owns.
type span struct{ lo, hi uintptr }

// spans appends the storage reachable from v: each map (as its header), each
// slice's backing array and each pointer's target, recursively.
func spans(v reflect.Value, out *[]span) {
	add := func(p, size uintptr) { *out = append(*out, span{p, p + max(size, 1)}) }
	switch v.Kind() {
	case reflect.Map:
		if v.IsNil() {
			return
		}
		add(v.Pointer(), 1)
		for it := v.MapRange(); it.Next(); {
			spans(it.Key(), out)
			spans(it.Value(), out)
		}
	case reflect.Pointer:
		if v.IsNil() {
			return
		}
		add(v.Pointer(), v.Type().Elem().Size())
		spans(v.Elem(), out)
	case reflect.Slice:
		if v.Cap() == 0 {
			return
		}
		add(v.Pointer(), uintptr(v.Cap())*v.Type().Elem().Size())
		for i := 0; i < v.Len(); i++ {
			spans(v.Index(i), out)
		}
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			spans(v.Index(i), out)
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			spans(v.Field(i), out)
		}
	case reflect.Interface:
		if !v.IsNil() {
			spans(v.Elem(), out)
		}
	}
}

func inGroup(g SumGroup, u MethodID) bool {
	for _, m := range g.Methods {
		if m == u {
			return true
		}
	}
	return false
}
