// Package spec captures the paper's object data types (§3.1): a class is a
// tuple ⟨Σ, I, ū:=d̄, q̄:=d̄⟩ of a state type, an integrity invariant, and
// update and query method definitions. The package also carries the
// coordination relations — state conflict, permissible conflict, and
// dependency — at both the call level (used by the operational semantics in
// packages wrdt and rdmawrdt) and the method level (used by the runtime),
// and derives from them the analysis the runtime consumes: the conflict
// graph, synchronization groups, summarization groups, dependency sets and
// the three method categories of §3.3.
package spec

import (
	"fmt"
	"strings"
)

// MethodID indexes a method within a class. IDs are dense, starting at 0,
// covering update and query methods alike.
type MethodID int

// ProcID identifies a replica process. IDs are dense, starting at 0.
type ProcID int

// MethodKind distinguishes update methods from query methods.
type MethodKind int

// Method kinds.
const (
	Update MethodKind = iota
	Query
)

// Args carries a method call's arguments: a vector of integers and a vector
// of strings. The flat shape keeps calls cheap to copy, compare and
// serialize (package codec).
type Args struct {
	I []int64
	S []string
}

// ArgsI builds integer-only arguments.
func ArgsI(vals ...int64) Args { return Args{I: vals} }

// ArgsS builds string-only arguments.
func ArgsS(vals ...string) Args { return Args{S: vals} }

// Clone returns a deep copy of the arguments.
func (a Args) Clone() Args {
	return Args{I: append([]int64(nil), a.I...), S: append([]string(nil), a.S...)}
}

// Equal reports whether two argument vectors are identical.
func (a Args) Equal(b Args) bool {
	if len(a.I) != len(b.I) || len(a.S) != len(b.S) {
		return false
	}
	for i := range a.I {
		if a.I[i] != b.I[i] {
			return false
		}
	}
	for i := range a.S {
		if a.S[i] != b.S[i] {
			return false
		}
	}
	return true
}

// String formats the arguments as a call-argument list.
func (a Args) String() string {
	parts := make([]string, 0, len(a.I)+len(a.S))
	for _, v := range a.I {
		parts = append(parts, fmt.Sprint(v))
	}
	for _, s := range a.S {
		parts = append(parts, fmt.Sprintf("%q", s))
	}
	return strings.Join(parts, ",")
}

// Call is an update method call instance u(v)_{p,r}: the method, its
// arguments, the issuing process, and the per-process issue sequence number.
// (Proc, Seq) together form the paper's unique request identifier r.
type Call struct {
	Method MethodID
	Args   Args
	Proc   ProcID
	Seq    uint64
}

// Clone returns c with its own copy of the arguments: what a caller passes
// as Summarize's first argument when it still needs c afterwards.
func (c Call) Clone() Call {
	c.Args = c.Args.Clone()
	return c
}

// SameRequest reports whether two calls denote the same request.
func (c Call) SameRequest(d Call) bool { return c.Proc == d.Proc && c.Seq == d.Seq }

// String formats the call for diagnostics, e.g. "withdraw(5)@p1#3".
func (c Call) String() string {
	return fmt.Sprintf("m%d(%s)@p%d#%d", c.Method, c.Args, c.Proc, c.Seq)
}

// Format renders the call with its method name from cls.
func (c Call) Format(cls *Class) string {
	return fmt.Sprintf("%s(%s)@p%d#%d", cls.Methods[c.Method].Name, c.Args, c.Proc, c.Seq)
}

// State is the object state Σ. Implementations are concrete per data type
// (package crdt, package schema).
type State interface {
	// Clone returns a deep copy; the operational semantics replicate and
	// fork states freely.
	Clone() State
	// CopyFrom makes the receiver a deep copy of src, another state of the
	// same type, reusing the receiver's own maps and slices: a state rebuilt
	// over and over (the runtime's Apply(S)(σ) after a slot is replaced)
	// stops allocating once it has grown to size. The receiver and src
	// share nothing afterwards.
	CopyFrom(src State)
	// Equal reports semantic state equality; used by the convergence
	// checkers.
	Equal(State) bool
}

// CopyMap makes dst hold exactly src's entries and returns it, reusing dst's
// storage; a nil dst is made with src's size. It is CopyFrom's step for a map
// of plain values.
func CopyMap[M ~map[K]V, K comparable, V any](dst, src M) M {
	if dst == nil {
		dst = make(M, len(src))
	} else {
		clear(dst)
	}
	for k, v := range src {
		dst[k] = v
	}
	return dst
}

// CopyMapWith is CopyMap for values that own storage of their own (a nested
// map, a slice): cp copies each of src's values into the value dst already
// holds under its key (the zero value for a new key) and returns the result,
// so the nested storage of the keys both maps hold is reused too.
func CopyMapWith[M ~map[K]V, K comparable, V any](dst, src M, cp func(into, from V) V) M {
	if dst == nil {
		dst = make(M, len(src))
	}
	for k := range dst {
		if _, ok := src[k]; !ok {
			delete(dst, k)
		}
	}
	for k, v := range src {
		dst[k] = cp(dst[k], v)
	}
	return dst
}

// Method is one method definition. Update methods have Apply (the function
// λx,σ.e from parameter and pre-state to post-state, here in mutating
// form); query methods have Eval.
type Method struct {
	Name string
	Kind MethodKind

	// Apply executes an update call against the state in place.
	Apply func(State, Args)
	// Eval executes a query against the state and returns its value.
	Eval func(State, Args) any
	// Apply and Eval borrow their arguments: the state keeps none of the
	// argument arrays, so a runtime may apply a call decoded into storage it
	// reuses (CheckRelations scribbles over them to check it).
	// Guard reports P(σ, c) for a call of this update method on a state σ
	// that satisfies the invariant, without modifying σ. Every update
	// method with a call that is not invariant-sufficient declares one;
	// CheckRelations holds it to Permissible.
	Guard func(State, Args) bool
}

// Relations declares the call-level coordination relations of §3.2. The
// functions express the *declared* analysis results (in the paper these come
// from Hamsaz-style solver analysis); CheckRelations validates them against
// their semantic definitions by randomized testing.
type Relations struct {
	// SCommute reports c1 ⇔_S c2: applying the calls in either order
	// yields the same state.
	SCommute func(c1, c2 Call) bool
	// InvariantSufficient reports that c is permissible in every state
	// satisfying the invariant.
	InvariantSufficient func(c Call) bool
	// PRCommute reports c1 ▷_P c2: if c1 is permissible in σ it remains
	// permissible in c2(σ).
	PRCommute func(c1, c2 Call) bool
	// PLCommute reports c2 ◁_P c1: if c2 is permissible in c1(σ) it is
	// permissible in σ too.
	PLCommute func(c2, c1 Call) bool
}

// PConcur reports whether c1 P-concurs with c2: c1 is invariant-sufficient
// or P-R-commutes with c2.
func (r Relations) PConcur(c1, c2 Call) bool {
	return r.InvariantSufficient(c1) || r.PRCommute(c1, c2)
}

// Conflict reports c1 ⋈ c2: the calls fail to S-commute or fail to
// P-concur in either direction. Conflicting calls must synchronize.
func (r Relations) Conflict(c1, c2 Call) bool {
	return !r.SCommute(c1, c2) || !r.PConcur(c1, c2) || !r.PConcur(c2, c1)
}

// Independent reports c2 ⫫ c1: c2 is invariant-sufficient or P-L-commutes
// with c1.
func (r Relations) Independent(c2, c1 Call) bool {
	return r.InvariantSufficient(c2) || r.PLCommute(c2, c1)
}

// Dependent reports c2 ⋩ c1: c2's permissibility may rely on c1 having
// executed before it.
func (r Relations) Dependent(c2, c1 Call) bool { return !r.Independent(c2, c1) }

// SumGroup is a summarization group: a set of update methods whose calls
// are closed under summarization (§3.3).
type SumGroup struct {
	Name    string
	Methods []MethodID
	// Identity returns the group's neutral call (e.g. deposit(0)); the
	// initial content of every summary slot. No two calls of it share
	// arrays, so each slot may fold into its own.
	Identity func() Call
	// Summarize combines two calls into one whose effect equals applying
	// first then second. It consumes first as append consumes its slice:
	// the result may reuse first's arrays, and the caller keeps only the
	// result (a caller that still needs first passes first.Clone()). second
	// is borrowed: never written, and never retained by the result.
	Summarize func(first, second Call) Call
}

// Generators produce random states and calls for property testing and
// workload generation. Every class provides them.
type Generators struct {
	// State generates a random state satisfying the invariant.
	State func(r Rand) State
	// Call generates a random call on method u.
	Call func(r Rand, u MethodID) Call
}

// Rand is the subset of *math/rand.Rand the generators need; an interface
// keeps spec decoupled from a concrete source.
type Rand interface {
	Intn(n int) int
	Int63() int64
	Float64() float64
}

// Class is a replicated object data type together with its declared
// coordination relations and summarization structure.
type Class struct {
	Name    string
	Methods []Method
	// NewState returns the initial state σ0, which must satisfy the
	// invariant.
	NewState func() State
	// Invariant is the integrity property I.
	Invariant func(State) bool
	// TrivialInvariant declares that Invariant is the constant true (the
	// CRDT special case); runtimes skip permissibility checks when set.
	TrivialInvariant bool

	// Rel declares the call-level relations.
	Rel Relations

	// ConflictsWith declares the method-level conflict graph: for each
	// update method, the methods it conflicts with (undirected; self-loops
	// allowed, as withdraw/withdraw in the account example).
	ConflictsWith map[MethodID][]MethodID
	// DependsOn declares Dep(u) for each update method.
	DependsOn map[MethodID][]MethodID
	// SumGroups declares the summarization groups.
	SumGroups []SumGroup

	// Gen provides random state/call generators for testing and workloads.
	Gen Generators
}

// Permissible reports P(σ, c): the invariant holds after applying c to a
// copy of σ. The argument state is not modified. It is the definition the
// checkers (CheckRelations, conform, wrdt, rdmawrdt) hold the runtime to;
// the runtime itself asks Allows.
func (c *Class) Permissible(sigma State, call Call) bool {
	post := sigma.Clone()
	c.Methods[call.Method].Apply(post, call.Args)
	return c.Invariant(post)
}

// Allows reports P(σ, c) for a state σ that satisfies the invariant, without
// copying σ: c is Vacuous or the method's Guard admits it. The runtime only
// checks states that satisfy the invariant (Lemma 1), so there Allows and
// Permissible agree whenever the declarations CheckRelations validates hold.
// It panics when c needs a Guard its method does not declare.
func (c *Class) Allows(sigma State, call Call) bool {
	if c.Vacuous(call) {
		return true
	}
	m := &c.Methods[call.Method]
	if m.Guard == nil {
		panic("spec: " + c.Name + "." + m.Name + " declares no Guard for a call that is not invariant-sufficient")
	}
	return m.Guard(sigma, call.Args)
}

// Vacuous reports that c's permissibility cannot fail in a state satisfying
// the invariant: the invariant is constant true, or the class declares c
// invariant-sufficient. A runtime asks it before building the state Allows
// would be given.
func (c *Class) Vacuous(call Call) bool {
	suff := c.Rel.InvariantSufficient
	return c.TrivialInvariant || (suff != nil && suff(call))
}

// AdmitsFrom reports whether call, decoded from bytes process from wrote or
// sent, may be applied as a call of this class: its method is one of the
// class's update methods and its process is from. A receiver asks it before
// anything indexes the class's methods or an applied map by the call.
func (c *Class) AdmitsFrom(call Call, from ProcID) bool {
	u := call.Method
	return u >= 0 && int(u) < len(c.Methods) && c.Methods[u].Kind == Update && call.Proc == from
}

// ApplyCall applies an update call to the state in place.
func (c *Class) ApplyCall(sigma State, call Call) {
	c.Methods[call.Method].Apply(sigma, call.Args)
}

// UpdateMethods returns the IDs of the class's update methods.
func (c *Class) UpdateMethods() []MethodID {
	var out []MethodID
	for i, m := range c.Methods {
		if m.Kind == Update {
			out = append(out, MethodID(i))
		}
	}
	return out
}

// QueryMethods returns the IDs of the class's query methods.
func (c *Class) QueryMethods() []MethodID {
	var out []MethodID
	for i, m := range c.Methods {
		if m.Kind == Query {
			out = append(out, MethodID(i))
		}
	}
	return out
}

// MethodByName returns the ID of the named method; it panics if absent,
// since lookups by name happen only in test and example setup code.
func (c *Class) MethodByName(name string) MethodID {
	for i, m := range c.Methods {
		if m.Name == name {
			return MethodID(i)
		}
	}
	panic(fmt.Sprintf("spec: class %s has no method %q", c.Name, name))
}
