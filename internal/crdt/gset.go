package crdt

import "hamband/internal/spec"

// GSetState is the state of a grow-only set of integers.
type GSetState struct{ Elems i64Set }

// Clone implements spec.State.
func (s *GSetState) Clone() spec.State { return &GSetState{Elems: s.Elems.Clone()} }

// Equal implements spec.State.
func (s *GSetState) Equal(o spec.State) bool {
	t, ok := o.(*GSetState)
	return ok && s.Elems.Equal(t.Elems)
}

// GSet method IDs.
const (
	GSetAdd spec.MethodID = iota
	GSetContains
	GSetSize
)

// NewGSet returns the grow-only set CRDT whose add method takes a *set* of
// elements. Because adds take sets, two adds summarize into one (their
// union), making the method reducible (§2: "if the set object has an add
// method to add a set, then the add method is summarizable").
func NewGSet() *spec.Class {
	cls := newGSet("gset")
	cls.SumGroups = []spec.SumGroup{{
		Name:    "add",
		Methods: []spec.MethodID{GSetAdd},
		Identity: func() spec.Call {
			return spec.Call{Method: GSetAdd}
		},
		Summarize: func(a, b spec.Call) spec.Call {
			return spec.Call{Method: GSetAdd, Args: spec.Args{I: spec.UnionSorted(a.Args.I, b.Args.I)}}
		},
	}}
	return cls
}

// NewGSetBuffered returns the same grow-only set but *without* its
// summarization group, so add is categorized irreducible conflict-free and
// travels through remote buffers. The paper uses exactly this variant in
// Figure 9 to isolate the effect of remote buffering ("the methods of GSet
// are reducible; however, here, we use an implementation that uses buffers
// instead of summaries").
func NewGSetBuffered() *spec.Class {
	return newGSet("gset-buffered")
}

func newGSet(name string) *spec.Class {
	cls := &spec.Class{
		Name: name,
		Methods: []spec.Method{
			GSetAdd: {
				Name: "add",
				Kind: spec.Update,
				Apply: func(s spec.State, a spec.Args) {
					st := s.(*GSetState)
					for _, e := range a.I {
						st.Elems[e] = true
					}
				},
			},
			GSetContains: {
				Name: "contains",
				Kind: spec.Query,
				Eval: func(s spec.State, a spec.Args) any {
					return s.(*GSetState).Elems[a.I[0]]
				},
			},
			GSetSize: {
				Name: "size",
				Kind: spec.Query,
				Eval: func(s spec.State, _ spec.Args) any {
					return int64(len(s.(*GSetState).Elems))
				},
			},
		},
		NewState:  func() spec.State { return &GSetState{Elems: make(i64Set)} },
		Invariant: invariantTrue,
		Rel:       crdtRelations(),
	}
	cls.TrivialInvariant = true
	cls.Gen = spec.Generators{
		State: func(r spec.Rand) spec.State {
			st := &GSetState{Elems: make(i64Set)}
			for i, n := 0, r.Intn(8); i < n; i++ {
				st.Elems[int64(r.Intn(50))] = true
			}
			return st
		},
		Call: func(r spec.Rand, u spec.MethodID) spec.Call {
			switch u {
			case GSetAdd:
				n := 1 + r.Intn(3)
				elems := make([]int64, n)
				for i := range elems {
					elems[i] = int64(r.Intn(50))
				}
				return spec.Call{Method: GSetAdd, Args: spec.Args{I: elems}}
			case GSetContains:
				return spec.Call{Method: GSetContains, Args: spec.ArgsI(int64(r.Intn(50)))}
			default:
				return spec.Call{Method: GSetSize}
			}
		},
	}
	return cls
}
