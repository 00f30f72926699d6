package crdt

import "hamband/internal/spec"

// TwoPSetState is the state of the two-phase set: an added-elements set and
// a tombstone set. An element is present iff added and not tombstoned; once
// removed it can never return (the 2P-set's defining restriction), which is
// what makes add and remove commute without observed-remove tags.
type TwoPSetState struct {
	Added i64Set
	Tombs i64Set
}

// Clone implements spec.State.
func (s *TwoPSetState) Clone() spec.State { c := &TwoPSetState{}; c.CopyFrom(s); return c }

// CopyFrom implements spec.State.
func (s *TwoPSetState) CopyFrom(src spec.State) {
	t := src.(*TwoPSetState)
	s.Added = spec.CopyMap(s.Added, t.Added)
	s.Tombs = spec.CopyMap(s.Tombs, t.Tombs)
}

// Equal implements spec.State.
func (s *TwoPSetState) Equal(o spec.State) bool {
	t, ok := o.(*TwoPSetState)
	return ok && s.Added.Equal(t.Added) && s.Tombs.Equal(t.Tombs)
}

// TwoPSet method IDs.
const (
	TwoPAdd spec.MethodID = iota
	TwoPRemove
	TwoPContains
)

// NewTwoPSet returns the two-phase set CRDT with set-typed add and remove.
// Both update methods are reducible, but they cannot be summarized with
// *each other* (an add-union and a tombstone-union are different effects),
// so the class declares two separate summarization groups — each process
// then keeps two summary slots per peer, exercising the runtime's
// multi-group summary region.
func NewTwoPSet() *spec.Class {
	cls := &spec.Class{
		Name: "twopset",
		Methods: []spec.Method{
			TwoPAdd: {
				Name: "add",
				Kind: spec.Update,
				Apply: func(s spec.State, a spec.Args) {
					st := s.(*TwoPSetState)
					for _, e := range a.I {
						st.Added[e] = true
					}
				},
			},
			TwoPRemove: {
				Name: "remove",
				Kind: spec.Update,
				Apply: func(s spec.State, a spec.Args) {
					st := s.(*TwoPSetState)
					for _, e := range a.I {
						st.Tombs[e] = true
					}
				},
			},
			TwoPContains: {
				Name: "contains",
				Kind: spec.Query,
				Eval: func(s spec.State, a spec.Args) any {
					st := s.(*TwoPSetState)
					return st.Added[a.I[0]] && !st.Tombs[a.I[0]]
				},
			},
		},
		NewState: func() spec.State {
			return &TwoPSetState{Added: make(i64Set), Tombs: make(i64Set)}
		},
		Invariant: invariantTrue,
		Rel:       crdtRelations(),
		SumGroups: []spec.SumGroup{spec.UnionGroup("add", TwoPAdd), spec.UnionGroup("remove", TwoPRemove)},
	}
	cls.Gen = spec.Generators{
		State: func(r spec.Rand) spec.State {
			st := &TwoPSetState{Added: make(i64Set), Tombs: make(i64Set)}
			for i, n := 0, r.Intn(8); i < n; i++ {
				st.Added[int64(r.Intn(40))] = true
			}
			for i, n := 0, r.Intn(4); i < n; i++ {
				st.Tombs[int64(r.Intn(40))] = true
			}
			return st
		},
		Call: func(r spec.Rand, u spec.MethodID) spec.Call {
			switch u {
			case TwoPAdd, TwoPRemove:
				n := 1 + r.Intn(3)
				es := make([]int64, n)
				for i := range es {
					es[i] = int64(r.Intn(40))
				}
				return spec.Call{Method: u, Args: spec.Args{I: es}}
			default:
				return spec.Call{Method: TwoPContains, Args: spec.ArgsI(int64(r.Intn(40)))}
			}
		},
	}
	return markTrivial(cls)
}
