package crdt

import "hamband/internal/spec"

// ORSetState is the state of the observed-remove set: live element tags and
// a tombstone set of removed tags. Tombstones make add and remove
// state-commute unconditionally — an add whose tag was already tombstoned
// by a (delivery-reordered) remove is suppressed — so the type needs
// neither synchronization nor causal delivery and is conflict-free.
type ORSetState struct {
	Entries map[int64]i64Set // element → live tags
	Tombs   i64Set           // removed tags
}

// Clone implements spec.State.
func (s *ORSetState) Clone() spec.State { c := &ORSetState{}; c.CopyFrom(s); return c }

// CopyFrom implements spec.State.
func (s *ORSetState) CopyFrom(src spec.State) {
	t := src.(*ORSetState)
	s.Entries = spec.CopyMapWith(s.Entries, t.Entries, spec.CopyMap[i64Set])
	s.Tombs = spec.CopyMap(s.Tombs, t.Tombs)
}

// Equal implements spec.State.
func (s *ORSetState) Equal(o spec.State) bool {
	t, ok := o.(*ORSetState)
	if !ok || len(s.Entries) != len(t.Entries) || !s.Tombs.Equal(t.Tombs) {
		return false
	}
	for e, tags := range s.Entries {
		if !tags.Equal(t.Entries[e]) {
			return false
		}
	}
	return true
}

// ORSet method IDs.
const (
	ORSetAdd spec.MethodID = iota
	ORSetRemove
	ORSetContains
)

// NewORSet returns the observed-remove set CRDT. add(e, tag) inserts the
// element under a globally unique tag (see Tag); remove(e, tags...) cancels
// exactly the observed tags. Adds cannot be merged into a single add call
// with one tag, so the methods are unsummarizable and the type is
// irreducible conflict-free: it propagates through remote buffers (§5,
// Figure 9).
func NewORSet() *spec.Class {
	cls := &spec.Class{
		Name: "orset",
		Methods: []spec.Method{
			ORSetAdd: {
				Name: "add",
				Kind: spec.Update,
				Apply: func(s spec.State, a spec.Args) {
					st := s.(*ORSetState)
					e, tag := a.I[0], a.I[1]
					if st.Tombs[tag] {
						return
					}
					if st.Entries[e] == nil {
						st.Entries[e] = make(i64Set)
					}
					st.Entries[e][tag] = true
				},
			},
			ORSetRemove: {
				Name: "remove",
				Kind: spec.Update,
				Apply: func(s spec.State, a spec.Args) {
					st := s.(*ORSetState)
					// Tags are unique per add, so each belongs to one
					// element; scrubbing every entry keeps the effector
					// commutative even against ill-formed duplicate tags.
					for _, tag := range a.I[1:] {
						st.Tombs[tag] = true
						for e, tags := range st.Entries {
							if tags[tag] {
								delete(tags, tag)
								if len(tags) == 0 {
									delete(st.Entries, e)
								}
							}
						}
					}
				},
			},
			ORSetContains: {
				Name: "contains",
				Kind: spec.Query,
				Eval: func(s spec.State, a spec.Args) any {
					return len(s.(*ORSetState).Entries[a.I[0]]) > 0
				},
			},
		},
		NewState: func() spec.State {
			return &ORSetState{Entries: make(map[int64]i64Set), Tombs: make(i64Set)}
		},
		Invariant: invariantTrue,
		Rel:       crdtRelations(),
	}
	cls.Gen = spec.Generators{
		State: func(r spec.Rand) spec.State {
			st := &ORSetState{Entries: make(map[int64]i64Set), Tombs: make(i64Set)}
			for i, n := 0, r.Intn(6); i < n; i++ {
				e := int64(r.Intn(20))
				tag := Tag(spec.ProcID(r.Intn(3)), uint64(r.Intn(30)))
				if st.Tombs[tag] {
					continue
				}
				if st.Entries[e] == nil {
					st.Entries[e] = make(i64Set)
				}
				st.Entries[e][tag] = true
			}
			for i, n := 0, r.Intn(4); i < n; i++ {
				st.Tombs[Tag(spec.ProcID(r.Intn(3)), uint64(30+r.Intn(30)))] = true
			}
			return st
		},
		Call: func(r spec.Rand, u spec.MethodID) spec.Call {
			e := int64(r.Intn(20))
			switch u {
			case ORSetAdd:
				tag := Tag(spec.ProcID(r.Intn(3)), uint64(r.Intn(60)))
				return spec.Call{Method: ORSetAdd, Args: spec.ArgsI(e, tag)}
			case ORSetRemove:
				n := 1 + r.Intn(3)
				args := []int64{e}
				for i := 0; i < n; i++ {
					args = append(args, Tag(spec.ProcID(r.Intn(3)), uint64(r.Intn(60))))
				}
				return spec.Call{Method: ORSetRemove, Args: spec.Args{I: args}}
			default:
				return spec.Call{Method: ORSetContains, Args: spec.ArgsI(e)}
			}
		},
	}
	return markTrivial(cls)
}
