package crdt

import "hamband/internal/spec"

// ORSetState is the state of the observed-remove set: live element tags and
// a tombstone set of removed tags. Tombstones make add and remove
// state-commute unconditionally — an add whose tag was already tombstoned
// by a (delivery-reordered) remove is suppressed — so the type needs
// neither synchronization nor causal delivery and is conflict-free.
//
// The live (element, tag) pairs are stored by tag, so add and remove touch
// only the tags they name and contains reads one count. A tag is unique per
// add, and so lives under one element, in every execution that mints tags
// with Tag; a user may still pass one tag to adds of two elements. Such a
// tag keeps its first element in Live and the others in Dups, which stays
// nil until the first one appears.
type ORSetState struct {
	Live  map[int64]int64  // live tag → element
	Count map[int64]int    // element → its live tags (elements with none are absent)
	Dups  map[int64]i64Set // live tag → its further elements; nil until a tag has two
	Tombs i64Set           // removed tags
}

func newORSetState() *ORSetState {
	return &ORSetState{Live: make(map[int64]int64), Count: make(map[int64]int), Tombs: make(i64Set)}
}

// Clone implements spec.State.
func (s *ORSetState) Clone() spec.State { c := &ORSetState{}; c.CopyFrom(s); return c }

// CopyFrom implements spec.State.
func (s *ORSetState) CopyFrom(src spec.State) {
	t := src.(*ORSetState)
	s.Live = spec.CopyMap(s.Live, t.Live)
	s.Count = spec.CopyMap(s.Count, t.Count)
	if s.Dups != nil || len(t.Dups) > 0 {
		s.Dups = spec.CopyMapWith(s.Dups, t.Dups, spec.CopyMap[i64Set])
	}
	s.Tombs = spec.CopyMap(s.Tombs, t.Tombs)
}

// Equal implements spec.State: both states hold the same live (element,
// tag) pairs and the same tombstones, whichever element of a duplicated tag
// each keeps in Live.
func (s *ORSetState) Equal(o spec.State) bool {
	t, ok := o.(*ORSetState)
	if !ok || len(s.Live) != len(t.Live) || !s.Tombs.Equal(t.Tombs) {
		return false
	}
	for tag, e := range s.Live {
		dups := s.Dups[tag]
		if len(dups) != len(t.Dups[tag]) || !t.live(e, tag) {
			return false
		}
		for e := range dups {
			if !t.live(e, tag) {
				return false
			}
		}
	}
	return true
}

// live reports whether tag is live under e.
func (s *ORSetState) live(e, tag int64) bool {
	first, ok := s.Live[tag]
	return ok && (first == e || s.Dups[tag][e])
}

// add makes tag live under e unless it is tombstoned.
func (s *ORSetState) add(e, tag int64) {
	if s.Tombs[tag] {
		return
	}
	switch first, ok := s.Live[tag]; {
	case !ok:
		s.Live[tag] = e
	case first == e || s.Dups[tag][e]:
		return
	default:
		if s.Dups == nil {
			s.Dups = make(map[int64]i64Set)
		}
		if s.Dups[tag] == nil {
			s.Dups[tag] = make(i64Set)
		}
		s.Dups[tag][e] = true
	}
	s.Count[e]++
}

// remove tombstones tag and ends its life under every element.
func (s *ORSetState) remove(tag int64) {
	s.Tombs[tag] = true
	e, ok := s.Live[tag]
	if !ok {
		return
	}
	delete(s.Live, tag)
	s.drop(e)
	for e := range s.Dups[tag] {
		s.drop(e)
	}
	delete(s.Dups, tag)
}

// drop takes one live tag off e's count.
func (s *ORSetState) drop(e int64) {
	if s.Count[e]--; s.Count[e] == 0 {
		delete(s.Count, e)
	}
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
					s.(*ORSetState).add(a.I[0], a.I[1])
				},
			},
			ORSetRemove: {
				Name: "remove",
				Kind: spec.Update,
				Apply: func(s spec.State, a spec.Args) {
					st := s.(*ORSetState)
					// Tags are unique per add, so each belongs to one
					// element; ending a tag under every element it is live
					// under keeps the effector commutative even against
					// ill-formed duplicate tags.
					for _, tag := range a.I[1:] {
						st.remove(tag)
					}
				},
			},
			ORSetContains: {
				Name: "contains",
				Kind: spec.Query,
				Eval: func(s spec.State, a spec.Args) any {
					return s.(*ORSetState).Count[a.I[0]] > 0
				},
			},
		},
		NewState:  func() spec.State { return newORSetState() },
		Invariant: invariantTrue,
		Rel:       crdtRelations(),
	}
	cls.Gen = spec.Generators{
		State: func(r spec.Rand) spec.State {
			st := newORSetState()
			for i, n := 0, r.Intn(6); i < n; i++ {
				e := int64(r.Intn(20))
				st.add(e, Tag(spec.ProcID(r.Intn(3)), uint64(r.Intn(30))))
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
