package crdt

import "hamband/internal/spec"

// CartState is the state of the shopping cart: per item, the live add
// operations (tag → quantity) plus a tombstone set, following the OR-cart
// construction of Shapiro et al. The quantity of an item is the sum over
// its live tags.
type CartState struct {
	Items map[int64]map[int64]int64 // item → tag → quantity
	Tombs i64Set
}

// Clone implements spec.State.
func (s *CartState) Clone() spec.State { c := &CartState{}; c.CopyFrom(s); return c }

// CopyFrom implements spec.State.
func (s *CartState) CopyFrom(src spec.State) {
	t := src.(*CartState)
	s.Items = spec.CopyMapWith(s.Items, t.Items, spec.CopyMap[map[int64]int64])
	s.Tombs = spec.CopyMap(s.Tombs, t.Tombs)
}

// Equal implements spec.State.
func (s *CartState) Equal(o spec.State) bool {
	t, ok := o.(*CartState)
	if !ok || len(s.Items) != len(t.Items) || !s.Tombs.Equal(t.Tombs) {
		return false
	}
	for item, tags := range s.Items {
		ot := t.Items[item]
		if len(tags) != len(ot) {
			return false
		}
		for tag, q := range tags {
			if ot[tag] != q {
				return false
			}
		}
	}
	return true
}

// Cart method IDs.
const (
	CartAdd spec.MethodID = iota
	CartRemove
	CartQty
)

// NewCart returns the shopping-cart data type. addItem(item, qty, tag)
// places qty units under a unique tag; removeItem(item, tags...) cancels
// the observed adds. Like the OR-set, its updates commute but cannot be
// summarized into single calls, so the cart is irreducible conflict-free
// (Figure 9's third use-case).
func NewCart() *spec.Class {
	cls := &spec.Class{
		Name: "cart",
		Methods: []spec.Method{
			CartAdd: {
				Name: "addItem",
				Kind: spec.Update,
				Apply: func(s spec.State, a spec.Args) {
					st := s.(*CartState)
					item, qty, tag := a.I[0], a.I[1], a.I[2]
					if st.Tombs[tag] {
						return
					}
					if st.Items[item] == nil {
						st.Items[item] = make(map[int64]int64)
					}
					// Tags are unique per add in real executions; against
					// ill-formed duplicates, max keeps the effector
					// commutative.
					if q, ok := st.Items[item][tag]; !ok || qty > q {
						st.Items[item][tag] = qty
					}
				},
			},
			CartRemove: {
				Name: "removeItem",
				Kind: spec.Update,
				Apply: func(s spec.State, a spec.Args) {
					st := s.(*CartState)
					for _, tag := range a.I[1:] {
						st.Tombs[tag] = true
						for item, tags := range st.Items {
							if _, ok := tags[tag]; ok {
								delete(tags, tag)
								if len(tags) == 0 {
									delete(st.Items, item)
								}
							}
						}
					}
				},
			},
			CartQty: {
				Name: "quantity",
				Kind: spec.Query,
				Eval: func(s spec.State, a spec.Args) any {
					var sum int64
					for _, q := range s.(*CartState).Items[a.I[0]] {
						sum += q
					}
					return sum
				},
			},
		},
		NewState: func() spec.State {
			return &CartState{Items: make(map[int64]map[int64]int64), Tombs: make(i64Set)}
		},
		Invariant: invariantTrue,
		Rel:       crdtRelations(),
	}
	cls.Gen = spec.Generators{
		State: func(r spec.Rand) spec.State {
			st := &CartState{Items: make(map[int64]map[int64]int64), Tombs: make(i64Set)}
			for i, n := 0, r.Intn(5); i < n; i++ {
				item := int64(r.Intn(10))
				tag := Tag(spec.ProcID(r.Intn(3)), uint64(r.Intn(40)))
				if st.Tombs[tag] {
					continue
				}
				if st.Items[item] == nil {
					st.Items[item] = make(map[int64]int64)
				}
				st.Items[item][tag] = int64(1 + r.Intn(5))
			}
			return st
		},
		Call: func(r spec.Rand, u spec.MethodID) spec.Call {
			item := int64(r.Intn(10))
			switch u {
			case CartAdd:
				tag := Tag(spec.ProcID(r.Intn(3)), uint64(r.Intn(80)))
				return spec.Call{Method: CartAdd, Args: spec.ArgsI(item, int64(1+r.Intn(5)), tag)}
			case CartRemove:
				args := []int64{item}
				for i, n := 0, 1+r.Intn(2); i < n; i++ {
					args = append(args, Tag(spec.ProcID(r.Intn(3)), uint64(r.Intn(80))))
				}
				return spec.Call{Method: CartRemove, Args: spec.Args{I: args}}
			default:
				return spec.Call{Method: CartQty, Args: spec.ArgsI(item)}
			}
		},
	}
	return markTrivial(cls)
}
