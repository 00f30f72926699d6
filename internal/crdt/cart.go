package crdt

import (
	"slices"

	"hamband/internal/spec"
)

// CartState is the state of the shopping cart: the live add operations
// (tag → item and quantity) plus a tombstone set, following the OR-cart
// construction of Shapiro et al. The quantity of an item is the sum over
// its live tags, kept as a running total.
//
// As in ORSetState, the adds are stored by tag, so addItem and removeItem
// touch only the tags they name. A tag a user passes to adds of two items
// keeps its first item in Live and the others in Dups, which stays nil
// until the first such tag appears.
type CartState struct {
	Live  map[int64]CartLine        // live tag → its item and quantity
	Qty   map[int64]int64           // item → quantity summed over its live tags (zero sums are absent)
	Dups  map[int64]map[int64]int64 // live tag → its further items → quantity; nil until a tag has two
	Tombs i64Set                    // removed tags
}

// CartLine is one live add of the cart: qty units of item.
type CartLine struct{ Item, Qty int64 }

func newCartState() *CartState {
	return &CartState{Live: make(map[int64]CartLine), Qty: make(map[int64]int64), Tombs: make(i64Set)}
}

// Clone implements spec.State.
func (s *CartState) Clone() spec.State { c := &CartState{}; c.CopyFrom(s); return c }

// CopyFrom implements spec.State.
func (s *CartState) CopyFrom(src spec.State) {
	t := src.(*CartState)
	s.Live = spec.CopyMap(s.Live, t.Live)
	s.Qty = spec.CopyMap(s.Qty, t.Qty)
	if s.Dups != nil || len(t.Dups) > 0 {
		s.Dups = spec.CopyMapWith(s.Dups, t.Dups, spec.CopyMap[map[int64]int64])
	}
	s.Tombs = spec.CopyMap(s.Tombs, t.Tombs)
}

// Equal implements spec.State: both states hold the same live (item, tag,
// quantity) adds and the same tombstones, whichever item of a duplicated
// tag each keeps in Live.
func (s *CartState) Equal(o spec.State) bool {
	t, ok := o.(*CartState)
	if !ok || len(s.Live) != len(t.Live) || !s.Tombs.Equal(t.Tombs) {
		return false
	}
	for tag, l := range s.Live {
		dups := s.Dups[tag]
		if len(dups) != len(t.Dups[tag]) {
			return false
		}
		if q, ok := t.qty(l.Item, tag); !ok || q != l.Qty {
			return false
		}
		for item, qty := range dups {
			if q, ok := t.qty(item, tag); !ok || q != qty {
				return false
			}
		}
	}
	return true
}

// qty returns the quantity tag holds of item, and whether it is live there.
func (s *CartState) qty(item, tag int64) (int64, bool) {
	l, ok := s.Live[tag]
	if !ok || l.Item == item {
		return l.Qty, ok
	}
	q, ok := s.Dups[tag][item]
	return q, ok
}

// add places qty units of item under tag unless the tag is tombstoned. A
// tag already live under item keeps the larger quantity: tags are unique per
// add in real executions, and against ill-formed duplicates max keeps the
// effector commutative.
func (s *CartState) add(item, qty, tag int64) {
	if s.Tombs[tag] {
		return
	}
	if l, live := s.Live[tag]; !live || l.Item == item {
		if live && qty <= l.Qty {
			return
		}
		s.Live[tag] = CartLine{item, qty}
		s.sum(item, qty-l.Qty)
		return
	}
	q, ok := s.Dups[tag][item]
	if ok && qty <= q {
		return
	}
	if s.Dups == nil {
		s.Dups = make(map[int64]map[int64]int64)
	}
	if s.Dups[tag] == nil {
		s.Dups[tag] = make(map[int64]int64)
	}
	s.Dups[tag][item] = qty
	s.sum(item, qty-q)
}

// remove tombstones tag and ends its life under every item.
func (s *CartState) remove(tag int64) {
	s.Tombs[tag] = true
	l, ok := s.Live[tag]
	if !ok {
		return
	}
	delete(s.Live, tag)
	s.sum(l.Item, -l.Qty)
	for item, q := range s.Dups[tag] {
		s.sum(item, -q)
	}
	delete(s.Dups, tag)
}

// sum adds d to item's total.
func (s *CartState) sum(item, d int64) {
	if s.Qty[item] += d; s.Qty[item] == 0 {
		delete(s.Qty, item)
	}
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
					s.(*CartState).add(a.I[0], a.I[1], a.I[2])
				},
			},
			CartRemove: {
				Name: "removeItem",
				Kind: spec.Update,
				Apply: func(s spec.State, a spec.Args) {
					st := s.(*CartState)
					for _, tag := range a.I[1:] {
						st.remove(tag)
					}
				},
			},
			CartQty: {
				Name: "quantity",
				Kind: spec.Query,
				Eval: func(s spec.State, a spec.Args) any {
					return s.(*CartState).Qty[a.I[0]]
				},
			},
		},
		NewState:  func() spec.State { return newCartState() },
		Invariant: invariantTrue,
		Rel:       crdtRelations(),
	}
	cls.Gen = spec.Generators{
		State: func(r spec.Rand) spec.State {
			// Each add is (item, quantity, tag); a redrawn (item, tag) keeps
			// its last quantity, not the larger.
			var adds [][3]int64
			for i, n := 0, r.Intn(5); i < n; i++ {
				item := int64(r.Intn(10))
				tag := Tag(spec.ProcID(r.Intn(3)), uint64(r.Intn(40)))
				add := [3]int64{item, int64(1 + r.Intn(5)), tag}
				if j := slices.IndexFunc(adds, func(a [3]int64) bool { return a[0] == item && a[2] == tag }); j >= 0 {
					adds[j] = add
				} else {
					adds = append(adds, add)
				}
			}
			st := newCartState()
			for _, a := range adds {
				st.add(a[0], a[1], a[2])
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
