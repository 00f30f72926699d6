package crdt

import (
	"strings"

	"hamband/internal/spec"
)

// rgaNode is one element of the replicated sequence: a character keyed by a
// globally unique id, anchored after another element (or the sequence head,
// anchor 0). Removed elements stay as tombstones so later arrivals can still
// anchor to them — the standard RGA construction.
type rgaNode struct {
	ID      int64
	Ch      byte
	Removed bool
	// Children holds the ids anchored directly after this node, kept
	// sorted descending — concurrent siblings order by larger id first,
	// which makes attachment order-insensitive.
	Children []int64
}

// RGAState is the state of the replicated growable array: the element
// table, the root's children, and inserts whose anchors have not arrived
// yet (parked and attached when the anchor appears; real executions never
// park because insert depends on insert, but state equality under arbitrary
// call orders requires the normalization).
type RGAState struct {
	Nodes   map[int64]*rgaNode
	Root    []int64           // ids anchored at the head, sorted descending
	Parked  map[int64][]int64 // anchor id → parked child ids
	Content map[int64]rgaNode // parked nodes by id
}

// Clone implements spec.State.
func (s *RGAState) Clone() spec.State { c := &RGAState{}; c.CopyFrom(s); return c }

// CopyFrom implements spec.State. A parked node never has children (it is
// not in Nodes, where children attach), so Content copies by value.
func (s *RGAState) CopyFrom(src spec.State) {
	t := src.(*RGAState)
	s.Nodes = spec.CopyMapWith(s.Nodes, t.Nodes, func(into, from *rgaNode) *rgaNode {
		if into == nil {
			into = new(rgaNode)
		}
		kids := into.Children
		*into = *from
		into.Children = append(kids[:0], from.Children...)
		return into
	})
	s.Root = append(s.Root[:0], t.Root...)
	s.Parked = spec.CopyMapWith(s.Parked, t.Parked, func(into, from []int64) []int64 {
		return append(into[:0], from...)
	})
	s.Content = spec.CopyMap(s.Content, t.Content)
}

// Equal implements spec.State.
func (s *RGAState) Equal(o spec.State) bool {
	t, ok := o.(*RGAState)
	if !ok || len(s.Nodes) != len(t.Nodes) || len(s.Content) != len(t.Content) {
		return false
	}
	for id, n := range s.Nodes {
		m, ok := t.Nodes[id]
		if !ok || n.Ch != m.Ch || n.Removed != m.Removed {
			return false
		}
	}
	for id, n := range s.Content {
		m, ok := t.Content[id]
		if !ok || n.Ch != m.Ch || n.Removed != m.Removed {
			return false
		}
	}
	// Structural equality follows from the same element set: attachment is
	// a deterministic function of the (anchor, id) pairs. Compare the
	// rendered sequences to be thorough.
	return renderRGA(s) == renderRGA(t)
}

// renderRGA flattens the visible sequence by depth-first traversal.
func renderRGA(s *RGAState) string {
	var b strings.Builder
	var walk func(ids []int64)
	walk = func(ids []int64) {
		for _, id := range ids {
			n := s.Nodes[id]
			if !n.Removed {
				b.WriteByte(n.Ch)
			}
			walk(n.Children)
		}
	}
	walk(s.Root)
	return b.String()
}

// RGA method IDs.
const (
	RGAInsert spec.MethodID = iota
	RGARemove
	RGARead
	RGALength
)

// insertSorted inserts id into ids keeping descending order (no dups).
func insertSorted(ids []int64, id int64) []int64 {
	for i, x := range ids {
		if x == id {
			return ids
		}
		if id > x {
			out := append(ids[:i:i], id)
			return append(out, ids[i:]...)
		}
	}
	return append(ids, id)
}

// NewRGA returns the replicated growable array (Roh et al.'s RGA, the
// sequence CRDT the paper's related work cites for collaborative
// applications [77]): a replicated text buffer.
//
//   - insert(anchor, id, ch) places a character with globally unique id
//     (see Tag) immediately after the element anchor (0 = head).
//     Concurrent inserts at the same anchor order deterministically by
//     descending id. insert is conflict-free but *depends on its own
//     method*: the anchor must exist, so Dep(insert) = {insert} and the
//     runtime's dependency gating delivers inserts causally.
//   - remove(id) tombstones an element; tombstones keep anchoring later
//     inserts, so remove commutes with everything and carries no
//     dependencies.
//   - read() returns the visible string; length() its size.
func NewRGA() *spec.Class {
	cls := &spec.Class{
		Name: "rga",
		Methods: []spec.Method{
			RGAInsert: {
				Name: "insert",
				Kind: spec.Update,
				Apply: func(s spec.State, a spec.Args) {
					st := s.(*RGAState)
					anchor, id, ch := a.I[0], a.I[1], byte(a.I[2])
					attach(st, anchor, rgaNode{ID: id, Ch: ch})
				},
			},
			RGARemove: {
				Name: "remove",
				Kind: spec.Update,
				Apply: func(s spec.State, a spec.Args) {
					st := s.(*RGAState)
					id := a.I[0]
					if n, ok := st.Nodes[id]; ok {
						n.Removed = true
						return
					}
					// Element not yet attached: tombstone it in flight.
					if n, ok := st.Content[id]; ok {
						n.Removed = true
						st.Content[id] = n
						return
					}
					// Unknown id: pre-tombstone (arrives removed later).
					st.Content[id] = rgaNode{ID: id, Removed: true}
				},
			},
			RGARead: {
				Name: "read",
				Kind: spec.Query,
				Eval: func(s spec.State, _ spec.Args) any {
					return renderRGA(s.(*RGAState))
				},
			},
			RGALength: {
				Name: "length",
				Kind: spec.Query,
				Eval: func(s spec.State, _ spec.Args) any {
					return int64(len(renderRGA(s.(*RGAState))))
				},
			},
		},
		NewState: func() spec.State {
			return &RGAState{
				Nodes:   make(map[int64]*rgaNode),
				Parked:  make(map[int64][]int64),
				Content: make(map[int64]rgaNode),
			}
		},
		Invariant: invariantTrue,
		Rel:       crdtRelations(),
		DependsOn: map[spec.MethodID][]spec.MethodID{
			RGAInsert: {RGAInsert},
		},
	}
	// Element ids must be globally unique per insert (build them with Tag
	// from the issuing process and call sequence). The generators mint
	// unique ids through a counter, mirroring real executions; recent ids
	// serve as anchors and remove targets so anchored and racing cases are
	// exercised.
	var idSeq uint64
	var recent []int64
	fresh := func(r spec.Rand) int64 {
		idSeq++
		id := Tag(spec.ProcID(r.Intn(3)), idSeq)
		if len(recent) < 64 {
			recent = append(recent, id)
		} else {
			recent[int(idSeq)%64] = id
		}
		return id
	}
	pick := func(r spec.Rand) int64 {
		if len(recent) == 0 || r.Intn(3) == 0 {
			return 0
		}
		return recent[r.Intn(len(recent))]
	}
	cls.Gen = spec.Generators{
		State: func(r spec.Rand) spec.State {
			st := cls.NewState().(*RGAState)
			prev := int64(0)
			for i, n := 0, r.Intn(8); i < n; i++ {
				id := fresh(r)
				attach(st, prev, rgaNode{ID: id, Ch: byte('a' + r.Intn(26))})
				if r.Intn(2) == 0 {
					prev = id
				}
			}
			return st
		},
		Call: func(r spec.Rand, u spec.MethodID) spec.Call {
			switch u {
			case RGAInsert:
				return spec.Call{Method: RGAInsert,
					Args: spec.ArgsI(pick(r), fresh(r), int64('a'+r.Intn(26)))}
			case RGARemove:
				target := pick(r)
				if target == 0 {
					target = fresh(r)
				}
				return spec.Call{Method: RGARemove, Args: spec.ArgsI(target)}
			default:
				return spec.Call{Method: u}
			}
		},
	}
	return markTrivial(cls)
}

// attach places a node after its anchor, or parks it until the anchor
// arrives; parked descendants are attached recursively. Duplicate ids merge
// deterministically (larger (ch, anchor-independent) content wins), keeping
// the effector commutative even against ill-formed duplicates.
func attach(st *RGAState, anchor int64, n rgaNode) {
	if existing, ok := st.Nodes[n.ID]; ok {
		if n.Ch > existing.Ch {
			existing.Ch = n.Ch
		}
		return
	}
	if pre, ok := st.Content[n.ID]; ok && !parkedUnder(st, n.ID) {
		// A pre-tombstone for this id exists (remove arrived first).
		n.Removed = n.Removed || pre.Removed
		if pre.Ch > n.Ch {
			n.Ch = pre.Ch
		}
		delete(st.Content, n.ID)
	} else if ok {
		// Already parked: merge content deterministically.
		if n.Ch > pre.Ch {
			pre.Ch = n.Ch
			st.Content[n.ID] = pre
		}
		return
	}
	if anchor != 0 {
		if _, ok := st.Nodes[anchor]; !ok {
			// Anchor missing: park.
			st.Parked[anchor] = insertSorted(st.Parked[anchor], n.ID)
			st.Content[n.ID] = n
			return
		}
	}
	node := n
	st.Nodes[n.ID] = &node
	if anchor == 0 {
		st.Root = insertSorted(st.Root, n.ID)
	} else {
		p := st.Nodes[anchor]
		p.Children = insertSorted(p.Children, n.ID)
	}
	// Attach any children parked under this id.
	if kids := st.Parked[n.ID]; len(kids) > 0 {
		delete(st.Parked, n.ID)
		for _, kid := range kids {
			child := st.Content[kid]
			delete(st.Content, kid)
			attach(st, n.ID, child)
		}
	}
}

// parkedUnder reports whether id sits in some parked-children list (as
// opposed to being a bare pre-tombstone).
func parkedUnder(st *RGAState, id int64) bool {
	for _, kids := range st.Parked {
		for _, k := range kids {
			if k == id {
				return true
			}
		}
	}
	return false
}
