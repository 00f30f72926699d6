// Package schema defines the three relational use-cases of the paper's
// evaluation (§5, adopted from Hamsaz and Özsu & Valduriez):
//
//   - Project management — addProject, deleteProject and worksOn form one
//     synchronization group; worksOn depends on addProject and addEmployee
//     (foreign keys); addEmployee is reducible. All three method
//     categories in one class.
//   - Courseware — addCourse, deleteCourse and enroll form one
//     synchronization group; enroll depends on addCourse and
//     registerStudent; registerStudent is reducible.
//   - Movie — addCustomer/deleteCustomer and addMovie/deleteMovie operate
//     on two separate relations, forming two synchronization groups with
//     no dependencies (the Figure 10 use-case).
//
// Project management and courseware instantiate one referential-integrity
// template: a guarded relation R(x, y) whose rows may only reference
// existing entities, with a cascading delete on one side and a reducible
// set-register on the other.
package schema

import (
	"hamband/internal/crdt"
	"hamband/internal/spec"
)

// Bundled returns a fresh instance of each of the 18 bundled data types — the
// CRDTs of package crdt and the schemas of this package — in the order
// `hambench -exp overview` and `wrdtcheck` print them.
func Bundled() []*spec.Class {
	return []*spec.Class{
		crdt.NewCounter(), crdt.NewPNCounter(), crdt.NewLWW(), crdt.NewLWWMap(),
		crdt.NewGSet(), crdt.NewGSetBuffered(), crdt.NewTwoPSet(),
		crdt.NewORSet(), crdt.NewCart(), crdt.NewRGA(), crdt.NewMVRegister(4),
		crdt.NewAccount(), crdt.NewBankMap(),
		NewProjectManagement(), NewCourseware(), NewMovie(), NewAuction(), NewTournament(),
	}
}

// pair packs a relation row (left, right) into one int64.
func pair(l, r int64) int64 { return l<<20 | (r & 0xFFFFF) }

// i64Set is the set of int64 every relation is made of.
type i64Set = spec.I64Set

// RefState is the state of a referential schema: two entity relations and
// a link relation whose rows must reference existing entities on both
// sides. For project management: Left = projects, Right = employees,
// Links = worksOn. For courseware: Left = courses, Right = students,
// Links = enrollments.
//
// The rows of one left key (row>>20) form a chain, so the cascade of a
// deleted left entity visits its own rows only: head holds each key's first
// row and Links maps every row to the next one of its key, the last to
// itself. The chain costs no storage beyond what the set of rows takes, and
// it is not part of the abstract state: Equal compares the rows alone.
type RefState struct {
	Left  i64Set          // guarded entities (projects / courses)
	Right i64Set          // registered entities (employees / students)
	Links map[int64]int64 // pair(left, right) rows → the next row of the same left key

	head map[int64]int64 // left key → its first row, for keys that have rows
}

func newRefState() *RefState {
	return &RefState{Left: make(i64Set), Right: make(i64Set), Links: make(map[int64]int64), head: make(map[int64]int64)}
}

// Clone implements spec.State.
func (s *RefState) Clone() spec.State { c := &RefState{}; c.CopyFrom(s); return c }

// CopyFrom implements spec.State.
func (s *RefState) CopyFrom(src spec.State) {
	t := src.(*RefState)
	s.Left = spec.CopyMap(s.Left, t.Left)
	s.Right = spec.CopyMap(s.Right, t.Right)
	s.Links = spec.CopyMap(s.Links, t.Links)
	s.head = spec.CopyMap(s.head, t.head)
}

// Equal implements spec.State.
func (s *RefState) Equal(o spec.State) bool {
	t, ok := o.(*RefState)
	if !ok || !s.Left.Equal(t.Left) || !s.Right.Equal(t.Right) || len(s.Links) != len(t.Links) {
		return false
	}
	for row := range s.Links {
		if !t.linked(row) {
			return false
		}
	}
	return true
}

// linked reports whether row is in the link relation.
func (s *RefState) linked(row int64) bool { _, ok := s.Links[row]; return ok }

// link adds row to the link relation, at the front of its left key's chain.
func (s *RefState) link(row int64) {
	if s.linked(row) {
		return
	}
	next, ok := s.head[row>>20]
	if !ok {
		next = row
	}
	s.Links[row], s.head[row>>20] = next, row
}

// unlinkLeft removes every row whose left key is l by walking l's chain.
func (s *RefState) unlinkLeft(l int64) {
	row, ok := s.head[l]
	if !ok {
		return
	}
	delete(s.head, l)
	for {
		next := s.Links[row]
		delete(s.Links, row)
		if next == row {
			return
		}
		row = next
	}
}

// Referential schema method IDs (shared by project management and
// courseware).
const (
	RefAddLeft   spec.MethodID = iota // addProject / addCourse
	RefDelLeft                        // deleteProject / deleteCourse
	RefLink                           // worksOn / enroll
	RefAddRight                       // addEmployee / registerStudent (reducible)
	RefHasLeft                        // query: hasProject / hasCourse
	RefLinkCount                      // query: number of link rows
)

// refNames carries the per-schema method names.
type refNames struct {
	class, addLeft, delLeft, link, addRight, hasLeft, linkCount string
}

// NewProjectManagement returns the project-management class: five methods
// across all three categories (Figure 11's use-case).
func NewProjectManagement() *spec.Class {
	return newReferential(refNames{
		class: "projectmgmt", addLeft: "addProject", delLeft: "deleteProject",
		link: "worksOn", addRight: "addEmployee",
		hasLeft: "hasProject", linkCount: "assignments",
	})
}

// NewCourseware returns the courseware class (Figure 13's use-case).
func NewCourseware() *spec.Class {
	return newReferential(refNames{
		class: "courseware", addLeft: "addCourse", delLeft: "deleteCourse",
		link: "enroll", addRight: "registerStudent",
		hasLeft: "hasCourse", linkCount: "enrollments",
	})
}

func newReferential(names refNames) *spec.Class {
	isLink := func(c spec.Call) bool { return c.Method == RefLink }
	cls := &spec.Class{
		Name: names.class,
		Methods: []spec.Method{
			RefAddLeft: {
				Name: names.addLeft,
				Kind: spec.Update,
				Apply: func(s spec.State, a spec.Args) {
					s.(*RefState).Left[a.I[0]] = true
				},
			},
			RefDelLeft: {
				Name: names.delLeft,
				Kind: spec.Update,
				Apply: func(s spec.State, a spec.Args) {
					st := s.(*RefState)
					delete(st.Left, a.I[0])
					// Cascade: remove link rows referencing the entity,
					// preserving the foreign-key invariant.
					st.unlinkLeft(a.I[0])
				},
			},
			RefLink: {
				Name: names.link,
				Kind: spec.Update,
				Apply: func(s spec.State, a spec.Args) {
					s.(*RefState).link(pair(a.I[0], a.I[1]))
				},
				// On a state satisfying I only the new row can break it.
				Guard: func(s spec.State, a spec.Args) bool {
					st, row := s.(*RefState), pair(a.I[0], a.I[1])
					return st.Left[row>>20] && st.Right[row&0xFFFFF]
				},
			},
			RefAddRight: {
				Name: names.addRight,
				Kind: spec.Update,
				Apply: func(s spec.State, a spec.Args) {
					st := s.(*RefState)
					for _, e := range a.I {
						st.Right[e] = true
					}
				},
			},
			RefHasLeft: {
				Name: names.hasLeft,
				Kind: spec.Query,
				Eval: func(s spec.State, a spec.Args) any {
					return s.(*RefState).Left[a.I[0]]
				},
			},
			RefLinkCount: {
				Name: names.linkCount,
				Kind: spec.Query,
				Eval: func(s spec.State, _ spec.Args) any {
					return int64(len(s.(*RefState).Links))
				},
			},
		},
		NewState: func() spec.State { return newRefState() },
		// I: every link row references an existing left and right entity.
		Invariant: func(s spec.State) bool {
			st := s.(*RefState)
			for row := range st.Links {
				if !st.Left[row>>20] || !st.Right[row&0xFFFFF] {
					return false
				}
			}
			return true
		},
		Rel: spec.Relations{
			// Effects commute except add/delete of the same left entity,
			// and delete vs a link row referencing the deleted entity
			// (the cascade erases it in one order but not the other).
			SCommute: func(c1, c2 spec.Call) bool {
				clash := func(a, b spec.Call) bool {
					if a.Method != RefDelLeft {
						return false
					}
					return (b.Method == RefAddLeft || b.Method == RefLink) &&
						a.Args.I[0] == b.Args.I[0]
				}
				return !clash(c1, c2) && !clash(c2, c1)
			},
			// Only the guarded link method can violate the invariant.
			InvariantSufficient: func(c spec.Call) bool { return c.Method != RefLink },
			// A link loses permissibility only when the entity it
			// references is deleted after the check.
			PRCommute: func(c1, c2 spec.Call) bool {
				return !(isLink(c1) && c2.Method == RefDelLeft && c2.Args.I[0] == c1.Args.I[0])
			},
			// A link may owe its permissibility to a preceding creation of
			// the entities it references.
			PLCommute: func(c2, c1 spec.Call) bool {
				if !isLink(c2) {
					return true
				}
				switch c1.Method {
				case RefAddLeft:
					return c1.Args.I[0] != c2.Args.I[0]
				case RefAddRight:
					for _, e := range c1.Args.I {
						if e == c2.Args.I[1] {
							return false
						}
					}
				}
				return true
			},
		},
		ConflictsWith: map[spec.MethodID][]spec.MethodID{
			RefAddLeft: {RefDelLeft},
			RefDelLeft: {RefLink},
		},
		DependsOn: map[spec.MethodID][]spec.MethodID{
			RefLink: {RefAddLeft, RefAddRight},
		},
		SumGroups: []spec.SumGroup{spec.UnionGroup(names.addRight, RefAddRight)},
	}
	cls.Gen = spec.Generators{
		State: func(r spec.Rand) spec.State {
			st := newRefState()
			for i, n := 0, 1+r.Intn(5); i < n; i++ {
				st.Left[int64(r.Intn(10))] = true
			}
			for i, n := 0, 1+r.Intn(5); i < n; i++ {
				st.Right[int64(r.Intn(10))] = true
			}
			lefts := st.Left.Sorted()
			rights := st.Right.Sorted()
			for i, n := 0, r.Intn(4); i < n; i++ {
				l := lefts[r.Intn(len(lefts))]
				e := rights[r.Intn(len(rights))]
				st.link(pair(l, e))
			}
			return st
		},
		Call: func(r spec.Rand, u spec.MethodID) spec.Call {
			switch u {
			case RefAddLeft, RefDelLeft, RefHasLeft:
				return spec.Call{Method: u, Args: spec.ArgsI(int64(r.Intn(10)))}
			case RefLink:
				return spec.Call{Method: u, Args: spec.ArgsI(int64(r.Intn(10)), int64(r.Intn(10)))}
			case RefAddRight:
				n := 1 + r.Intn(3)
				es := make([]int64, n)
				for i := range es {
					es[i] = int64(r.Intn(10))
				}
				return spec.Call{Method: u, Args: spec.Args{I: es}}
			default:
				return spec.Call{Method: u}
			}
		},
	}
	return cls
}

// MovieState is the movie schema's state: two independent relations.
type MovieState struct {
	Customers i64Set
	Movies    i64Set
}

// Clone implements spec.State.
func (s *MovieState) Clone() spec.State { c := &MovieState{}; c.CopyFrom(s); return c }

// CopyFrom implements spec.State.
func (s *MovieState) CopyFrom(src spec.State) {
	t := src.(*MovieState)
	s.Customers = spec.CopyMap(s.Customers, t.Customers)
	s.Movies = spec.CopyMap(s.Movies, t.Movies)
}

// Equal implements spec.State.
func (s *MovieState) Equal(o spec.State) bool {
	t, ok := o.(*MovieState)
	return ok && s.Customers.Equal(t.Customers) && s.Movies.Equal(t.Movies)
}

// Movie schema method IDs.
const (
	MovieAddCustomer spec.MethodID = iota
	MovieDelCustomer
	MovieAddMovie
	MovieDelMovie
	MovieHasCustomer
	MovieHasMovie
)

// NewMovie returns the movie class: four update methods on two separate
// relations, forming two synchronization groups with no dependencies. Two
// groups mean two independent leaders — the effect Figure 10 measures.
func NewMovie() *spec.Class {
	set := func(sel func(*MovieState) i64Set, del bool) func(spec.State, spec.Args) {
		return func(s spec.State, a spec.Args) {
			rel := sel(s.(*MovieState))
			if del {
				delete(rel, a.I[0])
			} else {
				rel[a.I[0]] = true
			}
		}
	}
	customers := func(s *MovieState) i64Set { return s.Customers }
	movies := func(s *MovieState) i64Set { return s.Movies }
	sameRelation := func(u, v spec.MethodID) bool {
		return (u <= MovieDelCustomer) == (v <= MovieDelCustomer)
	}
	cls := &spec.Class{
		Name: "movie",
		Methods: []spec.Method{
			MovieAddCustomer: {Name: "addCustomer", Kind: spec.Update, Apply: set(customers, false)},
			MovieDelCustomer: {Name: "deleteCustomer", Kind: spec.Update, Apply: set(customers, true)},
			MovieAddMovie:    {Name: "addMovie", Kind: spec.Update, Apply: set(movies, false)},
			MovieDelMovie:    {Name: "deleteMovie", Kind: spec.Update, Apply: set(movies, true)},
			MovieHasCustomer: {
				Name: "hasCustomer",
				Kind: spec.Query,
				Eval: func(s spec.State, a spec.Args) any { return s.(*MovieState).Customers[a.I[0]] },
			},
			MovieHasMovie: {
				Name: "hasMovie",
				Kind: spec.Query,
				Eval: func(s spec.State, a spec.Args) any { return s.(*MovieState).Movies[a.I[0]] },
			},
		},
		NewState: func() spec.State {
			return &MovieState{Customers: make(i64Set), Movies: make(i64Set)}
		},
		Invariant:        func(spec.State) bool { return true },
		TrivialInvariant: true,
		Rel: spec.Relations{
			// An add and a delete of the same element in the same relation
			// do not commute; everything else does.
			SCommute: func(c1, c2 spec.Call) bool {
				if !sameRelation(c1.Method, c2.Method) || c1.Args.I[0] != c2.Args.I[0] {
					return true
				}
				add1 := c1.Method == MovieAddCustomer || c1.Method == MovieAddMovie
				add2 := c2.Method == MovieAddCustomer || c2.Method == MovieAddMovie
				return add1 == add2
			},
			InvariantSufficient: func(spec.Call) bool { return true },
			PRCommute:           func(_, _ spec.Call) bool { return true },
			PLCommute:           func(_, _ spec.Call) bool { return true },
		},
		ConflictsWith: map[spec.MethodID][]spec.MethodID{
			MovieAddCustomer: {MovieDelCustomer},
			MovieAddMovie:    {MovieDelMovie},
		},
	}
	cls.Gen = spec.Generators{
		State: func(r spec.Rand) spec.State {
			st := &MovieState{Customers: make(i64Set), Movies: make(i64Set)}
			for i, n := 0, r.Intn(6); i < n; i++ {
				st.Customers[int64(r.Intn(15))] = true
			}
			for i, n := 0, r.Intn(6); i < n; i++ {
				st.Movies[int64(r.Intn(15))] = true
			}
			return st
		},
		Call: func(r spec.Rand, u spec.MethodID) spec.Call {
			return spec.Call{Method: u, Args: spec.ArgsI(int64(r.Intn(15)))}
		},
	}
	return cls
}
