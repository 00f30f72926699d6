package schema

import "hamband/internal/spec"

// TournamentState is the state of the tournament use-case (per
// Indigo/Hamsaz): registered players, tournaments with fixed capacities,
// and enrollments.
type TournamentState struct {
	Players     i64Set
	Capacities  map[int64]int64 // tournament → capacity
	Enrollments i64Set          // pair(tournament, player)
}

// Clone implements spec.State.
func (s *TournamentState) Clone() spec.State {
	c := &TournamentState{
		Players:     s.Players.Clone(),
		Capacities:  make(map[int64]int64, len(s.Capacities)),
		Enrollments: s.Enrollments.Clone(),
	}
	for t, cap := range s.Capacities {
		c.Capacities[t] = cap
	}
	return c
}

// Equal implements spec.State.
func (s *TournamentState) Equal(o spec.State) bool {
	t, ok := o.(*TournamentState)
	if !ok || !s.Players.Equal(t.Players) || !s.Enrollments.Equal(t.Enrollments) ||
		len(s.Capacities) != len(t.Capacities) {
		return false
	}
	for k, v := range s.Capacities {
		if t.Capacities[k] != v {
			return false
		}
	}
	return true
}

// enrolledCount counts the players enrolled in tournament t.
func (s *TournamentState) enrolledCount(t int64) int64 {
	n := int64(0)
	for row := range s.Enrollments {
		if row>>20 == t {
			n++
		}
	}
	return n
}

// Tournament method IDs.
const (
	TournAddPlayer spec.MethodID = iota
	TournAdd
	TournDelete
	TournEnroll
	TournEnrolled
	TournHas
)

// NewTournament returns the tournament schema. Its structural novelty
// among the use-cases is a *numeric capacity invariant on a schema
// method*: two concurrent enrollments into the same tournament can jointly
// overflow its capacity, exactly like two withdrawals jointly overdrafting
// the account — a permissible-conflict, not a state conflict.
//
//   - addPlayer(ps…) — reducible (set-typed, summarizable);
//   - addTournament(t, capacity) — creates t with a fixed capacity
//     (re-creating an existing tournament is a no-op); conflicts with
//     deleteTournament and with itself (different capacities);
//   - deleteTournament(t) — cascades enrollments; invariant-sufficient;
//   - enroll(p, t) — permissible iff p is registered, t exists and has a
//     free seat; P-conflicts with enroll on the same tournament and
//     S-conflicts with deleteTournament; depends on addPlayer and
//     addTournament;
//   - enrolled(t), hasTournament(t) — queries.
func NewTournament() *spec.Class {
	isEnroll := func(c spec.Call) bool { return c.Method == TournEnroll }
	tOf := func(c spec.Call) int64 {
		if c.Method == TournEnroll {
			return c.Args.I[1]
		}
		return c.Args.I[0]
	}
	cls := &spec.Class{
		Name: "tournament",
		Methods: []spec.Method{
			TournAddPlayer: {
				Name: "addPlayer",
				Kind: spec.Update,
				Apply: func(s spec.State, a spec.Args) {
					st := s.(*TournamentState)
					for _, p := range a.I {
						st.Players[p] = true
					}
				},
			},
			TournAdd: {
				Name: "addTournament",
				Kind: spec.Update,
				Apply: func(s spec.State, a spec.Args) {
					st := s.(*TournamentState)
					if _, ok := st.Capacities[a.I[0]]; !ok {
						st.Capacities[a.I[0]] = a.I[1]
					}
				},
			},
			TournDelete: {
				Name: "deleteTournament",
				Kind: spec.Update,
				Apply: func(s spec.State, a spec.Args) {
					st := s.(*TournamentState)
					t := a.I[0]
					delete(st.Capacities, t)
					for row := range st.Enrollments {
						if row>>20 == t {
							delete(st.Enrollments, row)
						}
					}
				},
			},
			TournEnroll: {
				Name: "enroll",
				Kind: spec.Update,
				Apply: func(s spec.State, a spec.Args) {
					s.(*TournamentState).Enrollments[pair(a.I[1], a.I[0])] = true
				},
			},
			TournEnrolled: {
				Name: "enrolled",
				Kind: spec.Query,
				Eval: func(s spec.State, a spec.Args) any {
					return s.(*TournamentState).enrolledCount(a.I[0])
				},
			},
			TournHas: {
				Name: "hasTournament",
				Kind: spec.Query,
				Eval: func(s spec.State, a spec.Args) any {
					_, ok := s.(*TournamentState).Capacities[a.I[0]]
					return ok
				},
			},
		},
		NewState: func() spec.State {
			return &TournamentState{
				Players:     make(i64Set),
				Capacities:  make(map[int64]int64),
				Enrollments: make(i64Set),
			}
		},
		// I: enrollments reference registered players and existing
		// tournaments, and never exceed a tournament's capacity.
		Invariant: func(s spec.State) bool {
			st := s.(*TournamentState)
			counts := make(map[int64]int64)
			for row := range st.Enrollments {
				t, p := row>>20, row&0xFFFFF
				if !st.Players[p] {
					return false
				}
				if _, ok := st.Capacities[t]; !ok {
					return false
				}
				counts[t]++
			}
			for t, n := range counts {
				if n > st.Capacities[t] {
					return false
				}
			}
			return true
		},
		Rel: spec.Relations{
			// Non-commuting effect pairs: delete vs add/enroll of the same
			// tournament (cascade), and two adds of the same tournament
			// with different capacities (first wins).
			SCommute: func(c1, c2 spec.Call) bool {
				clash := func(a, b spec.Call) bool {
					if a.Method == TournDelete &&
						(b.Method == TournAdd || b.Method == TournEnroll) {
						return tOf(a) == tOf(b)
					}
					return false
				}
				if c1.Method == TournAdd && c2.Method == TournAdd {
					return c1.Args.I[0] != c2.Args.I[0] || c1.Args.I[1] == c2.Args.I[1]
				}
				return !clash(c1, c2) && !clash(c2, c1)
			},
			// Only enroll can violate the invariant on an I-state.
			InvariantSufficient: func(c spec.Call) bool { return !isEnroll(c) },
			// An enroll loses permissibility after another enroll into the
			// same tournament (capacity), except re-enrolling the same
			// player (idempotent), and after deleting its tournament.
			PRCommute: func(c1, c2 spec.Call) bool {
				if !isEnroll(c1) {
					return true
				}
				if isEnroll(c2) {
					return tOf(c1) != tOf(c2) || c1.Args.I[0] == c2.Args.I[0]
				}
				if c2.Method == TournDelete {
					return tOf(c1) != tOf(c2)
				}
				return true
			},
			// An enroll may owe its permissibility to a preceding
			// registration of its player or creation of its tournament.
			PLCommute: func(c2, c1 spec.Call) bool {
				if !isEnroll(c2) {
					return true
				}
				switch c1.Method {
				case TournAddPlayer:
					for _, p := range c1.Args.I {
						if p == c2.Args.I[0] {
							return false
						}
					}
					return true
				case TournAdd:
					return c1.Args.I[0] != tOf(c2)
				default:
					return true
				}
			},
		},
		ConflictsWith: map[spec.MethodID][]spec.MethodID{
			TournAdd:    {TournDelete, TournAdd},
			TournDelete: {TournEnroll},
			TournEnroll: {TournEnroll},
		},
		DependsOn: map[spec.MethodID][]spec.MethodID{
			TournEnroll: {TournAddPlayer, TournAdd},
		},
		SumGroups: []spec.SumGroup{{
			Name:    "addPlayer",
			Methods: []spec.MethodID{TournAddPlayer},
			Identity: func() spec.Call {
				return spec.Call{Method: TournAddPlayer}
			},
			Summarize: func(a, b spec.Call) spec.Call {
				return spec.Call{Method: TournAddPlayer, Args: spec.Args{I: spec.UnionSorted(a.Args.I, b.Args.I)}}
			},
		}},
	}
	cls.Gen = spec.Generators{
		State: func(r spec.Rand) spec.State {
			st := cls.NewState().(*TournamentState)
			for i, n := 0, 1+r.Intn(5); i < n; i++ {
				st.Players[int64(r.Intn(10))] = true
			}
			for i, n := 0, 1+r.Intn(3); i < n; i++ {
				st.Capacities[int64(r.Intn(5))] = int64(1 + r.Intn(4))
			}
			players := st.Players.Sorted()
			for t, cap := range st.Capacities {
				for i := int64(0); i < cap && i < int64(len(players)); i++ {
					if r.Intn(2) == 0 {
						st.Enrollments[pair(t, players[i])] = true
					}
				}
			}
			return st
		},
		Call: func(r spec.Rand, u spec.MethodID) spec.Call {
			switch u {
			case TournAddPlayer:
				n := 1 + r.Intn(2)
				ps := make([]int64, n)
				for i := range ps {
					ps[i] = int64(r.Intn(10))
				}
				return spec.Call{Method: TournAddPlayer, Args: spec.Args{I: ps}}
			case TournAdd:
				return spec.Call{Method: TournAdd,
					Args: spec.ArgsI(int64(r.Intn(5)), int64(1+r.Intn(4)))}
			case TournDelete, TournEnrolled, TournHas:
				return spec.Call{Method: u, Args: spec.ArgsI(int64(r.Intn(5)))}
			default: // enroll(player, tournament)
				return spec.Call{Method: TournEnroll,
					Args: spec.ArgsI(int64(r.Intn(10)), int64(r.Intn(5)))}
			}
		},
	}
	return cls
}
