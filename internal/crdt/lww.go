package crdt

import (
	"math"

	"hamband/internal/spec"
)

// LWWState is the state of the last-writer-wins register: the current value
// and the (timestamp, value) pair that wrote it. Ties on the timestamp are
// broken by the larger value, making the winner a total function of the two
// writes and the merge commutative.
type LWWState struct {
	V  int64
	TS int64
}

// Clone implements spec.State.
func (s *LWWState) Clone() spec.State { c := *s; return &c }

// CopyFrom implements spec.State.
func (s *LWWState) CopyFrom(src spec.State) { *s = *src.(*LWWState) }

// Equal implements spec.State.
func (s *LWWState) Equal(o spec.State) bool {
	t, ok := o.(*LWWState)
	return ok && *s == *t
}

// LWW method IDs.
const (
	LWWWrite spec.MethodID = iota
	LWWRead
)

// lwwWins reports whether a write (ts, v) beats the register's current
// content.
func lwwWins(s *LWWState, ts, v int64) bool {
	return ts > s.TS || (ts == s.TS && v > s.V)
}

// NewLWW returns the last-writer-wins register CRDT. write(v, ts) applies
// only if its (ts, v) pair beats the current content, so writes commute and
// summarize: the summary of two writes is simply the winner. The register
// is therefore reducible.
func NewLWW() *spec.Class {
	cls := &spec.Class{
		Name: "lww",
		Methods: []spec.Method{
			LWWWrite: {
				Name: "write",
				Kind: spec.Update,
				Apply: func(s spec.State, a spec.Args) {
					st := s.(*LWWState)
					if lwwWins(st, a.I[1], a.I[0]) {
						st.V, st.TS = a.I[0], a.I[1]
					}
				},
			},
			LWWRead: {
				Name: "read",
				Kind: spec.Query,
				Eval: func(s spec.State, _ spec.Args) any {
					return s.(*LWWState).V
				},
			},
		},
		NewState:  func() spec.State { return &LWWState{V: 0, TS: 0} },
		Invariant: invariantTrue,
		Rel:       crdtRelations(),
		SumGroups: []spec.SumGroup{{
			Name:    "write",
			Methods: []spec.MethodID{LWWWrite},
			Identity: func() spec.Call {
				// A write that can never win: minimal value at timestamp 0.
				return spec.Call{Method: LWWWrite, Args: spec.ArgsI(math.MinInt64, 0)}
			},
			Summarize: func(a, b spec.Call) spec.Call {
				// The summary of two writes is the one that wins, written
				// into a's arguments.
				if b.Args.I[1] > a.Args.I[1] ||
					(b.Args.I[1] == a.Args.I[1] && b.Args.I[0] > a.Args.I[0]) {
					a.Args.I = append(a.Args.I[:0], b.Args.I...)
					a.Proc, a.Seq = b.Proc, b.Seq
				}
				return spec.Call{Method: LWWWrite, Args: spec.Args{I: a.Args.I}, Proc: a.Proc, Seq: a.Seq}
			},
		}},
	}
	cls.Gen = spec.Generators{
		State: func(r spec.Rand) spec.State {
			return &LWWState{V: int64(r.Intn(1000)), TS: int64(1 + r.Intn(100))}
		},
		Call: func(r spec.Rand, u spec.MethodID) spec.Call {
			switch u {
			case LWWWrite:
				return spec.Call{Method: LWWWrite,
					Args: spec.ArgsI(int64(r.Intn(1000)), int64(1+r.Intn(100)))}
			default:
				return spec.Call{Method: LWWRead}
			}
		},
	}
	return markTrivial(cls)
}
