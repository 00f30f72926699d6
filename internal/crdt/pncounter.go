package crdt

import "hamband/internal/spec"

// PNCounterState is the state of the PN-counter: separate totals of
// increments and decrements (Shapiro et al.'s P and N components).
type PNCounterState struct {
	P int64
	N int64
}

// Clone implements spec.State.
func (s *PNCounterState) Clone() spec.State { c := *s; return &c }

// CopyFrom implements spec.State.
func (s *PNCounterState) CopyFrom(src spec.State) { *s = *src.(*PNCounterState) }

// Equal implements spec.State.
func (s *PNCounterState) Equal(o spec.State) bool {
	t, ok := o.(*PNCounterState)
	return ok && *s == *t
}

// PNCounter method IDs.
const (
	PNInc spec.MethodID = iota
	PNDec
	PNAdjust
	PNValue
)

// NewPNCounter returns the increment/decrement counter CRDT. All three
// update methods — increment, decrement, and their combined form adjust —
// belong to one *multi-method summarization group*: any two calls on the
// group summarize into a single adjust(p, n) call. This exercises the
// runtime's per-method applied counts within one summary slot, which the
// single-method groups (counter, gset) never do.
func NewPNCounter() *spec.Class {
	// pn extracts a call's (p, n) contribution.
	pn := func(c spec.Call) (int64, int64) {
		switch c.Method {
		case PNInc:
			return c.Args.I[0], 0
		case PNDec:
			return 0, c.Args.I[0]
		default:
			return c.Args.I[0], c.Args.I[1]
		}
	}
	cls := &spec.Class{
		Name: "pncounter",
		Methods: []spec.Method{
			PNInc: {
				Name: "increment",
				Kind: spec.Update,
				Apply: func(s spec.State, a spec.Args) {
					s.(*PNCounterState).P += a.I[0]
				},
			},
			PNDec: {
				Name: "decrement",
				Kind: spec.Update,
				Apply: func(s spec.State, a spec.Args) {
					s.(*PNCounterState).N += a.I[0]
				},
			},
			PNAdjust: {
				Name: "adjust",
				Kind: spec.Update,
				Apply: func(s spec.State, a spec.Args) {
					st := s.(*PNCounterState)
					st.P += a.I[0]
					st.N += a.I[1]
				},
			},
			PNValue: {
				Name: "value",
				Kind: spec.Query,
				Eval: func(s spec.State, _ spec.Args) any {
					st := s.(*PNCounterState)
					return st.P - st.N
				},
			},
		},
		NewState:  func() spec.State { return &PNCounterState{} },
		Invariant: invariantTrue,
		Rel:       crdtRelations(),
		SumGroups: []spec.SumGroup{{
			Name:    "adjust",
			Methods: []spec.MethodID{PNInc, PNDec, PNAdjust},
			Identity: func() spec.Call {
				return spec.Call{Method: PNAdjust, Args: spec.ArgsI(0, 0)}
			},
			Summarize: func(a, b spec.Call) spec.Call {
				pa, na := pn(a)
				pb, nb := pn(b)
				return spec.Call{Method: PNAdjust, Args: spec.Args{I: append(a.Args.I[:0], pa+pb, na+nb)}}
			},
		}},
	}
	cls.Gen = spec.Generators{
		State: func(r spec.Rand) spec.State {
			return &PNCounterState{P: int64(r.Intn(500)), N: int64(r.Intn(500))}
		},
		Call: func(r spec.Rand, u spec.MethodID) spec.Call {
			switch u {
			case PNInc, PNDec:
				return spec.Call{Method: u, Args: spec.ArgsI(int64(r.Intn(20)))}
			case PNAdjust:
				return spec.Call{Method: PNAdjust,
					Args: spec.ArgsI(int64(r.Intn(20)), int64(r.Intn(20)))}
			default:
				return spec.Call{Method: PNValue}
			}
		},
	}
	return markTrivial(cls)
}
