package crdt

import "hamband/internal/spec"

// CounterState is the state of the replicated counter: a single integer.
type CounterState struct{ V int64 }

// Clone implements spec.State.
func (s *CounterState) Clone() spec.State { c := *s; return &c }

// CopyFrom implements spec.State.
func (s *CounterState) CopyFrom(src spec.State) { *s = *src.(*CounterState) }

// Equal implements spec.State.
func (s *CounterState) Equal(o spec.State) bool {
	t, ok := o.(*CounterState)
	return ok && s.V == t.V
}

// Counter method IDs.
const (
	CounterAdd spec.MethodID = iota
	CounterValue
)

// NewCounter returns the op-based counter CRDT. Its single update method
// add(δ) is conflict-free, dependence-free and summarizable — the simplest
// reducible data type, carried by a single remote write per update.
func NewCounter() *spec.Class {
	cls := &spec.Class{
		Name: "counter",
		Methods: []spec.Method{
			CounterAdd: {
				Name: "add",
				Kind: spec.Update,
				Apply: func(s spec.State, a spec.Args) {
					s.(*CounterState).V += a.I[0]
				},
			},
			CounterValue: {
				Name: "value",
				Kind: spec.Query,
				Eval: func(s spec.State, _ spec.Args) any {
					return s.(*CounterState).V
				},
			},
		},
		NewState:  func() spec.State { return &CounterState{} },
		Invariant: invariantTrue,
		Rel:       crdtRelations(),
		SumGroups: []spec.SumGroup{spec.AddGroup("add", CounterAdd)},
	}
	cls.Gen = spec.Generators{
		State: func(r spec.Rand) spec.State {
			return &CounterState{V: int64(r.Intn(2001) - 1000)}
		},
		Call: func(r spec.Rand, u spec.MethodID) spec.Call {
			switch u {
			case CounterAdd:
				return spec.Call{Method: CounterAdd, Args: spec.ArgsI(int64(r.Intn(21) - 10))}
			default:
				return spec.Call{Method: CounterValue}
			}
		},
	}
	return markTrivial(cls)
}
