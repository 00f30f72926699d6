package rdmawrdt

import (
	"fmt"
	"reflect"

	"hamband/internal/spec"
	"hamband/internal/wrdt"
)

// RefinementChecker executes the concrete RDMA semantics and the abstract
// WRDT semantics in lock step, realizing Lemma 3 ("every trace of the
// concrete semantics is a trace of the abstract semantics") as a runtime
// assertion. The refinement mapping is the one from the paper's proof:
//
//   - REDUCE at p maps to abstract CALL at p followed immediately by PROP
//     to every other process (the rule installs the summary everywhere in
//     one transition);
//   - FREE and CONF map to abstract CALL at the issuing process;
//   - FREE-APP and CONF-APP map to abstract PROP of the applied call;
//   - QUERY maps to abstract QUERY, with equal return values.
//
// After every step the checker additionally asserts that each process's
// concrete current state Apply(S_p)(σ_p) equals its abstract state — a
// strictly stronger, executable form of the refinement relation.
type RefinementChecker struct {
	K *Config
	W *wrdt.World
}

// NewChecker returns a lock-step checker over fresh initial states.
func NewChecker(an *spec.Analysis, nprocs int) *RefinementChecker {
	return &RefinementChecker{K: New(an, nprocs), W: wrdt.NewWorld(an.Class, nprocs)}
}

// Issue fires the concrete rule for c's category and the corresponding
// abstract transitions. A concrete rejection is not an error (the
// transition simply did not fire); an abstract rejection after a concrete
// success is a refinement violation.
func (rc *RefinementChecker) Issue(c spec.Call) (fired bool, err error) {
	if err := rc.K.Issue(c); err != nil {
		return false, nil
	}
	if err := rc.W.Call(c.Proc, c); err != nil {
		return true, fmt.Errorf("refinement: concrete issued %s but abstract CALL rejected: %w",
			c.Format(rc.K.Class), err)
	}
	if rc.K.An.Category[c.Method] == spec.CatReducible {
		for p := 0; p < rc.K.NumProcs(); p++ {
			if spec.ProcID(p) == c.Proc {
				continue
			}
			if err := rc.W.Prop(spec.ProcID(p), c); err != nil {
				return true, fmt.Errorf("refinement: REDUCE %s: abstract PROP to p%d rejected: %w",
					c.Format(rc.K.Class), p, err)
			}
		}
	}
	return true, rc.compareStates()
}

// App fires concrete FREE-APP or CONF-APP on the head of p's buffer b and
// the abstract PROP of the applied call.
func (rc *RefinementChecker) App(p spec.ProcID, b Buf) (fired bool, err error) {
	c, err := rc.K.App(p, b)
	if err != nil {
		return false, nil
	}
	if err := rc.W.Prop(p, c); err != nil {
		return true, fmt.Errorf("refinement: %s %s at p%d: abstract PROP rejected: %w",
			b.rule(), c.Format(rc.K.Class), p, err)
	}
	return true, rc.compareStates()
}

// Query fires concrete and abstract QUERY and compares the return values.
func (rc *RefinementChecker) Query(p spec.ProcID, q spec.MethodID, args spec.Args) (any, error) {
	cv := rc.K.Query(p, q, args)
	av := rc.W.Query(p, q, args)
	if !reflect.DeepEqual(cv, av) {
		return cv, fmt.Errorf("refinement: QUERY %s at p%d returned %v concretely, %v abstractly",
			rc.K.Class.Methods[q].Name, p, cv, av)
	}
	return cv, nil
}

// compareStates asserts the refinement relation: each process's concrete
// current state equals its abstract state.
func (rc *RefinementChecker) compareStates() error {
	for p := 0; p < rc.K.NumProcs(); p++ {
		if !rc.K.CurrentState(spec.ProcID(p)).Equal(rc.W.States[p]) {
			return fmt.Errorf("refinement: state mismatch at p%d", p)
		}
	}
	return nil
}
