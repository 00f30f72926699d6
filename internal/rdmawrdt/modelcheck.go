package rdmawrdt

import (
	"fmt"

	"hamband/internal/crdt"
	"hamband/internal/schema"
	"hamband/internal/spec"
)

// Clone deep-copies a configuration, enabling exhaustive state-space
// exploration (the model checker forks the configuration at every choice
// point).
func (k *Config) Clone() *Config {
	c := &Config{
		Class:   k.Class,
		An:      k.An,
		Leaders: append([]spec.ProcID(nil), k.Leaders...),
	}
	for _, p := range k.Procs {
		q := &Proc{
			Sigma: p.Sigma.Clone(),
			A:     p.A.Clone(),
		}
		for _, row := range p.S {
			q.S = append(q.S, append([]Slot(nil), row...))
		}
		q.F = make([][]Entry, len(p.F))
		for i, buf := range p.F {
			q.F[i] = append([]Entry(nil), buf...)
		}
		q.L = make([][]Entry, len(p.L))
		for i, buf := range p.L {
			q.L[i] = append([]Entry(nil), buf...)
		}
		c.Procs = append(c.Procs, q)
	}
	return c
}

// CheckExhaustive explores EVERY interleaving of the given candidate calls
// with every possible buffer-application schedule, up to the implicit bound
// of issuing each candidate once. At every reached state it runs the
// lock-step refinement check against the abstract semantics, and at every
// fully drained terminal state it checks convergence.
//
// Unlike the randomized explorers, this is complete for its scope: any
// coordination bug reachable within the candidate set is found. Scope
// grows exponentially — keep candidates ≤ ~6 for 2–3 processes.
//
// Candidate calls must carry distinct (Proc, Seq) request ids; conflicting
// candidates must be stamped with their group leader as Proc.
func CheckExhaustive(an *spec.Analysis, nprocs int, candidates []spec.Call) (states int, err error) {
	rc := NewChecker(an, nprocs)
	issued := make([]bool, len(candidates))
	return checkDFS(rc, candidates, issued)
}

func checkDFS(rc *RefinementChecker, candidates []spec.Call, issued []bool) (int, error) {
	states := 1
	progressed := false
	descend := func(fork *RefinementChecker) error {
		progressed = true
		n, err := checkDFS(fork, candidates, issued)
		states += n
		return err
	}

	// Choice: issue any not-yet-issued candidate.
	for i, c := range candidates {
		if issued[i] {
			continue
		}
		fork := forkChecker(rc)
		fired, err := fork.Issue(c)
		if err != nil {
			return states, fmt.Errorf("issue %s: %w", c.Format(rc.K.Class), err)
		}
		if !fired {
			continue // impermissible here; maybe permissible in another order
		}
		issued[i] = true
		err = descend(fork)
		issued[i] = false
		if err != nil {
			return states, err
		}
	}

	// Choice: apply any non-empty buffer head whose premises hold.
	for p := 0; p < rc.K.NumProcs(); p++ {
		for _, b := range rc.K.Bufs(spec.ProcID(p)) {
			fork := forkChecker(rc)
			fired, err := fork.App(spec.ProcID(p), b)
			if err == nil && fired {
				err = descend(fork)
			}
			if err != nil {
				return states, err
			}
		}
	}

	if !progressed {
		// Terminal state. If everything was issued but buffers still hold
		// calls, the dependency gating wedged — a coordination bug.
		allIssued := true
		for _, done := range issued {
			allIssued = allIssued && done
		}
		if allIssued && !rc.K.Drained() {
			return states, fmt.Errorf("rdmawrdt: terminal state with undrained buffers (dependency deadlock)")
		}
		if rc.K.Drained() {
			if err := rc.K.CheckConvergence(); err != nil {
				return states, err
			}
		}
		if err := rc.K.CheckIntegrity(); err != nil {
			return states, err
		}
	}
	return states, nil
}

// A Scenario is one small scope for CheckExhaustive: the candidate calls and
// the number of processes they run on.
type Scenario struct {
	Procs int
	Calls []spec.Call
}

// Scenarios are the exhaustive scopes of the bundled classes whose
// small-scope coordination is worth every interleaving, by class name.
// wrdtcheck runs them, and TestScenarios pins each one's state count.
var Scenarios = map[string]Scenario{
	// Two deposits at different nodes and two withdrawals at the leader.
	"account": {3, []spec.Call{
		{Method: crdt.AccountDeposit, Args: spec.ArgsI(10), Proc: 1, Seq: 1},
		{Method: crdt.AccountDeposit, Args: spec.ArgsI(5), Proc: 2, Seq: 1},
		{Method: crdt.AccountWithdraw, Args: spec.ArgsI(8), Proc: 0, Seq: 1},
		{Method: crdt.AccountWithdraw, Args: spec.ArgsI(7), Proc: 0, Seq: 2},
	}},
	// open (reducible) → deposit (irreducible conflict-free, depends on
	// open): every schedule must gate the deposit behind the open.
	"bankmap": {2, []spec.Call{
		{Method: crdt.BankOpen, Args: spec.ArgsI(7), Proc: 0, Seq: 1},
		{Method: crdt.BankDeposit, Args: spec.ArgsI(7, 5), Proc: 0, Seq: 2},
		{Method: crdt.BankOpen, Args: spec.ArgsI(8), Proc: 1, Seq: 1},
		{Method: crdt.BankDeposit, Args: spec.ArgsI(8, 3), Proc: 1, Seq: 2},
	}},
	// Two synchronization groups.
	"movie": {2, []spec.Call{
		{Method: schema.MovieAddCustomer, Args: spec.ArgsI(1), Proc: 0, Seq: 1},
		{Method: schema.MovieDelCustomer, Args: spec.ArgsI(1), Proc: 0, Seq: 2},
		{Method: schema.MovieAddMovie, Args: spec.ArgsI(1), Proc: 1, Seq: 1},
	}},
	// An insert depends on the insert of its anchor.
	"rga": {2, []spec.Call{
		{Method: crdt.RGAInsert, Args: spec.ArgsI(0, crdt.Tag(0, 1), 'h'), Proc: 0, Seq: 1},
		{Method: crdt.RGAInsert, Args: spec.ArgsI(crdt.Tag(0, 1), crdt.Tag(0, 2), 'i'), Proc: 0, Seq: 2},
		{Method: crdt.RGAInsert, Args: spec.ArgsI(0, crdt.Tag(1, 1), 'y'), Proc: 1, Seq: 1},
	}},
	"courseware":  refScenario,
	"projectmgmt": refScenario,
}

// refScenario adds a left and a right row, links them, and deletes the left
// row: courseware and projectmgmt share these referential methods.
var refScenario = Scenario{2, []spec.Call{
	{Method: schema.RefAddLeft, Args: spec.ArgsI(1), Proc: 0, Seq: 1},
	{Method: schema.RefAddRight, Args: spec.ArgsI(9), Proc: 1, Seq: 1},
	{Method: schema.RefLink, Args: spec.ArgsI(1, 9), Proc: 0, Seq: 2},
	{Method: schema.RefDelLeft, Args: spec.ArgsI(1), Proc: 0, Seq: 3},
}}

// forkChecker clones both sides of the lock-step pair.
func forkChecker(rc *RefinementChecker) *RefinementChecker {
	return &RefinementChecker{K: rc.K.Clone(), W: rc.W.Clone()}
}
