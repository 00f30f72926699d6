// Command wrdtcheck runs the repository's formal checks from the command
// line: the randomized validation of every data type's declared
// coordination relations against their semantic definitions (the
// substitute for the paper's solver-aided Hamsaz analysis), the integrity
// and convergence lemmas over random executions of the abstract WRDT
// semantics, and the refinement of the concrete RDMA WRDT semantics into
// the abstract one (Lemma 3), executed in lock step.
//
// Usage:
//
//	wrdtcheck [-class name] [-iters N] [-trials N] [-procs N] [-seed N]
//
// Exit status is non-zero if any check finds a counterexample.
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"hamband/internal/crdt"
	"hamband/internal/rdmawrdt"
	"hamband/internal/schema"
	"hamband/internal/spec"
	"hamband/internal/wrdt"
)

func main() {
	clsName := flag.String("class", "", "check a single class (default: all)")
	iters := flag.Int("iters", 2000, "relation-checker iterations")
	trials := flag.Int("trials", 40, "random executions per semantics check")
	steps := flag.Int("steps", 250, "transitions per random execution")
	procs := flag.Int("procs", 3, "processes in the semantics checks")
	seed := flag.Int64("seed", 1, "random seed")
	flag.Parse()

	failed := false
	for _, cls := range schema.Bundled() {
		if *clsName != "" && cls.Name != *clsName {
			continue
		}
		fmt.Printf("== %s\n", cls.Name)
		an, err := spec.Analyze(cls)
		if err != nil {
			fmt.Printf("   analysis: FAIL: %v\n", err)
			failed = true
			continue
		}
		fmt.Print(indent(an.Summary()))

		// 1. Declared relations vs. semantic definitions.
		if err := spec.CheckRelations(cls, rand.New(rand.NewSource(*seed)), *iters); err != nil {
			fmt.Printf("   relations: FAIL: %v\n", err)
			failed = true
		} else {
			fmt.Printf("   relations: ok (%d iterations)\n", *iters)
		}

		// 2. Lemmas 1–2 on the abstract semantics.
		if err := checkAbstract(cls, *trials, *steps, *procs, *seed); err != nil {
			fmt.Printf("   abstract semantics: FAIL: %v\n", err)
			failed = true
		} else {
			fmt.Printf("   abstract semantics: ok (%d executions: integrity, convergence)\n", *trials)
		}

		// 3. Lemma 3: refinement of the concrete semantics.
		if err := checkRefinement(an, *trials, *steps, *procs, *seed); err != nil {
			fmt.Printf("   refinement: FAIL: %v\n", err)
			failed = true
		} else {
			fmt.Printf("   refinement: ok (%d lock-step executions)\n", *trials)
		}

		// 4. Exhaustive small-scope model checking, where a canned
		// scenario exists for the class.
		if cands, n := exhaustiveScenario(cls.Name); cands != nil {
			states, err := rdmawrdt.CheckExhaustive(an, n, cands)
			if err != nil {
				fmt.Printf("   exhaustive: FAIL: %v\n", err)
				failed = true
			} else {
				fmt.Printf("   exhaustive: ok (%d states, every interleaving)\n", states)
			}
		}
	}
	if failed {
		os.Exit(1)
	}
}

// exhaustiveScenario returns a canned candidate-call set (and process
// count) for classes with interesting small-scope coordination structure.
func exhaustiveScenario(name string) ([]spec.Call, int) {
	switch name {
	case "account":
		return []spec.Call{
			{Method: crdt.AccountDeposit, Args: spec.ArgsI(10), Proc: 1, Seq: 1},
			{Method: crdt.AccountDeposit, Args: spec.ArgsI(5), Proc: 2, Seq: 1},
			{Method: crdt.AccountWithdraw, Args: spec.ArgsI(8), Proc: 0, Seq: 1},
			{Method: crdt.AccountWithdraw, Args: spec.ArgsI(7), Proc: 0, Seq: 2},
		}, 3
	case "bankmap":
		return []spec.Call{
			{Method: crdt.BankOpen, Args: spec.ArgsI(7), Proc: 0, Seq: 1},
			{Method: crdt.BankDeposit, Args: spec.ArgsI(7, 5), Proc: 0, Seq: 2},
			{Method: crdt.BankOpen, Args: spec.ArgsI(8), Proc: 1, Seq: 1},
			{Method: crdt.BankDeposit, Args: spec.ArgsI(8, 3), Proc: 1, Seq: 2},
		}, 2
	case "movie":
		return []spec.Call{
			{Method: schema.MovieAddCustomer, Args: spec.ArgsI(1), Proc: 0, Seq: 1},
			{Method: schema.MovieDelCustomer, Args: spec.ArgsI(1), Proc: 0, Seq: 2},
			{Method: schema.MovieAddMovie, Args: spec.ArgsI(1), Proc: 1, Seq: 1},
		}, 2
	case "rga":
		a, b := crdt.Tag(0, 1), crdt.Tag(0, 2)
		return []spec.Call{
			{Method: crdt.RGAInsert, Args: spec.ArgsI(0, a, 'h'), Proc: 0, Seq: 1},
			{Method: crdt.RGAInsert, Args: spec.ArgsI(a, b, 'i'), Proc: 0, Seq: 2},
			{Method: crdt.RGAInsert, Args: spec.ArgsI(0, crdt.Tag(1, 1), 'y'), Proc: 1, Seq: 1},
		}, 2
	case "courseware", "projectmgmt":
		return []spec.Call{
			{Method: schema.RefAddLeft, Args: spec.ArgsI(1), Proc: 0, Seq: 1},
			{Method: schema.RefAddRight, Args: spec.ArgsI(9), Proc: 1, Seq: 1},
			{Method: schema.RefLink, Args: spec.ArgsI(1, 9), Proc: 0, Seq: 2},
			{Method: schema.RefDelLeft, Args: spec.ArgsI(1), Proc: 0, Seq: 3},
		}, 2
	default:
		return nil, 0
	}
}

func checkAbstract(cls *spec.Class, trials, steps, procs int, seed int64) error {
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(seed + int64(trial)))
		e := wrdt.NewExplorer(cls, procs, rng)
		for s := 0; s < steps; s++ {
			e.Step(0.5)
			if err := e.W.CheckIntegrity(); err != nil {
				return fmt.Errorf("trial %d: %w", trial, err)
			}
			if err := e.W.CheckConvergence(); err != nil {
				return fmt.Errorf("trial %d: %w", trial, err)
			}
		}
		if err := e.Drain(); err != nil {
			return fmt.Errorf("trial %d: %w", trial, err)
		}
		if err := e.W.CheckConvergence(); err != nil {
			return fmt.Errorf("trial %d after drain: %w", trial, err)
		}
	}
	return nil
}

func checkRefinement(an *spec.Analysis, trials, steps, procs int, seed int64) error {
	for trial := 0; trial < trials; trial++ {
		rng := rand.New(rand.NewSource(seed + 1000 + int64(trial)))
		e := rdmawrdt.NewExplorer(an, procs, rng)
		for s := 0; s < steps; s++ {
			if err := e.Step(0.5); err != nil {
				return fmt.Errorf("trial %d: %w", trial, err)
			}
			if s%16 == 0 {
				if err := e.RandomQuery(); err != nil {
					return fmt.Errorf("trial %d: %w", trial, err)
				}
			}
		}
		if err := e.Drain(); err != nil {
			return fmt.Errorf("trial %d: %w", trial, err)
		}
		if err := e.RC.K.CheckConvergence(); err != nil {
			return fmt.Errorf("trial %d: %w", trial, err)
		}
	}
	return nil
}

func indent(s string) string {
	out := ""
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			line := s[start:i]
			if line != "" {
				out += "   " + line + "\n"
			}
			start = i + 1
		}
	}
	return out
}
