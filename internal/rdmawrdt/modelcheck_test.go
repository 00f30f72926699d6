package rdmawrdt

import (
	"testing"

	"hamband/internal/crdt"
	"hamband/internal/schema"
	"hamband/internal/spec"
)

// TestScenarios runs every canned exhaustive scope — the ones wrdtcheck runs —
// and pins the number of states each one reaches, so a change to a rule's
// premises or effects that grows or prunes the search shows here.
func TestScenarios(t *testing.T) {
	want := map[string]int{
		"rga": 199, "account": 415, "bankmap": 69,
		"projectmgmt": 169, "courseware": 169, "movie": 199,
	}
	if len(Scenarios) != len(want) {
		t.Fatalf("%d scenarios, %d pinned counts", len(Scenarios), len(want))
	}
	for _, cls := range schema.Bundled() {
		sc, ok := Scenarios[cls.Name]
		if !ok {
			continue
		}
		t.Run(cls.Name, func(t *testing.T) {
			states, err := CheckExhaustive(spec.MustAnalyze(cls), sc.Procs, sc.Calls)
			if err != nil {
				t.Fatal(err)
			}
			if states != want[cls.Name] {
				t.Fatalf("explored %d states, want %d", states, want[cls.Name])
			}
		})
	}
}

func TestCloneIsolation(t *testing.T) {
	an := spec.MustAnalyze(crdt.NewAccount())
	k := New(an, 2)
	if err := k.Reduce(spec.Call{Method: crdt.AccountDeposit, Args: spec.ArgsI(5), Proc: 0, Seq: 1}); err != nil {
		t.Fatal(err)
	}
	c := k.Clone()
	if err := c.Reduce(spec.Call{Method: crdt.AccountDeposit, Args: spec.ArgsI(9), Proc: 0, Seq: 2}); err != nil {
		t.Fatal(err)
	}
	if got := k.Query(0, crdt.AccountBalance, spec.Args{}); got.(int64) != 5 {
		t.Fatalf("clone mutation leaked into original: %v", got)
	}
	if got := c.Query(0, crdt.AccountBalance, spec.Args{}); got.(int64) != 14 {
		t.Fatalf("clone state = %v, want 14", got)
	}
}
