package chaos

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"hamband/internal/sim"
)

// partitionHealPlan cuts the cluster 2|2 mid-run and heals before the
// workload ends — the canonical satellite scenario.
func partitionHealPlan(class string, seed int64) Plan {
	cut := func(at sim.Time, kind Kind) []Event {
		var evs []Event
		for _, link := range [][2]int{{0, 2}, {0, 3}, {1, 2}, {1, 3}} {
			evs = append(evs, Event{At: at, Kind: kind, A: link[0], B: link[1]})
		}
		return evs
	}
	p := Plan{Class: class, Nodes: 4, Ops: 120, Seed: seed}
	p.Events = append(p.Events, cut(sim.Time(200*sim.Microsecond), KindPartition)...)
	p.Events = append(p.Events, cut(sim.Time(900*sim.Microsecond), KindHeal)...)
	return p
}

func mustRun(t *testing.T, p Plan, opts Options) *Verdict {
	t.Helper()
	v, err := Run(p, opts)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return v
}

// assertPassed fails the test with the verdict's violations, dumping the
// plan for replay.
func assertPassed(t *testing.T, v *Verdict) {
	t.Helper()
	if v.Passed {
		return
	}
	if path, err := DumpPlan(t.TempDir(), v.Plan); err == nil {
		t.Logf("failing plan dumped to %s", path)
	}
	t.Fatalf("plan failed (class=%s seed=%d):\n%s", v.Plan.Class, v.Plan.Seed, FormatViolations(v))
}

// --- determinism -----------------------------------------------------------

func TestGenerateIsDeterministic(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		a := Generate("orset", 4, 100, seed)
		b := Generate("orset", 4, 100, seed)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: Generate not deterministic", seed)
		}
		if err := a.Validate(); err != nil {
			t.Fatalf("seed %d: generated invalid plan: %v", seed, err)
		}
	}
}

func TestRunIsReproducible(t *testing.T) {
	plan := Generate("bankmap", 4, 100, 7)
	a := mustRun(t, plan, Options{})
	b := mustRun(t, plan, Options{})
	if a.TraceHash != b.TraceHash {
		t.Fatalf("trace hashes differ across identical runs: %016x vs %016x", a.TraceHash, b.TraceHash)
	}
	if a.Passed != b.Passed || a.Issued != b.Issued || a.Acked != b.Acked ||
		a.Makespan != b.Makespan || !reflect.DeepEqual(a.Violations, b.Violations) {
		t.Fatalf("verdicts differ across identical runs:\n%s\n%s", a.Summary(), b.Summary())
	}
	// Different seeds must explore different schedules.
	c := mustRun(t, Generate("bankmap", 4, 100, 8), Options{})
	if c.TraceHash == a.TraceHash {
		t.Fatal("different seeds produced identical trace hashes")
	}
}

// --- plan JSON -------------------------------------------------------------

func TestPlanJSONRoundTrip(t *testing.T) {
	p := Generate("counter", 4, 80, 3)
	p.NoFinalHeal = true
	p.DisableRecovery = true
	var buf bytes.Buffer
	if err := p.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	q, err := ReadPlan(&buf)
	if err != nil {
		t.Fatalf("ReadPlan: %v", err)
	}
	if !reflect.DeepEqual(p, q) {
		t.Fatalf("round trip changed the plan:\n%+v\n%+v", p, q)
	}
}

// TestPlanJSONRejectsUnknownFields pins the strict decoder: an artifact from
// before the full-state slot layout was retired carries full_summaries, and
// replaying it as if the field were absent would be a different run.
func TestPlanJSONRejectsUnknownFields(t *testing.T) {
	for _, in := range []string{
		`{"class":"counter","nodes":4,"ops":80,"seed":208,"full_summaries":true}`,
		`{"class":"counter","nodes":4,"ops":80,"seed":1,"events":[{"at":5,"kind":"suspend","node":1,"nod":2}]}`,
	} {
		if _, err := ReadPlan(strings.NewReader(in)); err == nil || !strings.Contains(err.Error(), "unknown field") {
			t.Errorf("ReadPlan(%s) = %v, want an unknown-field error", in, err)
		}
	}
	if _, err := ReadPlan(strings.NewReader(`{"class":"counter","nodes":4,"ops":80,"seed":208}`)); err != nil {
		t.Fatalf("the same plan without the retired field: %v", err)
	}
}

func TestPlanValidation(t *testing.T) {
	bad := []Plan{
		{Class: "nope", Nodes: 4, Ops: 10},
		{Class: "counter", Nodes: 1, Ops: 10},
		{Class: "counter", Nodes: 4, Ops: 10, Events: []Event{{Kind: "warp"}}},
		{Class: "counter", Nodes: 4, Ops: 10, Events: []Event{{Kind: KindSuspend, Node: 9}}},
		{Class: "counter", Nodes: 4, Ops: 10, Events: []Event{{Kind: KindPartition, A: 2, B: 2}}},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("plan %d validated but is invalid", i)
		}
	}
}

// --- satellite: partition-then-heal convergence ----------------------------

func TestPartitionHealConvergenceCounter(t *testing.T) {
	assertPassed(t, mustRun(t, partitionHealPlan("counter", 11), Options{}))
}

func TestPartitionHealConvergenceORSet(t *testing.T) {
	assertPassed(t, mustRun(t, partitionHealPlan("orset", 12), Options{}))
}

func TestPartitionHealConvergenceBankMap(t *testing.T) {
	assertPassed(t, mustRun(t, partitionHealPlan("bankmap", 13), Options{}))
}

// --- randomized exploration ------------------------------------------------

// TestRandomizedPlans is the acceptance sweep: 27 seed-generated fault
// plans across three data-type classes (reducible counter, irreducible
// orset, conflicting+dependent bankmap) must all pass every probe. Failing
// plans are shrunk and dumped for replay by Explore itself.
func TestRandomizedPlans(t *testing.T) {
	var out bytes.Buffer
	failures, dumped := Explore(&out, ExploreOptions{
		Seed:    1000,
		Plans:   27,
		Classes: []string{"counter", "orset", "bankmap"},
		DumpDir: t.TempDir(),
	})
	if failures != 0 {
		t.Fatalf("%d randomized plans failed (reproducers: %v):\n%s", failures, dumped, out.String())
	}
	if testing.Verbose() {
		t.Log("\n" + out.String())
	}
}

// --- negative control ------------------------------------------------------

// negativePlan kills the conflicting-group leader and never heals: with
// failure handling disabled the cluster cannot elect a successor, so
// withdraws from correct nodes can never be ordered.
func negativePlan(disableRecovery bool) Plan {
	return Plan{
		Class: "account", Nodes: 4, Ops: 80, Seed: 5,
		NoFinalHeal:     true,
		DisableRecovery: disableRecovery,
		Events: []Event{
			{At: sim.Time(200 * sim.Microsecond), Kind: KindLeaderKill, Group: 0},
		},
	}
}

// TestNegativeControlCaught proves the probes have teeth: an intentionally
// broken configuration (recovery disabled) is caught, and the identical
// fault schedule passes once recovery is enabled.
func TestNegativeControlCaught(t *testing.T) {
	opts := Options{DrainDeadline: 10 * sim.Millisecond}

	broken := mustRun(t, negativePlan(true), opts)
	if broken.Passed {
		t.Fatal("recovery-disabled cluster passed a leader-kill plan — probes are blind")
	}
	found := false
	for _, v := range broken.Violations {
		if v.Probe == "quiescence" {
			found = true
		}
	}
	if !found {
		t.Fatalf("want a quiescence violation, got:\n%s", FormatViolations(broken))
	}

	healthy := mustRun(t, negativePlan(false), opts)
	assertPassed(t, healthy)
}

// --- shrinking -------------------------------------------------------------

// TestShrinkMinimizes pads the negative-control plan with irrelevant noise
// events and checks greedy shrinking strips them all, leaving the single
// event that causes the failure.
func TestShrinkMinimizes(t *testing.T) {
	opts := Options{DrainDeadline: 10 * sim.Millisecond}
	p := negativePlan(true)
	p.Events = append(p.Events,
		Event{At: sim.Time(100 * sim.Microsecond), Kind: KindPartition, A: 1, B: 2},
		Event{At: sim.Time(400 * sim.Microsecond), Kind: KindHeal, A: 1, B: 2},
		Event{At: sim.Time(300 * sim.Microsecond), Kind: KindDelay, A: 2, B: 3, Extra: 4 * sim.Microsecond},
	)
	if v := mustRun(t, p, opts); v.Passed {
		t.Fatal("padded negative plan unexpectedly passed")
	}
	min := Shrink(p, func(cand Plan) bool {
		v, err := Run(cand, opts)
		return err == nil && !v.Passed
	})
	if len(min.Events) != 1 || min.Events[0].Kind != KindLeaderKill {
		t.Fatalf("shrink left %d events (%v), want just the leaderkill", len(min.Events), min.Events)
	}
	if v := mustRun(t, min, opts); v.Passed {
		t.Fatal("shrunk plan no longer fails")
	}
}
