package chaos

import (
	"bytes"
	_ "embed"
	"reflect"
	"strings"
	"testing"

	"hamband/internal/schema"
	"hamband/internal/sim"
	"hamband/internal/spec"
	"hamband/internal/trace"
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
	p.Mutants = []string{"no-recovery", "apply-order"}
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
		// The mutation switches the catalogue's names replaced.
		`{"class":"counter","nodes":4,"ops":80,"seed":1,"mutate_apply_order":true}`,
		`{"class":"counter","nodes":4,"ops":80,"seed":1,"shard_mix":2,"cross_wire_shards":true}`,
		`{"class":"counter","nodes":4,"ops":80,"seed":1,"sessions":2,"mutate_stale_reads":true}`,
		`{"class":"counter","nodes":4,"ops":80,"seed":1,"disable_recovery":true}`,
		// The anchor period delta_log_bytes replaced.
		`{"class":"counter","nodes":4,"ops":80,"seed":1,"anchor_interval":3}`,
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
		{Class: "counter", Nodes: 4, Ops: 10, Mutants: []string{"off-by-one"}},
		{Class: "counter", Nodes: 4, Ops: 10, Mutants: []string{"apply-order", "no-recovery", "apply-order"}},
		{Class: "counter", Nodes: 4, Ops: 10, Events: []Event{{Kind: KindSuspend, Node: 1, MidRound: true}}},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("plan %d validated but is invalid", i)
		}
	}
	// Every bundled class is a target, in schema.Bundled's order, and the
	// explorer deals over all of them by default.
	var bundled []string
	for _, cls := range schema.Bundled() {
		bundled = append(bundled, cls.Name)
		if err := (Plan{Class: cls.Name, Nodes: 4, Ops: 10}).Validate(); err != nil {
			t.Errorf("bundled class %s: %v", cls.Name, err)
		}
	}
	if names := ClassNames(); !reflect.DeepEqual(names, bundled) {
		t.Errorf("ClassNames() = %v, want %v", names, bundled)
	}
	if classes := (ExploreOptions{}).withDefaults().Classes; !reflect.DeepEqual(classes, bundled) {
		t.Errorf("the explorer's default classes are %v, want %v", classes, bundled)
	}
}

// TestMidRoundKillFiresAfterASequencing: a plain leaderkill fires at its
// time; an anchored one fires a nanosecond after the first call sequenced at
// or after it (bankmap has one synchronization group, so by the victim).
func TestMidRoundKillFiresAfterASequencing(t *testing.T) {
	const at = sim.Time(100 * sim.Microsecond)
	for _, midRound := range []bool{false, true} {
		p := Plan{Class: "bankmap", Nodes: 4, Ops: 240, Seed: 13,
			Events: []Event{{At: at, Kind: KindLeaderKill, MidRound: midRound}}}
		v := mustRun(t, p, Options{}.Checked())
		assertPassed(t, v)
		if len(v.Kills) != 1 {
			t.Fatalf("mid_round %v: %d kills fired, want 1", midRound, len(v.Kills))
		}
		fired := v.Kills[0]
		if !midRound {
			if fired != at {
				t.Fatalf("plain kill fired at %v, want %v", sim.Duration(fired), sim.Duration(at))
			}
			continue
		}
		var order *trace.Event
		for _, e := range v.Trace.ByKind(trace.Order) {
			if e.At >= at {
				order = &e
				break
			}
		}
		if order == nil || fired != order.At+sim.Time(sim.Nanosecond) {
			t.Fatalf("anchored kill fired at %v; the first sequencing at or after %v is %v", sim.Duration(fired), sim.Duration(at), order)
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
// orset, conflicting+dependent bankmap) must all pass every probe and record
// conforming histories; every verdict line must say its history was checked.
// Failing plans are shrunk and dumped for replay by Explore itself.
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
	if n := strings.Count(out.String(), " PASS CONFORMS\n"); n != 27 {
		t.Fatalf("%d of 27 verdict lines show a checked history:\n%s", n, out.String())
	}
	if testing.Verbose() {
		t.Log("\n" + out.String())
	}
}

// sweepSeed is the bundled sweep's base seed: its plan i runs on sweepSeed+i.
const sweepSeed = 9001

// bundledSweep deals perClass generated 4-node plans to every bundled class,
// round-robin over ClassNames as Explore deals its classes, so no two plans
// share a schedule.
func bundledSweep(perClass, ops int) []Plan {
	names := ClassNames()
	plans := make([]Plan, perClass*len(names))
	for i := range plans {
		plans[i] = Generate(names[i%len(names)], 4, ops, sweepSeed+int64(i))
	}
	return plans
}

// TestBundledSweep runs every bundled class, the paper's use-case schemas
// among them, under generated fault plans with the explorer's options:
// probes, the watchdog and the history replay. Every verdict must read PASS
// CONFORMS. Across the sweep the plans must suspend nodes (two different
// ones within one plan), partition, slow and tear links, and kill the leader
// of a synchronization group. The -short sweep runs 3 plans of 120 ops per
// class, the full one 8 of 200.
func TestBundledSweep(t *testing.T) {
	perClass, ops := 8, 200
	if testing.Short() {
		perClass, ops = 3, 120
	}
	kinds := map[Kind]bool{}
	twoSuspended, groupKills := false, 0
	for _, p := range bundledSweep(perClass, ops) {
		v := mustRun(t, p, Options{}.Checked())
		assertPassed(t, v)
		if !strings.HasSuffix(v.Summary(), " PASS CONFORMS") {
			t.Fatalf("history unchecked: %s", v.Summary())
		}
		suspended := map[int]bool{}
		for _, e := range p.Events {
			kinds[e.Kind] = true
			if e.Kind == KindSuspend {
				suspended[e.Node] = true
			}
		}
		twoSuspended = twoSuspended || len(suspended) >= 2
		if cls, _ := Class(p.Class); len(spec.MustAnalyze(cls).SyncGroups) > 0 {
			groupKills += len(v.Kills)
		}
	}
	for _, k := range []Kind{KindSuspend, KindPartition, KindDelay, KindTorn, KindLeaderKill} {
		if !kinds[k] {
			t.Errorf("no plan of the sweep injects a %s", k)
		}
	}
	if !twoSuspended {
		t.Error("no plan of the sweep suspends two different nodes")
	}
	if groupKills == 0 {
		t.Error("no leader kill fired on a class with a synchronization group")
	}
}

// --- negative control ------------------------------------------------------

// noRecoveryControl is the no-recovery mutant's control plan: it kills the
// conflicting-group leader and never heals, so with failure handling off the
// cluster cannot elect a successor, and withdraws from correct nodes can
// never be ordered. Package conform's catch matrix runs it too, so it is
// committed as a plan file rather than written out here.
//
//go:embed testdata/controls/no-recovery-account-seed5.json
var noRecoveryControl []byte

// negativePlan is the no-recovery control plan, with the mutant when broken
// and as its healthy twin otherwise.
func negativePlan(broken bool) Plan {
	p, err := ReadPlan(bytes.NewReader(noRecoveryControl))
	if err != nil {
		panic(err)
	}
	if !broken {
		p.Mutants = nil
	}
	return p
}

// --- shrinking -------------------------------------------------------------

// TestShrinkMinimizes pads the negative-control plan with irrelevant noise
// events and checks shrinking strips them all, leaving the single event that
// causes the failure, and cuts the workload to the shortest prefix that still
// leaves a call stranded behind the dead leader.
func TestShrinkMinimizes(t *testing.T) {
	opts := Options{DrainDeadline: 10 * sim.Millisecond}
	p := negativePlan(true)
	p.Events = append(p.Events,
		Event{At: sim.Time(100 * sim.Microsecond), Kind: KindPartition, A: 1, B: 2},
		Event{At: sim.Time(400 * sim.Microsecond), Kind: KindHeal, A: 1, B: 2},
		Event{At: sim.Time(300 * sim.Microsecond), Kind: KindDelay, A: 2, B: 3, Extra: 4 * sim.Microsecond},
	)
	v := mustRun(t, p, opts)
	if v.Passed {
		t.Fatal("padded negative plan unexpectedly passed")
	}
	min := Shrink(p, FailsLike(v, opts))
	if len(min.Events) != 1 || min.Events[0].Kind != KindLeaderKill {
		t.Fatalf("shrink left %d events (%v), want just the leaderkill", len(min.Events), min.Events)
	}
	if min.Ops >= p.Ops {
		t.Fatalf("shrink kept all %d ops", min.Ops)
	}
	if v := mustRun(t, min, opts); v.Passed {
		t.Fatal("shrunk plan no longer fails")
	}
	t.Logf("shrunk to %d ops, %v", min.Ops, min.Events)
}
