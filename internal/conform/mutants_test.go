package conform_test

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"hamband/internal/chaos"
	"hamband/internal/conform"
	"hamband/internal/sim"
)

const mutantsGolden = "testdata/mutants.golden"

// mutatedOrderOpts and mutatedOrderPlan are the apply-order mutant's control,
// shared by the catch matrix, the tests that run it and the fingerprint line.
// What makes the mutant observable is the plan's shape, not its seed. The
// density (batches of 16 every 5 µs, chaos's denseRounds) keeps a Mu round and
// a broadcast message several calls long, but that alone shows nothing: every
// replica drains the same round newest-first the same way, and reordered
// deposits commute. So the plan also cuts the link between the two nodes that
// lead nothing for the whole workload. Their opens and deposits still reach the
// leader, which orders withdraws on top of them and stamps those counts into
// each D; the withdraws reach the other cut-off node through the leader's log,
// the calls they depend on do not. The runtime parks such a withdraw — and
// every one behind it — in the L buffer until the heal, so the buffers hold
// many entries for tens of µs where an unfaulted run holds two for
// nanoseconds; the mutant applies them at once, ahead of their dependencies,
// which the dependency check reports. A record a few bytes shorter or a write
// a few ns earlier (a fault-free plan this control once ran conformed after
// such a change) does not change which side of a 35 µs partition a call is on.
var mutatedOrderOpts = chaos.Options{BatchSize: 16, IssuePeriod: 5 * sim.Microsecond}

func mutatedOrderPlan(seed int64) chaos.Plan {
	return chaos.Plan{Class: "bankmap", Nodes: 3, Ops: 64, Seed: seed, Mutants: []string{"apply-order"},
		Events: []chaos.Event{
			{At: 0, Kind: chaos.KindPartition, A: 1, B: 2},
			{At: sim.Time(35 * sim.Microsecond), Kind: chaos.KindHeal, A: 1, B: 2},
		}}
}

// mutatedOrderSeed is the seed the fingerprint line and the flight-window test
// run the control at.
const mutatedOrderSeed = 303

// crossWirePlan is the cross-wire mutant's control: two OR-set shards whose
// free deliveries each land in the other's apply loop.
func crossWirePlan() chaos.Plan {
	return chaos.Plan{Class: "orset", Nodes: 4, Ops: 120, Seed: 61, ShardMix: 2, Mutants: []string{"cross-wire"}}
}

// crossWireReducePlan is the cross-wire-reduce mutant's control: two counter
// shards whose δ-records each node's walk folds into the other's slots.
func crossWireReducePlan() chaos.Plan {
	return chaos.Plan{Class: "counter", Nodes: 4, Ops: 120, Seed: 61, ShardMix: 2, Mutants: []string{"cross-wire-reduce"}}
}

// sessionReconfigPlan is the membership round-trip with two live sessions;
// stale installs the stale-reads mutant on it, which makes it that mutant's
// control.
func sessionReconfigPlan(stale bool) chaos.Plan {
	p := chaos.Plan{
		Class: "counter", Nodes: 4, Ops: 120, Seed: 51, Sessions: 2,
		Events: []chaos.Event{
			{At: sim.Time(300 * sim.Microsecond), Kind: chaos.KindLeave, Node: 3},
			{At: sim.Time(900 * sim.Microsecond), Kind: chaos.KindJoin, Node: 3},
		},
	}
	if stale {
		p.Mutants = []string{"stale-reads"}
	}
	return p
}

// control is one catalogue mutant's row source: its control-plan family, the
// options the family runs at, whether the family without the mutant must
// pass (its healthy twin), what every run must show, and, where the mutant's
// counterexample is shrunk, the shrink and its bound. A mutant no checker
// catches yet is marked notYet instead, with the ROADMAP item that will catch
// it and the unit test that does today; its rows must then stay at zero.
type control struct {
	mutant string
	opts   chaos.Options
	family []chaos.Plan
	twin   bool
	notYet string
	caught func(t *testing.T, v *chaos.Verdict)
	// shrink shrinks a counterexample of the family's verdicts and returns
	// its size; unit names what the size counts, bound its limit.
	shrink func(t *testing.T, family []chaos.Plan, vs []*chaos.Verdict) int
	unit   string
	bound  int
}

func controls(t *testing.T) []control {
	var orderFamily []chaos.Plan
	for seed := int64(300); seed < 320; seed++ {
		orderFamily = append(orderFamily, mutatedOrderPlan(seed))
	}
	return []control{{
		// With the apply-order mutant every seed's history shows the
		// dependency violation the plan's shape produces, and some seed's
		// counterexample shrinks to at most 8 calls that still fail for an
		// ordering reason. The probes see nothing: every replica still
		// converges (TestRunCarriesOneVerdict).
		mutant: "apply-order", opts: mutatedOrderOpts, family: orderFamily,
		caught: func(t *testing.T, v *chaos.Verdict) {
			if !hasCheck(v.Conform, "dependency") {
				t.Errorf("seed %d: the mutated apply order shows no dependency violation:\n%s", v.Plan.Seed, v.Conform)
			}
		},
		shrink: func(t *testing.T, family []chaos.Plan, vs []*chaos.Verdict) int {
			for i, p := range family {
				min := chaos.Shrink(p, chaos.FailsLike(vs[i], mutatedOrderOpts.Checked()))
				if min.Ops > 8 {
					continue
				}
				v := run(t, min, mutatedOrderOpts)
				if v.Conform.OK() {
					t.Errorf("shrunk plan (seed %d, %d ops) no longer fails", min.Seed, min.Ops)
				}
				if !hasCheck(v.Conform, "dependency") && !hasCheck(v.Conform, "permissibility") && !hasCheck(v.Conform, "conflict-order") {
					t.Errorf("expected a dependency, permissibility or conflict-order violation, got:\n%s", v.Conform)
				}
				return min.Ops
			}
			t.Error("no seed in [300,320) shrank the mutated apply order to <= 8 calls")
			return family[len(family)-1].Ops
		},
		unit: "calls", bound: 8,
	}, {
		// The per-shard checker flags the leak as an identity violation, at
		// some shard and in the run's report; globally unique tags keep a
		// wired-in call from passing as one of the victim shard's own.
		mutant: "cross-wire", family: []chaos.Plan{crossWirePlan()}, twin: true,
		caught: func(t *testing.T, v *chaos.Verdict) {
			atShard := false
			for _, rep := range v.Conform.Shards {
				atShard = atShard || hasCheck(rep, "identity")
			}
			if !atShard || !hasCheck(v.Conform, "identity") {
				t.Errorf("no identity violation; leakage was flagged for the wrong reason:\n%s", v.Conform)
			}
		},
	}, {
		// rule REDUCE's cross-wire: the per-shard checker flags a slot version
		// adopted with another shard's records folded in as an identity
		// violation, at some shard and in the run's report.
		mutant: "cross-wire-reduce", family: []chaos.Plan{crossWireReducePlan()}, twin: true,
		caught: func(t *testing.T, v *chaos.Verdict) {
			atShard := false
			for _, rep := range v.Conform.Shards {
				atShard = atShard || hasCheck(rep, "identity")
			}
			if !atShard || !hasCheck(v.Conform, "identity") {
				t.Errorf("no identity violation; the crossed δ-records were flagged for the wrong reason:\n%s", v.Conform)
			}
		},
	}, {
		// Only the history check fails the run, through a session check, and
		// every violating session shrinks to the offending write/read pair
		// plus little else.
		mutant: "stale-reads", family: []chaos.Plan{sessionReconfigPlan(true)},
		caught: func(t *testing.T, v *chaos.Verdict) {
			if v.Passed || len(v.Violations) != 0 || !hasCheck(v.Conform, "session-") {
				t.Errorf("passed=%v with %d probe violations, want the session checks alone to fail it:\n%s",
					v.Passed, len(v.Violations), v.Conform)
			}
		},
		shrink: func(t *testing.T, _ []chaos.Plan, vs []*chaos.Verdict) int {
			largest := 0
			for _, evs := range conform.SessionEvents(vs[0].Trace.Events()) {
				if len(conform.CheckSessions(evs)) == 0 {
					continue
				}
				min := conform.ShrinkSession(evs)
				if len(min) == 0 || len(conform.CheckSessions(min)) == 0 {
					t.Error("shrunk session no longer violates")
				}
				largest = max(largest, len(min))
			}
			if largest == 0 {
				t.Error("no violating session found to shrink")
			}
			return largest
		},
		unit: "events", bound: 6,
	}, {
		// A cluster that cannot recover strands calls behind the dead leader,
		// which the quiescence probe reports.
		mutant: "no-recovery", opts: chaos.Options{DrainDeadline: 10 * sim.Millisecond},
		family: []chaos.Plan{readPlan(t, filepath.Join("..", "chaos", "testdata", "controls", "no-recovery-account-seed5.json"))},
		twin:   true,
		caught: wantQuiescence,
	}, {
		// A summary scan that trusts the anchors it validated after writes
		// landed over them misses what they carried; the reader never reaches
		// the writer's version, which the quiescence probe reports. The
		// corpus plan's 64-byte δ-log wraps every few records, re-anchoring
		// as often, the default 4 KiB one in no corpus plan, so this is the
		// plan that overwrites an anchor a reader validated.
		mutant: "stale-scan", family: []chaos.Plan{staleScanPlan(t)}, twin: true,
		caught: wantQuiescence,
	}, {
		// A writer that leaves its δ-records out of its own slot serves a gap
		// fetch its last anchor alone: the reader adopts nothing and waits for
		// the records the log still brings, so every replica converges and
		// every adoption it makes is sound. Only when calls become visible
		// tells, which no checker measures yet. The corpus plan tears writes
		// for 20–60 µs and recovers through gap fetches.
		mutant: "no-local-delta", family: []chaos.Plan{noLocalDeltaPlan(t)}, twin: true,
		notYet: "ROADMAP item 3 (visibility); caught by core.TestDeltaGapFetchesFullState",
		caught: func(*testing.T, *chaos.Verdict) {},
	}}
}

// noLocalDeltaPlan is the no-local-delta mutant's control: a corpus plan
// whose torn writes send readers to the writer's own slot.
func noLocalDeltaPlan(t *testing.T) chaos.Plan {
	p := readPlan(t, filepath.Join("..", "chaos", "testdata", "chaos", "bankmap-torn-long-seed2101.json"))
	p.Mutants = []string{"no-local-delta"}
	return p
}

// staleScanPlan is the stale-scan mutant's control: the corpus plan whose
// small δ-log interleaves anchors and δ-records under torn writes.
func staleScanPlan(t *testing.T) chaos.Plan {
	p := readPlan(t, filepath.Join("..", "chaos", "testdata", "chaos", "bankmap-delta-torn-seed1300.json"))
	p.Mutants = []string{"stale-scan"}
	return p
}

// wantQuiescence is the controls' check that the probes caught a run that
// did not quiesce.
func wantQuiescence(t *testing.T, v *chaos.Verdict) {
	if !slices.ContainsFunc(v.Violations, func(pv chaos.Violation) bool { return pv.Probe == "quiescence" }) {
		t.Errorf("want a quiescence violation, got:\n%s", chaos.FormatViolations(v))
	}
}

// TestCatchMatrix is the catch matrix: every catalogue mutant's control-plan
// family runs once, checked, and each of the two checkers — probes (the
// chaos probes' violations) and history (the conformance report, session
// checks included) — gets one line: the runs it caught, the checks that
// fired, and the shrunk counterexample's size where the mutant's is shrunk.
// The lines are pinned in testdata/mutants.golden (regenerate with -update),
// so a change that weakens a checker shows as a diff. The test fails when a
// line's catch count falls below the golden's, when a shrunk size exceeds its
// bound, when a run misses what its control asserts, when a healthy twin
// fails, when a catalogue mutant is caught by no checker and not marked "not
// yet", and when one so marked is caught — under -update too, which then
// leaves the golden as it is.
func TestCatchMatrix(t *testing.T) {
	pinned := goldenCatches(t)
	var b strings.Builder
	caught := make(map[string]int)
	notYet := make(map[string]bool)
	for _, c := range controls(t) {
		notYet[c.mutant] = c.notYet != ""
		t.Run(c.mutant, func(t *testing.T) {
			rows := []struct {
				checker string
				caught  int
				checks  []string
				shrunk  string
			}{{checker: "probes"}, {checker: "history"}}
			var vs []*chaos.Verdict
			for _, p := range c.family {
				v := run(t, p, c.opts)
				c.caught(t, v)
				vs = append(vs, v)
				if len(v.Violations) > 0 {
					rows[0].caught++
				}
				for _, pv := range v.Violations {
					rows[0].checks = append(rows[0].checks, pv.Probe)
				}
				if !v.Conform.OK() {
					rows[1].caught++
				}
				for _, hv := range v.Conform.Violations {
					rows[1].checks = append(rows[1].checks, hv.Check)
				}
				if c.twin {
					p.Mutants = nil
					if v := run(t, p, c.opts); !v.Passed {
						t.Errorf("the healthy twin fails:\n%s", chaos.FormatViolations(v))
					}
				}
			}
			if c.shrink != nil {
				size := c.shrink(t, c.family, vs)
				if size > c.bound {
					t.Errorf("shrunk to %d %s, want <= %d", size, c.unit, c.bound)
				}
				rows[1].shrunk = fmt.Sprintf(" shrunk=%d/%d %s", size, c.bound, c.unit)
			}
			fmt.Fprintf(&b, "# %s: %s\n", c.mutant, mutantDoc(c.mutant))
			if c.notYet != "" {
				fmt.Fprintf(&b, "# not yet: %s\n", c.notYet)
			}
			for _, row := range rows {
				key := c.mutant + " " + row.checker
				if want, ok := pinned[key]; ok && row.caught < want {
					t.Errorf("%s caught %d runs, below the golden's %d", key, row.caught, want)
				}
				caught[c.mutant] += row.caught
				slices.Sort(row.checks)
				checks := strings.Join(slices.Compact(row.checks), ",")
				if checks == "" {
					checks = "-"
				}
				fmt.Fprintf(&b, "%s caught=%d/%d checks=%s%s\n", key, row.caught, len(c.family), checks, row.shrunk)
			}
		})
	}
	for _, m := range chaos.Mutants {
		switch {
		case caught[m.Name] == 0 && !notYet[m.Name]:
			t.Errorf("mutant %s is caught by no checker", m.Name)
		case caught[m.Name] > 0 && notYet[m.Name]:
			t.Errorf("mutant %s is caught: drop its not-yet mark", m.Name)
		}
	}
	got := b.String()
	t.Logf("catch matrix:\n%s", got)
	if *updateGolden {
		if t.Failed() {
			t.Fatalf("not rewriting %s from a failing matrix", mutantsGolden)
		}
		if err := os.WriteFile(mutantsGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if want, err := os.ReadFile(mutantsGolden); err != nil || got != string(want) {
		t.Fatalf("the catch matrix moved: %s no longer matches (see -update)\n got:\n%s\nwant:\n%s", mutantsGolden, got, want)
	}
}

// goldenCatches reads each line's catch count from the committed matrix.
func goldenCatches(t *testing.T) map[string]int {
	pinned := make(map[string]int)
	data, err := os.ReadFile(mutantsGolden)
	if err != nil && !*updateGolden {
		t.Fatal(err)
	}
	line := regexp.MustCompile(`(?m)^(\S+ \S+) caught=(\d+)/`)
	for _, m := range line.FindAllStringSubmatch(string(data), -1) {
		pinned[m[1]], _ = strconv.Atoi(m[2])
	}
	return pinned
}

// mutantDoc returns the catalogue's one line on the named mutant.
func mutantDoc(name string) string {
	for _, m := range chaos.Mutants {
		if m.Name == name {
			return m.Doc
		}
	}
	return "not in the catalogue"
}
