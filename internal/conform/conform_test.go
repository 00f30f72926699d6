package conform_test

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"hamband/internal/chaos"
	"hamband/internal/conform"
	"hamband/internal/core"
	"hamband/internal/crdt"
	"hamband/internal/spec"
	"hamband/internal/trace"
)

// corpusPlans is the fixed-seed conformance corpus `make conform` gates on:
// three fault-free plans and three generated fault plans, rotating through
// the counter (reducible), orset (irreducible conflict-free) and bankmap
// (mixed categories, conflicting withdraw, dependent deposit) classes.
func corpusPlans() []chaos.Plan {
	// δ-stress arm: a generated fault plan with the smallest δ-log, so
	// the anchor/δ-log interleaving (re-anchors, gap fetches, torn parks)
	// is itself replayed through rdmawrdt's rule steps.
	deltaFaulty := chaos.Generate("bankmap", 4, 60, 207)
	deltaFaulty.DeltaLogBytes = core.MinDeltaLogBytes
	return []chaos.Plan{
		{Class: "counter", Nodes: 4, Ops: 80, Seed: 201},
		{Class: "orset", Nodes: 4, Ops: 80, Seed: 202},
		{Class: "bankmap", Nodes: 4, Ops: 80, Seed: 203},
		chaos.Generate("counter", 4, 80, 204),
		chaos.Generate("orset", 4, 60, 205),
		chaos.Generate("bankmap", 4, 60, 206),
		deltaFaulty,
	}
}

// run executes one plan under the explorer's options (opts.Checked): its
// verdict carries the conformance report of its history.
func run(t *testing.T, p chaos.Plan, opts chaos.Options) *chaos.Verdict {
	t.Helper()
	v, err := chaos.Run(p, opts.Checked())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if v.Conform == nil {
		t.Fatal("a run with a complete trace carries no conformance report")
	}
	return v
}

// hasCheck reports whether any violation of the report comes from a check
// whose name starts with prefix.
func hasCheck(rep *conform.Report, prefix string) bool {
	for _, v := range rep.Violations {
		if strings.HasPrefix(v.Check, prefix) {
			return true
		}
	}
	return false
}

// TestConformCorpus runs the fixed-seed corpus: every history must conform,
// the chaos probes must pass, queries must actually be checked, and a
// second run of the same plan must produce the identical trace hash.
func TestConformCorpus(t *testing.T) {
	for _, p := range corpusPlans() {
		p := p
		t.Run(fmt.Sprintf("%s-seed%d", p.Class, p.Seed), func(t *testing.T) {
			v1 := run(t, p, chaos.Options{})
			if !v1.Passed {
				t.Fatalf("run failed:\n%s", chaos.FormatViolations(v1))
			}
			if v1.Conform.Queries == 0 {
				t.Fatal("no query events checked; the corpus must exercise query explainability")
			}
			if v1.Conform.Calls == 0 {
				t.Fatal("no calls replayed; the trace is missing issue events")
			}
			if v2 := run(t, p, chaos.Options{}); v1.TraceHash != v2.TraceHash {
				t.Fatalf("nondeterministic run: trace hash %016x then %016x", v1.TraceHash, v2.TraceHash)
			}
		})
	}
}

// TestFlightWindowRunIsNotChecked: a flight recorder keeps only the newest
// events, so its window starts mid-history and cannot be explained from the
// initial state — a run with one carries no conformance report, and its
// verdict is the probes'. Checking the window instead reported 6 to 33
// violations on every corpus plan, the first naming a 524288-event trace
// limit that was never in force. A complete trace that overflows its limit is
// still checked, and its report says what was lost against the real limit.
func TestFlightWindowRunIsNotChecked(t *testing.T) {
	for _, p := range corpusPlans() {
		full := run(t, p, chaos.Options{})
		v, err := chaos.Run(p, chaos.Options{FlightWindow: 256}.Checked())
		if err != nil {
			t.Fatal(err)
		}
		if v.Conform != nil || !v.Passed {
			t.Fatalf("%s seed %d: a flight-window run was checked: passed=%v\n%s", p.Class, p.Seed, v.Passed, chaos.FormatViolations(v))
		}
		if v.TraceHash != full.TraceHash {
			t.Fatalf("%s seed %d: hash %016x with a window, %016x with a full trace", p.Class, p.Seed, v.TraceHash, full.TraceHash)
		}
	}

	p := corpusPlans()[0]
	v, err := chaos.Run(p, chaos.Options{TraceLimit: 100}.Checked())
	if err != nil {
		t.Fatal(err)
	}
	if v.Passed || v.Conform == nil || len(v.Conform.Violations) == 0 {
		t.Fatalf("a truncated trace passed its check:\n%s", chaos.FormatViolations(v))
	}
	if first := v.Conform.Violations[0]; first.Check != "trace" || !strings.Contains(first.Detail, "the 100-event trace limit") {
		t.Fatalf("want a trace violation naming the 100-event limit first, got %s", first)
	}
}

// TestRunCarriesOneVerdict pins the one verdict on the apply-order control:
// run with a complete trace, the mutant's history fails its check inside the
// run, so the run fails with dependency violations in its report while every
// probe passes. The same plan untraced is checked by nothing but its probes,
// which pass.
func TestRunCarriesOneVerdict(t *testing.T) {
	p := mutatedOrderPlan(mutatedOrderSeed)
	v := run(t, p, mutatedOrderOpts)
	if v.Passed || len(v.Violations) != 0 || !hasCheck(v.Conform, "dependency") {
		t.Fatalf("passed=%v, %d probe violations, want a failed run with dependency violations only in its report:\n%s",
			v.Passed, len(v.Violations), chaos.FormatViolations(v))
	}
	untraced, err := chaos.Run(p, mutatedOrderOpts)
	if err != nil {
		t.Fatal(err)
	}
	if !untraced.Passed || untraced.Conform != nil {
		t.Fatalf("untraced run: passed=%v report=%v, want a pass with no report", untraced.Passed, untraced.Conform)
	}
}

// TestFlightWindowDumpedForFailure pins the debugging artifact chain: a
// mutated plan that fails conformance dumps a plan JSON plus a
// flight-recorder window of the last events next to it, the same pair
// Explore writes for real corpus failures. The window must be bounded by
// the ring size and carry the event lines a post-mortem needs, and its header
// must state the checked verdict, not that of the unchecked window run.
func TestFlightWindowDumpedForFailure(t *testing.T) {
	p := mutatedOrderPlan(mutatedOrderSeed)
	if v := run(t, p, mutatedOrderOpts); v.Passed {
		t.Fatal("mutated plan unexpectedly conforms; flight dump path not exercised")
	}

	dir := t.TempDir()
	name, err := chaos.DumpPlan(dir, p)
	if err != nil {
		t.Fatal(err)
	}
	tname, err := chaos.DumpFlightWindow(name, p, mutatedOrderOpts.Checked())
	if err != nil {
		t.Fatal(err)
	}
	if want := strings.TrimSuffix(name, ".json") + ".trace"; tname != want {
		t.Errorf("trace dumped to %s, want %s (next to the plan)", tname, want)
	}
	data, err := os.ReadFile(tname)
	if err != nil {
		t.Fatal(err)
	}
	out := string(data)
	header, _, _ := strings.Cut(out, "\n")
	if !strings.Contains(header, "flight-recorder window") {
		t.Errorf("dump missing header:\n%s", out)
	}
	if !strings.Contains(header, "FAIL(0) NONCONFORMING(") {
		t.Errorf("header does not carry the failed history check of the verdict that caused the dump: %s", header)
	}
	lines := strings.Count(strings.TrimRight(out, "\n"), "\n")
	if lines < 2 {
		t.Errorf("dump has only %d lines, expected a window of events", lines)
	}
	if lines > chaos.DefaultFlightWindow+1 {
		t.Errorf("dump has %d event lines, ring should cap it at %d", lines, chaos.DefaultFlightWindow)
	}
}

// TestMutatedRunsAreDeterministic pins that even non-conforming runs
// replay bit-identically, so dumped counterexamples reproduce.
func TestMutatedRunsAreDeterministic(t *testing.T) {
	p := chaos.Plan{Class: "bankmap", Nodes: 3, Ops: 40, Seed: 301, Mutants: []string{"apply-order"}}
	v1, v2 := run(t, p, chaos.Options{}), run(t, p, chaos.Options{})
	if v1.TraceHash != v2.TraceHash {
		t.Fatalf("trace hash %016x then %016x", v1.TraceHash, v2.TraceHash)
	}
	if len(v1.Conform.Violations) != len(v2.Conform.Violations) {
		t.Fatalf("violation count %d then %d", len(v1.Conform.Violations), len(v2.Conform.Violations))
	}
}

// conformingTrace runs one clean plan and returns its analysis, events and
// check options — raw material for tamper tests.
func conformingTrace(t *testing.T, class string, seed int64) (*spec.Analysis, []trace.Event, conform.Options) {
	t.Helper()
	p := chaos.Plan{Class: class, Nodes: 3, Ops: 40, Seed: seed}
	v := run(t, p, chaos.Options{})
	if !v.Passed {
		t.Fatalf("baseline does not pass:\n%s", chaos.FormatViolations(v))
	}
	cls, err := chaos.Class(class)
	if err != nil {
		t.Fatal(err)
	}
	events := append([]trace.Event(nil), v.Trace.Events()...)
	return spec.MustAnalyze(cls), events, conform.Options{Nodes: p.Nodes, Quiescent: v.Drained, Correct: v.Correct}
}

// TestTamperedTraces records one clean bankmap history and tampers one event
// per row; each row names the check that must flag it and, for a failed
// premise of a Fig. 7 step, the words naming the rule and premise in the
// violation: the version premise of REDUCE's write landing (an adopt), the
// dependency premise of FREE-APP and the permissibility premise of CONF-APP.
// The first row breaks the summarization comparison after a REDUCE.
func TestTamperedTraces(t *testing.T) {
	an, clean, opts := conformingTrace(t, "bankmap", 214)
	rows := []struct {
		name, check, rule string
		tamper            func(events []trace.Event) []trace.Event
	}{
		{"reduce-sum", "summarization", "", func(events []trace.Event) []trace.Event {
			// The slot claims an account no call ever opened.
			i := find(t, events, func(e trace.Event) bool { return e.Kind == trace.Reduce })
			rec := events[i].Data.(trace.SlotRecord)
			rec.Sum.Args.I = append(append([]int64(nil), rec.Sum.Args.I...), 1<<40)
			events[i].Data = rec
			return events
		}},
		{"adopt-version", "trace", "REDUCE write premise", func(events []trace.Event) []trace.Event {
			// The second adoption of one slot at one node comes back one
			// version below the first.
			first := map[string]uint32{}
			i := find(t, events, func(e trace.Event) bool {
				rec, ok := e.Data.(trace.SlotRecord)
				if !ok || e.Kind != trace.Adopt {
					return false
				}
				key := fmt.Sprintf("p%d g%d/p%d", e.Node, rec.Group, rec.Src)
				if _, seen := first[key]; !seen {
					first[key] = rec.Version
					return false
				}
				return true
			})
			rec := events[i].Data.(trace.SlotRecord)
			rec.Version = first[fmt.Sprintf("p%d g%d/p%d", events[i].Node, rec.Group, rec.Src)] - 1
			events[i].Data = rec
			return events
		}},
		{"deposit-before-open", "dependency", "FREE-APP premise D ≤ A", func(events []trace.Event) []trace.Event {
			// A deposit applied at p whose record counts an open by q moves
			// ahead of p's first adoption of q's slot.
			adopt := -1
			i := find(t, events, func(e trace.Event) bool {
				rec, ok := e.Data.(trace.CallRecord)
				if !ok || e.Kind != trace.Apply || rec.C.Method != crdt.BankDeposit {
					return false
				}
				for q, n := range rec.D {
					if q != e.Node && n > 0 {
						adopt = find(t, events, func(a trace.Event) bool {
							s, ok := a.Data.(trace.SlotRecord)
							return ok && a.Kind == trace.Adopt && a.Node == e.Node && int(s.Src) == q
						})
						return true
					}
				}
				return false
			})
			moved := events[i]
			events = append(events[:i], events[i+1:]...)
			return append(events[:adopt], append([]trace.Event{moved}, events[adopt:]...)...)
		}},
		{"withdraw-overdraft", "permissibility", "CONF-APP premise P", func(events []trace.Event) []trace.Event {
			i := find(t, events, func(e trace.Event) bool {
				rec, ok := e.Data.(trace.CallRecord)
				return ok && e.Kind == trace.Apply && rec.C.Method == crdt.BankWithdraw
			})
			rec := events[i].Data.(trace.CallRecord)
			rec.C.Args.I = []int64{rec.C.Args.I[0], 1 << 40}
			events[i].Data = rec
			return events
		}},
		{"query-result", "query", "", func(events []trace.Event) []trace.Event {
			i := find(t, events, func(e trace.Event) bool {
				q, ok := e.Data.(trace.QueryRecord)
				_, isInt := q.Result.(int64)
				return ok && isInt
			})
			q := events[i].Data.(trace.QueryRecord)
			q.Result = q.Result.(int64) + 1000
			events[i].Data = q
			return events
		}},
		{"duplicated-apply", "exactly-once", "", func(events []trace.Event) []trace.Event {
			i := find(t, events, func(e trace.Event) bool { return e.Kind == trace.Apply })
			return append(events[:i+1], append([]trace.Event{events[i]}, events[i+1:]...)...)
		}},
		{"dropped-apply", "exactly-once", "", func(events []trace.Event) []trace.Event {
			// At quiescence the replica that lost the apply is one call short.
			i := find(t, events, func(e trace.Event) bool { return e.Kind == trace.Apply })
			return append(events[:i], events[i+1:]...)
		}},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			rep := conform.Check(an, r.tamper(append([]trace.Event(nil), clean...)), opts)
			if !hasCheck(rep, r.check) || !strings.Contains(rep.String(), r.rule) {
				t.Fatalf("want a %s violation naming %q, got:\n%s", r.check, r.rule, rep)
			}
		})
	}
}

// TestEmptyHistory: a history with no events and no node count replays on no
// replicas and conforms, for a class with a synchronization group too.
func TestEmptyHistory(t *testing.T) {
	if rep := conform.Check(spec.MustAnalyze(crdt.NewAccount()), nil, conform.Options{}); !rep.OK() {
		t.Fatal(rep)
	}
}

// find returns the index of the first event ok accepts, failing the test when
// the trace has none.
func find(t *testing.T, events []trace.Event, ok func(trace.Event) bool) int {
	t.Helper()
	for i, e := range events {
		if ok(e) {
			return i
		}
	}
	t.Fatal("the trace carries no event to tamper with")
	return -1
}

// TestExploreCorpusStyle drives the one explorer, which checks every history,
// over a small clean sweep: nothing may fail and nothing may be dumped.
func TestExploreCorpusStyle(t *testing.T) {
	var out strings.Builder
	failures, dumped := chaos.Explore(&out, chaos.ExploreOptions{
		Seed: 220, Plans: 4, Nodes: 3, Ops: 40, DumpDir: t.TempDir(),
	})
	if failures != 0 {
		t.Fatalf("clean sweep reported %d failures:\n%s", failures, out.String())
	}
	if len(dumped) != 0 {
		t.Fatalf("clean sweep dumped %v", dumped)
	}
	if n := strings.Count(out.String(), " PASS CONFORMS\n"); n != 4 {
		t.Fatalf("%d of 4 verdict lines show a checked, conforming history:\n%s", n, out.String())
	}
}
