package conform

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

	"hamband/internal/chaos"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/fingerprints.golden from this binary's runs")

const fingerprintGolden = "testdata/fingerprints.golden"

// TestFingerprints pins, across commits, the schedule and the conformance
// report of the corpus plans and of the session and mutation controls: a
// refactor of the runner or of Run must leave every line as it is. Lines
// are keyed by name, so a new plan adds a line and moves none. Regenerate
// (go test -run TestFingerprints ./internal/conform -update) only for a
// change that is meant to move schedules or reports.
func TestFingerprints(t *testing.T) {
	type pinned struct {
		name string
		plan chaos.Plan
		opts chaos.Options
	}
	var cases []pinned
	for _, p := range corpusPlans() {
		cases = append(cases, pinned{name: fmt.Sprintf("corpus/%s-seed%d", p.Class, p.Seed), plan: p})
	}
	cases = append(cases,
		pinned{name: "sessions/reconfig", plan: sessionReconfigPlan(false)},
		pinned{name: "sessions/reconfig-stale", plan: sessionReconfigPlan(true)},
		pinned{name: "mutated/apply-order", plan: mutatedOrderPlan(mutatedOrderSeed), opts: mutatedOrderOpts},
		// Sharded plans, checked per shard since Run does so (lines added
		// after the golden was first recorded).
		pinned{name: "sharded/corpus-orset-seed1400", plan: chaosCorpusPlan(t, "orset-shardmix-seed1400.json")},
		pinned{name: "sharded/corpus-bankmap-sessions-seed1606", plan: chaosCorpusPlan(t, "bankmap-shardmix-sessions-seed1606.json")},
		pinned{name: "sharded/crosswire", plan: crossWirePlan()},
	)
	for _, class := range []string{"counter", "orset", "account"} {
		cases = append(cases, pinned{name: "sharded/generated-" + class, plan: chaos.GenerateSharded(class, 4, 120, 51, 4)})
	}
	for _, name := range denseBurstPlans {
		cases = append(cases, pinned{name: "dense-bursts/" + name, plan: chaosCorpusPlan(t, name), opts: denseBurstOpts})
	}

	var b strings.Builder
	for _, c := range cases {
		res, err := Run(c.plan, c.opts)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		v, rep := res.Verdict, res.Report
		fmt.Fprintf(&b, "%s hash=%016x issued=%d acked=%d rejected=%d makespan=%d probe_violations=%d events=%d calls=%d queries=%d violations=%d\n",
			c.name, v.TraceHash, v.Issued, v.Acked, v.Rejected, int64(v.Makespan), len(v.Violations),
			rep.Events, rep.Calls, rep.Queries, len(rep.Violations))
	}
	got := b.String()
	if *updateGolden {
		if err := os.WriteFile(fingerprintGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(fingerprintGolden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("schedules or reports moved: %s no longer matches (see -update)\n got:\n%s\nwant:\n%s", fingerprintGolden, got, want)
	}
}
