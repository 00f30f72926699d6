package chaos

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hamband/internal/sim"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/chaos/fingerprints.golden from this binary's runs")

const fingerprintGolden = "testdata/chaos/fingerprints.golden"

// fingerprintCase is one pinned run: the plan, the options its test uses.
type fingerprintCase struct {
	name string
	plan Plan
	opts Options
}

// fingerprintCases lists every plan whose schedule is pinned across
// commits: the committed corpus, and the generated plans the acceptance
// tests run (TestRandomizedPlans, TestShardMix*, TestShardFaultIsolation,
// TestReconfig*, the negative and watchdog controls), plus the sharded
// plans package conform replays, under its options. Lines are keyed by
// name, so a new plan adds a line and moves none.
func fingerprintCases(t *testing.T) []fingerprintCase {
	t.Helper()
	var cases []fingerprintCase
	add := func(name string, p Plan, o Options) {
		cases = append(cases, fingerprintCase{name, p, o})
	}
	files, err := filepath.Glob(filepath.Join("testdata", "chaos", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range files {
		add("corpus/"+filepath.Base(path), readCorpusPlan(t, path), Options{})
	}
	classes := []string{"counter", "orset", "bankmap"}
	for i := 0; i < 27; i++ {
		add(fmt.Sprintf("randomized/%02d", i), Generate(classes[i%3], 4, 120, 1000+int64(i)), Options{})
	}
	for _, class := range []string{"counter", "orset", "account"} {
		add("shardmix/"+class, GenerateSharded(class, 4, 120, 31, 4), Options{})
	}
	add("shardmix/reproducible", GenerateSharded("counter", 4, 100, 21, 4), Options{})
	short := Options{DrainDeadline: 10 * sim.Millisecond}
	add("isolation/broken", faultOneShardPlan(true), short)
	add("isolation/healthy", faultOneShardPlan(false), short)
	for _, class := range classes {
		add("reconfig/roundtrip-"+class, reconfigPlan(class, 31), Options{})
	}
	add("reconfig/leaderkill", reconfigLeaderKillPlan(), Options{})
	add("reconfig/padded", paddedReconfigPlan(), short)
	add("negative/broken", negativePlan(true), short)
	add("negative/healthy", negativePlan(false), short)
	add("partition/counter", partitionHealPlan("counter", 11), Options{})
	add("partition/orset", partitionHealPlan("orset", 12), Options{})
	add("partition/bankmap", partitionHealPlan("bankmap", 13), Options{})
	add("watchdog/suspend", suspendPlan(), Options{})
	add("watchdog/sharded", Plan{Class: "bankmap", Nodes: 4, Ops: 240, Seed: 13, ShardMix: 3}, Options{})
	// Package conform's sharded plans, under the options conform.Run sets.
	conformOpts := Options{TraceLimit: 1 << 19, QueryMix: 2}
	for _, class := range []string{"counter", "orset", "account"} {
		add("conform-sharded/"+class, GenerateSharded(class, 4, 120, 51, 4), conformOpts)
	}
	crossWire := Plan{Class: "orset", Nodes: 4, Ops: 120, Seed: 61, ShardMix: 2, CrossWireShards: true}
	add("conform-sharded/crosswire", crossWire, conformOpts)
	crossWire.CrossWireShards = false
	add("conform-sharded/crosswire-control", crossWire, conformOpts)
	// The round-rule plans at the density TestCorpusDenseRounds replays them
	// at: their kill times are placed mid-round on this schedule.
	for _, name := range denseRoundPlans {
		add("dense-rounds/"+name, readCorpusPlan(t, filepath.Join("testdata", "chaos", name)), denseRounds)
	}
	// The F out-channel plans, likewise: their suspensions are placed on an
	// open batch on this schedule.
	for _, name := range denseBurstPlans {
		add("dense-bursts/"+name, readCorpusPlan(t, filepath.Join("testdata", "chaos", name)), denseRounds)
	}
	return cases
}

// TestFingerprints pins every corpus and acceptance plan's schedule across
// commits. Trace hashes are otherwise only compared run-to-run inside one
// binary, which cannot show that a refactor of the runner kept the
// schedule; the golden file can. Regenerate it (go test -run
// TestFingerprints -update ./internal/chaos) only for a change that is
// meant to move schedules, and say so in the change.
func TestFingerprints(t *testing.T) {
	var b strings.Builder
	for _, c := range fingerprintCases(t) {
		v := mustRun(t, c.plan, c.opts)
		fmt.Fprintf(&b, "%s hash=%016x issued=%d acked=%d rejected=%d makespan=%d violations=%d shard_acked=%v\n",
			c.name, v.TraceHash, v.Issued, v.Acked, v.Rejected, int64(v.Makespan), len(v.Violations), v.ShardAcked)
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
	if got == string(want) {
		return
	}
	wantLines := strings.Split(string(want), "\n")
	for i, line := range strings.Split(got, "\n") {
		if i >= len(wantLines) || line != wantLines[i] {
			w := "<missing>"
			if i < len(wantLines) {
				w = wantLines[i]
			}
			t.Errorf("line %d:\n got  %s\n want %s", i+1, line, w)
		}
	}
	t.Fatalf("schedules moved: %s no longer matches (see -update)", fingerprintGolden)
}
