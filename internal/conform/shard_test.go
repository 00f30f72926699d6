package conform

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hamband/internal/chaos"
	"hamband/internal/sim"
	"hamband/internal/trace"
)

// chaosCorpusPlan reads one plan of package chaos's committed corpus.
func chaosCorpusPlan(t *testing.T, name string) chaos.Plan {
	t.Helper()
	f, err := os.Open(filepath.Join("..", "chaos", "testdata", "chaos", name))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	p, err := chaos.ReadPlan(f)
	if err != nil {
		t.Fatalf("invalid corpus plan %s: %v", name, err)
	}
	return p
}

func mustRun(t *testing.T, p chaos.Plan) *Result {
	t.Helper()
	res, err := Run(p, chaos.Options{})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

// hasCheck reports whether any violation of the report comes from a check
// whose name starts with prefix.
func hasCheck(rep *Report, prefix string) bool {
	for _, v := range rep.Violations {
		if strings.HasPrefix(v.Check, prefix) {
			return true
		}
	}
	return false
}

// TestShardedConformance replays generated sharded fault plans through Run:
// every shard's history must independently pass all five checks.
func TestShardedConformance(t *testing.T) {
	for _, class := range []string{"counter", "orset", "account"} {
		class := class
		t.Run(class, func(t *testing.T) {
			res := mustRun(t, chaos.GenerateSharded(class, 4, 120, 51, 4))
			if len(res.Shards) != 4 {
				t.Fatalf("checked %d shards, want 4:\n%s", len(res.Shards), res)
			}
			if !res.Conforms() {
				t.Fatalf("sharded history does not conform:\n%s", res)
			}
			for key, rep := range res.Shards {
				if rep.Calls == 0 {
					t.Errorf("shard %s saw no calls — the split starved it", key)
				}
				if rep.Queries == 0 {
					t.Errorf("shard %s saw no queries — check 5 had no material", key)
				}
			}
		})
	}
}

// TestRunChecksCorpusShardMixPerShard is the regression test for Run
// replaying a sharded plan's merged trace as one object: on the committed
// four-shard corpus plan that produced eight false query violations.
func TestRunChecksCorpusShardMixPerShard(t *testing.T) {
	res := mustRun(t, chaosCorpusPlan(t, "orset-shardmix-seed1400.json"))
	if !res.Conforms() {
		t.Fatalf("corpus shardmix plan does not conform:\n%s", res)
	}
	if len(res.Shards) != 4 {
		t.Fatalf("checked %d shards, want 4:\n%s", len(res.Shards), res)
	}
	if res.Report.Calls != 120 || res.Report.Queries == 0 {
		t.Fatalf("merged report lost material: %s", res.Report)
	}
}

// denseBurstPlans are package chaos's two F out-channel plans (dense OR-set
// bursts, a node suspended on an open batch; the shardmix twin carries client
// sessions), and denseBurstOpts the density they were written for, the one
// chaos.TestCorpusDenseBursts replays them at: there a broadcast message
// carries several calls, so the checks see batched deliveries.
var (
	denseBurstPlans = []string{"orset-bursts-seed1800.json", "orset-bursts-shardmix-seed1801.json"}
	denseBurstOpts  = chaos.Options{BatchSize: 16, IssuePeriod: 5 * sim.Microsecond}
)

// TestRunChecksDenseBursts: histories in which one message delivers a run of
// calls, through torn windows, partitions and a suspension mid-batch, must
// still be explainable call by call — and, on the sessions plan, session by
// session.
func TestRunChecksDenseBursts(t *testing.T) {
	for _, name := range denseBurstPlans {
		t.Run(name, func(t *testing.T) {
			p := chaosCorpusPlan(t, name)
			res, err := Run(p, denseBurstOpts)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Conforms() || !res.Verdict.Passed {
				t.Fatalf("dense-burst plan does not conform:\n%s\nprobe violations: %v", res, res.Verdict.Violations)
			}
			if res.Report.Calls < p.Ops || res.Report.Queries == 0 {
				t.Fatalf("report lost material: %s", res.Report)
			}
			if p.Sessions > 0 {
				writes := 0
				for _, ops := range sessionOpsByShard(res.Verdict.Trace.Events()) {
					writes += ops["write"]
				}
				if writes == 0 {
					t.Fatal("no session write recorded: the session checks had no material")
				}
			}
		})
	}
}

// crossWirePlan cross-wires two shards' broadcast apply loops inside the
// store (deliveries for one shard are injected into its pair).
func crossWirePlan() chaos.Plan {
	return chaos.Plan{
		Class: "orset", Nodes: 4, Ops: 120, Seed: 61,
		ShardMix:        2,
		CrossWireShards: true,
	}
}

// TestCrossWireMutationCaught is the harness's negative control: the
// per-shard checker must flag the cross-wired leakage. Globally unique tags
// guarantee a wired-in call can never masquerade as one of the victim
// shard's own issues.
func TestCrossWireMutationCaught(t *testing.T) {
	plan := crossWirePlan()
	res := mustRun(t, plan)
	if res.Conforms() {
		t.Fatal("cross-wired apply loops conformed — the per-shard checker is blind to shard leakage")
	}
	caught := false
	for _, rep := range res.Shards {
		caught = caught || hasCheck(rep, "identity")
	}
	if !caught || !hasCheck(res.Report, "identity") {
		t.Fatalf("no identity violation; leakage was flagged for the wrong reason:\n%s", res)
	}

	// The identical plan without the mutation conforms: the violations
	// above are caused by the cross-wiring, not by sharding itself.
	plan.CrossWireShards = false
	if clean := mustRun(t, plan); !clean.Conforms() {
		t.Fatalf("un-mutated control does not conform:\n%s", clean)
	}
}

// TestShrinkShardedPlan: Shrink goes through Run, so it works on sharded
// plans — the shrunk cross-wire plan must fail for the same reason.
func TestShrinkShardedPlan(t *testing.T) {
	plan := crossWirePlan()
	min := Shrink(plan, chaos.Options{})
	if min.ShardMix != 2 || !min.CrossWireShards {
		t.Fatalf("shrinking dropped the plan's shape: %+v", min)
	}
	if min.Ops >= plan.Ops {
		t.Errorf("shrink kept all %d ops", min.Ops)
	}
	res := mustRun(t, min)
	if res.Conforms() || !hasCheck(res.Report, "identity") {
		t.Fatalf("shrunk plan (%d ops) lost the identity violation:\n%s", min.Ops, res)
	}
}

// sessionOpsByShard counts the recorded session operations per shard key
// and operation.
func sessionOpsByShard(events []trace.Event) map[string]map[string]int {
	ops := make(map[string]map[string]int)
	for _, e := range events {
		if rec, ok := e.Data.(trace.SessionRecord); ok && e.Kind == trace.Session {
			if ops[e.Shard] == nil {
				ops[e.Shard] = make(map[string]int)
			}
			ops[e.Shard][rec.Op]++
		}
	}
	return ops
}

// TestSessionsAcrossShards runs the committed shards × sessions × faults
// plan: sessions are dealt over the shards, every shard must have served
// session writes, reads and switches (the session checker had material
// everywhere), and the history must conform. Its mutation control — the
// same plan with stale reads — must be caught by a session check. At the
// parent commit the sharded runner never started a session and the session
// checker passed on nothing.
func TestSessionsAcrossShards(t *testing.T) {
	plan := chaosCorpusPlan(t, "bankmap-shardmix-sessions-seed1606.json")
	if plan.ShardMix < 4 || plan.Sessions < 4 || len(plan.Events) == 0 {
		t.Fatalf("corpus plan lost its shape: shard_mix=%d sessions=%d events=%d", plan.ShardMix, plan.Sessions, len(plan.Events))
	}
	res := mustRun(t, plan)
	if !res.Verdict.Passed {
		t.Fatalf("chaos probes failed:\n%s", chaos.FormatViolations(res.Verdict))
	}
	if !res.Conforms() {
		t.Fatalf("sharded session run does not conform:\n%s", res)
	}
	ops := sessionOpsByShard(res.Verdict.Trace.Events())
	if len(ops) != plan.ShardMix {
		t.Fatalf("session events on %d shards, want %d: %v", len(ops), plan.ShardMix, ops)
	}
	for key, n := range ops {
		if key == "" || n["write"] == 0 || n["read"] == 0 || n["switch"] == 0 {
			t.Errorf("shard %q served writes=%d reads=%d switches=%d, want each >= 1", key, n["write"], n["read"], n["switch"])
		}
	}

	plan.MutateStaleReads = true
	stale := mustRun(t, plan)
	if stale.Conforms() || !hasCheck(stale.Report, "session-") {
		t.Fatalf("stale-read mutation on a sharded plan not caught by a session check:\n%s", stale)
	}
}
