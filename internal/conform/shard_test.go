package conform_test

import (
	"os"
	"path/filepath"
	"slices"
	"testing"

	"hamband/internal/chaos"
	"hamband/internal/sim"
	"hamband/internal/trace"
)

// chaosCorpusPlan reads one plan of package chaos's committed corpus.
func chaosCorpusPlan(t *testing.T, name string) chaos.Plan {
	t.Helper()
	return readPlan(t, filepath.Join("..", "chaos", "testdata", "chaos", name))
}

// readPlan reads one committed plan file.
func readPlan(t *testing.T, path string) chaos.Plan {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	p, err := chaos.ReadPlan(f)
	if err != nil {
		t.Fatalf("invalid plan %s: %v", path, err)
	}
	return p
}

// TestShardedConformance replays generated sharded fault plans: every
// shard's history must independently pass every check.
func TestShardedConformance(t *testing.T) {
	for _, class := range []string{"counter", "orset", "account"} {
		class := class
		t.Run(class, func(t *testing.T) {
			v := run(t, chaos.GenerateSharded(class, 4, 120, 51, 4), chaos.Options{})
			if len(v.Conform.Shards) != 4 {
				t.Fatalf("checked %d shards, want 4:\n%s", len(v.Conform.Shards), v.Conform)
			}
			if !v.Passed {
				t.Fatalf("sharded run failed:\n%s", chaos.FormatViolations(v))
			}
			for key, rep := range v.Conform.Shards {
				if rep.Calls == 0 {
					t.Errorf("shard %s saw no calls — the split starved it", key)
				}
				if rep.Queries == 0 {
					t.Errorf("shard %s saw no queries — the query check had no material", key)
				}
			}
		})
	}
}

// TestRunChecksCorpusShardMixPerShard is the regression test for a sharded
// plan's merged trace replayed as one object: on the committed four-shard
// corpus plan that produced eight false query violations.
func TestRunChecksCorpusShardMixPerShard(t *testing.T) {
	v := run(t, chaosCorpusPlan(t, "orset-shardmix-seed1400.json"), chaos.Options{})
	if !v.Passed {
		t.Fatalf("corpus shardmix plan fails:\n%s", chaos.FormatViolations(v))
	}
	if len(v.Conform.Shards) != 4 {
		t.Fatalf("checked %d shards, want 4:\n%s", len(v.Conform.Shards), v.Conform)
	}
	if v.Conform.Calls != 120 || v.Conform.Queries == 0 {
		t.Fatalf("merged report lost material: %s", v.Conform)
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
			v := run(t, p, denseBurstOpts)
			if !v.Passed {
				t.Fatalf("dense-burst plan fails:\n%s", chaos.FormatViolations(v))
			}
			if v.Conform.Calls < p.Ops || v.Conform.Queries == 0 {
				t.Fatalf("report lost material: %s", v.Conform)
			}
			if p.Sessions > 0 {
				writes := 0
				for _, ops := range sessionOpsByShard(v.Trace.Events()) {
					writes += ops["write"]
				}
				if writes == 0 {
					t.Fatal("no session write recorded: the session checks had no material")
				}
			}
		})
	}
}

// TestShrinkShardedPlan: the shrinker runs sharded plans like any other —
// the cross-wire plan, shrunk under the explorer's predicate, must still fail
// its history check for the same reason.
func TestShrinkShardedPlan(t *testing.T) {
	plan := crossWirePlan()
	min := chaos.Shrink(plan, chaos.FailsLike(run(t, plan, chaos.Options{}), chaos.Options{}.Checked()))
	if min.ShardMix != 2 || !slices.Equal(min.Mutants, plan.Mutants) {
		t.Fatalf("shrinking dropped the plan's shape: %+v", min)
	}
	if min.Ops >= plan.Ops {
		t.Errorf("shrink kept all %d ops", min.Ops)
	}
	if v := run(t, min, chaos.Options{}); v.Conform.OK() || !hasCheck(v.Conform, "identity") {
		t.Fatalf("shrunk plan (%d ops) lost the identity violation:\n%s", min.Ops, v.Conform)
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
	v := run(t, plan, chaos.Options{})
	if !v.Passed {
		t.Fatalf("sharded session run fails:\n%s", chaos.FormatViolations(v))
	}
	ops := sessionOpsByShard(v.Trace.Events())
	if len(ops) != plan.ShardMix {
		t.Fatalf("session events on %d shards, want %d: %v", len(ops), plan.ShardMix, ops)
	}
	for key, n := range ops {
		if key == "" || n["write"] == 0 || n["read"] == 0 || n["switch"] == 0 {
			t.Errorf("shard %q served writes=%d reads=%d switches=%d, want each >= 1", key, n["write"], n["read"], n["switch"])
		}
	}

	plan.Mutants = []string{"stale-reads"}
	if stale := run(t, plan, chaos.Options{}); stale.Conform.OK() || !hasCheck(stale.Conform, "session-") {
		t.Fatalf("stale-read mutation on a sharded plan not caught by a session check:\n%s", stale.Conform)
	}
}
