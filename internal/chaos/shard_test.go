package chaos

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"hamband/internal/sim"
)

func TestGenerateShardedDeterministicAndValid(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		a := GenerateSharded("orset", 4, 100, seed, 4)
		b := GenerateSharded("orset", 4, 100, seed, 4)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("seed %d: GenerateSharded not deterministic", seed)
		}
		if a.ShardMix != 4 {
			t.Fatalf("seed %d: shard_mix = %d", seed, a.ShardMix)
		}
		if err := a.Validate(); err != nil {
			t.Fatalf("seed %d: invalid plan: %v", seed, err)
		}
		// The fault schedule must be the single-object one: shardmix only
		// redirects the workload, it does not perturb corpus generation.
		single := Generate("orset", 4, 100, seed)
		if !reflect.DeepEqual(a.Events, single.Events) {
			t.Fatalf("seed %d: sharded generation changed the fault schedule", seed)
		}
	}
}

func TestShardMixValidation(t *testing.T) {
	bad := []Plan{
		{Class: "counter", Nodes: 4, Ops: 10, ShardMix: 1},
		{Class: "counter", Nodes: 4, Ops: 10, ShardMix: -3},
		{Class: "counter", Nodes: 4, Ops: 10, ShardMix: 33},
		{Class: "counter", Nodes: 4, Ops: 10, Mutants: []string{"cross-wire"}},
		{Class: "counter", Nodes: 4, Ops: 10, DeltaLogBytes: -1},
		{Class: "counter", Nodes: 4, Ops: 10, DeltaLogBytes: 63},
		{Class: "counter", Nodes: 4, Ops: 10, DeltaLogBytes: 8193},
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("plan %d validated but is invalid", i)
		}
	}
}

func TestShardMixReproducible(t *testing.T) {
	plan := GenerateSharded("counter", 4, 100, 21, 4)
	a := mustRun(t, plan, Options{})
	b := mustRun(t, plan, Options{})
	if a.TraceHash != b.TraceHash {
		t.Fatalf("sharded trace hashes differ: %016x vs %016x", a.TraceHash, b.TraceHash)
	}
	if !reflect.DeepEqual(a.ShardAcked, b.ShardAcked) {
		t.Fatalf("per-shard ack counts differ: %v vs %v", a.ShardAcked, b.ShardAcked)
	}
}

// TestShardMixConverges is the sharded acceptance sweep: generated fault
// plans across the three method categories must pass every per-shard probe
// with the workload spread over 4 shards.
func TestShardMixConverges(t *testing.T) {
	for _, class := range []string{"counter", "orset", "account"} {
		class := class
		t.Run(class, func(t *testing.T) {
			v := mustRun(t, GenerateSharded(class, 4, 120, 31, 4), Options{})
			assertPassed(t, v)
			for si, acked := range v.ShardAcked {
				if acked == 0 {
					t.Errorf("shard %d acked nothing — workload never spread there", si)
				}
			}
		})
	}
}

// faultOneShardPlan kills the Mu leader of shard s00's only sync group and
// never heals. With recovery disabled, s00's conflicting calls can never
// be ordered; its three siblings share the same node set and must keep
// acking and converging regardless.
func faultOneShardPlan(disableRecovery bool) Plan {
	p := Plan{
		Class: "account", Nodes: 4, Ops: 160, Seed: 41,
		ShardMix:    4,
		NoFinalHeal: true,
		Events: []Event{
			{At: sim.Time(200 * sim.Microsecond), Kind: KindLeaderKill, Group: 0},
		},
	}
	if disableRecovery {
		p.Mutants = []string{"no-recovery"}
	}
	return p
}

// TestShardFaultIsolation is the cross-shard stall-isolation probe: a
// fault wedging one shard must produce a verdict naming only that shard,
// with every sibling still acking, quiescent and convergent.
func TestShardFaultIsolation(t *testing.T) {
	opts := Options{DrainDeadline: 10 * sim.Millisecond}

	broken := mustRun(t, faultOneShardPlan(true), opts)
	if broken.Passed {
		t.Fatal("recovery-disabled store passed a leader-kill plan — per-shard probes are blind")
	}
	for _, v := range broken.Violations {
		if v.Probe != "quiescence" {
			t.Fatalf("unexpected violation kind %q: %s", v.Probe, v.Detail)
		}
		if !strings.Contains(v.Detail, "s00") {
			t.Fatalf("quiescence violation does not name the wedged shard: %s", v.Detail)
		}
		for _, sibling := range []string{"s01", "s02", "s03"} {
			if strings.Contains(v.Detail, sibling) {
				t.Fatalf("sibling %s reported stalled — the wedged shard leaked: %s", sibling, v.Detail)
			}
		}
	}
	for si := 1; si < 4; si++ {
		if broken.ShardAcked[si] == 0 {
			t.Errorf("sibling shard %d acked nothing while s00 was wedged", si)
		}
	}

	// The identical fault schedule passes once recovery is enabled: the
	// shard-private Mu group elects a successor.
	assertPassed(t, mustRun(t, faultOneShardPlan(false), opts))
}

// TestFabricRegistry: chaos.Run attaches its registry to the fabric and
// leaves core.Options.Metrics unset, so every layer must find the registry
// there, on one cluster and across a store's shards — the nodes' failure
// detection included, which the first shard starts. The leader kill must
// show as a suspicion.
func TestFabricRegistry(t *testing.T) {
	for _, tc := range []struct {
		class    string
		counters []string
	}{
		{"account", []string{"heartbeat.suspicions"}},
		{"bankmap", []string{"core.applied", "broadcast.delivered", "mu.commit_records", "heartbeat.suspicions"}},
	} {
		for _, mix := range []int{0, 4} {
			p := faultOneShardPlan(false)
			p.Class, p.ShardMix = tc.class, mix
			v := mustRun(t, p, Options{EnableMetrics: true, DrainDeadline: 10 * sim.Millisecond})
			assertPassed(t, v)
			snap := v.Metrics.Snapshot()
			for _, name := range tc.counters {
				if n, ok := snap.Counters[name]; n == 0 {
					t.Errorf("%s, shard_mix %d: counter %s = 0 (registered: %v)", tc.class, mix, name, ok)
				}
			}
		}
	}
}

// TestCorpusShardLap replays the corpus plan whose four counter shards share
// each writer's 64-byte δ-log while node 2 sleeps for 600 µs: the writers
// fill many passes of their logs over records node 2 never read, and it must
// catch up through fetches and pass, checked.
func TestCorpusShardLap(t *testing.T) {
	p := readCorpusPlan(t, filepath.Join("testdata", "chaos", "counter-shardmix-lap-seed2200.json"))
	if p.ShardMix != 4 || p.DeltaLogBytes != 64 {
		t.Fatalf("plan has shard_mix %d and a %d-byte δ-log, want 4 shards on a 64-byte one", p.ShardMix, p.DeltaLogBytes)
	}
	v := mustRun(t, p, Options{EnableMetrics: true}.Checked())
	assertPassed(t, v)
	if fetches := v.Metrics.Counter("core.gap_fetches").Value(); fetches == 0 {
		t.Fatal("no gap fetch: the sleeping node was never lapped")
	}
}
