package bench

import (
	"io"
	"math"
	"testing"

	"hamband/internal/sim"
)

// TestIdleShardsCostNothing pins what the store's throughput may depend on:
// the calls it serves, not the objects it holds open. A counter shard builds
// no F or L buffers, so nothing polls on its behalf: sixteen open shards with
// every call on one key must run like the one-shard store, and four loaded
// shards like four loaded shards with twelve idle ones beside them (at commit
// 08dadc7 an idle shard cost a 50 ns poll every 2 µs). How the calls spread
// over the shards that are in use does show since commit c6f5281: δ-records
// merge into one write only when two of them for one slot meet in a flush, so
// throughput rises with key locality (uniform 11.76 / 11.19 / 10.95 ops/µs at
// 4 / 8 / 16 shards) and never falls below the unmerged rate of its parent,
// 15bcad2. That floor is a measurement, not a quantum: this harness —
// bench.Run over storeSystem, depth 4, uniform picks seeded 49 — run on
// 15bcad2's tree reads 20 000 calls in 1 870 µs at the replication barrier at
// 4, 8 and 16 shards alike.
func TestIdleShardsCostNothing(t *testing.T) {
	cfg := Config{Ops: DefaultOps, Seed: 42, Out: io.Discard}
	within1pct := func(what string, got, want float64) {
		t.Helper()
		if math.Abs(got-want) > 0.01*want {
			t.Errorf("%s: %.3f ops/µs, want within 1%% of %.3f", what, got, want)
		}
	}
	const oneKey = 64 // Zipf s so steep that key 0 draws every call
	one := cfg.shardPoint(1, 0, 4, cfg.Ops, 0)
	hot := cfg.shardPoint(16, 0, 4, cfg.Ops, oneKey)
	if hot.perShard[0] != cfg.Ops {
		t.Fatalf("test premise broken: key 0 served %d of %d calls", hot.perShard[0], cfg.Ops)
	}
	within1pct("16 shards, one key in use, against the 1-shard store", hot.Throughput(), one.Throughput())

	four := cfg.shardPoint(4, 0, 4, cfg.Ops, 0)
	within1pct("4 loaded and 12 idle shards, against 4 shards", cfg.shardPoint(4, 12, 4, cfg.Ops, 0).Throughput(), four.Throughput())

	unmerged := float64(cfg.Ops) / 1870 // 15bcad2 at the barrier, at every shard count
	for _, shards := range []int{8, 16} {
		if got := cfg.shardPoint(shards, 0, 4, cfg.Ops, 0).Throughput(); got < unmerged-1e-9 {
			t.Errorf("uniform keys over %d shards: %.3f ops/µs, below the unmerged %.3f", shards, got, unmerged)
		}
	}
}

// TestShardPointsEndAtTheBarrier: the snapshot's two store points are
// measured like every figure point — by the driver, at the replication
// barrier its probe checks every 2 µs — so they read 20 000 calls over an
// exact makespan (1 826 and 1 692 µs at seed 42). The store's own loop used to
// step the engine 100 µs at a time and stop at the first step after the last
// callback, so its points read 20 000 / (k·100 µs): 10.526 (k = 19) uniform
// and 11.765 (k = 17) at Zipf 1.5, a staircase with about 5 % steps.
func TestShardPointsEndAtTheBarrier(t *testing.T) {
	cfg := Config{Ops: DefaultOps, Seed: 42, Out: io.Discard}
	for _, skew := range []float64{0, 1.5} {
		r := cfg.shardPoint(16, 0, 4, cfg.Ops, skew)
		what := shardExperiment(skew)
		if r.TimedOut || r.Completed != cfg.Ops {
			t.Fatalf("%s: completed %d/%d, timed out %v", what, r.Completed, cfg.Ops, r.TimedOut)
		}
		if r.Makespan%(2*sim.Microsecond) != 0 || r.Makespan%(100*sim.Microsecond) == 0 {
			t.Errorf("%s: makespan %v, want a 2 µs probe instant that is not a 100 µs step", what, r.Makespan)
		}
		served := 0
		for _, n := range r.perShard {
			served += n
		}
		if served != cfg.Ops {
			t.Errorf("%s: the shards' applied maps hold %d updates, want %d", what, served, cfg.Ops)
		}
	}
}
