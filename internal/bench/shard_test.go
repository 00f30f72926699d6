package bench

import (
	"io"
	"math"
	"testing"
)

// TestIdleShardsCostNothing pins what the store's throughput may depend on:
// the calls it serves, not the objects it holds open. A counter shard builds
// no F or L buffers, so nothing polls on its behalf; sixteen open shards with
// every call on one key must run like the one-shard store, and the uniform
// points must not fall as shards are added (at commit 08dadc7 they read
// 9.52 / 8.33 / 6.25 ops/µs at 4 / 8 / 16 shards: one idle 50 ns poll per
// shard every 2 µs).
func TestIdleShardsCostNothing(t *testing.T) {
	cfg := Config{Ops: DefaultOps, Seed: 42, Out: io.Discard}
	within1pct := func(what string, got, want float64) {
		t.Helper()
		if math.Abs(got-want) > 0.01*want {
			t.Errorf("%s: %.3f ops/µs, want within 1%% of %.3f", what, got, want)
		}
	}
	const oneKey = 64 // Zipf s so steep that key 0 draws every call
	one := cfg.shardPoint(1, 4, cfg.Ops, 0)
	hot := cfg.shardPoint(16, 4, cfg.Ops, oneKey)
	if hot.PerShard[0] != cfg.Ops {
		t.Fatalf("test premise broken: key 0 served %d of %d calls", hot.PerShard[0], cfg.Ops)
	}
	within1pct("16 shards, one key in use, against the 1-shard store", hot.OpsPerUs, one.OpsPerUs)

	four := cfg.shardPoint(4, 4, cfg.Ops, 0)
	for _, shards := range []int{8, 16} {
		within1pct("uniform keys over more shards, against 4 shards", cfg.shardPoint(shards, 4, cfg.Ops, 0).OpsPerUs, four.OpsPerUs)
	}
}
