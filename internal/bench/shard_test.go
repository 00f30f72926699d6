package bench

import (
	"io"
	"math"
	"testing"
)

// TestIdleShardsCostNothing pins what the store's throughput may depend on:
// the calls it serves, not the objects it holds open. A counter shard builds
// no F or L buffers, so nothing polls on its behalf: sixteen open shards with
// every call on one key must run like the one-shard store, and four loaded
// shards like four loaded shards with twelve idle ones beside them (at commit
// 08dadc7 an idle shard cost a 50 ns poll every 2 µs, and the uniform points
// read 9.52 / 8.33 / 6.25 ops/µs at 4 / 8 / 16 shards). How the calls spread
// over the shards that are in use does show since PR 19: δ-records merge into
// one write only when two of them for one slot meet in a flush, so throughput
// rises with key locality (uniform 11.76 / 11.11 / 10.53 ops/µs at 4 / 8 / 16
// shards) and never falls below the unmerged 10.53 every point read at PR 18.
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
	if hot.PerShard[0] != cfg.Ops {
		t.Fatalf("test premise broken: key 0 served %d of %d calls", hot.PerShard[0], cfg.Ops)
	}
	within1pct("16 shards, one key in use, against the 1-shard store", hot.OpsPerUs, one.OpsPerUs)

	four := cfg.shardPoint(4, 0, 4, cfg.Ops, 0)
	within1pct("4 loaded and 12 idle shards, against 4 shards", cfg.shardPoint(4, 12, 4, cfg.Ops, 0).OpsPerUs, four.OpsPerUs)

	unmerged := float64(cfg.Ops) / 1900 // PR 18: 20 000 calls in 1 900 µs at every shard count
	for _, shards := range []int{8, 16} {
		if got := cfg.shardPoint(shards, 0, 4, cfg.Ops, 0).OpsPerUs; got < unmerged-1e-9 {
			t.Errorf("uniform keys over %d shards: %.3f ops/µs, below the unmerged %.3f", shards, got, unmerged)
		}
	}
}
