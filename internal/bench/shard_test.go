package bench

import (
	"io"
	"math"
	"testing"

	"hamband/internal/crdt"
	"hamband/internal/sim"
)

// counterStore runs a keyed counter point like the shard figure's (updates
// only, four calls outstanding per node) and returns its result and the
// updates each loaded shard applied at p0.
func counterStore(cfg Config, shards, idle int, skew float64) (*Result, []int) {
	r, sys := cfg.runStore(crdt.NewCounter(), shards, idle, 4, cfg.Ops, 1, 4, skew)
	return r, appliedPerShard(sys)
}

func appliedPerShard(sys *storeSystem) (per []int) {
	for _, key := range sys.keys {
		n := 0
		for _, counts := range sys.st.Shard(key).Replica(0).Applied() {
			for _, c := range counts {
				n += int(c)
			}
		}
		per = append(per, n)
	}
	return per
}

// TestIdleShardsCostNothing pins what the store's throughput may depend on:
// the calls it serves, not the objects it holds open. A counter shard builds
// no F or L buffers, so nothing polls on its behalf: sixteen open shards with
// every call on one key must run like the one-shard store, and four loaded
// shards like four loaded shards with twelve idle ones beside them (at commit
// 08dadc7 an idle shard cost a 50 ns poll every 2 µs). How the calls spread
// over the shards that are in use showed from commit c6f5281, when δ-records
// merged into one write only when two of them for one slot met in a flush,
// until every object's records to a peer shared one δ-log per node: uniform
// keys now run like Zipf 2.5 ones (18.28 / 18.25 / 18.25 ops/µs at 4 / 8 /
// 16 shards, EXPERIMENTS.md). No point falls below the unmerged rate of
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
	one, _ := counterStore(cfg, 1, 0, 0)
	hot, perShard := counterStore(cfg, 16, 0, oneKey)
	if perShard[0] != cfg.Ops {
		t.Fatalf("test premise broken: key 0 served %d of %d calls", perShard[0], cfg.Ops)
	}
	within1pct("16 shards, one key in use, against the 1-shard store", hot.Throughput(), one.Throughput())

	four, _ := counterStore(cfg, 4, 0, 0)
	fourIdle, _ := counterStore(cfg, 4, 12, 0)
	within1pct("4 loaded and 12 idle shards, against 4 shards", fourIdle.Throughput(), four.Throughput())

	unmerged := float64(cfg.Ops) / 1870 // 15bcad2 at the barrier, at every shard count
	for _, shards := range []int{8, 16} {
		if r, _ := counterStore(cfg, shards, 0, 0); r.Throughput() < unmerged-1e-9 {
			t.Errorf("uniform keys over %d shards: %.3f ops/µs, below the unmerged %.3f", shards, r.Throughput(), unmerged)
		}
	}
}

// TestShardPointsEndAtTheBarrier: the shard figure's 16-shard points are
// measured like every figure point — by the driver, at the replication
// barrier its probe checks every 2 µs — so they read 20 000 calls over an
// exact makespan (1 520 µs uniform and 1 424 µs at Zipf 1.5, seed 42), and
// the shards' applied counts sum to the calls. The store's own loop used to
// step the engine 100 µs at a time and stop at the first step after the last
// callback, so its points read 20 000 / (k·100 µs), a staircase with about
// 5 % steps.
func TestShardPointsEndAtTheBarrier(t *testing.T) {
	cfg := Config{Ops: DefaultOps, Seed: 42, Out: io.Discard}
	f := figureNamed("shard")
	for _, c := range f.cells(len(f.panels)-1, false) {
		r, sys := cfg.runCell(c, 0)
		what := c.exp() + " " + c.class
		if r.TimedOut || r.Completed != cfg.Ops {
			t.Fatalf("%s: completed %d/%d, timed out %v", what, r.Completed, cfg.Ops, r.TimedOut)
		}
		if r.Makespan%(2*sim.Microsecond) != 0 || r.Makespan%(100*sim.Microsecond) == 0 {
			t.Errorf("%s: makespan %v, want a 2 µs probe instant that is not a 100 µs step", what, r.Makespan)
		}
		served := 0
		for _, n := range appliedPerShard(sys.(*storeSystem)) {
			served += n
		}
		if served != cfg.Ops {
			t.Errorf("%s: the shards' applied maps hold %d updates, want %d", what, served, cfg.Ops)
		}
	}
}

// TestFaultFreeStoreReadsNoTornRecord: in a fault-free store run, no walk of
// a node's δ-log takes what lies behind a writer's cursor — the bytes of an
// older pass, at other offsets — for a torn record. Each such look would
// count a torn reject and leave every slot of that writer stuck, toward a
// fetch of them all. Sixteen counter shards at Zipf 1.5, 60 000 calls, seed
// 42: without the writer's zero length word behind a record whose next bytes
// read as torn (nodeLog.terminate), two looks are torn.
func TestFaultFreeStoreReadsNoTornRecord(t *testing.T) {
	cfg := Config{Ops: 60000, Seed: 42, Out: io.Discard}
	_, sys := cfg.runStore(crdt.NewCounter(), 16, 0, 4, cfg.Ops, 1, 4, 1.5)
	for _, key := range sys.keys {
		for _, r := range sys.st.Shard(key).Cluster.Replicas {
			if n := r.TornRejects(); n != 0 {
				t.Errorf("shard %s: %d torn rejects in a fault-free run", key, n)
			}
		}
	}
}
