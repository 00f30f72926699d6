package bench

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"

	"hamband/internal/crdt"
	"hamband/internal/rdma"
	"hamband/internal/sim"
	"hamband/internal/spec"
	"hamband/internal/store"
)

// storeSystem drives a sharded store through the closed-loop driver: every
// call goes to the loaded shard whose index pick draws. Idle shards are open
// beside them and never called.
type storeSystem struct {
	st   *store.Store
	keys []string // the loaded shards
	pick func() int
}

// newStoreSystem opens loaded+idle shards of an, named obj000, obj001, …, on
// a store over fab; pick draws indices in [0, loaded).
func newStoreSystem(fab *rdma.Fabric, an *spec.Analysis, loaded, idle int, pick func() int) (*storeSystem, error) {
	s := &storeSystem{st: store.New(fab, store.DefaultOptions()), pick: pick}
	for i := 0; i < loaded+idle; i++ {
		key := fmt.Sprintf("obj%03d", i)
		if _, err := s.st.Open(key, an, store.ShardOptions{}); err != nil {
			s.st.Stop()
			return nil, err
		}
		if i < loaded {
			s.keys = append(s.keys, key)
		}
	}
	return s, nil
}

// zipfPick draws indices in [0, n) from a Zipf distribution of parameter s
// over rng.
func zipfPick(rng *rand.Rand, s float64, n int) func() int {
	z := rand.NewZipf(rng, s, 1, uint64(n-1))
	return func() int { return int(z.Uint64()) }
}

func (s *storeSystem) Name() string { return "Hamband store" }
func (s *storeSystem) Invoke(p spec.ProcID, u spec.MethodID, a spec.Args, cb func(any, error)) {
	s.st.Invoke(s.keys[s.pick()], p, u, a, cb)
}

// Applied sums the shards' applied maps: the driver's barrier compares it
// with the updates accepted over all keys, and no shard can apply more than
// it accepted.
func (s *storeSystem) Applied(p spec.ProcID) spec.AppliedMap {
	var sum spec.AppliedMap
	for _, key := range s.keys {
		a := s.st.Shard(key).Replica(p).Applied()
		if sum == nil {
			sum = a.Clone()
			continue
		}
		for q := range a {
			for u, n := range a[q] {
				sum[q][u] += n
			}
		}
	}
	return sum
}
func (s *storeSystem) Down(p spec.ProcID) bool { return s.st.Fabric().Node(rdma.NodeID(p)).Suspended() }
func (s *storeSystem) Fail(p spec.ProcID)      { s.st.Fabric().Node(rdma.NodeID(p)).Suspend() }
func (s *storeSystem) State(p spec.ProcID) spec.State {
	return s.st.Shard(s.keys[0]).Replica(p).CurrentState()
}
func (s *storeSystem) Size() int { return s.st.Fabric().Size() }

// shardRun is one keyed-workload point: the driver's result over a sharded
// store, plus what the store's shared resources recorded.
type shardRun struct {
	*Result
	perShard              []int      // updates applied at p0, by loaded shard
	verbs                 rdma.Stats // fabric-wide verb counters
	crossChains, crossWRs uint64     // coalescers: chains mixing shards, their WRs
	usedBytes             int        // per-node arena bytes of all shards
}

// shardPoint runs one keyed point through the closed-loop driver: four
// CounterAdd calls outstanding per node, each on the shard the skew
// distribution picks (0: uniform), with idle more shards open and never
// called. Like every point it ends at the replication barrier.
func (cfg Config) shardPoint(shards, idle, nodes, ops int, skew float64) shardRun {
	eng := sim.NewEngine(cfg.Seed)
	fab := rdma.NewFabric(eng, nodes, rdma.DefaultLatency())
	an := spec.MustAnalyze(crdt.NewCounter())
	rng := rand.New(rand.NewSource(cfg.Seed + 7))
	pick := func() int { return rng.Intn(shards) }
	if skew > 1 {
		pick = zipfPick(rng, skew, shards)
	}
	sys, err := newStoreSystem(fab, an, shards, idle, pick)
	if err != nil {
		panic(fmt.Sprintf("bench: open shard: %v", err))
	}
	defer sys.st.Stop()

	wl := NewWorkload(an, nodes, ops, 1.0, cfg.Seed+1)
	wl.Concurrency = 4
	r := shardRun{Result: Run(eng, sys, wl), verbs: fab.Stats()}
	r.Class = fmt.Sprintf("%s-x%d", r.Class, shards)
	for _, key := range sys.keys {
		n := 0
		for _, counts := range sys.st.Shard(key).Replica(0).Applied() {
			for _, c := range counts {
				n += int(c)
			}
		}
		r.perShard = append(r.perShard, n)
	}
	for n := 0; n < nodes; n++ {
		cs := sys.st.Coalescer(n).Stats()
		r.crossChains += cs.CrossChains
		r.crossWRs += cs.CrossWRs
	}
	r.usedBytes, _ = sys.st.Budget(0)
	return r
}

// hotKeys returns the k busiest shard indices, busiest first.
func (r shardRun) hotKeys(k int) []int {
	idx := make([]int, len(r.perShard))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return r.perShard[idx[a]] > r.perShard[idx[b]] })
	return idx[:min(k, len(idx))]
}

// shardExperiment names a shard point's experiment by its key distribution.
func shardExperiment(skew float64) string {
	if skew == 0 {
		return "shard/uniform"
	}
	return fmt.Sprintf("shard/zipf%.1f", skew)
}

// Shard regenerates the sharded-store experiment: object-count and
// Zipfian-skew sweeps of a keyed counter workload over one node set, with
// per-shard (hot-key) throughput reporting and cross-shard doorbell
// coalescing counts. Its JSON export holds every point.
func (cfg Config) Shard(shards int) {
	if shards < 2 {
		shards = 16
	}
	nodes := 4
	skews := []float64{0, 1.1, 1.5, 2.5}
	counts := slices.Compact([]int{max(shards/4, 2), max(shards/2, 2), shards}) // one row and point per count

	var all []shardRun
	s := Snapshot{Schema: snapshotSchema, Ops: cfg.Ops, Seed: cfg.Seed}
	cfg.printf("Sharded store — keyed counter workload, %d nodes, %d ops/point\n", nodes, cfg.Ops)
	cfg.printf("%-7s %6s %9s %10s %11s %11s %9s\n",
		"shards", "skew", "ops/µs", "chains", "chainedWRs", "crossChains", "crossWRs")
	for _, sc := range counts {
		for _, skew := range skews {
			r := cfg.shardPoint(sc, 0, nodes, cfg.Ops, skew)
			all = append(all, r)
			s.addResult(shardExperiment(skew), Hamband.String(), r.Result)
			cfg.printf("%-7d %6s %9.2f %10d %11d %11d %9d\n",
				sc, skewName(skew), r.Throughput(), r.verbs.Chains, r.verbs.ChainedWRs, r.crossChains, r.crossWRs)
		}
	}

	largest := all[len(all)-len(skews):]
	cfg.printf("\nHot keys — per-shard share of completed ops (%d shards)\n", shards)
	cfg.printf("%-6s %28s %10s\n", "skew", "top-3 shards (ops)", "coldest")
	for i, skew := range skews {
		r := largest[i]
		hot := r.hotKeys(3)
		coldest := r.hotKeys(len(r.perShard))[len(r.perShard)-1]
		cfg.printf("%-6s %28s %10s\n", skewName(skew),
			fmt.Sprintf("#%d:%d #%d:%d #%d:%d", hot[0], r.perShard[hot[0]], hot[1], r.perShard[hot[1]], hot[2], r.perShard[hot[2]]),
			fmt.Sprintf("#%d:%d", coldest, r.perShard[coldest]))
	}

	shared := largest[2] // skew 1.5
	// Every posted write rings a doorbell unless it rode an earlier WR's chain.
	cfg.printf("\nShared per-peer QP chains (%d shards, skew 1.5): %d doorbells rung for %d writes\n",
		shards, shared.verbs.Writes-shared.verbs.ChainedWRs, shared.verbs.Writes)

	cfg.printf("\nMemory budget — %d shards use %d B/node of the %d B arena\n",
		shards, shared.usedBytes, store.DefaultOptions().MemoryBudget)
	cfg.printf("\n")
	cfg.export("shard", s)
}

func skewName(s float64) string {
	if s == 0 {
		return "unif"
	}
	return fmt.Sprintf("%.1f", s)
}
