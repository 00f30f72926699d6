package bench

import (
	"fmt"
	"math/rand"

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

// runStore runs one keyed point through the closed-loop driver: depth calls
// of cls outstanding per node (0: DefaultConcurrency), each on the shard the skew distribution picks
// among shards (0: uniform, above 1: Zipf), with idle more shards open and
// never called. Like every point it ends at the replication barrier.
func (cfg Config) runStore(cls *spec.Class, shards, idle, nodes, ops int, ratio float64, depth int, skew float64) (*Result, *storeSystem) {
	eng := sim.NewEngine(cfg.Seed)
	an := spec.MustAnalyze(cls)
	rng := rand.New(rand.NewSource(cfg.Seed + 7))
	pick := func() int { return rng.Intn(shards) }
	if skew > 1 {
		pick = zipfPick(rng, skew, shards)
	}
	sys, err := newStoreSystem(rdma.NewFabric(eng, nodes, rdma.DefaultLatency()), an, shards, idle, pick)
	if err != nil {
		panic(fmt.Sprintf("bench: open shard: %v", err))
	}
	wl := NewWorkload(an, nodes, ops, ratio, cfg.Seed+1)
	if depth > 0 {
		wl.Concurrency = depth
	}
	return Run(eng, sys, wl), sys
}
