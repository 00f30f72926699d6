package bench

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"sort"

	"hamband/internal/crdt"
	"hamband/internal/rdma"
	"hamband/internal/sim"
	"hamband/internal/spec"
	"hamband/internal/store"
)

// shardResult is one keyed-workload measurement: a closed loop of counter
// updates spread over a sharded store by a (possibly skewed) key
// distribution.
type shardResult struct {
	Shards    int     `json:"shards"`
	Skew      float64 `json:"skew"` // zipf s parameter; 0 = uniform
	Ops       int     `json:"ops"`
	MakespanU float64 `json:"makespan_us"`
	OpsPerUs  float64 `json:"ops_per_us"`

	// Response times of the completed calls, Invoke to callback.
	MeanRTUs float64 `json:"mean_rt_us"`
	P50Us    float64 `json:"p50_us"`
	P95Us    float64 `json:"p95_us"`
	P99Us    float64 `json:"p99_us"`

	PerShard []int `json:"per_shard_ops"` // completed ops by shard index

	// Doorbell accounting on the shared per-peer QPs.
	Writes      uint64 `json:"writes"`       // fabric: RDMA writes posted
	Chains      uint64 `json:"chains"`       // fabric: multi-WR doorbells
	ChainedWRs  uint64 `json:"chained_wrs"`  // fabric: WRs that rode one
	CrossChains uint64 `json:"cross_chains"` // coalescer: chains mixing shards
	CrossWRs    uint64 `json:"cross_wrs"`    // coalescer: WRs in mixed chains

	UsedBytes int `json:"used_bytes"` // per-node arena bytes for all shards
}

// hotKeys returns the k busiest shard indices, busiest first.
func (r shardResult) hotKeys(k int) []int {
	idx := make([]int, len(r.PerShard))
	for i := range idx {
		idx[i] = i
	}
	sort.Slice(idx, func(a, b int) bool { return r.PerShard[idx[a]] > r.PerShard[idx[b]] })
	if k > len(idx) {
		k = len(idx)
	}
	return idx[:k]
}

// shardPoint runs one keyed closed-loop point: nodes×depth outstanding
// CounterAdd calls, each picking its shard from the skew distribution. idle
// more shards are opened and never called.
func (cfg Config) shardPoint(shards, idle, nodes, ops int, skew float64) shardResult {
	eng := sim.NewEngine(cfg.Seed)
	fab := rdma.NewFabric(eng, nodes, rdma.DefaultLatency())
	st := store.New(fab, store.DefaultOptions())
	defer st.Stop()

	an := spec.MustAnalyze(crdt.NewCounter())
	keys := make([]string, shards+idle)
	for i := range keys {
		keys[i] = fmt.Sprintf("obj%03d", i)
		if _, err := st.Open(keys[i], an, store.ShardOptions{}); err != nil {
			panic(fmt.Sprintf("bench: open shard: %v", err))
		}
	}

	rng := rand.New(rand.NewSource(cfg.Seed + 7))
	var zipf *rand.Zipf
	if skew > 1 {
		zipf = rand.NewZipf(rng, skew, 1, uint64(shards-1))
	}
	pick := func() int {
		if zipf != nil {
			return int(zipf.Uint64())
		}
		return rng.Intn(shards)
	}

	res := shardResult{Shards: shards, Skew: skew, Ops: ops, PerShard: make([]int, shards)}
	issued, done := 0, 0
	rts := make([]sim.Duration, 0, ops)
	var rtTotal sim.Duration
	var issue func(p spec.ProcID)
	issue = func(p spec.ProcID) {
		if issued >= ops {
			return
		}
		issued++
		si, start := pick(), eng.Now()
		st.Invoke(keys[si], p, crdt.CounterAdd, spec.ArgsI(1), func(_ any, err error) {
			done++
			rts = append(rts, sim.Duration(eng.Now()-start))
			rtTotal += rts[len(rts)-1]
			if err == nil {
				res.PerShard[si]++
			}
			issue(p)
		})
	}
	const depth = 4 // outstanding calls per node
	eng.At(eng.Now(), func() {
		for p := 0; p < nodes; p++ {
			for s := 0; s < depth; s++ {
				issue(spec.ProcID(p))
			}
		}
	})
	deadline := eng.Now() + sim.Time(Deadline)
	for done < ops && eng.Now() < deadline {
		eng.RunFor(100 * sim.Microsecond)
	}

	res.MakespanU = sim.Duration(eng.Now()).Micros()
	if res.MakespanU > 0 {
		res.OpsPerUs = float64(done) / res.MakespanU
	}
	if done > 0 {
		res.MeanRTUs = (rtTotal / sim.Duration(done)).Micros()
	}
	res.P50Us, res.P95Us, res.P99Us = percentile(rts, 50).Micros(), percentile(rts, 95).Micros(), percentile(rts, 99).Micros()
	fs := fab.Stats()
	res.Writes, res.Chains, res.ChainedWRs = fs.Writes, fs.Chains, fs.ChainedWRs
	for n := 0; n < nodes; n++ {
		cs := st.Coalescer(n).Stats()
		res.CrossChains += cs.CrossChains
		res.CrossWRs += cs.CrossWRs
	}
	res.UsedBytes, _ = st.Budget(0)
	return res
}

// Shard regenerates the sharded-store experiment: object-count and
// Zipfian-skew sweeps of a keyed counter workload over one node set, with
// per-shard (hot-key) throughput reporting and cross-shard doorbell
// coalescing counts. jsonPath, when non-empty, additionally receives every
// point as JSON.
func (cfg Config) Shard(shards int, jsonPath string) {
	if shards < 2 {
		shards = 16
	}
	nodes := 4
	skews := []float64{0, 1.1, 1.5, 2.5}
	counts := []int{shards / 4, shards / 2, shards}
	if counts[0] < 2 {
		counts[0] = 2
	}

	var all []shardResult
	cfg.printf("Sharded store — keyed counter workload, %d nodes, %d ops/point\n", nodes, cfg.Ops)
	cfg.printf("%-7s %6s %9s %10s %11s %11s %9s\n",
		"shards", "skew", "ops/µs", "chains", "chainedWRs", "crossChains", "crossWRs")
	for _, sc := range counts {
		for _, skew := range skews {
			r := cfg.shardPoint(sc, 0, nodes, cfg.Ops, skew)
			all = append(all, r)
			cfg.printf("%-7d %6s %9.2f %10d %11d %11d %9d\n",
				sc, skewName(skew), r.OpsPerUs, r.Chains, r.ChainedWRs, r.CrossChains, r.CrossWRs)
		}
	}

	cfg.printf("\nHot keys — per-shard share of completed ops (%d shards)\n", shards)
	cfg.printf("%-6s %28s %10s\n", "skew", "top-3 shards (ops)", "coldest")
	for _, skew := range skews {
		r := all[len(all)-len(skews)+indexOfSkew(skews, skew)]
		hot := r.hotKeys(3)
		cold := r.hotKeys(len(r.PerShard))
		coldest := cold[len(cold)-1]
		cfg.printf("%-6s %28s %10s\n", skewName(skew),
			fmt.Sprintf("#%d:%d #%d:%d #%d:%d", hot[0], r.PerShard[hot[0]], hot[1], r.PerShard[hot[1]], hot[2], r.PerShard[hot[2]]),
			fmt.Sprintf("#%d:%d", coldest, r.PerShard[coldest]))
	}

	shared := all[len(all)-len(skews)+indexOfSkew(skews, 1.5)]
	// Every posted write rings a doorbell unless it rode an earlier WR's chain.
	cfg.printf("\nShared per-peer QP chains (%d shards, skew 1.5): %d doorbells rung for %d writes\n",
		shards, shared.Writes-shared.ChainedWRs, shared.Writes)

	cfg.printf("\nMemory budget — %d shards use %d B/node of the %d B arena\n",
		shards, shared.UsedBytes, store.DefaultOptions().MemoryBudget)

	if jsonPath != "" {
		f, err := os.Create(jsonPath)
		if err != nil {
			cfg.printf("shard: cannot write %s: %v\n", jsonPath, err)
			return
		}
		defer f.Close()
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(all); err != nil {
			cfg.printf("shard: encoding %s: %v\n", jsonPath, err)
			return
		}
		cfg.printf("wrote %d points to %s\n", len(all), jsonPath)
	}
	cfg.printf("\n")
}

func skewName(s float64) string {
	if s == 0 {
		return "unif"
	}
	return fmt.Sprintf("%.1f", s)
}

func indexOfSkew(skews []float64, s float64) int {
	for i, v := range skews {
		if v == s {
			return i
		}
	}
	return 0
}
