package main

import (
	"fmt"
	"math/rand"

	"hamband/internal/core"
	"hamband/internal/crdt"
	"hamband/internal/metrics"
	"hamband/internal/rdma"
	"hamband/internal/schema"
	"hamband/internal/sim"
	"hamband/internal/spec"
	"hamband/internal/store"
	"hamband/internal/trace"
)

const (
	nodes = 4
	// depth is the closed-loop window per node, as in the paper's setup.
	depth = 8
	// arrivalGap spaces the open loop's arrivals: one every 500 ns
	// round-robin over the nodes, so each node has one due every 2 µs and
	// the offered load is 2 ops/µs.
	arrivalGap = 500 * sim.Nanosecond
)

// workload is one named benchmark input. ops is the size of a timed rep
// and traceOps the size of the untraced/traced pair behind the per-layer
// metrics; both are fixed so virtual metrics stay comparable across runs.
type workload struct {
	name, why     string
	ops, traceOps int
	updateRatio   float64
	class         func() *spec.Class
	shards        int  // 0: one object on core.NewCluster; n > 0: store with n shards
	open          bool // open loop with the group-0 leader suspended a third of the way in
}

// workloads lists the six inputs. A timed rep is 0.6 of the issue's ops, its
// own fallback for steadier medians: one to three seconds on the 2-core
// sandbox, so -seconds 10 fits four to nine reps (see README, "How the
// sandbox was sized"). trace_ops is the issue's.
var workloads = []workload{
	{
		name: "reduce-counter", ops: 360000, traceOps: 50000, updateRatio: 0.25, class: crdt.NewCounter,
		why: "REDUCE path, read-mostly (Fig. 8 point): local queries plus one fixed-size slot write per update; sim and rdma bookkeeping dominate host cost",
	},
	{
		name: "reduce-gset-write", ops: 4800, traceOps: 4000, updateRatio: 1, class: crdt.NewGSet,
		why: "REDUCE path, write-only with set-valued summaries and delta frames; crdt Summarize and the core delta path dominate (the 500 us/op host hotspot)",
	},
	{
		name: "buffer-orset", ops: 90000, traceOps: 30000, updateRatio: 0.25, class: crdt.NewORSet,
		why: "FREE path (Fig. 9 point): codec entry frames, ring writer, broadcast pump, CRC poll, dependency-gated apply; Mu stays idle",
	},
	{
		name: "conflict-movie", ops: 120000, traceOps: 30000, updateRatio: 1, class: schema.NewMovie,
		why: "CONF path (Fig. 10 point): two sync groups, each mu Submit, log replication, commit, deliver; most engine events and allocations per op",
	},
	{
		name: "failover-courseware", ops: 36000, traceOps: 20000, updateRatio: 0.5, class: schema.NewCourseware, open: true,
		why: "all three categories under a leader fault, open loop at 2 ops/us; heartbeat detection plus mu election set the failover gap and the tail",
	},
	{
		name: "store-zipf", ops: 60000, traceOps: 20000, updateRatio: 0.5, class: crdt.NewCounter, shards: 16,
		why: "16 counter shards behind the store directory, Zipf 1.5 keys, half updates half local queries; arena set-up and the cross-shard coalescer are in play",
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// system is the object under test: one cluster per shard on one fabric. A
// single object is the one-shard case built directly on core.NewCluster.
type system struct {
	eng      *sim.Engine
	fab      *rdma.Fabric
	an       *spec.Analysis
	clusters []*core.Cluster
	store    *store.Store // nil for single-object workloads
	keys     []string

	// Set only on a traced build.
	tracer *trace.Tracer
	reg    *metrics.Registry
}

// build constructs the workload's system on a fresh engine; its wall time
// is setup_s. traceLimit > 0 attaches the tracer and the metrics registry.
func (w workload) build(seed int64, traceLimit int) (*system, error) {
	s := &system{eng: sim.NewEngine(seed)}
	s.an = spec.MustAnalyze(w.class())
	s.fab = rdma.NewFabric(s.eng, nodes, rdma.DefaultLatency())
	if traceLimit > 0 {
		s.tracer = trace.New(s.eng, traceLimit)
		s.reg = metrics.New(s.eng)
		s.fab.EnableMetrics(s.reg)
	}
	if w.shards == 0 {
		opts := core.DefaultOptions()
		opts.Tracer, opts.Metrics = s.tracer, s.reg
		s.clusters = []*core.Cluster{core.NewCluster(s.fab, s.an, opts)}
		return s, nil
	}
	so := store.DefaultOptions()
	so.Tracer, so.Core.Metrics = s.tracer, s.reg
	s.store = store.New(s.fab, so)
	for i := 0; i < w.shards; i++ {
		key := fmt.Sprintf("obj%03d", i)
		sh, err := s.store.Open(key, s.an, store.ShardOptions{})
		if err != nil {
			return nil, fmt.Errorf("open %s: %w", key, err)
		}
		s.keys = append(s.keys, key)
		s.clusters = append(s.clusters, sh.Cluster)
	}
	return s, nil
}

// invoke submits c at node p through the public entry points.
func (s *system) invoke(p spec.ProcID, c call, done func(any, error)) {
	switch {
	case s.store == nil:
		s.clusters[0].Replica(p).Invoke(c.method, c.args, done)
	case c.query:
		s.store.Query(s.keys[c.shard], p, c.method, c.args, false, done)
	default:
		s.store.Invoke(s.keys[c.shard], p, c.method, c.args, done)
	}
}

func (s *system) stop() {
	if s.store != nil {
		s.store.Stop()
		return
	}
	s.clusters[0].Stop()
}

// call is one generated request.
type call struct {
	shard  int
	method spec.MethodID
	args   spec.Args
	query  bool
}

// generator produces a workload's call stream from its seed alone. Update
// calls are uniform over the class's update methods, queries over its query
// methods; arguments come from a 512-key space (256 for the schemas) so
// summaries stay bounded and guarded calls are mostly permissible.
type generator struct {
	w       workload
	class   string
	rng     *rand.Rand
	zipf    *rand.Zipf
	updates []spec.MethodID
	queries []spec.MethodID
	tagSeq  uint64
	tags    []int64 // recently added OR-set tags, for observed removes
}

const keySpace = 512

func newGenerator(w workload, cls *spec.Class, seed int64) *generator {
	g := &generator{
		w:       w,
		class:   cls.Name,
		rng:     rand.New(rand.NewSource(seed)),
		updates: cls.UpdateMethods(),
		queries: cls.QueryMethods(),
	}
	if w.shards > 1 {
		g.zipf = rand.NewZipf(g.rng, 1.5, 1, uint64(w.shards-1))
	}
	return g
}

func (g *generator) key() int64 { return int64(g.rng.Intn(keySpace)) }

// next returns the next call for origin node p.
func (g *generator) next(p spec.ProcID) call {
	var c call
	if len(g.queries) == 0 || g.rng.Float64() < g.w.updateRatio {
		c.method = g.updates[g.rng.Intn(len(g.updates))]
	} else {
		c.method = g.queries[g.rng.Intn(len(g.queries))]
		c.query = true
	}
	c.args = g.args(p, c.method)
	if g.zipf != nil {
		c.shard = int(g.zipf.Uint64())
	}
	return c
}

func (g *generator) args(p spec.ProcID, u spec.MethodID) spec.Args {
	switch g.class {
	case "counter":
		if u == crdt.CounterAdd {
			return spec.ArgsI(int64(g.rng.Intn(100) - 50))
		}
		return spec.Args{}
	case "gset":
		elems := make([]int64, 1+g.rng.Intn(3))
		for i := range elems {
			elems[i] = g.key()
		}
		return spec.Args{I: elems}
	case "orset":
		switch u {
		case crdt.ORSetAdd:
			tag := g.freshTag(p)
			return spec.ArgsI(g.key(), tag)
		case crdt.ORSetRemove:
			return spec.Args{I: append([]int64{g.key()}, g.observedTags()...)}
		default:
			return spec.ArgsI(g.key())
		}
	case "movie":
		return spec.ArgsI(g.key() % 256)
	case "courseware":
		switch u {
		case schema.RefAddLeft, schema.RefDelLeft, schema.RefHasLeft:
			return spec.ArgsI(g.key() % 256)
		case schema.RefLink:
			return spec.ArgsI(g.key()%256, g.key()%256)
		case schema.RefAddRight:
			es := make([]int64, 1+g.rng.Intn(3))
			for i := range es {
				es[i] = g.key() % 256
			}
			return spec.Args{I: es}
		default:
			return spec.Args{}
		}
	}
	panic("benchmark: no argument generator for class " + g.class)
}

// freshTag mints a globally unique OR-set tag and remembers it for removes.
func (g *generator) freshTag(p spec.ProcID) int64 {
	g.tagSeq++
	tag := crdt.Tag(p, g.tagSeq)
	if len(g.tags) < 4096 {
		g.tags = append(g.tags, tag)
	} else {
		g.tags[g.rng.Intn(len(g.tags))] = tag
	}
	return tag
}

// observedTags picks one or two minted tags (a remove that observed them);
// before any add it mints a phantom tag, which removes nothing.
func (g *generator) observedTags() []int64 {
	if len(g.tags) == 0 {
		g.tagSeq++
		return []int64{crdt.Tag(0, g.tagSeq)}
	}
	out := make([]int64, 1+g.rng.Intn(2))
	for i := range out {
		out[i] = g.tags[g.rng.Intn(len(g.tags))]
	}
	return out
}
