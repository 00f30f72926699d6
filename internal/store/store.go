// Package store implements a sharded multi-object store: one node hosts N
// independent replicated objects behind a keyed directory, generalizing
// the single-object Hamband deployment (package core) to the many-objects-
// per-node shape a production service actually runs.
//
// Four resources are shared across shards, everything else is per shard:
//
//   - Memory. Each node has ONE registration budget of MemoryBudget bytes
//     (registration is a scarce NIC resource — real deployments register
//     big and sub-allocate); an rdma.Arena carves every shard's rings and
//     summary slots out of it. Admission is the charge: Open builds the
//     shard, then charges every region it registered to each node's arena
//     (rdma.Node.Charge, all or none); a refusal tears the shard down again
//     and Open returns ErrBudget. Close returns the spans.
//   - δ-logs. Every node holds one δ-log per writer node (core.NodeLogRegion),
//     into which every shard's summary records from that writer land at one
//     cursor, each tagged with its slot: a node's records to a peer in one
//     flush are adjacent bytes, one WRITE however many shards wrote them. The
//     first shard with summary slots charges them, once per node.
//   - Queue pairs. All shards on a node post through the node's per-peer RC
//     QPs: their summary writes through its one rdma.Coalescer
//     (Node.Coalescer), so WRs from different shards bound for one peer ride
//     one doorbell — their δ-records one WRITE, anchors chained behind it
//     (CoalesceStats.CrossChains counts such chains) — and
//     their broadcast writes through its one post batch (Node.Batch), so the
//     messages they launch in one CPU round leave as one post item.
//   - Failure handling. One heartbeat thread and one detector per node,
//     services of the node (Node.Subscribe) that every shard's replica
//     subscribes to; a node's shards are suspected and recovered together,
//     as one process, and a closed shard hears no more of it.
//
// The δ-logs, coalescer, post batch and failure detection belong to the node,
// not to the store: a standalone core.Cluster on the same fabric shares them
// too. The store owns only the arenas and the directory.
//
// Per shard: a disjoint region namespace (core.Cluster.Namespace), per-source
// broadcast rings when the class has irreducible conflict-free methods, one
// Mu consensus instance per synchronization group (the paper scopes Mu to
// sync groups; the store scopes it to sync groups × shards), and staggered
// default group leaders so consensus load spreads across nodes instead of
// piling onto node 0.
package store

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"hamband/internal/core"
	"hamband/internal/rdma"
	"hamband/internal/sim"
	"hamband/internal/spec"
	"hamband/internal/trace"
)

// Errors returned by the directory operations.
var (
	// ErrBudget reports that a shard's memory footprint does not fit the
	// node's remaining ring-memory budget.
	ErrBudget = errors.New("store: ring-memory budget exhausted")
	// ErrExists reports an Open of a key that is already open.
	ErrExists = errors.New("store: shard already open")
	// ErrUnknownShard reports an operation on a key that is not open.
	ErrUnknownShard = errors.New("store: no such shard")
)

// Options configures a Store.
type Options struct {
	// MemoryBudget is the per-node byte budget for all shards' rings,
	// summary slots, journals and δ-logs combined (default 16 MiB): the
	// modelled registration, of which only the carved bytes are allocated.
	MemoryBudget int

	// Core is the per-shard cluster option template, typically
	// core.DefaultOptions() adjusted. Shard, Tracer and Leaders are
	// overwritten per shard; everything else applies to every shard alike.
	Core core.Options

	// Tracer, when non-nil, is the root tracer: each shard records through
	// a scoped view stamping its events with the shard key, yielding one
	// merged history that trace.ByShard decomposes.
	Tracer *trace.Tracer
}

// DefaultOptions returns a production-shaped store configuration.
func DefaultOptions() Options {
	return Options{MemoryBudget: 16 << 20, Core: core.DefaultOptions()}
}

// ShardOptions is Open's per-shard argument. It has no fields: every shard
// takes the store's Core template.
type ShardOptions struct{}

// Store is a keyed directory of replicated objects sharing one fabric.
type Store struct {
	mu   sync.Mutex
	fab  *rdma.Fabric
	opts Options

	arenas []*rdma.Arena // per node: the registration budget shards carve from
	logged []bool        // per node: its δ-logs are charged to its arena

	shards  map[string]*Shard
	nOpened int // total Opens ever, for leader staggering
}

// Shard is one replicated object hosted by the store.
type Shard struct {
	Key       string
	Cluster   *core.Cluster
	footprint int
}

// New builds a store over fab: one budgeted arena per node.
func New(fab *rdma.Fabric, opts Options) *Store {
	if opts.MemoryBudget <= 0 {
		opts.MemoryBudget = 16 << 20
	}
	s := &Store{fab: fab, opts: opts, shards: make(map[string]*Shard)}
	// The fabric holds the run's one registry: every shard's layers, and
	// the nodes' failure detection, register their counters there.
	if opts.Core.Metrics != nil {
		fab.EnableMetrics(opts.Core.Metrics)
	}
	if opts.Tracer != nil {
		fab.EnableTracing(opts.Tracer)
	}
	for i := 0; i < fab.Size(); i++ {
		s.arenas = append(s.arenas, rdma.NewArena(opts.MemoryBudget))
	}
	s.logged = make([]bool, fab.Size())
	return s
}

// Footprint returns the per-node memory a shard of the analyzed class
// costs under the given core options: what Open charges for it, measured by
// opening one such shard in a scratch store on a fabric of its own.
func Footprint(an *spec.Analysis, nodes int, o core.Options) int {
	fp, _ := footprints(an, nodes, o)
	return fp
}

// LogFootprint returns the per-node memory the δ-logs of a store of shards
// of the analyzed class cost beside the shards' footprints: what its first
// shard charges for them (Store.LogBytes), 0 for a class without summary
// slots.
func LogFootprint(an *spec.Analysis, nodes int, o core.Options) int {
	_, logs := footprints(an, nodes, o)
	return logs
}

// footprints opens one shard of the class in a scratch store on a fabric of
// its own and returns its footprint and the δ-log bytes it charged.
func footprints(an *spec.Analysis, nodes int, o core.Options) (shard, logs int) {
	o.Tracer, o.Metrics, o.DisableFailureHandling = nil, nil, true
	fab := rdma.NewFabric(sim.NewEngine(0), nodes, rdma.DefaultLatency())
	s := New(fab, Options{MemoryBudget: math.MaxInt, Core: o})
	defer s.Stop()
	sh, err := s.Open("footprint", an, ShardOptions{})
	if err != nil {
		panic(err) // an unbounded budget refuses nothing
	}
	return sh.Footprint(), s.LogBytes(0)
}

// Open admits a new shard under key: it builds the shard's cluster — its
// regions named under the key's namespace, its Mu instances scoped per
// sync group per shard, its traces stamped with the key, its summary writes
// flowing through the nodes' coalescers, its group leaders staggered by
// shard index so consensus load spreads across the nodes — and then charges
// every region the shard registered to each node's arena. A node that cannot
// hold them all refuses: the shard is torn down the way Close tears it down,
// no arena keeps a byte of it, and Open returns ErrBudget. The first shard
// with summary slots also charges the nodes' δ-logs (core.NodeLogRegion),
// which every later shard shares: a shard's footprint does not include them.
func (s *Store) Open(key string, an *spec.Analysis, _ ShardOptions) (*Shard, error) {
	if key == "" || strings.ContainsAny(key, ":,[]") {
		return nil, fmt.Errorf("store: invalid shard key %q (must be non-empty, without ':' ',' '[' ']')", key)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.shards[key]; ok {
		return nil, fmt.Errorf("store: open %q: %w", key, ErrExists)
	}
	n := s.fab.Size()
	co := s.opts.Core
	co.Shard = key
	co.Tracer = s.opts.Tracer.Scoped(key)
	co.Leaders = make([]spec.ProcID, len(an.SyncGroups))
	for g := range co.Leaders {
		co.Leaders[g] = spec.ProcID((g + s.nOpened) % n)
	}

	sh := &Shard{Key: key, Cluster: core.NewCluster(s.fab, an, co)}
	for i, a := range s.arenas {
		node := s.fab.Node(rdma.NodeID(i))
		if s.logged[i] || node.Region(core.NodeLogRegion) == nil {
			continue
		}
		if err := node.Charge(func(name string) bool { return name == core.NodeLogRegion }, a); err != nil {
			s.teardown(sh)
			return nil, fmt.Errorf("store: open %q: %w: %w", key, ErrBudget, err)
		}
		s.logged[i] = true
	}
	before := s.arenas[0].Used()
	for i, a := range s.arenas {
		if err := s.fab.Node(rdma.NodeID(i)).Charge(sh.owns, a); err != nil {
			s.teardown(sh)
			return nil, fmt.Errorf("store: open %q: %w: %w", key, ErrBudget, err)
		}
	}
	sh.footprint = s.arenas[0].Used() - before
	s.shards[key] = sh
	s.nOpened++
	return sh, nil
}

// owns reports whether a region name belongs to the shard: whether it
// contains the shard's namespace (an infix on Mu regions, see
// core.Cluster.Namespace).
func (sh *Shard) owns(name string) bool { return strings.Contains(name, sh.Cluster.Namespace()) }

// teardown stops the shard's cluster — its tickers, its poll-loop channels,
// its failure-detection subscriptions — and then unregisters its regions on
// every node, returning whatever spans they were charged.
func (s *Store) teardown(sh *Shard) {
	sh.Cluster.Stop()
	for i := 0; i < s.fab.Size(); i++ {
		s.fab.Node(rdma.NodeID(i)).UnregisterMatch(sh.owns)
	}
}

// Close tears the shard down the way a refused Open does: it stops the
// shard's cluster and unregisters its regions, returning their spans to
// every node's budget. The caller is responsible for
// quiescence: verbs in flight toward a closed shard fail with ErrNoRegion,
// the same way a real NIC invalidates an rkey.
func (s *Store) Close(key string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	sh, ok := s.shards[key]
	if !ok {
		return fmt.Errorf("store: close %q: %w", key, ErrUnknownShard)
	}
	s.teardown(sh)
	delete(s.shards, key)
	return nil
}

// Shard returns the open shard under key, or nil.
func (s *Store) Shard(key string) *Shard {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.shards[key]
}

// Keys lists the open shard keys, sorted.
func (s *Store) Keys() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.shards))
	for key := range s.shards {
		out = append(out, key)
	}
	sort.Strings(out)
	return out
}

// Invoke submits an update call on the keyed shard at process p. Unknown
// keys report ErrUnknownShard through onDone.
func (s *Store) Invoke(key string, p spec.ProcID, u spec.MethodID, args spec.Args, onDone func(any, error)) {
	sh := s.Shard(key)
	if sh == nil {
		if onDone != nil {
			onDone(nil, fmt.Errorf("store: invoke %q: %w", key, ErrUnknownShard))
		}
		return
	}
	sh.Invoke(p, u, args, onDone)
}

// Query evaluates a query on the keyed shard at process p; fresh requests
// the recency-aware path (core.InvokeFresh).
func (s *Store) Query(key string, p spec.ProcID, q spec.MethodID, args spec.Args, fresh bool, onDone func(any, error)) {
	sh := s.Shard(key)
	if sh == nil {
		if onDone != nil {
			onDone(nil, fmt.Errorf("store: query %q: %w", key, ErrUnknownShard))
		}
		return
	}
	sh.Query(p, q, args, fresh, onDone)
}

// Budget reports one node's arena occupancy (used, total bytes).
func (s *Store) Budget(node int) (used, total int) {
	a := s.arenas[node]
	return a.Used(), a.Size()
}

// LogBytes reports the bytes of one node's arena its δ-logs hold: charged
// by the first shard with summary slots, and kept after every shard closed,
// like the node's other shared services.
func (s *Store) LogBytes(node int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.logged[node] {
		return 0
	}
	return s.fab.Node(rdma.NodeID(node)).Region(core.NodeLogRegion).Size()
}

// Headroom reports one node's arena free space: total available bytes and
// the largest single free extent. A shard whose footprint exceeds the
// available bytes is refused; one that fits them may still be refused when
// its regions do not fit the free extents.
func (s *Store) Headroom(node int) (available, largest int) {
	a := s.arenas[node]
	return a.Available(), a.Largest()
}

// Coalescer returns the node's write coalescer (rdma.Node.Coalescer; its
// stats expose the merged records and the cross-shard chains).
func (s *Store) Coalescer(node int) *rdma.Coalescer { return s.fab.Node(rdma.NodeID(node)).Coalescer() }

// Fabric returns the underlying fabric.
func (s *Store) Fabric() *rdma.Fabric { return s.fab }

// Stop closes every shard's background activity; the last shard's stop
// on a node stops the node's heartbeat and detector. The store must not be
// used afterwards.
func (s *Store) Stop() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, sh := range s.shards {
		sh.Cluster.Stop()
	}
}

// Invoke submits an update call at the shard's process p.
func (sh *Shard) Invoke(p spec.ProcID, u spec.MethodID, args spec.Args, onDone func(any, error)) {
	sh.Cluster.Replica(p).Invoke(u, args, onDone)
}

// Query evaluates a query at the shard's process p; fresh uses the
// recency-aware one-RTT refresh path.
func (sh *Shard) Query(p spec.ProcID, q spec.MethodID, args spec.Args, fresh bool, onDone func(any, error)) {
	r := sh.Cluster.Replica(p)
	if fresh {
		r.InvokeFresh(q, args, onDone)
		return
	}
	r.Invoke(q, args, onDone)
}

// Replica returns the shard's replica at process p.
func (sh *Shard) Replica(p spec.ProcID) *core.Replica { return sh.Cluster.Replica(p) }

// Footprint returns the shard's per-node memory footprint in bytes.
func (sh *Shard) Footprint() int { return sh.footprint }
