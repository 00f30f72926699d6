// Package store implements a sharded multi-object store: one node hosts N
// independent replicated objects behind a keyed directory, generalizing
// the single-object Hamband deployment (package core) to the many-objects-
// per-node shape a production service actually runs.
//
// Three resources are shared across shards, everything else is per shard:
//
//   - Memory. Each node registers ONE parent region of MemoryBudget bytes;
//     every shard's rings, summary slots and δ-log areas are carved out of
//     it by an rdma.Arena (registration is a scarce NIC resource — real
//     deployments register big and sub-allocate). Open admits a shard only
//     if its exact footprint fits the remaining budget, returning ErrBudget
//     otherwise; Close returns the shard's spans for reuse.
//   - Queue pairs. All shards on a node post through the node's per-peer RC
//     QPs, and their summary writes flow through one shared per-node
//     rdma.Coalescer — WRs from different shards bound for the same peer
//     ride one PostChain doorbell (CoalesceStats.CrossChains counts them).
//   - Failure handling. One heartbeat thread and one detector per node
//     (core.FailureDomain); a node's shards are suspected and recovered
//     together, as one process.
//
// Per shard: a disjoint region namespace, per-source broadcast rings when the
// class has irreducible conflict-free methods, one Mu consensus instance per
// synchronization group (the paper scopes Mu to sync groups; the store scopes
// it to sync groups × shards), and staggered default group leaders so
// consensus load spreads across nodes instead of piling onto node 0.
package store

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"

	"hamband/internal/core"
	"hamband/internal/rdma"
	"hamband/internal/ring"
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
	// summary slots, journals and δ-logs combined (default 16 MiB). The
	// budget is registered once as one parent region per node.
	MemoryBudget int

	// Core is the per-shard cluster option template. Namespace, ShardTag,
	// Tracer, Coalescers, FailureDomain and Leaders are overwritten per
	// shard; everything else applies to every shard (per-shard overrides
	// via ShardOptions). Zero value means core.DefaultOptions().
	Core core.Options

	// Tracer, when non-nil, is the root tracer: each shard records through
	// a scoped view stamping its events with the shard key, yielding one
	// merged history that trace.ByShard decomposes.
	Tracer *trace.Tracer

	// CrossWire is a negative control for the conformance harness: free
	// broadcast deliveries of paired shards (0↔1, 2↔3, … in open order)
	// are rerouted into the partner shard's apply loop. Per-shard
	// conformance checks must catch the resulting corruption. Never set
	// outside tests.
	CrossWire bool
}

// DefaultOptions returns a production-shaped store configuration.
func DefaultOptions() Options {
	return Options{MemoryBudget: 16 << 20, Core: core.DefaultOptions()}
}

// ShardOptions tunes one shard at Open; zero values inherit the store's
// Core template. Hot shards earn bigger rings and slots through these.
type ShardOptions struct {
	SumSlotSize    int           // summary-slot bytes (hot shards: bigger summaries/δ-logs)
	RingCapacity   int           // broadcast and Mu log/request ring capacity
	AnchorInterval int           // δ-records between full anchors
	Leaders        []spec.ProcID // explicit group leaders (default: staggered by shard index)
}

// Store is a keyed directory of replicated objects sharing one fabric.
type Store struct {
	mu   sync.Mutex
	fab  *rdma.Fabric
	opts Options

	arenas []*rdma.Arena     // per node: the budgeted parent region
	coals  []*rdma.Coalescer // per node: shared write coalescer
	fdom   *core.FailureDomain

	shards  map[string]*Shard
	keys    []string // open keys in open order (cross-wire pairing)
	opening string   // namespace being routed during an Open, "" otherwise
	nOpened int      // total Opens ever, for leader staggering
}

// Shard is one replicated object hosted by the store.
type Shard struct {
	Key       string
	Cluster   *core.Cluster
	ns        string
	footprint int
}

// New builds a store over fab: one budgeted arena and one shared coalescer
// per node, plus the shared failure domain (unless the Core template
// disables failure handling).
func New(fab *rdma.Fabric, opts Options) *Store {
	if opts.MemoryBudget <= 0 {
		opts.MemoryBudget = 16 << 20
	}
	if opts.Core.SumSlotSize == 0 {
		base := core.DefaultOptions()
		base.Tracer = opts.Core.Tracer
		base.Metrics = opts.Core.Metrics
		base.DisableFailureHandling = opts.Core.DisableFailureHandling
		opts.Core = base
	}
	s := &Store{fab: fab, opts: opts, shards: make(map[string]*Shard)}
	if opts.Tracer != nil {
		fab.EnableTracing(opts.Tracer)
	}
	for i := 0; i < fab.Size(); i++ {
		node := fab.Node(rdma.NodeID(i))
		a := rdma.NewArena(node.Register("store-arena", opts.MemoryBudget))
		s.arenas = append(s.arenas, a)
		node.Route(s.routeMatch, a)
		s.coals = append(s.coals, rdma.NewCoalescer(node))
	}
	if !opts.Core.DisableFailureHandling {
		s.fdom = core.NewFailureDomain(fab, opts.Core.Heartbeat)
	}
	return s
}

// routeMatch diverts the opening shard's region registrations into the
// node's arena. Namespaces appear as prefixes on core/broadcast regions
// but as infixes on Mu regions ("mu-log-<ns>ham-g0"), so the match is a
// substring test; the bracketed namespace shape makes keys prefix-free.
func (s *Store) routeMatch(name string) bool {
	return s.opening != "" && strings.Contains(name, s.opening)
}

// namespace renders a shard key's region namespace. The brackets make the
// namespace self-delimiting so no key's namespace is a substring of
// another's (plain "a"/"ab" prefixes would collide under the infix match).
func namespace(key string) string { return "shard[" + key + "]/" }

// Footprint returns the exact per-node memory a shard of the analyzed
// class costs under the given core options: summary slots per summarization
// group, broadcast backup + inbound rings iff the class has an irreducible
// conflict-free method (spec.Analysis.HasFreeBuffers, the predicate
// core.NewCluster builds by), and per-sync-group Mu log/journal/state plus
// per-peer request/vote/grant rings. Open admits against this number, and
// the arena accounting in the tests pins it byte-for-byte.
func Footprint(an *spec.Analysis, nodes int, o core.Options) int {
	total, _ := footprintDetail(an, nodes, o)
	return total
}

// footprintDetail returns a shard's total per-node footprint and its
// largest single region — the fragmentation-aware admission pair.
func footprintDetail(an *spec.Analysis, nodes int, o core.Options) (total, largest int) {
	add := func(size, count int) {
		total += size * count
		if size > largest {
			largest = size
		}
	}
	if nslots := len(an.Class.SumGroups) * nodes; nslots > 0 {
		add(nslots*o.SumSlotSize, 1)
	}
	add(8, 1) // configuration-epoch word (dynamic membership)
	if an.HasFreeBuffers() {
		add(o.Broadcast.BackupSlots*o.Broadcast.BackupSlot, 1)
		add(ring.RegionSize(o.Broadcast.RingCapacity), nodes-1)
	}
	for range an.SyncGroups {
		add(ring.RegionSize(o.Mu.RingCapacity), 1)       // leader log
		add(o.Mu.JournalSlots*o.Mu.JournalSlotSize, 1)   // journal
		add(16, 1)                                       // state words
		add(ring.RegionSize(o.Mu.RingCapacity), nodes-1) // request rings
		add(ring.RegionSize(o.Mu.CtrlCapacity), 2*(nodes-1))
	}
	return total, largest
}

// Open admits a new shard under key: it checks the exact footprint against
// every node's remaining budget (ErrBudget on any shortfall — no partial
// registration happens), then builds the shard's cluster with its regions
// routed into the arenas, its Mu instances scoped per sync group per
// shard, its traces stamped with the key, and its summary writes flowing
// through the shared coalescers. Default group leaders are staggered by
// shard index so consensus load spreads across the nodes.
func (s *Store) Open(key string, an *spec.Analysis, so ShardOptions) (*Shard, error) {
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
	if so.SumSlotSize > 0 {
		co.SumSlotSize = so.SumSlotSize
	}
	if so.RingCapacity > 0 {
		co.Broadcast.RingCapacity = so.RingCapacity
		co.Mu.RingCapacity = so.RingCapacity
	}
	if so.AnchorInterval > 0 {
		co.AnchorInterval = so.AnchorInterval
	}
	ns := namespace(key)
	co.Namespace = ns
	co.ShardTag = key
	co.Tracer = s.opts.Tracer.Scoped(key)
	co.FailureDomain = s.fdom
	co.Coalescers = s.coals
	co.Leaders = so.Leaders
	if co.Leaders == nil {
		leaders := make([]spec.ProcID, len(an.SyncGroups))
		for g := range leaders {
			leaders[g] = spec.ProcID((g + s.nOpened) % n)
		}
		co.Leaders = leaders
	}
	if s.opts.CrossWire {
		key := key
		co.FreeDeliveryHook = func(p spec.ProcID, src rdma.NodeID, payload []byte) bool {
			if peer := s.crossPeer(key); peer != nil {
				peer.Cluster.Replica(p).InjectFree(src, payload)
				return true
			}
			return false
		}
	}

	total, largest := footprintDetail(an, n, co)
	for i, a := range s.arenas {
		if a.Available() < total || a.Largest() < largest {
			return nil, fmt.Errorf(
				"store: open %q needs %d B/node (largest region %d B) but node %d has %d B free (largest span %d B): %w",
				key, total, largest, i, a.Available(), a.Largest(), ErrBudget)
		}
	}

	s.opening = ns
	cluster := core.NewCluster(s.fab, an, co)
	s.opening = ""

	sh := &Shard{Key: key, Cluster: cluster, ns: ns, footprint: total}
	s.shards[key] = sh
	s.keys = append(s.keys, key)
	s.nOpened++
	return sh, nil
}

// crossPeer returns key's cross-wire partner (consecutive keys pair up in
// open order), or nil for an unpaired key.
func (s *Store) crossPeer(key string) *Shard {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, k := range s.keys {
		if k != key {
			continue
		}
		j := i ^ 1
		if j < len(s.keys) {
			return s.shards[s.keys[j]]
		}
		return nil
	}
	return nil
}

// Close stops the shard's cluster and unregisters its regions, returning
// their zeroed spans to every node's budget. The caller is responsible for
// quiescence: verbs in flight toward a closed shard fail with ErrNoRegion,
// the same way a real NIC invalidates an rkey.
func (s *Store) Close(key string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	sh, ok := s.shards[key]
	if !ok {
		return fmt.Errorf("store: close %q: %w", key, ErrUnknownShard)
	}
	sh.Cluster.Stop()
	for i := 0; i < s.fab.Size(); i++ {
		s.fab.Node(rdma.NodeID(i)).UnregisterMatch(func(name string) bool {
			return strings.Contains(name, sh.ns)
		})
	}
	delete(s.shards, key)
	for i, k := range s.keys {
		if k == key {
			s.keys = append(s.keys[:i], s.keys[i+1:]...)
			break
		}
	}
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
	out := append([]string(nil), s.keys...)
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

// Headroom reports one node's arena free space: total available bytes and
// the largest single free extent — the number that decides whether another
// shard of a given footprint can still be admitted.
func (s *Store) Headroom(node int) (available, largest int) {
	a := s.arenas[node]
	return a.Available(), a.Largest()
}

// Coalescer returns the node's shared write coalescer (its stats expose
// the cross-shard chains).
func (s *Store) Coalescer(node int) *rdma.Coalescer { return s.coals[node] }

// FailureDomain returns the shared failure-handling infrastructure (nil
// when the Core template disables failure handling).
func (s *Store) FailureDomain() *core.FailureDomain { return s.fdom }

// Fabric returns the underlying fabric.
func (s *Store) Fabric() *rdma.Fabric { return s.fab }

// Stop closes every shard's background activity and then the shared
// failure domain. The store must not be used afterwards.
func (s *Store) Stop() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, sh := range s.shards {
		sh.Cluster.Stop()
	}
	if s.fdom != nil {
		s.fdom.Stop()
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
