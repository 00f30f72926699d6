// Package health is the pull-based introspection layer: every subsystem
// (core replica, broadcast receiver, ring reader, mu group, heartbeat
// detector, rdma arena/coalescer, store shard) exposes cheap read-only
// accessors, and Collect assembles them into one structured Snapshot — no
// background threads, no instrumentation on the invoke hot path, no
// virtual-time cost. On top, Watchdog evaluates anomaly rules over a
// stream of snapshots and emits structured trace.HealthEvents (see
// watchdog.go).
//
// Collection is deliberately outside the protocol: a snapshot schedules no
// events and charges no CPU, so observing a cluster never changes its
// schedule — chaos trace hashes are identical with and without a watchdog
// attached.
package health

import (
	"sort"

	"hamband/internal/broadcast"
	"hamband/internal/core"
	"hamband/internal/rdma"
	"hamband/internal/ring"
	"hamband/internal/sim"
	"hamband/internal/spec"
	"hamband/internal/store"
)

// Snapshot is one moment of cluster (or store) health, assembled by
// Collect/CollectStore. All slices are copies: holding a snapshot across
// further execution is safe.
type Snapshot struct {
	At      sim.Time
	Epoch   uint32
	Members []bool

	// Nodes holds per-node health. For a single-object cluster this is the
	// full picture; for a sharded store it carries the node-level signals
	// (suspicions, down state) while Shards carries the per-object detail.
	Nodes []NodeHealth

	// Shards holds per-shard health for sharded stores, ordered by key.
	// Nil for single-object clusters.
	Shards []ShardHealth

	// Arenas holds per-node memory-budget health for sharded stores. Nil
	// for single-object clusters (whose regions are statically sized).
	Arenas []ArenaHealth
}

// NodeHealth is one replica's (or, in a sharded store, one node's) health.
type NodeHealth struct {
	Node int
	Down bool // suspended or crashed (the fault injector's view)

	// Core replica progress counters.
	Issued, Applied, Rejected uint64
	TornRejects               uint64
	AnchorAge                 int // calls shipped as δ-records since the stalest group's last anchor

	// Per-source inbound ring health (occupancy, torn streaks, parked
	// floors), ordered by source.
	Rings []broadcast.SourceHealth

	// Per-group consensus health, ordered by group.
	Groups []GroupHealth

	// Suspects is this node's failure-detection view, ascending.
	Suspects []int

	// Per-source slot-adoption epoch floors (active, and parked awaiting a
	// clean scan pass).
	Floors []ring.EpochFloor
}

// GroupHealth is one synchronization group's consensus health as seen from
// one node.
type GroupHealth struct {
	Group         int
	Leader        int
	IsLeader      bool
	Term          uint64
	Electing      bool
	Recovering    bool
	Pending       int    // calls queued awaiting consensus
	LastDelivered uint64 // highest log sequence delivered
	LeaderSuspect bool   // this node's detector suspects the current leader
}

// ShardHealth is one store shard's health: aggregate op counters plus the
// full per-node picture of its cluster.
type ShardHealth struct {
	Key     string
	Ops     uint64 // calls issued across the shard's replicas
	Applied uint64 // calls applied across the shard's replicas
	Nodes   []NodeHealth
}

// ArenaHealth is one node's store memory budget: the modelled registration's
// size and how much of it the open shards have carved.
type ArenaHealth struct {
	Node      int
	Size      int
	Used      int
	Available int
	Largest   int // largest single free extent: the admission headroom
}

// Collect assembles a snapshot of a single-object cluster at virtual time
// at. Read-only: no events scheduled, no CPU charged.
func Collect(at sim.Time, c *core.Cluster) *Snapshot {
	s := &Snapshot{At: at, Epoch: uint32(c.Epoch()), Members: c.Members()}
	for p := range c.Replicas {
		s.Nodes = append(s.Nodes, collectNode(c, p))
	}
	return s
}

// collectNode gathers one replica's health.
func collectNode(c *core.Cluster, p int) NodeHealth {
	r := c.Replica(spec.ProcID(p))
	issued, applied, rejected, _ := r.Stats()
	h := NodeHealth{
		Node:        p,
		Down:        r.Down(),
		Issued:      issued,
		Applied:     applied,
		Rejected:    rejected,
		TornRejects: r.TornRejects(),
		AnchorAge:   r.AnchorAge(),
		Rings:       r.Receiver().Rings(),
		Suspects:    r.Suspects(),
		Floors:      r.EpochFloors(),
	}
	for g := 0; g < r.GroupCount(); g++ {
		in := r.Group(g)
		leader := int(in.Leader())
		gh := GroupHealth{
			Group:         g,
			Leader:        leader,
			IsLeader:      in.IsLeader(),
			Term:          in.Term(),
			Electing:      in.Electing(),
			Recovering:    in.Recovering(),
			Pending:       in.PendingCount(),
			LastDelivered: in.LastDelivered(),
		}
		for _, sp := range h.Suspects {
			if sp == leader {
				gh.LeaderSuspect = true
			}
		}
		h.Groups = append(h.Groups, gh)
	}
	return h
}

// CollectStore assembles a snapshot of a sharded store: node-level signals
// (down state, suspicions, arena budgets) plus the full per-shard picture.
func CollectStore(at sim.Time, st *store.Store) *Snapshot {
	s := &Snapshot{At: at}
	fab := st.Fabric()
	for n := 0; n < fab.Size(); n++ {
		node := fab.Node(rdma.NodeID(n))
		nh := NodeHealth{Node: n, Down: node.Suspended() || node.Crashed()}
		if d := node.Detector(); d != nil {
			nh.Suspects = d.Suspects()
		}
		s.Nodes = append(s.Nodes, nh)

		used, total := st.Budget(n)
		avail, largest := st.Headroom(n)
		s.Arenas = append(s.Arenas, ArenaHealth{
			Node: n, Size: total, Used: used, Available: avail, Largest: largest,
		})
	}
	for _, key := range st.Keys() {
		sh := st.Shard(key)
		if sh == nil {
			continue
		}
		shh := ShardHealth{Key: key}
		cl := sh.Cluster
		if s.Epoch < uint32(cl.Epoch()) {
			s.Epoch = uint32(cl.Epoch())
		}
		for p := range cl.Replicas {
			nh := collectNode(cl, p)
			shh.Ops += nh.Issued
			shh.Applied += nh.Applied
			shh.Nodes = append(shh.Nodes, nh)
		}
		s.Shards = append(s.Shards, shh)
	}
	return s
}

// TopShards returns the k hottest shards by issued-op share, descending
// (ties broken by key for determinism). k <= 0 returns all.
func TopShards(s *Snapshot, k int) []ShardHealth {
	out := append([]ShardHealth(nil), s.Shards...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Ops != out[j].Ops {
			return out[i].Ops > out[j].Ops
		}
		return out[i].Key < out[j].Key
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}
