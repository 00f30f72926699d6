// Package bench regenerates the paper's evaluation (§5): workload
// generation, a closed-loop driver measuring virtual-time throughput and
// response time, fault injection, and one experiment per figure (8–13).
//
// Throughput follows the paper's definition — the total number of calls
// divided by the time it takes for all update calls to be replicated on all
// (live) nodes — and response time is the mean over all calls.
package bench

import (
	"fmt"

	"hamband/internal/baseline/msgcrdt"
	"hamband/internal/core"
	"hamband/internal/msgnet"
	"hamband/internal/rdma"
	"hamband/internal/sim"
	"hamband/internal/spec"
)

// System abstracts the three systems under test: Hamband, the MSG
// baseline, and the Mu SMR baseline (Hamband under spec.Serialized).
type System interface {
	Name() string
	// Invoke submits a call at replica p.
	Invoke(p spec.ProcID, u spec.MethodID, args spec.Args, onDone func(any, error))
	// Applied returns replica p's applied-call counts.
	Applied(p spec.ProcID) spec.AppliedMap
	// Down reports whether replica p has failed.
	Down(p spec.ProcID) bool
	// Fail injects the paper's failure at replica p (suspend the process,
	// its heartbeat thread with it; the NIC stays up).
	Fail(p spec.ProcID)
}

// SystemKind selects a system implementation.
type SystemKind int

// The three systems of the evaluation.
const (
	Hamband SystemKind = iota
	MSG
	MuSMR
)

// String names the system as in the paper's figures.
func (k SystemKind) String() string {
	switch k {
	case Hamband:
		return "Hamband"
	case MSG:
		return "MSG"
	case MuSMR:
		return "Mu"
	default:
		return fmt.Sprintf("SystemKind(%d)", int(k))
	}
}

// Variant is what a benchmark point may change about a deployment: the cost
// model (nil: rdma.DefaultLatency), which prices all three systems (the MSG
// baseline takes its call costs from it), and a Hamband or Mu cluster's
// options, which Edit sees as core.DefaultOptions together with the fabric,
// so it can attach a tracer or registry (nil: as they are).
type Variant struct {
	Latency *rdma.LatencyModel
	Edit    func(*rdma.Fabric, *core.Options)
}

// Build constructs a system of the given kind for an analyzed class on a
// fresh engine. The MSG baseline refuses classes with conflicting methods
// (as in the paper, it only runs the CRDT use-cases).
func Build(kind SystemKind, eng *sim.Engine, n int, an *spec.Analysis, v Variant) (System, error) {
	lat := rdma.DefaultLatency()
	if v.Latency != nil {
		lat = *v.Latency
	}
	switch kind {
	case Hamband:
	case MuSMR:
		// One runtime, two analyses: state machine replication is the class in
		// which every pair of updates conflicts, so the baseline differs from
		// Hamband in its coordination analysis and in nothing else.
		an = spec.MustAnalyze(spec.Serialized(an.Class))
	case MSG:
		net := msgnet.New(eng, n, msgnet.DefaultCost())
		c, err := msgcrdt.NewCluster(net, an, lat.CallCosts)
		if err != nil {
			return nil, err
		}
		return &msgSystem{c: c}, nil
	default:
		return nil, fmt.Errorf("bench: unknown system kind %d", kind)
	}
	fab := rdma.NewFabric(eng, n, lat)
	opts := core.DefaultOptions()
	if v.Edit != nil {
		v.Edit(fab, &opts)
	}
	return &hambandSystem{c: core.NewCluster(fab, an, opts), kind: kind}, nil
}

// hambandSystem is a core.Cluster under test; kind names the analysis it was
// built over (Hamband: the class's own, MuSMR: the all-conflicting one).
type hambandSystem struct {
	c    *core.Cluster
	kind SystemKind
}

func (s *hambandSystem) Name() string { return s.kind.String() }
func (s *hambandSystem) Invoke(p spec.ProcID, u spec.MethodID, a spec.Args, cb func(any, error)) {
	s.c.Replica(p).Invoke(u, a, cb)
}
func (s *hambandSystem) Applied(p spec.ProcID) spec.AppliedMap { return s.c.Replica(p).Applied() }
func (s *hambandSystem) Down(p spec.ProcID) bool {
	return s.c.Replica(p).Node().Suspended() || s.c.Replica(p).Node().Crashed()
}
func (s *hambandSystem) Fail(p spec.ProcID) { s.c.Replica(p).Node().Suspend() }

type msgSystem struct{ c *msgcrdt.Cluster }

func (s *msgSystem) Name() string { return "MSG" }
func (s *msgSystem) Invoke(p spec.ProcID, u spec.MethodID, a spec.Args, cb func(any, error)) {
	s.c.Replica(p).Invoke(u, a, cb)
}
func (s *msgSystem) Applied(p spec.ProcID) spec.AppliedMap { return s.c.Replica(p).Applied() }
func (s *msgSystem) Down(p spec.ProcID) bool               { return s.c.Replica(p).Down() }
func (s *msgSystem) Fail(p spec.ProcID)                    { s.c.Net.Node(msgnet.NodeID(p)).Fail() }
