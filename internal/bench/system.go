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
	"hamband/internal/metrics"
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
	// Fail injects the paper's failure at replica p (suspend the heartbeat
	// thread and the process; the NIC stays up).
	Fail(p spec.ProcID)
	// State snapshots replica p's object state (final convergence checks).
	State(p spec.ProcID) spec.State
	// Size returns the cluster size.
	Size() int
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

// Build constructs a system of the given kind for an analyzed class on a
// fresh engine. The MSG baseline refuses classes with conflicting methods
// (as in the paper, it only runs the CRDT use-cases).
func Build(kind SystemKind, eng *sim.Engine, n int, an *spec.Analysis) (System, error) {
	return BuildWithMetrics(kind, eng, n, an, nil)
}

// BuildWithMetrics constructs a system with a metrics registry attached:
// per-QP verb instruments on the fabric plus the runtime's protocol
// instruments. A nil registry reproduces Build exactly. The MSG baseline
// runs over the message-passing network, which has no RDMA fabric to
// instrument; it accepts the registry but records nothing.
func BuildWithMetrics(kind SystemKind, eng *sim.Engine, n int, an *spec.Analysis, reg *metrics.Registry) (System, error) {
	switch kind {
	case MuSMR:
		// One runtime, two analyses: state machine replication is the class in
		// which every pair of updates conflicts, so the baseline differs from
		// Hamband in its coordination analysis and in nothing else.
		an = spec.MustAnalyze(spec.Serialized(an.Class))
		fallthrough
	case Hamband:
		sys, _ := newHamband(eng, n, an, rdma.DefaultLatency(), func(fab *rdma.Fabric, o *core.Options) {
			if reg.Enabled() {
				fab.EnableMetrics(reg)
				o.Metrics = reg
			}
		})
		sys.kind = kind
		return sys, nil
	case MSG:
		net := msgnet.New(eng, n, msgnet.DefaultCost())
		c, err := msgcrdt.NewCluster(net, an, msgcrdt.DefaultOptions())
		if err != nil {
			return nil, err
		}
		return &msgSystem{c: c}, nil
	default:
		return nil, fmt.Errorf("bench: unknown system kind %d", kind)
	}
}

// hambandSystem is a core.Cluster under test; kind names the analysis it was
// built over (Hamband: the class's own, MuSMR: the all-conflicting one).
type hambandSystem struct {
	c    *core.Cluster
	kind SystemKind
}

// newHamband assembles a Hamband deployment: a fabric under lat and a
// cluster whose options are core.DefaultOptions as edited by mut (nil: as
// they are). mut sees the fabric so it can attach a tracer or registry.
func newHamband(eng *sim.Engine, n int, an *spec.Analysis, lat rdma.LatencyModel,
	mut func(*rdma.Fabric, *core.Options)) (*hambandSystem, *rdma.Fabric) {
	fab := rdma.NewFabric(eng, n, lat)
	opts := core.DefaultOptions()
	if mut != nil {
		mut(fab, &opts)
	}
	return &hambandSystem{c: core.NewCluster(fab, an, opts)}, fab
}

func (s *hambandSystem) Name() string { return s.kind.String() }
func (s *hambandSystem) Invoke(p spec.ProcID, u spec.MethodID, a spec.Args, cb func(any, error)) {
	s.c.Replica(p).Invoke(u, a, cb)
}
func (s *hambandSystem) Applied(p spec.ProcID) spec.AppliedMap { return s.c.Replica(p).Applied() }
func (s *hambandSystem) Down(p spec.ProcID) bool {
	return s.c.Replica(p).Node().Suspended() || s.c.Replica(p).Node().Crashed()
}
func (s *hambandSystem) Fail(p spec.ProcID) {
	if b := s.c.Replica(p).Beater(); b != nil {
		b.Suspend()
	}
	s.c.Replica(p).Node().Suspend()
}
func (s *hambandSystem) State(p spec.ProcID) spec.State { return s.c.Replica(p).CurrentState() }
func (s *hambandSystem) Size() int                      { return len(s.c.Replicas) }

type msgSystem struct{ c *msgcrdt.Cluster }

func (s *msgSystem) Name() string { return "MSG" }
func (s *msgSystem) Invoke(p spec.ProcID, u spec.MethodID, a spec.Args, cb func(any, error)) {
	s.c.Replica(p).Invoke(u, a, cb)
}
func (s *msgSystem) Applied(p spec.ProcID) spec.AppliedMap { return s.c.Replica(p).Applied() }
func (s *msgSystem) Down(p spec.ProcID) bool               { return s.c.Replica(p).Down() }
func (s *msgSystem) Fail(p spec.ProcID)                    { s.c.Net.Node(msgnet.NodeID(p)).Fail() }
func (s *msgSystem) State(p spec.ProcID) spec.State        { return s.c.Replica(p).CurrentState() }
func (s *msgSystem) Size() int                             { return len(s.c.Replicas) }
