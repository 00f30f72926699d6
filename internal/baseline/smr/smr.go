// Package smr implements the paper's strongly consistent baseline: state
// machine replication where *every* update — regardless of its category —
// is totally ordered by a single Mu consensus instance (package mu), as in
// the Mu system the evaluation compares against.
//
// The single leader sequences all updates: it checks permissibility against
// the authoritative replicated state, applies at the ordering point, and
// disseminates with one one-sided write per follower. Queries evaluate
// locally. The contrast with Hamband is structural: Hamband sends
// conflict-free calls around the leader entirely, and carries reducible
// calls as single remote writes.
package smr

import (
	"errors"
	"fmt"

	"hamband/internal/codec"
	"hamband/internal/heartbeat"
	"hamband/internal/mu"
	"hamband/internal/rdma"
	"hamband/internal/sim"
	"hamband/internal/spec"
)

// ErrImpermissible reports a leader-side permissibility rejection.
var ErrImpermissible = errors.New("smr: call not permissible")

// group is the single consensus group's name.
const group = "smr"

// Options configures the SMR baseline.
type Options struct {
	Mu        mu.Config
	Heartbeat heartbeat.Config
	IssueCost sim.Duration
	ApplyCost sim.Duration
	QueryCost sim.Duration

	// Leader designates the initial leader (default process 0).
	Leader spec.ProcID
	// DisableFailureHandling turns off detectors and elections.
	DisableFailureHandling bool
}

// DefaultOptions mirrors core.DefaultOptions' cost parameters.
func DefaultOptions() Options {
	return Options{
		Mu:        mu.DefaultConfig(),
		Heartbeat: heartbeat.DefaultConfig(),
		IssueCost: 100 * sim.Nanosecond,
		ApplyCost: 50 * sim.Nanosecond,
		QueryCost: 100 * sim.Nanosecond,
	}
}

// Cluster is an SMR deployment of a class over an RDMA fabric.
type Cluster struct {
	Fab      *rdma.Fabric
	Class    *spec.Class
	Replicas []*Replica
}

// NewCluster builds the SMR deployment: one Mu group ordering all updates.
func NewCluster(fab *rdma.Fabric, an *spec.Analysis, opts Options) *Cluster {
	mu.Setup(fab, group, opts.Mu, rdma.NodeID(opts.Leader))
	if !opts.DisableFailureHandling {
		for i := 0; i < fab.Size(); i++ {
			heartbeat.Register(fab.Node(rdma.NodeID(i)))
		}
	}
	c := &Cluster{Fab: fab, Class: an.Class}
	for i := 0; i < fab.Size(); i++ {
		c.Replicas = append(c.Replicas, newReplica(c, an, spec.ProcID(i), opts))
	}
	return c
}

// Replica returns the replica at process p.
func (c *Cluster) Replica(p spec.ProcID) *Replica { return c.Replicas[p] }

// Leader returns the leader as known by replica p.
func (c *Cluster) Leader(p spec.ProcID) spec.ProcID {
	return spec.ProcID(c.Replicas[p].in.Leader())
}

// Replica is one node's SMR runtime.
type Replica struct {
	cls     *spec.Class
	opts    Options
	node    *rdma.Node
	id      spec.ProcID
	sigma   spec.State
	applied spec.AppliedMap
	nextSeq uint64
	in      *mu.Instance
	pending map[uint64]func(any, error)
	// Speculative leader state: permissibility at the ordering point is
	// checked against σ plus proposed-but-undecided calls; the speculation
	// is discarded on deposition, so σ never holds undecided effects.
	sigmaSpec  spec.State
	speculated map[callKey]bool
	beater     *heartbeat.Beater
	fdet       *heartbeat.Detector
	n          int
}

func newReplica(c *Cluster, an *spec.Analysis, id spec.ProcID, opts Options) *Replica {
	r := &Replica{
		cls:        an.Class,
		opts:       opts,
		node:       c.Fab.Node(rdma.NodeID(id)),
		id:         id,
		sigma:      an.Class.NewState(),
		applied:    spec.NewAppliedMap(c.Fab.Size(), len(an.Class.Methods)),
		pending:    make(map[uint64]func(any, error)),
		speculated: make(map[callKey]bool),
		n:          c.Fab.Size(),
	}
	r.in = mu.NewInstance(c.Fab, r.node, group, opts.Mu, rdma.NodeID(opts.Leader))
	r.in.Transform = r.leaderTransform
	r.in.Deliver = r.onDeliver
	r.in.OnLeaderChange = func(leader rdma.NodeID, _ uint64) {
		if leader != rdma.NodeID(r.id) {
			r.sigmaSpec = nil
			r.speculated = make(map[callKey]bool)
		}
	}
	if !opts.DisableFailureHandling {
		r.beater = heartbeat.NewBeater(c.Fab.Engine(), r.node, opts.Heartbeat.BeatPeriod)
		r.fdet = heartbeat.NewDetector(c.Fab, r.node, opts.Heartbeat)
		r.fdet.OnSuspect = r.onSuspect
	}
	return r
}

// ID returns the replica's process id.
func (r *Replica) ID() spec.ProcID { return r.id }

// Applied exposes the replica's applied-call counts.
func (r *Replica) Applied() spec.AppliedMap { return r.applied }

// CurrentState returns a snapshot of the replica's state.
func (r *Replica) CurrentState() spec.State { return r.sigma.Clone() }

// Down reports whether the node has failed.
func (r *Replica) Down() bool { return r.node.Suspended() || r.node.Crashed() }

// Beater exposes the heartbeat thread for failure injection.
func (r *Replica) Beater() *heartbeat.Beater { return r.beater }

// Instance exposes the consensus participant (tests).
func (r *Replica) Instance() *mu.Instance { return r.in }

// Invoke submits a client call: queries evaluate locally, updates are
// ordered by the consensus group. onDone runs when the update's decision is
// delivered at this replica.
func (r *Replica) Invoke(u spec.MethodID, args spec.Args, onDone func(result any, err error)) {
	if r.Down() {
		if onDone != nil {
			onDone(nil, fmt.Errorf("smr: replica p%d down", r.id))
		}
		return
	}
	r.node.CPU.Exec(r.opts.IssueCost, func() {
		if r.cls.Methods[u].Kind == spec.Query {
			r.node.CPU.Exec(r.opts.QueryCost, func() {
				v := r.cls.Methods[u].Eval(r.sigma, args)
				if onDone != nil {
					onDone(v, nil)
				}
			})
			return
		}
		r.nextSeq++
		c := spec.Call{Method: u, Args: args, Proc: r.id, Seq: r.nextSeq}
		if onDone != nil {
			r.pending[c.Seq] = onDone
		}
		entry, err := codec.EncodeEntry(c, nil)
		if err != nil {
			delete(r.pending, c.Seq)
			if onDone != nil {
				onDone(nil, err)
			}
			return
		}
		r.in.Submit(append([]byte{0}, entry...))
	})
}

const flagRejected = 1

// leaderTransform checks permissibility at the ordering point against the
// speculative state (σ plus proposed-but-undecided calls) and speculates
// accepted calls; the authoritative σ applies at decide-time delivery.
func (r *Replica) leaderTransform(_ rdma.NodeID, payload []byte) []byte {
	if len(payload) < 1 {
		return payload
	}
	c, _, _, err := codec.DecodeEntry(payload[1:])
	if err != nil {
		return payload
	}
	if r.sigmaSpec == nil {
		r.sigmaSpec = r.sigma.Clone()
	}
	if !r.cls.TrivialInvariant && !r.cls.Permissible(r.sigmaSpec, c) {
		out := append([]byte(nil), payload...)
		out[0] = flagRejected
		return out
	}
	r.cls.ApplyCall(r.sigmaSpec, c)
	r.speculated[callKey{c.Proc, c.Seq}] = true
	return payload
}

// callKey identifies a request.
type callKey struct {
	p spec.ProcID
	r uint64
}

// onDeliver applies decided entries (followers) and resolves pending
// submissions (origin).
func (r *Replica) onDeliver(_ uint64, _ rdma.NodeID, payload []byte) {
	if len(payload) < 1 {
		return
	}
	flags := payload[0]
	c, _, _, err := codec.DecodeEntry(payload[1:])
	if err != nil {
		return
	}
	if flags&flagRejected != 0 {
		if c.Proc == r.id {
			r.complete(c.Seq, nil, ErrImpermissible)
		}
		return
	}
	r.node.CPU.Exec(r.opts.ApplyCost, func() {
		r.cls.ApplyCall(r.sigma, c)
		r.applied.Inc(c.Proc, c.Method)
		if r.sigmaSpec != nil {
			// Keep the speculation in lockstep: a call this leader
			// speculated is already in it; mirror anything else.
			k := callKey{c.Proc, c.Seq}
			if r.speculated[k] {
				delete(r.speculated, k)
			} else {
				r.cls.ApplyCall(r.sigmaSpec, c)
			}
		}
		if c.Proc == r.id {
			r.complete(c.Seq, nil, nil)
		}
	})
}

func (r *Replica) complete(seq uint64, v any, err error) {
	if cb, ok := r.pending[seq]; ok {
		delete(r.pending, seq)
		cb(v, err)
	}
}

func (r *Replica) onSuspect(peer rdma.NodeID) {
	if r.in.Leader() != peer {
		return
	}
	// Successor in ring order stands as candidate.
	for d := 1; d < r.n; d++ {
		next := rdma.NodeID((int(peer) + d) % r.n)
		if next == r.node.ID() {
			r.in.StartElection()
			return
		}
		if !r.fdet.Suspected(next) {
			return
		}
	}
}
