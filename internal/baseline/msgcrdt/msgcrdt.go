// Package msgcrdt implements the paper's MSG baseline: op-based CRDT
// replication over a conventional two-sided message-passing network
// (package msgnet).
//
// Every update applies locally and is then broadcast as one message per
// peer through the kernel network stack; every receiver pays the
// per-message receive cost on its CPU before applying. This per-message CPU
// consumption at N−1 receivers — absent in Hamband's one-sided design — is
// what the evaluation's 17× throughput gap measures.
//
// The baseline supports conflict-free classes (pure CRDTs): their effectors
// commute unconditionally, so plain per-sender-FIFO delivery converges.
package msgcrdt

import (
	"fmt"

	"hamband/internal/codec"
	"hamband/internal/msgnet"
	"hamband/internal/sim"
	"hamband/internal/spec"
)

// Options configures the MSG baseline.
type Options struct {
	IssueCost sim.Duration // CPU cost to accept a client call
	ApplyCost sim.Duration // CPU cost to apply one update
	QueryCost sim.Duration // CPU cost to evaluate one query
}

// DefaultOptions mirrors core.DefaultOptions' application costs.
func DefaultOptions() Options {
	return Options{
		IssueCost: 100 * sim.Nanosecond,
		ApplyCost: 50 * sim.Nanosecond,
		QueryCost: 100 * sim.Nanosecond,
	}
}

// Cluster is a set of message-passing CRDT replicas.
type Cluster struct {
	Net      *msgnet.Network
	Class    *spec.Class
	Replicas []*Replica
}

// NewCluster builds the MSG deployment of a conflict-free class over net.
// It rejects classes with conflicting methods: message-passing CRDTs cannot
// order them.
func NewCluster(net *msgnet.Network, an *spec.Analysis, opts Options) (*Cluster, error) {
	if len(an.SyncGroups) > 0 {
		return nil, fmt.Errorf("msgcrdt: class %s has conflicting methods", an.Class.Name)
	}
	c := &Cluster{Net: net, Class: an.Class}
	for i := 0; i < net.Size(); i++ {
		c.Replicas = append(c.Replicas, newReplica(c, an, spec.ProcID(i), opts))
	}
	return c, nil
}

// Replica returns the replica at process p.
func (c *Cluster) Replica(p spec.ProcID) *Replica { return c.Replicas[p] }

// Replica is one node's MSG CRDT runtime.
type Replica struct {
	cls     *spec.Class
	an      *spec.Analysis
	opts    Options
	ep      *msgnet.Endpoint
	id      spec.ProcID
	sigma   spec.State
	applied spec.AppliedMap
	nextSeq uint64
}

func newReplica(c *Cluster, an *spec.Analysis, id spec.ProcID, opts Options) *Replica {
	r := &Replica{
		cls:     an.Class,
		an:      an,
		opts:    opts,
		ep:      c.Net.Node(msgnet.NodeID(id)),
		id:      id,
		sigma:   an.Class.NewState(),
		applied: spec.NewAppliedMap(c.Net.Size(), len(an.Class.Methods)),
	}
	r.ep.Handle(r.onMessage)
	return r
}

// ID returns the replica's process id.
func (r *Replica) ID() spec.ProcID { return r.id }

// Applied exposes the replica's applied-call counts.
func (r *Replica) Applied() spec.AppliedMap { return r.applied }

// CurrentState returns a snapshot of the replica's state.
func (r *Replica) CurrentState() spec.State { return r.sigma.Clone() }

// Down reports whether the endpoint has failed.
func (r *Replica) Down() bool { return r.ep.Down() }

// Invoke submits a client call: queries evaluate locally; updates apply
// locally and broadcast to every peer. onDone runs after the local apply
// and the send-side work of the last message.
func (r *Replica) Invoke(u spec.MethodID, args spec.Args, onDone func(result any, err error)) {
	if r.ep.Down() {
		if onDone != nil {
			onDone(nil, fmt.Errorf("msgcrdt: replica p%d down", r.id))
		}
		return
	}
	r.ep.CPU.Exec(r.opts.IssueCost, func() {
		if r.cls.Methods[u].Kind == spec.Query {
			r.ep.CPU.Exec(r.opts.QueryCost, func() {
				v := r.cls.Methods[u].Eval(r.sigma, args)
				if onDone != nil {
					onDone(v, nil)
				}
			})
			return
		}
		r.nextSeq++
		c := spec.Call{Method: u, Args: args, Proc: r.id, Seq: r.nextSeq}
		r.ep.CPU.Exec(r.opts.ApplyCost, func() {
			r.cls.ApplyCall(r.sigma, c)
			r.applied.Inc(r.id, u)
			entry, err := codec.EncodeDeltaRecord(codec.DeltaRecord{Kind: codec.FrameFull, C: c})
			if err != nil {
				if onDone != nil {
					onDone(nil, err)
				}
				return
			}
			r.ep.Broadcast(entry, func() {
				if onDone != nil {
					onDone(nil, nil)
				}
			})
		})
	})
}

// onMessage applies a remotely issued effector.
func (r *Replica) onMessage(_ msgnet.NodeID, payload []byte) {
	rec, _, err := codec.DecodeDeltaRecord(payload)
	if err != nil {
		return
	}
	c := rec.C
	r.ep.CPU.Exec(r.opts.ApplyCost, func() {
		r.cls.ApplyCall(r.sigma, c)
		r.applied.Inc(c.Proc, c.Method)
	})
}
