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

// Cluster is a set of message-passing CRDT replicas.
type Cluster struct {
	Net      *msgnet.Network
	Class    *spec.Class
	Replicas []*Replica
}

// NewCluster builds the MSG deployment of a conflict-free class over net,
// charging each replica's application work at costs (Hamband's are its
// fabric's, rdma.LatencyModel.CallCosts). It rejects classes with
// conflicting methods: message-passing CRDTs cannot order them.
func NewCluster(net *msgnet.Network, an *spec.Analysis, costs sim.CallCosts) (*Cluster, error) {
	if len(an.SyncGroups) > 0 {
		return nil, fmt.Errorf("msgcrdt: class %s has conflicting methods", an.Class.Name)
	}
	c := &Cluster{Net: net, Class: an.Class}
	for i := 0; i < net.Size(); i++ {
		c.Replicas = append(c.Replicas, newReplica(c, an, spec.ProcID(i), costs))
	}
	return c, nil
}

// Replica returns the replica at process p.
func (c *Cluster) Replica(p spec.ProcID) *Replica { return c.Replicas[p] }

// Replica is one node's MSG CRDT runtime.
type Replica struct {
	cls     *spec.Class
	an      *spec.Analysis
	costs   sim.CallCosts
	ep      *msgnet.Endpoint
	id      spec.ProcID
	sigma   spec.State
	applied spec.AppliedMap
	nextSeq uint64
}

func newReplica(c *Cluster, an *spec.Analysis, id spec.ProcID, costs sim.CallCosts) *Replica {
	r := &Replica{
		cls:     an.Class,
		an:      an,
		costs:   costs,
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
	r.ep.CPU.Submit(r.costs.IssueCost, func() {
		if r.cls.Methods[u].Kind == spec.Query {
			r.ep.CPU.Submit(r.costs.QueryCost, func() {
				v := r.cls.Methods[u].Eval(r.sigma, args)
				if onDone != nil {
					onDone(v, nil)
				}
			})
			return
		}
		r.nextSeq++
		c := spec.Call{Method: u, Args: args, Proc: r.id, Seq: r.nextSeq}
		r.ep.CPU.Submit(r.costs.ApplyCost, func() {
			r.cls.ApplyCall(r.sigma, c)
			r.applied.Inc(r.id, u)
			r.ep.Broadcast(codec.AppendCall(nil, c, nil), func() {
				if onDone != nil {
					onDone(nil, nil)
				}
			})
		})
	})
}

// onMessage applies a remotely issued effector: one call that decodes to
// the message's end and that the class admits from the sender.
func (r *Replica) onMessage(from msgnet.NodeID, payload []byte) {
	var rec codec.DeltaRecord
	if n, err := codec.DecodeCall(&rec, payload); err != nil || n != len(payload) || !r.cls.AdmitsFrom(rec.C, spec.ProcID(from)) {
		return
	}
	c := rec.C
	r.ep.CPU.Submit(r.costs.ApplyCost, func() {
		r.cls.ApplyCall(r.sigma, c)
		r.applied.Inc(c.Proc, c.Method)
	})
}
