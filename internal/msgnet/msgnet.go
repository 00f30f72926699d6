// Package msgnet simulates a conventional two-sided message-passing network
// — the substrate of the paper's MSG (message-passing CRDT) baseline.
//
// Unlike one-sided RDMA (package rdma), every message traverses the full
// network and operating-system stack on both ends: the sender pays a
// syscall/copy cost on its CPU, the message propagates with kernel-stack
// latency, and the receiver pays an interrupt/receive/dispatch cost on its
// CPU before the handler runs. This per-message CPU consumption at N−1
// receivers is what limits the MSG baseline's throughput in the paper's
// evaluation.
package msgnet

import (
	"hamband/internal/sim"
)

// NodeID identifies a network endpoint. IDs are dense, starting at 0.
type NodeID int

// CostModel holds the message-path cost parameters. Defaults are calibrated
// to a kernel TCP/IP messaging stack with serialization over the same
// 40 Gbps link: ~3 µs send path, ~5 µs receive path (interrupt, protocol,
// deserialize, dispatch), ~30 µs one-way latency.
type CostModel struct {
	SendCost   sim.Duration // sender CPU: syscall, copy, protocol send path
	RecvCost   sim.Duration // receiver CPU: interrupt, protocol recv path, dispatch
	Latency    sim.Duration // one-way wire + stack propagation
	BytesPerNS int          // wire bandwidth, bytes per virtual ns
}

// DefaultCost returns the calibrated kernel-stack cost model.
func DefaultCost() CostModel {
	return CostModel{
		SendCost:   3 * sim.Microsecond,
		RecvCost:   5 * sim.Microsecond,
		Latency:    30 * sim.Microsecond,
		BytesPerNS: 5,
	}
}

func (m CostModel) transfer(n int) sim.Duration {
	if m.BytesPerNS <= 0 {
		return 0
	}
	return sim.Duration(n / m.BytesPerNS)
}

// Handler consumes a message delivered to an endpoint. It runs on the
// receiving node's CPU after the receive cost has been charged.
type Handler func(from NodeID, payload []byte)

// Stats counts network activity.
type Stats struct {
	Sent, Delivered, Dropped uint64
	Bytes                    uint64
}

// Network is a simulated two-sided message network with FIFO channels.
type Network struct {
	eng   *sim.Engine
	cost  CostModel
	nodes []*Endpoint
	stats Stats
}

// New creates a network with n endpoints using the given cost model.
func New(eng *sim.Engine, n int, cost CostModel) *Network {
	nw := &Network{eng: eng, cost: cost}
	for i := 0; i < n; i++ {
		nw.nodes = append(nw.nodes, &Endpoint{
			id:  NodeID(i),
			net: nw,
			CPU: sim.NewCPU(eng),
		})
	}
	return nw
}

// Engine returns the engine the network runs on.
func (nw *Network) Engine() *sim.Engine { return nw.eng }

// Size returns the number of endpoints.
func (nw *Network) Size() int { return len(nw.nodes) }

// Node returns the endpoint with the given id.
func (nw *Network) Node(id NodeID) *Endpoint { return nw.nodes[id] }

// Stats returns a snapshot of traffic counters.
func (nw *Network) Stats() Stats { return nw.stats }

// Endpoint is one node on the network.
type Endpoint struct {
	id      NodeID
	net     *Network
	CPU     *sim.CPU
	handler Handler
	down    bool
	lastArr map[NodeID]sim.Time // per-sender FIFO horizon
}

// ID returns the endpoint's identifier.
func (ep *Endpoint) ID() NodeID { return ep.id }

// Handle installs the message handler. Messages arriving before a handler
// is installed are dropped.
func (ep *Endpoint) Handle(h Handler) { ep.handler = h }

// Down reports whether the endpoint has failed.
func (ep *Endpoint) Down() bool { return ep.down }

// Fail stops the endpoint: messages to it are dropped and its CPU pauses.
func (ep *Endpoint) Fail() {
	ep.down = true
	ep.CPU.Suspend()
}

// Recover restarts a failed endpoint.
func (ep *Endpoint) Recover() {
	ep.down = false
	ep.CPU.Resume()
}

// Send transmits payload to the endpoint to. The payload is copied at call
// time. Delivery charges the receiver's CPU; channels are FIFO per
// (sender, receiver) pair. onSent, if non-nil, runs on the sender's CPU
// when the send-side work completes (useful for response-time accounting).
func (ep *Endpoint) Send(to NodeID, payload []byte, onSent func()) {
	if ep.down {
		return
	}
	buf := append([]byte(nil), payload...)
	nw := ep.net
	nw.stats.Sent++
	nw.stats.Bytes += uint64(len(buf))
	ep.CPU.Submit(nw.cost.SendCost, func() {
		if onSent != nil {
			onSent()
		}
		dst := nw.nodes[to]
		arrive := nw.eng.Now() + sim.Time(nw.cost.Latency+nw.cost.transfer(len(buf)))
		if dst.lastArr == nil {
			dst.lastArr = make(map[NodeID]sim.Time)
		}
		if prev := dst.lastArr[ep.id]; arrive <= prev {
			arrive = prev + 1
		}
		dst.lastArr[ep.id] = arrive
		nw.eng.At(arrive, func() {
			if dst.down || dst.handler == nil {
				nw.stats.Dropped++
				return
			}
			from := ep.id
			dst.CPU.Submit(nw.cost.RecvCost, func() {
				nw.stats.Delivered++
				dst.handler(from, buf)
			})
		})
	})
}

// Broadcast sends payload to every other endpoint, charging one send per
// destination (no hardware multicast, as in the MSG baseline).
func (ep *Endpoint) Broadcast(payload []byte, onSent func()) {
	n := len(ep.net.nodes)
	remaining := n - 1
	if remaining <= 0 {
		if onSent != nil {
			onSent()
		}
		return
	}
	cb := func() {
		remaining--
		if remaining == 0 && onSent != nil {
			onSent()
		}
	}
	for id := range ep.net.nodes {
		if NodeID(id) != ep.id {
			ep.Send(NodeID(id), payload, cb)
		}
	}
}
