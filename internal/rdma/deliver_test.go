package rdma_test

import (
	"fmt"
	"slices"
	"testing"

	"hamband/internal/broadcast"
	"hamband/internal/mu"
	"hamband/internal/rdma"
	"hamband/internal/sim"
)

// oneSweepDelivery builds three nodes, each with a broadcast receiver and
// the instances of two Mu groups, g0 led by node 0 and g1 by node 1, in that
// order. While node 2's CPU is busy, node 0 broadcasts two messages and
// each group's leader orders the requests the other of nodes 0 and 1 sent it
// as one round, so node 2's first sweep after the busy item finds both
// groups' rounds committed and both messages in its ring. It
// reports the first way node 2 differs from handing all of it on in one
// DeliverCost item: the messages first, then g0's entries, then g1's — the
// order its in-channels added them — each group's in sequence order. mutate,
// if set, is applied to node 2's handoff.
func oneSweepDelivery(mutate func(*rdma.Handoff)) error {
	const nodes, observed = 3, 2
	eng := sim.NewEngine(11)
	fab := rdma.NewFabric(eng, nodes, rdma.DefaultLatency())
	bcfg, mcfg := broadcast.DefaultConfig(), mu.DefaultConfig()
	broadcast.Setup(fab, bcfg)
	groups := []string{"g0", "g1"}
	for g, name := range groups {
		mu.Setup(fab, name, mcfg, rdma.NodeID(g))
	}
	var got []string
	var bc *broadcast.Broadcaster
	submitters := make([]*mu.Instance, len(groups)) // g's on node 1-g
	for p := 0; p < nodes; p++ {
		node := fab.Node(rdma.NodeID(p))
		if p == 0 {
			bc = broadcast.NewBroadcaster(fab, node, bcfg)
		}
		broadcast.NewReceiver(fab, node, bcfg, func(src rdma.NodeID, seq uint64, payload []byte) {
			if p == observed {
				got = append(got, fmt.Sprintf("bcast %d/%d %s", src, seq, payload))
			}
		})
		for g, name := range groups {
			in := mu.NewInstance(fab, node, name, mcfg, rdma.NodeID(g))
			in.Deliver = func(seq uint64, origin rdma.NodeID, payload []byte) {
				if p == observed {
					got = append(got, fmt.Sprintf("%s %d/%d %s", name, origin, seq, payload))
				}
			}
			if p == 1-g {
				submitters[g] = in
			}
		}
	}
	cpu, lat := fab.Node(observed).CPU, fab.Latency()
	if mutate != nil {
		mutate(fab.Node(observed).Handoff())
	}
	delivers := 0
	cpu.Observe = func(cost sim.Duration) {
		if cost == lat.DeliverCost {
			delivers++
		}
	}
	var want []string
	var sendErr error
	eng.At(0, func() {
		cpu.Submit(5*lat.SweepPeriod, nil)
		for i := 1; i <= 2; i++ {
			if err := bc.Broadcast([]byte(fmt.Sprintf("m%d", i)), nil); err != nil {
				sendErr = err
			}
			want = append(want, fmt.Sprintf("bcast 0/%d m%d", i, i))
		}
		for g, name := range groups {
			for i := 1; i <= 3-g; i++ {
				submitters[g].Submit([]byte(fmt.Sprintf("%s-e%d", name, i)))
				want = append(want, fmt.Sprintf("%s %d/%d %s-e%d", name, 1-g, i, name, i))
			}
		}
	})
	eng.RunUntil(sim.Time(20 * lat.SweepPeriod))
	if sendErr != nil {
		return sendErr
	}
	if !slices.Equal(got, want) {
		return fmt.Errorf("node %d handed on %q, want %q", observed, got, want)
	}
	if delivers != 1 {
		return fmt.Errorf("node %d ran %d DeliverCost items for one sweep's deliveries, want one", observed, delivers)
	}
	return nil
}

// TestOneSweepHandsOnEveryInChannel: the deliveries of a broadcast receiver
// and of two Mu groups found by one sweep of their node reach their handlers
// in the order added, in one DeliverCost item.
func TestOneSweepHandsOnEveryInChannel(t *testing.T) {
	if err := oneSweepDelivery(nil); err != nil {
		t.Fatal(err)
	}
}

// TestOneSweepCatchesMutations runs the mutation controls of the test above:
// a handoff that hands on newest first, and one that closes a record at every
// entry.
func TestOneSweepCatchesMutations(t *testing.T) {
	for _, m := range []struct {
		name   string
		mutate func(*rdma.Handoff)
	}{{"lifo", (*rdma.Handoff).MutateLIFO}, {"per-entry", (*rdma.Handoff).MutatePerEntry}} {
		err := oneSweepDelivery(m.mutate)
		if err == nil {
			t.Errorf("%s: the mutated handoff passed", m.name)
			continue
		}
		t.Logf("%s caught: %v", m.name, err)
	}
}
