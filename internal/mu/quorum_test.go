package mu

import (
	"fmt"
	"slices"
	"testing"

	"hamband/internal/metrics"
	"hamband/internal/rdma"
	"hamband/internal/ring"
	"hamband/internal/sim"
)

// TestRoundSignsItsQuorumOnly: a round of five nodes asks completions of two
// followers, the first by node id, and writes the other two unsignaled, as it
// does every follower's copy of the owed commit after it; all five deliver
// the round.
func TestRoundSignsItsQuorumOnly(t *testing.T) {
	reg := metrics.New(nil)
	c := newClusterCfg(t, 5, 0, DefaultConfig(), reg)
	c.eng.At(0, func() { c.inst[0].Submit([]byte("x")) })
	c.run(100 * sim.Microsecond)
	for p := 1; p < 5; p++ {
		writes := reg.Counter(fmt.Sprintf("rdma.qp.0-%d.writes", p)).Value()
		unsignaled := reg.Counter(fmt.Sprintf("rdma.qp.0-%d.unsignaled", p)).Value()
		if want := uint64(1 - p/3); writes != 2 || writes-unsignaled != want {
			t.Errorf("node %d got %d log writes, %d of them signaled, want 2 and %d", p, writes, writes-unsignaled, want)
		}
	}
	c.wantDelivered(t, []int{0, 1, 2, 3, 4}, []string{"x"})
}

// decideBound is how long after a round starts a leader that falls back
// delivers it at the latest: the quorum's batch (two posts), the due time a
// write's round trip and a SweepPeriod later, the next tick's sweep, and the
// fallback's own signed write, poll and delivery.
func decideBound(lat *rdma.LatencyModel) sim.Duration {
	post := lat.PostCost + lat.InlineCost
	trip := lat.WireLatency + lat.AckLatency
	return 2*post + trip + 2*lat.SweepPeriod + lat.SweepCost + post + trip + lat.PollCost + lat.DeliverCost
}

// quorumFault has four nodes order a first entry, then has fault strike
// signed follower 1 or 2 (the leader's quorum is nodes 1 and 2) as the
// leader starts the next round, "x", and returns how long after the round's
// start the leader delivered it, or an error if it never did. A third entry,
// "y", ordered after "x", must then decide without waiting out a due time: the
// quorum has moved off the follower that missed. noFallback is the mutation:
// the leader never signs node 3.
func quorumFault(t *testing.T, noFallback bool, fault func(c *cluster)) (sim.Duration, error) {
	t.Helper()
	c := newCluster(t, 4, 0)
	leader := c.inst[0]
	leader.noFallback = noFallback
	c.eng.At(0, func() { leader.Submit([]byte("warm")) })
	c.run(20 * sim.Microsecond)
	start := c.eng.Now()
	leader.Submit([]byte("x"))
	fault(c)
	c.run(sim.Millisecond)
	if !slices.Equal(c.delivered[0], []string{"warm", "x"}) {
		return 0, fmt.Errorf("the leader delivered %v a millisecond into the fault, want warm and x", c.delivered[0])
	}
	took := c.at[0][1] - start
	next := c.eng.Now()
	leader.Submit([]byte("y"))
	c.run(sim.Millisecond)
	if len(c.at[0]) != 3 {
		return 0, fmt.Errorf("the leader delivered %v after x, want y", c.delivered[0][2:])
	}
	lat := c.fab.Latency()
	if y := c.at[0][2] - next; y > sim.Time(lat.WireLatency+lat.AckLatency+sim.Microsecond) {
		return 0, fmt.Errorf("y took %v past its round's start: the quorum still waits on the follower that missed", sim.Duration(y))
	}
	return sim.Duration(took), nil
}

// TestQuorumFallbackOnCrash: a signed follower crashes while the round's
// writes are in flight; its write fails, and the leader signs node 3 at once.
func TestQuorumFallbackOnCrash(t *testing.T) {
	crash := func(c *cluster) {
		c.eng.After(400*sim.Nanosecond, func() { c.fab.Node(1).Crash() }) // after the batch's post item
	}
	took, err := quorumFault(t, false, crash)
	if err != nil {
		t.Fatal(err)
	}
	if bound := decideBound(&defaultLatency); took > bound {
		t.Fatalf("x decided %v after its round started, past the fallback's bound %v", took, bound)
	}
	t.Logf("x decided %v after its round started", took)
	if _, err := quorumFault(t, true, crash); err == nil {
		t.Fatal("a leader that never signs the other followers decided past a crashed signed follower")
	} else {
		t.Logf("control stalls: %v", err)
	}
}

// TestQuorumFallbackOnPartition: the link to a signed follower is cut as the
// round starts, so its write parks and never completes; the leader's sweep
// finds the quorum overdue and signs node 3. In the chatter case a second
// Sender on the leader's node posts to the follower every microsecond
// throughout, as broadcast does in the full system: each of its verbs parks
// on the same queue pair, and the log write stays overdue all the same.
func TestQuorumFallbackOnPartition(t *testing.T) {
	for _, chatter := range []bool{false, true} {
		t.Run(fmt.Sprintf("chatter=%v", chatter), func(t *testing.T) {
			partition := func(c *cluster) {
				c.fab.PartitionLink(0, 2)
				if chatter {
					chatterTo(c, 2)
				}
			}
			took, err := quorumFault(t, false, partition)
			if err != nil {
				t.Fatal(err)
			}
			if bound := decideBound(&defaultLatency); took > bound {
				t.Fatalf("x decided %v after its round started, past the overdue bound %v", took, bound)
			}
			t.Logf("x decided %v after its round started", took)
			if _, err := quorumFault(t, true, partition); err == nil {
				t.Fatal("a leader that never signs the other followers decided past a partitioned signed follower")
			} else {
				t.Logf("control stalls: %v", err)
			}
		})
	}
}

// chatterTo has a ring Sender of node 0, on its queue pair to peer, send a
// record every microsecond from now on.
func chatterTo(c *cluster, peer rdma.NodeID) {
	const capacity = 1 << 16 // room for every record of the run: the Sender never waits on a head read
	c.fab.Node(peer).Register("chatter", ring.RegionSize(capacity))
	s := ring.NewSender(c.fab, c.fab.Node(0), c.fab.Node(0).NewBatch(rdma.InlineFits), peer, "chatter", capacity)
	rec := make([]byte, 8)
	var send func()
	send = func() {
		s.Send(rec, "", nil)
		c.eng.After(sim.Microsecond, send)
	}
	send()
}

var defaultLatency = rdma.DefaultLatency()

// quorumGrows has a three-member group with node 3 observing order a round,
// which asks a completion of node 1 alone, and admits node 3 while the
// round's writes are in flight: node 1's completion then leaves the round
// short of the larger majority, with no signed write outstanding, so the next
// sweep signs nodes 2 and 3 at once. It returns how long after the round's
// start the leader delivered it, or an error if it never did. noFallback is
// the mutation.
func quorumGrows(t *testing.T, noFallback bool) (sim.Duration, error) {
	t.Helper()
	c := newCluster(t, 4, 0)
	three := []bool{true, true, true, false}
	for _, in := range c.inst {
		in.SetMembers(three)
	}
	c.inst[0].noFallback = noFallback
	c.eng.At(0, func() { c.inst[0].Submit([]byte("warm")) })
	c.run(20 * sim.Microsecond)
	start := c.eng.Now()
	c.inst[0].Submit([]byte("x"))
	c.eng.After(400*sim.Nanosecond, func() {
		for _, in := range c.inst {
			in.SetMembers(nil)
		}
	})
	c.run(sim.Millisecond)
	if !slices.Equal(c.delivered[0], []string{"warm", "x"}) {
		return 0, fmt.Errorf("the leader delivered %v a millisecond after the majority grew, want warm and x", c.delivered[0])
	}
	return sim.Duration(c.at[0][1] - start), nil
}

// TestQuorumFallbackWhenTheMajorityGrows: see quorumGrows. The round decides
// within a round trip and a sweep of the one completion it asked for.
func TestQuorumFallbackWhenTheMajorityGrows(t *testing.T) {
	took, err := quorumGrows(t, false)
	if err != nil {
		t.Fatal(err)
	}
	if bound := decideBound(&defaultLatency); took > bound {
		t.Fatalf("x decided %v after its round started, past %v", took, bound)
	}
	t.Logf("x decided %v after its round started", took)
	if _, err := quorumGrows(t, true); err == nil {
		t.Fatal("a leader that never signs the other followers decided a round short of the grown majority")
	} else {
		t.Logf("control stalls: %v", err)
	}
}

// staleRun is how long staleCatchUp waits for node 3 to catch up.
const staleRun = 400 * sim.Microsecond

// staleCatchUp has node 3, which the leader writes unsignaled, miss a round on
// a fabric priced by lat: the leader's write permission on its log ring is
// revoked while the round and its owed commit go out, so both writes fail
// unseen, and nothing is left in node 3's stash to show a gap. Only the
// staleness branch of the sweep can bring it the round: it must pull it from
// the leader's journal, no sooner than CatchUpAfter after its last delivery
// progress, and within a few sweeps and reads after that.
func staleCatchUp(t *testing.T, lat rdma.LatencyModel) error {
	t.Helper()
	c := newClusterOn(t, 4, 0, DefaultConfig(), lat, nil)
	follower := c.inst[3]
	ring := c.fab.Node(3).Region(logRegion("g"))
	c.eng.At(0, func() { c.inst[0].Submit([]byte("a")) })
	c.run(10 * sim.Microsecond)
	ring.RevokeWrite(0)
	c.inst[0].Submit([]byte("b"))
	c.run(10 * sim.Microsecond)
	if !slices.Equal(c.delivered[0], []string{"a", "b"}) || len(follower.stash) != 0 {
		return fmt.Errorf("the leader delivered %v and node 3 stashes %d entries, want a and b, and none", c.delivered[0], len(follower.stash))
	}
	ring.AllowWrite(0)
	last := follower.lastProgressAt
	c.run(staleRun)
	if !slices.Equal(c.delivered[3], []string{"a", "b"}) {
		return fmt.Errorf("node 3 delivered %v, want a and b", c.delivered[3])
	}
	got := c.at[3][1]
	if earliest := last + sim.Time(lat.CatchUpAfter); got <= earliest {
		return fmt.Errorf("node 3 delivered b at %d, not after CatchUpAfter past its last progress at %d", got, last)
	}
	// The sweep after the staleness period, then a state read and a journal read.
	if latest := last + sim.Time(lat.CatchUpAfter+lat.SweepPeriod+4*(lat.WireLatency+lat.AckLatency)); got > latest {
		return fmt.Errorf("node 3 delivered b at %d, later than %d", got, latest)
	}
	return nil
}

func TestStaleFollowerCatchesUp(t *testing.T) {
	if err := staleCatchUp(t, rdma.DefaultLatency()); err != nil {
		t.Fatal(err)
	}
}

// TestStaleCatchUpCatchesSkippedBranch is the mutation control of the test
// above: a staleness period longer than the run keeps the branch from firing,
// as a sweep that skipped it would.
func TestStaleCatchUpCatchesSkippedBranch(t *testing.T) {
	lat := rdma.DefaultLatency()
	lat.CatchUpAfter = 2 * staleRun
	err := staleCatchUp(t, lat)
	if err == nil {
		t.Fatal("a follower whose staleness period outlasts the run caught up")
	}
	t.Logf("caught: %v", err)
}

// TestBusyLeaderQuorumInlines is the control of the broadcast's inline rule:
// a conflicting call's response waits on its round's quorum writes, so a
// leader's batch inlines whatever fits however busy its CPU is
// (rdma.InlineFits), where a broadcast message's writes post by DMA behind
// queued work (rdma.InlineWhenIdle). By DMA, the quorum writes cost the
// Fig. 10 movie point 9.4 % of its throughput.
func TestBusyLeaderQuorumInlines(t *testing.T) {
	reg := metrics.New(nil)
	c := newClusterCfg(t, 5, 0, DefaultConfig(), reg)
	cpu := c.fab.Node(0).CPU
	// Two chains of short items keep one queued behind whatever runs.
	var spin func()
	spin = func() {
		if c.eng.Now() < sim.Time(50*sim.Microsecond) {
			cpu.Submit(50*sim.Nanosecond, spin)
		}
	}
	c.eng.At(0, func() {
		spin()
		spin()
		c.inst[0].Submit([]byte("x"))
	})
	c.run(100 * sim.Microsecond)
	c.wantDelivered(t, []int{0, 1, 2, 3, 4}, []string{"x"})
	for p := 1; p < 5; p++ {
		writes := reg.Counter(fmt.Sprintf("rdma.qp.0-%d.writes", p)).Value()
		inline := reg.Counter(fmt.Sprintf("rdma.qp.0-%d.inline_writes", p)).Value()
		if writes == 0 || inline != writes {
			t.Errorf("follower %d: %d of the busy leader's %d log writes inline, want all", p, inline, writes)
		}
	}
}
