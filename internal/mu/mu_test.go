package mu

import (
	"errors"
	"fmt"
	"slices"
	"strings"
	"testing"

	"hamband/internal/codec"
	"hamband/internal/metrics"
	"hamband/internal/rdma"
	"hamband/internal/ring"
	"hamband/internal/sim"
)

type cluster struct {
	eng  *sim.Engine
	fab  *rdma.Fabric
	inst []*Instance
	// delivered[node] is the ordered list of payloads delivered there.
	delivered [][]string
	seqs      [][]uint64
	at        [][]sim.Time // when each delivery ran
}

func newCluster(t *testing.T, n int, leader rdma.NodeID) *cluster {
	t.Helper()
	return newClusterCfg(t, n, leader, DefaultConfig(), nil)
}

// newClusterCfg builds an n-node group under cfg; reg, when non-nil, is
// attached to the fabric first, so the instances register their instruments.
func newClusterCfg(t *testing.T, n int, leader rdma.NodeID, cfg Config, reg *metrics.Registry) *cluster {
	t.Helper()
	return newClusterOn(t, n, leader, cfg, rdma.DefaultLatency(), reg)
}

// newClusterOn is newClusterCfg on a fabric priced by lat.
func newClusterOn(t *testing.T, n int, leader rdma.NodeID, cfg Config, lat rdma.LatencyModel, reg *metrics.Registry) *cluster {
	t.Helper()
	eng := sim.NewEngine(41)
	fab := rdma.NewFabric(eng, n, lat)
	fab.EnableMetrics(reg)
	Setup(fab, "g", cfg, leader)
	c := &cluster{eng: eng, fab: fab, delivered: make([][]string, n), seqs: make([][]uint64, n), at: make([][]sim.Time, n)}
	for i := 0; i < n; i++ {
		i := i
		in := NewInstance(fab, fab.Node(rdma.NodeID(i)), "g", cfg, leader)
		in.Deliver = func(seq uint64, origin rdma.NodeID, payload []byte) {
			c.delivered[i] = append(c.delivered[i], string(payload))
			c.seqs[i] = append(c.seqs[i], seq)
			c.at[i] = append(c.at[i], eng.Now())
		}
		c.inst = append(c.inst, in)
	}
	return c
}

func (c *cluster) run(d sim.Duration) { c.eng.RunUntil(c.eng.Now() + sim.Time(d)) }

func TestLeaderSubmissionReachesAll(t *testing.T) {
	c := newCluster(t, 3, 0)
	c.eng.At(0, func() { c.inst[0].Submit([]byte("a")) })
	c.run(2 * sim.Millisecond)
	for i := 0; i < 3; i++ {
		if len(c.delivered[i]) != 1 || c.delivered[i][0] != "a" {
			t.Fatalf("node %d delivered %v", i, c.delivered[i])
		}
	}
}

func TestFollowerSubmissionRedirects(t *testing.T) {
	c := newCluster(t, 3, 0)
	c.eng.At(0, func() { c.inst[2].Submit([]byte("via-follower")) })
	c.run(2 * sim.Millisecond)
	for i := 0; i < 3; i++ {
		if len(c.delivered[i]) != 1 || c.delivered[i][0] != "via-follower" {
			t.Fatalf("node %d delivered %v", i, c.delivered[i])
		}
	}
}

func TestTotalOrderAcrossSubmitters(t *testing.T) {
	c := newCluster(t, 4, 1)
	const per = 40
	c.eng.At(0, func() {
		for i := 0; i < per; i++ {
			for s := 0; s < 4; s++ {
				c.inst[s].Submit([]byte(fmt.Sprintf("s%d-%d", s, i)))
			}
		}
	})
	c.run(50 * sim.Millisecond)
	want := 4 * per
	for i := 0; i < 4; i++ {
		if len(c.delivered[i]) != want {
			t.Fatalf("node %d delivered %d, want %d", i, len(c.delivered[i]), want)
		}
	}
	// Same total order everywhere.
	for i := 1; i < 4; i++ {
		for j := range c.delivered[0] {
			if c.delivered[i][j] != c.delivered[0][j] {
				t.Fatalf("node %d order diverges at %d: %q vs %q",
					i, j, c.delivered[i][j], c.delivered[0][j])
			}
		}
	}
	// Sequence numbers are contiguous from 1.
	for j, s := range c.seqs[0] {
		if s != uint64(j+1) {
			t.Fatalf("gap in sequence numbers at %d: %v...", j, c.seqs[0][:j+1])
		}
	}
}

func TestPermissionBlocksDeposedLeader(t *testing.T) {
	c := newCluster(t, 3, 0)
	// Manually run an election on node 1 (as if the detector fired).
	c.eng.At(sim.Time(100*sim.Microsecond), func() { c.inst[1].StartElection() })
	c.run(5 * sim.Millisecond)
	if !c.inst[1].IsLeader() {
		t.Fatal("candidate did not become leader")
	}
	if c.inst[0].IsLeader() {
		// Node 0 learns it was deposed when it handles the vote request.
		t.Fatal("old leader still believes it leads after voting")
	}
	// The old leader's writes must now be rejected by permissions: submit
	// through node 0 — it should route to the new leader (it granted the
	// vote, so it knows), and the system must still deliver.
	c.eng.At(c.eng.Now(), func() { c.inst[0].Submit([]byte("post-change")) })
	c.run(5 * sim.Millisecond)
	for i := 0; i < 3; i++ {
		if len(c.delivered[i]) != 1 || c.delivered[i][0] != "post-change" {
			t.Fatalf("node %d delivered %v after leader change", i, c.delivered[i])
		}
	}
	if c.inst[1].Term() == 0 {
		t.Fatal("term did not advance")
	}
}

func TestLeaderFailureWithRecovery(t *testing.T) {
	c := newCluster(t, 3, 0)
	// The leader orders a few entries, then suspends mid-stream; node 1
	// takes over and must recover undelivered entries from the journal.
	c.eng.At(0, func() {
		for i := 0; i < 10; i++ {
			c.inst[0].Submit([]byte(fmt.Sprintf("pre-%d", i)))
		}
	})
	c.eng.At(sim.Time(30*sim.Microsecond), func() {
		c.fab.Node(0).Suspend() // mid-fan-out
	})
	c.eng.At(sim.Time(200*sim.Microsecond), func() { c.inst[1].StartElection() })
	c.eng.At(sim.Time(3*sim.Millisecond), func() { c.inst[1].Submit([]byte("post")) })
	c.run(20 * sim.Millisecond)

	if !c.inst[1].IsLeader() {
		t.Fatal("node 1 did not take over")
	}
	// Both survivors must deliver the same sequence, ending with "post".
	if len(c.delivered[1]) == 0 || len(c.delivered[2]) == 0 {
		t.Fatalf("survivors delivered %d/%d entries", len(c.delivered[1]), len(c.delivered[2]))
	}
	if len(c.delivered[1]) != len(c.delivered[2]) {
		t.Fatalf("survivors delivered %d vs %d entries", len(c.delivered[1]), len(c.delivered[2]))
	}
	for j := range c.delivered[1] {
		if c.delivered[1][j] != c.delivered[2][j] {
			t.Fatalf("survivor orders diverge at %d", j)
		}
	}
	last := c.delivered[1][len(c.delivered[1])-1]
	if last != "post" {
		t.Fatalf("last delivery = %q, want the post-failover entry", last)
	}
}

func TestFollowerFailureDoesNotBlock(t *testing.T) {
	c := newCluster(t, 3, 0)
	c.eng.At(0, func() { c.fab.Node(2).Suspend() })
	c.eng.At(sim.Time(10*sim.Microsecond), func() {
		for i := 0; i < 20; i++ {
			c.inst[0].Submit([]byte(fmt.Sprintf("m%d", i)))
		}
	})
	c.run(10 * sim.Millisecond)
	for _, i := range []int{0, 1} {
		if len(c.delivered[i]) != 20 {
			t.Fatalf("node %d delivered %d, want 20 despite follower failure", i, len(c.delivered[i]))
		}
	}
}

func TestResubmissionAfterLeaderChange(t *testing.T) {
	// A follower submits to a leader that is already suspended: the request
	// lands in the dead leader's ring. After the leader change the follower
	// must resubmit to the new leader, and delivery must happen exactly once.
	c := newCluster(t, 3, 0)
	c.eng.At(0, func() { c.fab.Node(0).Suspend() })
	c.eng.At(sim.Time(20*sim.Microsecond), func() { c.inst[2].Submit([]byte("orphan")) })
	c.eng.At(sim.Time(200*sim.Microsecond), func() { c.inst[1].StartElection() })
	c.run(20 * sim.Millisecond)
	for _, i := range []int{1, 2} {
		count := 0
		for _, m := range c.delivered[i] {
			if m == "orphan" {
				count++
			}
		}
		if count != 1 {
			t.Fatalf("node %d delivered the orphan %d times, want exactly once", i, count)
		}
	}
}

func TestElectionWithDetectorIntegration(t *testing.T) {
	c := newCluster(t, 3, 0)
	for i := 0; i < 3; i++ {
		i := i
		c.fab.Node(rdma.NodeID(i)).Subscribe(func(peer rdma.NodeID) {
			// Next node in ring order becomes candidate.
			if peer == c.inst[i].Leader() && rdma.NodeID((int(peer)+1)%3) == c.fab.Node(rdma.NodeID(i)).ID() {
				c.inst[i].StartElection()
			}
		}, nil)
	}
	c.eng.At(sim.Time(100*sim.Microsecond), func() { c.fab.Node(0).Suspend() })
	c.eng.At(sim.Time(5*sim.Millisecond), func() { c.inst[2].Submit([]byte("after")) })
	c.run(20 * sim.Millisecond)
	if !c.inst[1].IsLeader() {
		t.Fatal("detector-driven election did not elect node 1")
	}
	for _, i := range []int{1, 2} {
		found := false
		for _, m := range c.delivered[i] {
			if m == "after" {
				found = true
			}
		}
		if !found {
			t.Fatalf("node %d missing post-failover delivery", i)
		}
	}
}

func TestStaleCandidacyIgnored(t *testing.T) {
	c := newCluster(t, 3, 0)
	c.eng.At(sim.Time(100*sim.Microsecond), func() { c.inst[1].StartElection() })
	c.run(5 * sim.Millisecond)
	term := c.inst[1].Term()
	// A stale vote (lower term) must not depose the new leader.
	c.eng.At(c.eng.Now(), func() { c.inst[1].handleVote(term-1, 2) })
	c.run(sim.Millisecond)
	if !c.inst[1].IsLeader() {
		t.Fatal("stale candidacy deposed the leader")
	}
}

func TestSingleNodeCluster(t *testing.T) {
	c := newCluster(t, 1, 0)
	c.eng.At(0, func() { c.inst[0].Submit([]byte("solo")) })
	c.run(sim.Millisecond)
	if len(c.delivered[0]) != 1 || c.delivered[0][0] != "solo" {
		t.Fatalf("delivered %v", c.delivered[0])
	}
}

func TestCompetingCandidatesResolveDeterministically(t *testing.T) {
	// The leader fails and BOTH survivors stand for election in the same
	// term simultaneously. The tie must resolve (lower id wins) rather than
	// deadlock with each candidate ignoring the other's request.
	c := newCluster(t, 3, 0)
	c.eng.At(0, func() { c.fab.Node(0).Suspend() })
	c.eng.At(sim.Time(100*sim.Microsecond), func() {
		c.inst[1].StartElection()
		c.inst[2].StartElection()
	})
	c.eng.At(sim.Time(10*sim.Millisecond), func() { c.inst[2].Submit([]byte("after-tie")) })
	c.run(50 * sim.Millisecond)
	if !c.inst[1].IsLeader() {
		t.Fatalf("node 1 (lower id) should win the tie; leaders: p1=%v p2=%v",
			c.inst[1].IsLeader(), c.inst[2].IsLeader())
	}
	if c.inst[2].IsLeader() {
		t.Fatal("both candidates became leader")
	}
	for _, i := range []int{1, 2} {
		found := false
		for _, m := range c.delivered[i] {
			if m == "after-tie" {
				found = true
			}
		}
		if !found {
			t.Fatalf("node %d missing post-tie delivery", i)
		}
	}
}

func TestDuplicateVoteSameTermIgnored(t *testing.T) {
	// A voter grants at most one candidate per term.
	c := newCluster(t, 5, 0)
	c.eng.At(sim.Time(100*sim.Microsecond), func() {
		c.inst[1].StartElection()
	})
	c.run(5 * sim.Millisecond)
	term := c.inst[1].Term()
	// A later same-term candidacy from a higher id must not depose p1.
	c.eng.At(c.eng.Now(), func() { c.inst[3].handleVote(term, 3) })
	c.run(sim.Millisecond)
	if !c.inst[1].IsLeader() {
		t.Fatal("leader lost leadership to a same-term stale candidacy")
	}
}

// TestMessagesNamingNoNodeDropped writes a vote, a grant and a log entry that
// name node n, an id no node has, onto the rings they travel on. Each must be
// dropped: no panic, and no change to the receiver's leader, term, grants or
// delivery dedup. The entry is still sequenced, but delivered nowhere. With a
// membership view installed, looking such an id up in the view used to index
// past it; without one, the vote made a node no node the leader.
func TestMessagesNamingNoNodeDropped(t *testing.T) {
	const n = 5
	for _, view := range []bool{false, true} {
		t.Run(fmt.Sprintf("view=%v", view), func(t *testing.T) {
			c := newCluster(t, n, 0)
			if view {
				for _, in := range c.inst {
					in.SetMembers([]bool{true, true, true, true, true})
				}
			}
			// Node 1 stands for election with nodes 0, 3 and 4 suspended: node
			// 2's grant leaves it one short of a majority, still electing.
			c.eng.At(0, func() {
				for _, p := range []rdma.NodeID{0, 3, 4} {
					c.fab.Node(p).Suspend()
				}
			})
			c.eng.At(sim.Time(10*sim.Microsecond), func() { c.inst[1].StartElection() })
			c.run(100 * sim.Microsecond)
			cand, follower := c.inst[1], c.inst[2]
			if !cand.Electing() || len(cand.grants) != 2 || follower.Leader() != 1 {
				t.Fatalf("electing=%v grants=%v follower's leader %d: want node 1 electing on 2 grants", cand.Electing(), cand.grants, follower.Leader())
			}
			state := func(in *Instance) string {
				return fmt.Sprintf("leader=%d term=%d leading=%v electing=%v grants=%v dedup=%v",
					in.leader, in.term, in.isLeader, in.electing, in.grants, in.dedup)
			}
			before := state(cand) + " | " + state(follower)
			c.eng.At(c.eng.Now(), func() {
				cand.ctrlOut[2].Send(cand.frameVote(cand.term+1, n), "", nil)
				follower.ctrlOut[1].Send(follower.frameGrant(cand.term, 0, n), "", nil)
				b := appendRoundHeader(codec.BeginRaw(nil), 1, cand.term, 1, 1)
				cand.logOut[2].Send(cand.frame(appendEntry(b, entry{n, 1, []byte("from no node")})), "", nil)
			})
			c.run(50 * sim.Microsecond)
			if after := state(cand) + " | " + state(follower); after != before {
				t.Errorf("messages naming node %d changed state:\n before %s\n after  %s", n, before, after)
			}
			if follower.LastDelivered() != 1 || len(c.delivered[2]) != 0 {
				t.Errorf("follower delivered through seq %d, payloads %q: want the entry sequenced and delivered nowhere",
					follower.LastDelivered(), c.delivered[2])
			}
		})
	}
}

func TestLogRingBackpressure(t *testing.T) {
	// A tiny log ring forces the leader through the head-refresh path;
	// every entry must still arrive, in order.
	eng := sim.NewEngine(43)
	fab := rdma.NewFabric(eng, 3, rdma.DefaultLatency())
	cfg := DefaultConfig()
	cfg.RingCapacity = 512
	Setup(fab, "bp", cfg, 0)
	delivered := make([][]uint64, 3)
	var inst []*Instance
	for i := 0; i < 3; i++ {
		i := i
		in := NewInstance(fab, fab.Node(rdma.NodeID(i)), "bp", cfg, 0)
		in.Deliver = func(seq uint64, _ rdma.NodeID, _ []byte) {
			delivered[i] = append(delivered[i], seq)
		}
		inst = append(inst, in)
	}
	const n = 200
	eng.At(0, func() {
		for i := 0; i < n; i++ {
			inst[0].Submit(make([]byte, 64))
		}
	})
	eng.RunUntil(sim.Time(200 * sim.Millisecond))
	for i := 0; i < 3; i++ {
		if len(delivered[i]) != n {
			t.Fatalf("node %d delivered %d/%d under backpressure", i, len(delivered[i]), n)
		}
		for j, s := range delivered[i] {
			if s != uint64(j+1) {
				t.Fatalf("node %d out of order at %d", i, j)
			}
		}
	}
}

func TestStopCancelsPolling(t *testing.T) {
	c := newCluster(t, 2, 0)
	c.inst[1].Stop()
	c.eng.At(0, func() { c.inst[0].Submit([]byte("x")) })
	c.run(5 * sim.Millisecond)
	if len(c.delivered[1]) != 0 {
		t.Fatal("stopped instance still delivered")
	}
	if len(c.delivered[0]) != 1 {
		t.Fatal("leader should still decide with a majority (2/2 posts, self + completion)")
	}
}

func TestJournalWrapDiscardsOverwrittenSlots(t *testing.T) {
	// More entries than journal slots: recovery after that must not
	// resurrect garbage (overwritten slots are detected by seq mismatch).
	eng := sim.NewEngine(44)
	fab := rdma.NewFabric(eng, 3, rdma.DefaultLatency())
	cfg := DefaultConfig()
	cfg.JournalSlots = 16
	Setup(fab, "jw", cfg, 0)
	delivered := make([]int, 3)
	var inst []*Instance
	for i := 0; i < 3; i++ {
		i := i
		in := NewInstance(fab, fab.Node(rdma.NodeID(i)), "jw", cfg, 0)
		in.Deliver = func(uint64, rdma.NodeID, []byte) { delivered[i]++ }
		inst = append(inst, in)
	}
	eng.At(0, func() {
		for i := 0; i < 100; i++ {
			inst[0].Submit([]byte("m"))
		}
	})
	eng.At(sim.Time(20*sim.Millisecond), func() {
		fab.Node(0).Suspend()
	})
	eng.At(sim.Time(21*sim.Millisecond), func() { inst[1].StartElection() })
	eng.At(sim.Time(40*sim.Millisecond), func() { inst[1].Submit([]byte("post")) })
	eng.RunUntil(sim.Time(100 * sim.Millisecond))
	if !inst[1].IsLeader() {
		t.Fatal("takeover failed")
	}
	// Survivors agree and include the post-failover entry.
	if delivered[1] != delivered[2] {
		t.Fatalf("survivors delivered %d vs %d", delivered[1], delivered[2])
	}
	if delivered[1] < 101 {
		t.Fatalf("delivered %d, want >= 101", delivered[1])
	}
}

func TestZombieLeaderCannotDecide(t *testing.T) {
	// The deposed-leader scenario the chaos suite uncovered: the original
	// leader suspends; a successor is elected; the old leader resumes and
	// — not yet aware of its deposition — keeps proposing. Its zombie
	// proposals must never deliver anywhere (its writes fail voter
	// permissions, so it cannot assemble a majority), and once it
	// processes the election it must resubmit them to the real leader,
	// delivering exactly once.
	c := newCluster(t, 3, 0)
	c.eng.At(0, func() {
		c.inst[0].Submit([]byte("legit-1"))
	})
	c.eng.At(sim.Time(100*sim.Microsecond), func() { c.fab.Node(0).Suspend() })
	c.eng.At(sim.Time(200*sim.Microsecond), func() { c.inst[1].StartElection() })
	c.eng.At(sim.Time(2*sim.Millisecond), func() {
		// New leader serves traffic under term 1.
		c.inst[1].Submit([]byte("new-era"))
	})
	c.eng.At(sim.Time(3*sim.Millisecond), func() {
		// The zombie resumes and immediately proposes, before its poll
		// loop has processed the vote request.
		c.fab.Node(0).Resume()
		c.inst[0].Submit([]byte("zombie"))
	})
	c.run(30 * sim.Millisecond)

	for i := 0; i < 3; i++ {
		counts := map[string]int{}
		for _, m := range c.delivered[i] {
			counts[m]++
		}
		if counts["zombie"] != 1 {
			t.Fatalf("node %d delivered zombie %d times, want exactly once (resubmitted to the real leader)",
				i, counts["zombie"])
		}
		if counts["new-era"] != 1 || counts["legit-1"] != 1 {
			t.Fatalf("node %d deliveries: %v", i, counts)
		}
	}
	// Total order agrees across nodes.
	for i := 1; i < 3; i++ {
		if len(c.delivered[i]) != len(c.delivered[0]) {
			t.Fatalf("node %d delivered %d entries vs %d", i, len(c.delivered[i]), len(c.delivered[0]))
		}
		for j := range c.delivered[0] {
			if c.delivered[i][j] != c.delivered[0][j] {
				t.Fatalf("order diverges at %d", j)
			}
		}
	}
	if c.inst[0].IsLeader() {
		t.Fatal("zombie still believes it leads after resuming")
	}
}

func TestCommitRecordUnblocksLastEntry(t *testing.T) {
	// With no pipeline to piggyback on, a single submission's commit must
	// reach followers via a dedicated commit record — otherwise the last
	// entry of a burst would sit uncommitted at followers forever.
	c := newCluster(t, 3, 0)
	c.eng.At(0, func() { c.inst[0].Submit([]byte("solo")) })
	c.run(5 * sim.Millisecond)
	for i := 0; i < 3; i++ {
		if len(c.delivered[i]) != 1 {
			t.Fatalf("node %d delivered %d entries, want 1 (commit record missing?)", i, len(c.delivered[i]))
		}
	}
}

func TestStaleTermEntriesDropped(t *testing.T) {
	// After a follower has seen a term-1 entry, a lingering term-0 write
	// landing later in its ring must be discarded, not stashed or applied.
	c := newCluster(t, 3, 0)
	c.eng.At(0, func() { c.inst[0].Submit([]byte("term0")) })
	c.eng.At(sim.Time(500*sim.Microsecond), func() { c.fab.Node(0).Suspend() })
	c.eng.At(sim.Time(600*sim.Microsecond), func() { c.inst[1].StartElection() })
	c.eng.At(sim.Time(3*sim.Millisecond), func() { c.inst[1].Submit([]byte("term1")) })
	c.run(20 * sim.Millisecond)
	for _, i := range []int{1, 2} {
		if len(c.delivered[i]) != 2 {
			t.Fatalf("node %d delivered %d, want 2", i, len(c.delivered[i]))
		}
	}
	// The follower (the leader delivers via decide, not its ring) must
	// have adopted the new ring term, arming the stale-term filter.
	if c.inst[2].ringTerm == 0 {
		t.Fatal("follower never adopted the new ring term")
	}
}

func TestFollowerCatchUpAfterMissedElection(t *testing.T) {
	// A follower suspended through an election misses log writes (its
	// permissions rejected the new leader); on resume it must catch up
	// from the leader's journal.
	c := newCluster(t, 4, 0)
	c.eng.At(sim.Time(50*sim.Microsecond), func() { c.fab.Node(3).Suspend() })
	c.eng.At(sim.Time(100*sim.Microsecond), func() { c.fab.Node(0).Suspend() })
	c.eng.At(sim.Time(250*sim.Microsecond), func() { c.inst[1].StartElection() })
	c.eng.At(sim.Time(2*sim.Millisecond), func() {
		for i := 0; i < 10; i++ {
			c.inst[1].Submit([]byte(fmt.Sprintf("m%d", i)))
		}
	})
	// Node 3 resumes long after: it voted for nobody and missed everything.
	c.eng.At(sim.Time(5*sim.Millisecond), func() { c.fab.Node(3).Resume() })
	c.run(50 * sim.Millisecond)
	if got := len(c.delivered[3]); got != 10 {
		t.Fatalf("resumed follower delivered %d/10 (catch-up failed)", got)
	}
	for j := range c.delivered[3] {
		if c.delivered[3][j] != c.delivered[1][j] {
			t.Fatalf("resumed follower's order diverges at %d", j)
		}
	}
}

func TestLogEntryWireRoundTrip(t *testing.T) {
	b := appendRoundHeader(nil, 42, 3, 41, 2)
	b = appendEntry(b, entry{2, 99, []byte("payload")})
	b = appendEntry(b, entry{1, 7, nil})
	r, err := decodeRound(b)
	if err != nil {
		t.Fatal(err)
	}
	type got struct {
		seq       uint64
		origin    rdma.NodeID
		submitSeq uint64
		payload   string
	}
	var entries []got
	r.each(func(seq uint64, e entry) {
		entries = append(entries, got{seq, e.origin, e.submitSeq, string(e.payload)})
	})
	if r.first != 42 || r.term != 3 || r.commit != 41 || r.count != 2 ||
		!slices.Equal(entries, []got{{42, 2, 99, "payload"}, {43, 1, 7, ""}}) {
		t.Fatalf("round trip = %+v, entries %+v", r, entries)
	}
	// Four one-byte varints of header, then three per entry ahead of its
	// payload: every cut is an error, and so is a byte past the last entry.
	if len(b) != 4+3+len("payload")+3 {
		t.Fatalf("the round packs to %d bytes, want %d", len(b), 4+3+len("payload")+3)
	}
	for cut := 0; cut < len(b); cut++ {
		if _, err := decodeRound(b[:cut]); err == nil {
			t.Fatalf("round truncated to %d bytes decoded", cut)
		}
	}
	if _, err := decodeRound(append(b, 0)); !errors.Is(err, codec.ErrCorrupt) {
		t.Fatalf("a byte past the round: %v, want codec.ErrCorrupt", err)
	}
	// A round of no entries carries its commit alone.
	cr, err := decodeRound(appendRoundHeader(nil, 44, 3, 43, 0))
	if err != nil || cr.first != 44 || cr.commit != 43 || cr.count != 0 {
		t.Fatalf("round of no entries = %+v, %v", cr, err)
	}
}

func TestVoteGrantWireRoundTrip(t *testing.T) {
	in := newCluster(t, 3, 0).inst[0]
	v, _, err := codec.DecodeRaw(in.frameVote(7, 2))
	if err != nil || len(v) != 3 {
		t.Fatalf("vote %x, %v: want kind, term and candidate in 3 bytes", v, err)
	}
	if m, err := decodeCtrl(v); err != nil || m != (ctrl{term: 7, node: 2}) {
		t.Fatalf("vote decodes to %+v, %v: want term 7 from candidate 2", m, err)
	}
	g, _, err := codec.DecodeRaw(in.frameGrant(7, 300, 1))
	if err != nil || len(g) != 5 {
		t.Fatalf("grant %x, %v: want kind, term, a two-byte watermark and voter in 5 bytes", g, err)
	}
	if m, err := decodeCtrl(g); err != nil || m != (ctrl{grant: true, term: 7, lastDelivered: 300, node: 1}) {
		t.Fatalf("grant decodes to %+v, %v: want term 7, watermark 300 from voter 1", m, err)
	}
}

// TestRepeatedLeaderKillsConverge drives three successive leader kills on
// a five-node cluster: each sitting leader is suspended mid-reign, a
// scripted successor takes over, commits a batch, and the deposed leader
// later resumes as a follower (keeping the vote quorum intact and
// exercising zombie-leader rejection plus journal catch-up at every
// step). At the end every node must hold the identical total order, every
// batch committed under a stable leader must be present, and nothing may
// be delivered twice.
func TestRepeatedLeaderKillsConverge(t *testing.T) {
	c := newCluster(t, 5, 0)
	submit := func(at sim.Duration, node int, tag string) {
		c.eng.At(sim.Time(at), func() {
			for i := 0; i < 10; i++ {
				c.inst[node].Submit([]byte(fmt.Sprintf("%s-%d", tag, i)))
			}
		})
	}

	submit(0, 0, "a")
	// Kill 1: leader 0 dies; node 1 takes over; 0 rejoins deposed.
	c.eng.At(sim.Time(200*sim.Microsecond), func() { c.fab.Node(0).Suspend() })
	c.eng.At(sim.Time(400*sim.Microsecond), func() { c.inst[1].StartElection() })
	submit(3*sim.Millisecond, 1, "b")
	c.eng.At(sim.Time(5*sim.Millisecond), func() { c.fab.Node(0).Resume() })
	// Kill 2: leader 1 dies; node 2 takes over; 1 rejoins deposed.
	c.eng.At(sim.Time(6*sim.Millisecond), func() { c.fab.Node(1).Suspend() })
	c.eng.At(sim.Time(6200*sim.Microsecond), func() { c.inst[2].StartElection() })
	submit(9*sim.Millisecond, 2, "c")
	c.eng.At(sim.Time(11*sim.Millisecond), func() { c.fab.Node(1).Resume() })
	// Kill 3: leader 2 dies; node 3 takes over; 2 rejoins deposed.
	c.eng.At(sim.Time(12*sim.Millisecond), func() { c.fab.Node(2).Suspend() })
	c.eng.At(sim.Time(12200*sim.Microsecond), func() { c.inst[3].StartElection() })
	submit(15*sim.Millisecond, 3, "d")
	c.eng.At(sim.Time(17*sim.Millisecond), func() { c.fab.Node(2).Resume() })
	c.run(60 * sim.Millisecond)

	if !c.inst[3].IsLeader() {
		t.Fatal("node 3 is not leader after the third kill")
	}
	for i := 0; i < 5; i++ {
		if i != 3 && c.inst[i].IsLeader() {
			t.Fatalf("deposed node %d still claims leadership", i)
		}
	}
	// Identical total order everywhere, including the thrice-resumed nodes.
	for i := 1; i < 5; i++ {
		if len(c.delivered[i]) != len(c.delivered[0]) {
			t.Fatalf("node %d delivered %d entries, node 0 delivered %d",
				i, len(c.delivered[i]), len(c.delivered[0]))
		}
		for j := range c.delivered[i] {
			if c.delivered[i][j] != c.delivered[0][j] {
				t.Fatalf("orders diverge at %d: node %d has %q, node 0 has %q",
					j, i, c.delivered[i][j], c.delivered[0][j])
			}
		}
	}
	// No committed entry lost, none duplicated. Batches b, c, d were
	// committed under stable leaders; batch a had 200 µs before kill 1.
	count := make(map[string]int)
	for _, m := range c.delivered[0] {
		count[m]++
	}
	for _, tag := range []string{"a", "b", "c", "d"} {
		for i := 0; i < 10; i++ {
			m := fmt.Sprintf("%s-%d", tag, i)
			if count[m] != 1 {
				t.Errorf("%q delivered %d times, want exactly once", m, count[m])
			}
		}
	}
	if len(count) != 40 {
		t.Errorf("delivered %d distinct entries, want 40", len(count))
	}
}

// TestElectionRepeatsForASeed pins the schedule of a leader change to the
// seed: the leader of a five-node group is suspended mid-fan-out, its
// successor stands for election while the others keep submitting, and the
// whole run — engine event count, every survivor's commit order, the
// sequence numbers it saw and the virtual time of every delivery — must come
// out the same every time. Vote
// requests once went out in Go map order, which gave one seed several
// schedules.
func TestElectionRepeatsForASeed(t *testing.T) {
	run := func() string {
		c := newCluster(t, 5, 0)
		var at []sim.Time // delivery times, all nodes, in engine order
		for _, in := range c.inst {
			deliver := in.Deliver
			in.Deliver = func(seq uint64, origin rdma.NodeID, payload []byte) {
				at = append(at, c.eng.Now())
				deliver(seq, origin, payload)
			}
		}
		c.eng.At(0, func() {
			for i := 0; i < 10; i++ {
				c.inst[0].Submit([]byte(fmt.Sprintf("pre-%d", i)))
			}
		})
		c.eng.At(sim.Time(30*sim.Microsecond), func() { c.fab.Node(0).Suspend() })
		// When node 1's vote request reached each peer's control ring: the
		// requests are posted back to back, so this is their posting order.
		voteAt := make([]sim.Time, 5)
		c.eng.At(sim.Time(200*sim.Microsecond), func() {
			c.inst[1].StartElection()
			var probe *sim.Ticker
			probe = c.eng.NewTicker(25*sim.Nanosecond, func() {
				seen := 0
				for p := range voteAt {
					if voteAt[p] == 0 && p != 1 && c.fab.Node(rdma.NodeID(p)).Region(ctrlRegion("g", 1)).Bytes()[ring.HeaderSize] != 0 {
						voteAt[p] = c.eng.Now()
					}
					if voteAt[p] != 0 {
						seen++
					}
				}
				if seen == 4 {
					probe.Cancel()
				}
			})
		})
		for i := 0; i < 40; i++ {
			i := i
			c.eng.At(sim.Time(150*sim.Microsecond)+sim.Time(i)*sim.Time(5*sim.Microsecond), func() {
				c.inst[1+i%4].Submit([]byte(fmt.Sprintf("during-%d", i)))
			})
		}
		c.run(20 * sim.Millisecond)
		if !c.inst[1].IsLeader() {
			t.Fatal("node 1 did not take over")
		}
		if len(c.delivered[1]) < 40 {
			t.Fatalf("new leader delivered only %d entries", len(c.delivered[1]))
		}
		for _, p := range []int{2, 3, 4} {
			prev := p - 1
			if prev == 1 {
				prev = 0 // the candidate does not write to itself
			}
			if voteAt[p] <= voteAt[prev] {
				t.Fatalf("vote requests landed out of NodeID order: %v", voteAt)
			}
		}
		return fmt.Sprintf("executed=%d votes=%v delivered=%v seqs=%v at=%v",
			c.eng.Executed(), voteAt, c.delivered[1:], c.seqs[1:], at)
	}
	first := run()
	for i := 1; i < 6; i++ {
		if again := run(); again != first {
			t.Fatalf("run %d of one seed differs from the first:\n%s\n%s", i, again, first)
		}
	}
}

// --- one round in flight ------------------------------------------------

// tapLog decodes every round record the leader wrote into node's log ring,
// in ring order. The node's instance must have been stopped before the first
// write, so that nothing consumed the ring.
func (c *cluster) tapLog(t *testing.T, node int) []round {
	t.Helper()
	rd := ring.NewReader(c.fab.Node(rdma.NodeID(node)).Region(logRegion("g")).Bytes())
	var out []round
	for {
		msg, ok, err := rd.Poll()
		if err != nil {
			t.Fatalf("tap of node %d's log ring: %v", node, err)
		}
		if !ok {
			return out
		}
		r, err := decodeRound(append([]byte(nil), msg...))
		if err != nil {
			t.Fatalf("tap of node %d's log ring: %v", node, err)
		}
		out = append(out, r)
	}
}

// steadyBurst submits count payloads, one every gap, round-robin over the
// given nodes, and returns them in submission order.
func (c *cluster) steadyBurst(nodes []int, count int, gap sim.Duration) []string {
	var sent []string
	for i := 0; i < count; i++ {
		node := nodes[i%len(nodes)]
		payload := fmt.Sprintf("n%d-%03d", node, i)
		sent = append(sent, payload)
		c.eng.At(sim.Time(sim.Duration(i)*gap), func() { c.inst[node].Submit([]byte(payload)) })
	}
	return sent
}

// assertInOrder fails unless each of nodes delivered exactly want entries,
// with sequence numbers 1..want in order.
func (c *cluster) assertInOrder(t *testing.T, nodes []int, want int) {
	t.Helper()
	for _, i := range nodes {
		if len(c.delivered[i]) != want {
			t.Fatalf("node %d delivered %d/%d", i, len(c.delivered[i]), want)
		}
		for j, s := range c.seqs[i] {
			if s != uint64(j+1) {
				t.Fatalf("node %d delivered seq %d at position %d", i, s, j)
			}
		}
	}
}

// TestOneRoundInFlight pins the round rule at the leader and on the wire. A
// fourth node's instance is stopped, so its log ring keeps every record the
// leader wrote: (1) the leader sequences an entry only when nothing it
// proposed is undelivered, (2) a round goes out as one record carrying its
// entries in sequence order, (3) every round record carries as its commit the
// last sequence number of the round before its own, (4) a follower receives
// one write per round plus one per round of no entries — nothing else — and
// (5) the round instruments agree with what the wire shows.
func TestOneRoundInFlight(t *testing.T) {
	cfg := DefaultConfig()
	reg := metrics.New(nil)
	c := newClusterCfg(t, 4, 0, cfg, reg)
	const tap = 3
	c.inst[tap].Stop()

	leader := c.inst[0]
	roundOf := map[uint64]int{} // seq → round, as the leader sequenced them
	rounds := 0
	var roundEvent uint64 // engine event that sequenced the current round
	leader.Transform = func(_ rdma.NodeID, payload []byte) []byte {
		if ev := c.eng.Executed(); ev != roundEvent {
			// A new round opens: nothing may be in flight.
			if leader.lastDelivered+1 != leader.nextSeq {
				t.Errorf("round opened at seq %d with seqs %d..%d undelivered",
					leader.nextSeq, leader.lastDelivered+1, leader.nextSeq-1)
			}
			roundEvent = ev
			rounds++
		}
		roundOf[leader.nextSeq] = rounds
		return payload
	}
	sent := c.steadyBurst([]int{0, 1, 2}, 240, 250*sim.Nanosecond)
	c.run(2 * sim.Millisecond)

	c.assertInOrder(t, []int{0, 1, 2}, len(sent))
	if rounds < 10 || rounds > len(sent)/2 {
		t.Fatalf("%d entries went out in %d rounds: the burst did not batch", len(sent), rounds)
	}

	entries, commits, records := 0, 0, 0
	var prevLast uint64
	for _, r := range c.tapLog(t, tap) {
		if r.count == 0 {
			commits++
			continue
		}
		records++
		last := r.first + uint64(r.count) - 1
		switch {
		case r.first != prevLast+1:
			t.Fatalf("a round record opens at seq %d after seq %d", r.first, prevLast)
		case roundOf[r.first] != roundOf[last] || roundOf[r.first] == roundOf[prevLast]:
			t.Fatalf("seqs %d..%d of rounds %d..%d went out as one record after seq %d of round %d",
				r.first, last, roundOf[r.first], roundOf[last], prevLast, roundOf[prevLast])
		case r.commit != prevLast:
			t.Fatalf("seq %d opens round %d with commit %d, want the previous round's last seq %d",
				r.first, roundOf[r.first], r.commit, prevLast)
		}
		entries += r.count
		prevLast = last
	}
	if entries != len(sent) || records != rounds {
		t.Fatalf("tap saw %d entries in %d records, want %d in %d rounds", entries, records, len(sent), rounds)
	}
	for _, follower := range []int{1, 2, tap} {
		writes := reg.Counter(fmt.Sprintf("rdma.qp.0-%d.writes", follower)).Value()
		if writes != uint64(rounds+commits) {
			t.Fatalf("leader posted %d writes to node %d, want one per round and commit record: %d + %d",
				writes, follower, rounds, commits)
		}
	}
	perRound, wait := reg.Histogram("mu.round_entries", nil), reg.Histogram("mu.queue_wait", nil)
	if perRound.Count() != uint64(rounds) || perRound.Sum() != sim.Duration(entries) ||
		wait.Count() != uint64(entries) || reg.Counter("mu.commit_records").Value() != uint64(commits) {
		t.Fatalf("instruments: %d rounds of %d entries, %d queue waits, %d commit records; the wire shows %d, %d, %d, %d",
			perRound.Count(), perRound.Sum(), wait.Count(), reg.Counter("mu.commit_records").Value(),
			rounds, entries, entries, commits)
	}
}

// TestNextRoundCarriesTheCommit: under a steady burst the leader never goes
// idle between rounds, so the only round of no entries is the one trailing
// the last round. Followers learn every earlier decision from the next
// round's record and deliver round k in the sweep that polls round k+1:
// whatever a follower holds stashed between sweeps is the one round right
// past its own delivery watermark, whole.
func TestNextRoundCarriesTheCommit(t *testing.T) {
	c := newCluster(t, 4, 0)
	const tap = 3
	c.inst[tap].Stop()
	leader := c.inst[0]
	roundOf, size := map[uint64]uint64{}, map[uint64]int{} // seq → its round's first seq; first seq → round size
	leader.Transform = func(_ rdma.NodeID, payload []byte) []byte {
		first := leader.propBase
		roundOf[leader.nextSeq] = first
		size[first]++
		return payload
	}
	sent := c.steadyBurst([]int{0, 1, 2}, 300, 200*sim.Nanosecond)
	held := 0 // probes that found a round held back
	probe := c.eng.NewTicker(100*sim.Nanosecond, func() {
		for _, in := range c.inst[1:3] {
			if len(in.stash) == 0 {
				continue
			}
			held++
			first := in.lastDelivered + 1
			if roundOf[first] != first || len(in.stash) != size[first] {
				t.Fatalf("follower %d delivered through %d and holds %d entries, want the %d of the round from seq %d",
					in.node.ID(), in.lastDelivered, len(in.stash), size[first], first)
			}
			for seq := range in.stash {
				if roundOf[seq] != first {
					t.Fatalf("follower %d holds seq %d of the round from %d, want only the round from %d",
						in.node.ID(), seq, roundOf[seq], first)
				}
			}
		}
	})
	c.run(2 * sim.Millisecond)
	probe.Cancel()
	if held == 0 {
		t.Fatal("no probe saw a stashed round: the check did not run")
	}

	log := c.tapLog(t, tap)
	for i, r := range log {
		if r.count == 0 && i != len(log)-1 {
			t.Fatalf("round of no entries at position %d of %d: the leader went idle mid-burst", i, len(log))
		}
	}
	if last := log[len(log)-1]; last.count != 0 || last.commit != uint64(len(sent)) {
		t.Fatalf("log ends with %d entries, commit %d; want the trailing round of no entries for %d", last.count, last.commit, len(sent))
	}
	c.assertInOrder(t, []int{0, 1, 2}, len(sent))
}

// roundDelivery feeds a stopped follower, by hand, one round record of k
// entries and then the round of no entries that commits it, and reports the
// first way its deliveries differ from k Deliver calls in sequence order in
// one DeliverCost item. perEntry is the mutation: the follower's node's
// handoff charges an item per entry.
func roundDelivery(t *testing.T, perEntry bool) error {
	t.Helper()
	const k = 6
	c := newCluster(t, 3, 0)
	follower := c.inst[2]
	follower.Stop()
	if perEntry {
		follower.hand.MutatePerEntry()
	}
	var items []sim.Duration
	c.fab.Node(2).CPU.Observe = func(cost sim.Duration) { items = append(items, cost) }
	rnd := appendRoundHeader(nil, 1, 0, 0, k)
	var want []string
	for i := 0; i < k; i++ {
		want = append(want, distinctPayload("round", i))
		rnd = appendEntry(rnd, entry{rdma.NodeID(i % 3), uint64(i + 1), []byte(want[i])})
	}
	c.eng.At(0, func() {
		follower.handleLog(0, rnd)
		follower.handleLog(0, appendRoundHeader(nil, k+1, 0, k, 0))
		follower.hand.Hand() // as the poll loop closes a sweep's record
	})
	c.run(10 * sim.Microsecond)
	if !slices.Equal(c.delivered[2], want) || !slices.Equal(c.seqs[2], []uint64{1, 2, 3, 4, 5, 6}) {
		return fmt.Errorf("delivered %q as seqs %v, want %q as 1..%d", c.delivered[2], c.seqs[2], want, k)
	}
	if cost := c.fab.Latency().DeliverCost; !slices.Equal(items, []sim.Duration{cost}) {
		return fmt.Errorf("CPU items %v for a round of %d, want one of %v", items, k, cost)
	}
	return nil
}

// TestFollowerDeliversARoundAsOneItem: a follower hands a decided round on to
// Deliver as one CPU item, its entries in sequence order.
func TestFollowerDeliversARoundAsOneItem(t *testing.T) {
	if err := roundDelivery(t, false); err != nil {
		t.Fatal(err)
	}
}

// TestRoundDeliveryCatchesPerEntry is the mutation control of the test above.
func TestRoundDeliveryCatchesPerEntry(t *testing.T) {
	err := roundDelivery(t, true)
	if err == nil {
		t.Fatal("a follower that charges an item per entry passed")
	}
	t.Logf("caught: %v", err)
}

// leaderDelivery queues k requests at the leader of a 3-node group and
// starts them as one round, and reports the first way the leader's
// deliveries differ from k Deliver calls in sequence order in one
// DeliverCost item: the first follower's write completion decides the whole
// round, and the second finds it delivered. DeliverCost is priced apart from
// every other item the leader's CPU runs. perEntry is the mutation: the
// leader's node's handoff charges an item per entry.
func leaderDelivery(t *testing.T, perEntry bool) error {
	t.Helper()
	const k = 6
	lat := rdma.DefaultLatency()
	lat.DeliverCost = 123 * sim.Nanosecond
	c := newClusterOn(t, 3, 0, DefaultConfig(), lat, nil)
	leader := c.inst[0]
	if perEntry {
		leader.hand.MutatePerEntry()
	}
	items := 0
	c.fab.Node(0).CPU.Observe = func(cost sim.Duration) {
		if cost == lat.DeliverCost {
			items++
		}
	}
	var want []string
	c.eng.At(0, func() {
		for i := 0; i < k; i++ {
			want = append(want, distinctPayload("leader", i))
			leader.propose(rdma.NodeID(i%3), uint64(i+1), []byte(want[i]))
		}
		leader.startRound()
	})
	c.run(50 * sim.Microsecond)
	if !slices.Equal(c.delivered[0], want) || !slices.Equal(c.seqs[0], []uint64{1, 2, 3, 4, 5, 6}) {
		return fmt.Errorf("leader delivered %q as seqs %v, want %q as 1..%d", c.delivered[0], c.seqs[0], want, k)
	}
	if items != 1 {
		return fmt.Errorf("%d DeliverCost items for a round of %d decided by one completion, want 1", items, k)
	}
	return nil
}

// TestLeaderDeliversACompletionAsOneItem: the leader hands what one write
// completion decides on to Deliver as one CPU item, in sequence order.
func TestLeaderDeliversACompletionAsOneItem(t *testing.T) {
	if err := leaderDelivery(t, false); err != nil {
		t.Fatal(err)
	}
}

// TestLeaderDeliveryCatchesPerEntry is the mutation control of the test
// above.
func TestLeaderDeliveryCatchesPerEntry(t *testing.T) {
	err := leaderDelivery(t, true)
	if err == nil {
		t.Fatal("a leader that charges an item per entry passed")
	}
	t.Logf("caught: %v", err)
}

// onLeaderDecide calls fn right after the write completion that first
// advances the leader's delivery watermark.
func onLeaderDecide(c *cluster, fn func()) {
	leader := c.inst[0]
	for p := 1; p < len(c.inst); p++ {
		acked := leader.ackFns[p]
		leader.ackFns[p] = func(err error) {
			before := leader.lastDelivered
			acked(err)
			if before == 0 && leader.lastDelivered > 0 {
				fn()
			}
		}
	}
}

// TestIdleLeaderOwesCommitToNextSweep: a round that completes with nothing
// queued does not send its commit from the completion. The leader's next poll
// sweep sends it, as the one round of no entries, and the followers deliver
// the entry after that sweep.
func TestIdleLeaderOwesCommitToNextSweep(t *testing.T) {
	reg := metrics.New(nil)
	c := newClusterCfg(t, 3, 0, DefaultConfig(), reg)
	leader, commits := c.inst[0], reg.Counter("mu.commit_records")
	var decidedAt, paidAt sim.Time
	decided, swept := false, false
	onLeaderDecide(c, func() {
		decided, decidedAt = true, c.eng.Now()
		if commits.Value() != 0 {
			t.Errorf("the completion that decided the round sent %d commit records", commits.Value())
		}
	})
	leader.poll.Stop()
	leader.poll = c.fab.Node(0).Poll(func() {
		before := commits.Value()
		leader.sweep()
		if !decided || swept {
			return
		}
		swept = true
		if commits.Value() != before+1 {
			t.Errorf("the first sweep after the decision at %v sent %d commit records, want 1",
				sim.Duration(decidedAt), commits.Value()-before)
		}
		paidAt = c.eng.Now()
	})
	deliveredAt := make([]sim.Time, 3)
	for i := 1; i < 3; i++ {
		i, deliver := i, c.inst[i].Deliver
		c.inst[i].Deliver = func(seq uint64, origin rdma.NodeID, payload []byte) {
			deliveredAt[i] = c.eng.Now()
			deliver(seq, origin, payload)
		}
	}
	c.eng.At(0, func() { leader.Submit([]byte("solo")) })
	c.run(5 * sim.Millisecond)
	if !swept {
		t.Fatal("the leader never swept after deciding the round")
	}
	if n := commits.Value(); n != 1 {
		t.Fatalf("%d commit records for one lone submission, want 1", n)
	}
	for i := 1; i < 3; i++ {
		if len(c.delivered[i]) != 1 || deliveredAt[i] <= paidAt {
			t.Fatalf("follower %d delivered %q, the last at %v; the commit left in the sweep at %v",
				i, c.delivered[i], sim.Duration(deliveredAt[i]), sim.Duration(paidAt))
		}
	}
}

// TestDeposedLeaderForgetsOwedCommit: a leader deposed between the decision
// that leaves a commit owed and its next sweep never sends it.
func TestDeposedLeaderForgetsOwedCommit(t *testing.T) {
	reg := metrics.New(nil)
	c := newClusterCfg(t, 3, 0, DefaultConfig(), reg)
	leader := c.inst[0]
	deposed := false
	onLeaderDecide(c, func() {
		leader.handleVote(leader.term+1, 1) // node 1's vote, read in the same instant
		deposed = true
	})
	c.eng.At(0, func() { leader.Submit([]byte("solo")) })
	c.run(1 * sim.Millisecond)
	if !deposed || leader.IsLeader() {
		t.Fatalf("deposed %v, leader still leads %v: the vote did not land after the decision", deposed, leader.IsLeader())
	}
	if n := reg.Counter("mu.commit_records").Value(); n != 0 {
		t.Fatalf("the deposed leader sent %d commit records, want none", n)
	}
	// Node 1 also got the grant; node 2 gets nothing but the round.
	if w := reg.Counter("rdma.qp.0-2.writes").Value(); w != 1 {
		t.Fatalf("the deposed leader posted %d writes to node 2, want the round's one", w)
	}
}

// TestLongRoundSplitsIntoRecords: a round longer than the log ring's record
// bound goes out as several round records, and each record's entries are
// decided by the completions of that record's writes alone. With a 2 KiB
// ring, a record carries at most 1 015 bytes; the second round, 39 entries of
// about 100 bytes, takes five.
func TestLongRoundSplitsIntoRecords(t *testing.T) {
	cfg := DefaultConfig()
	cfg.RingCapacity = 2 << 10
	c := newClusterCfg(t, 3, 0, cfg, nil)
	leader := c.inst[0]
	var decided []span // the span of every completion that delivered at the leader
	for p := 1; p < 3; p++ {
		p, acked := p, leader.ackFns[p]
		leader.ackFns[p] = func(err error) {
			s, before := leader.unacked[p].Head(), leader.lastDelivered
			acked(err)
			if after := leader.lastDelivered; after != before {
				decided = append(decided, s)
				if before+1 != s.first || after != s.first+uint64(s.n)-1 {
					t.Errorf("node %d's completion of seqs %d..%d delivered %d..%d", p, s.first, s.first+uint64(s.n)-1, before+1, after)
				}
			}
		}
	}
	const k = 40
	var want []string
	c.eng.At(0, func() {
		for i := 0; i < k; i++ {
			want = append(want, fmt.Sprintf("%03d-%s", i, strings.Repeat("p", 96)))
			leader.Submit([]byte(want[i]))
		}
	})
	c.run(sim.Millisecond)
	c.wantDelivered(t, []int{0, 1, 2}, want)
	if len(decided) < 3 || decided[0] != (span{1, 1}) {
		t.Fatalf("completions decided %v: want the first round, then the second in two records or more", decided)
	}
	for i, s := range decided[1:] {
		if s.first != decided[i].first+uint64(decided[i].n) {
			t.Fatalf("completions decided %v: not one record after another", decided)
		}
	}
}

// TestDeposedLeaderDropsItsQueue: the old leader resumes after its successor
// was elected and, not yet aware, opens a round that can never decide (its
// writes fail the voters' permissions). Requests that reach it meanwhile
// queue behind that round: it must post no further log write for them, drop
// them when it processes the election, and every one of them — its own
// submissions and the ones a follower sent it — must be delivered exactly
// once under the new leader.
func TestDeposedLeaderDropsItsQueue(t *testing.T) {
	c := newCluster(t, 3, 0)
	reg := metrics.New(c.eng)
	c.fab.EnableMetrics(reg)
	// Node 0 writes to node 2 only as a leader (log ring): requests, votes
	// and grants go to node 1, the new leader.
	logWrites := reg.Counter("rdma.qp.0-2.writes")

	c.eng.At(0, func() { c.inst[0].Submit([]byte("legit")) })
	c.eng.At(sim.Time(100*sim.Microsecond), func() { c.fab.Node(0).Suspend() })
	// Lands in the suspended leader's request ring; node 2 keeps it pending.
	c.eng.At(sim.Time(150*sim.Microsecond), func() { c.inst[2].Submit([]byte("orphan")) })
	c.eng.At(sim.Time(200*sim.Microsecond), func() { c.inst[1].StartElection() })
	// Resume between two poll ticks: the zombie has ~1.9 µs before the sweep
	// that processes the vote request.
	resume := sim.Time(3*sim.Millisecond + 100*sim.Nanosecond)
	var before uint64
	c.eng.At(resume, func() {
		before = logWrites.Value()
		c.fab.Node(0).Resume()
		c.inst[0].Submit([]byte("zombie-round"))
	})
	for i := 1; i <= 3; i++ {
		i := i
		c.eng.At(resume+sim.Time(i)*sim.Time(300*sim.Nanosecond), func() {
			if !c.inst[0].IsLeader() {
				t.Errorf("queued-%d submitted after the deposition was processed: widen the window", i)
			}
			c.inst[0].Submit([]byte(fmt.Sprintf("queued-%d", i)))
		})
	}
	c.eng.At(resume+sim.Time(1500*sim.Nanosecond), func() {
		if got := len(c.inst[0].queue); got != 3 {
			t.Errorf("zombie queues %d requests behind its undecidable round, want 3", got)
		}
	})
	c.run(30 * sim.Millisecond)

	if c.inst[0].IsLeader() || len(c.inst[0].queue) != 0 {
		t.Fatalf("deposed leader: isLeader=%v, %d requests still queued", c.inst[0].IsLeader(), len(c.inst[0].queue))
	}
	// Node 2's copy of the round asks no completion; node 1's fails its
	// permission, so the zombie signs node 2 with a round of no entries.
	if got := logWrites.Value() - before; got != 2 {
		t.Fatalf("zombie posted %d log writes to node 2 after resuming, want 2 (the undecidable round and its signature)", got)
	}
	want := []string{"legit", "orphan", "zombie-round", "queued-1", "queued-2", "queued-3"}
	for i := 0; i < 3; i++ {
		counts := map[string]int{}
		for _, m := range c.delivered[i] {
			counts[m]++
		}
		for _, m := range want {
			if counts[m] != 1 {
				t.Fatalf("node %d delivered %q %d times, want exactly once (all: %v)", i, m, counts[m], c.delivered[i])
			}
		}
		if len(c.delivered[i]) != len(want) {
			t.Fatalf("node %d delivered %v", i, c.delivered[i])
		}
		for j := range c.delivered[0] {
			if c.delivered[i][j] != c.delivered[0][j] {
				t.Fatalf("order diverges at %d: %v vs %v", j, c.delivered[i], c.delivered[0])
			}
		}
	}
}

// TestSelfMajorityRoundsTerminate: when the leader alone is a majority, a
// round decides inside startRound, before any write completes. The one-node
// group and the group shrunk to one member by SetMembers must both deliver
// a queue longer than several rounds' cap, in order, on every node (the
// departed nodes keep receiving the log as observers).
func TestSelfMajorityRoundsTerminate(t *testing.T) {
	cfg := DefaultConfig()
	cfg.JournalSlots = 16 // rounds of at most 8
	for _, n := range []int{1, 3} {
		c := newClusterCfg(t, n, 0, cfg, nil)
		members := make([]bool, n)
		members[0] = true
		for _, in := range c.inst {
			in.SetMembers(members)
		}
		// Requests queue up while the leader is held in recovery, so the
		// first round finds several caps' worth waiting.
		const per = 30
		c.inst[0].recovering = true
		c.eng.At(0, func() {
			for i := 0; i < per; i++ {
				for _, in := range c.inst {
					in.Submit([]byte(fmt.Sprintf("n%d-%02d", in.node.ID(), i)))
				}
			}
		})
		c.eng.At(sim.Time(20*sim.Microsecond), func() { c.inst[0].becomeActiveLeader(1) })
		c.run(5 * sim.Millisecond)
		all := []int{0, 1, 2}[:n]
		c.assertInOrder(t, all, n*per)
	}
}

// TestBurstLongerThanJournal: a follower submits three journals' worth of
// requests at once and the leader is suspended at some instant of the burst.
// A round never takes more than the journal can keep next to its predecessor,
// so whichever instant it is, the new leader finds every undelivered entry in
// the old journal: every payload is delivered exactly once, in submission
// order, on both survivors. (Without the cap the burst overwrites entries the
// new leader needs, and recovery can never deliver past the holes.)
func TestBurstLongerThanJournal(t *testing.T) {
	cfg := DefaultConfig()
	cfg.JournalSlots = 16
	const burst = 3 * 16
	for at := 2 * sim.Microsecond; at <= 50*sim.Microsecond; at += 250 * sim.Nanosecond {
		c := newClusterCfg(t, 3, 0, cfg, nil)
		c.eng.At(0, func() {
			for i := 0; i < burst; i++ {
				c.inst[2].Submit([]byte(fmt.Sprintf("m%02d", i)))
			}
		})
		c.eng.At(sim.Time(at), func() { c.fab.Node(0).Suspend() })
		c.eng.At(sim.Time(at+200*sim.Microsecond), func() { c.inst[1].StartElection() })
		c.run(4 * sim.Millisecond)
		if !c.inst[1].IsLeader() {
			t.Fatalf("suspended at %v: node 1 did not take over", at)
		}
		for _, i := range []int{1, 2} {
			if len(c.delivered[i]) != burst {
				t.Fatalf("suspended at %v: node %d delivered %d/%d: %v", at, i, len(c.delivered[i]), burst, c.delivered[i])
			}
			for j, m := range c.delivered[i] {
				if m != fmt.Sprintf("m%02d", j) {
					t.Fatalf("suspended at %v: node %d delivered %q at position %d", at, i, m, j)
				}
			}
		}
	}
}

// TestSetupRegistersOneControlRingPerPeer: a group registers 3 + 2(n−1)
// regions on each node — the log ring, the journal and the state words, then
// a request ring and a control ring, carrying votes and grants alike, per
// peer.
func TestSetupRegistersOneControlRingPerPeer(t *testing.T) {
	const n = 4
	fab := rdma.NewFabric(sim.NewEngine(1), n, rdma.DefaultLatency())
	Setup(fab, "g", DefaultConfig(), 0)
	for i := 0; i < n; i++ {
		node := fab.Node(rdma.NodeID(i))
		ctrl := node.UnregisterMatch(func(name string) bool { return strings.HasPrefix(name, "mu-ctrl-g-") })
		all := node.UnregisterMatch(func(string) bool { return true })
		if ctrl != n-1 || ctrl+all != 3+2*(n-1) {
			t.Fatalf("node %d registers %d regions, %d of them control rings; want %d and %d", i, ctrl+all, ctrl, 3+2*(n-1), n-1)
		}
	}
}

// intakeRound has the leader submit a and a follower submit b at once, on a
// fabric whose poll loop ticks every 20 µs: b's request lands while a's round
// is in flight, long before the leader's first sweep. It reports unless the
// decision that completes a's round sequences b, in the round it starts, and
// every node delivers a then b. sweepOnly is the mutation: the leader takes in
// requests at its sweeps only, so b waits for the first one.
func intakeRound(t *testing.T, sweepOnly bool) error {
	t.Helper()
	lat := rdma.DefaultLatency()
	lat.SweepPeriod = 20 * sim.Microsecond
	c := newClusterOn(t, 3, 0, DefaultConfig(), lat, nil)
	leader := c.inst[0]
	if sweepOnly {
		leader.MutateSweepIntake()
	}
	var decided, sequenced uint64 // the engine events that decided a's round and sequenced b
	var decidedAt, sequencedAt sim.Time
	onLeaderDecide(c, func() { decided, decidedAt = c.eng.Executed(), c.eng.Now() })
	leader.Transform = func(_ rdma.NodeID, payload []byte) []byte {
		if string(payload) == "b" {
			sequenced, sequencedAt = c.eng.Executed(), c.eng.Now()
		}
		return payload
	}
	c.eng.At(0, func() {
		leader.Submit([]byte("a"))
		c.inst[1].Submit([]byte("b"))
	})
	c.run(100 * sim.Microsecond)
	for i := range c.inst {
		if !slices.Equal(c.delivered[i], []string{"a", "b"}) {
			return fmt.Errorf("node %d delivered %q, want a then b", i, c.delivered[i])
		}
	}
	if decided == 0 || sequenced != decided {
		return fmt.Errorf("b was sequenced at %v, not by the decision of a's round at %v",
			sim.Duration(sequencedAt), sim.Duration(decidedAt))
	}
	return nil
}

// TestDecisionTakesInLandedRequests: a request that lands while a round is in
// flight goes out in the round that round's decision starts, not in one a
// later sweep starts.
func TestDecisionTakesInLandedRequests(t *testing.T) {
	if err := intakeRound(t, false); err != nil {
		t.Fatal(err)
	}
}

// TestIntakeCatchesSweepOnly is the mutation control of the test above: a
// leader that takes in requests at its sweeps only sequences b a sweep late.
func TestIntakeCatchesSweepOnly(t *testing.T) {
	err := intakeRound(t, true)
	if err == nil {
		t.Fatal("a sweep-only intake went unnoticed")
	}
	t.Logf("caught: %v", err)
}
