package rdma

import (
	"encoding/binary"
	"slices"
	"testing"

	"hamband/internal/sim"
)

// heartbeatFabric builds an n-node fabric on DefaultLatency, which edits,
// when given, change first (the detector's timing is the fabric's).
func heartbeatFabric(n int, edits ...func(*LatencyModel)) (*sim.Engine, *Fabric) {
	eng := sim.NewEngine(21)
	lat := DefaultLatency()
	for _, edit := range edits {
		edit(&lat)
	}
	return eng, NewFabric(eng, n, lat)
}

func TestHealthyNodesNotSuspected(t *testing.T) {
	eng, fab := heartbeatFabric(3)
	var beaters []*Beater
	var detectors []*Detector
	for i := 0; i < 3; i++ {
		beaters = append(beaters, newBeater(fab.Node(NodeID(i))))
		d := newDetector(fab.Node(NodeID(i)))
		d.OnSuspect = func(peer NodeID) {
			t.Errorf("healthy peer %d suspected", peer)
		}
		detectors = append(detectors, d)
	}
	eng.RunUntil(sim.Time(2 * sim.Millisecond))
	for _, b := range beaters {
		b.ticker.Cancel()
	}
	for _, d := range detectors {
		d.Stop()
	}
}

func TestSuspendedHeartbeatIsSuspected(t *testing.T) {
	eng, fab := heartbeatFabric(3)
	b0 := newBeater(fab.Node(0))
	newBeater(fab.Node(1))
	newBeater(fab.Node(2))
	d1 := newDetector(fab.Node(1))
	suspectedAt := sim.Time(-1)
	d1.OnSuspect = func(peer NodeID) {
		if peer == 0 && suspectedAt < 0 {
			suspectedAt = eng.Now()
		}
	}
	failAt := sim.Time(500 * sim.Microsecond)
	eng.At(failAt, func() { b0.Suspend() })
	eng.RunUntil(sim.Time(2 * sim.Millisecond))
	if suspectedAt < 0 {
		t.Fatal("suspended node never suspected")
	}
	if suspectedAt < failAt {
		t.Fatalf("suspected at %d, before the failure at %d", suspectedAt, failAt)
	}
	if !d1.Suspected(0) {
		t.Fatal("Suspected(0) = false after suspicion")
	}
	if d1.Suspected(2) {
		t.Fatal("healthy node 2 suspected")
	}
}

func TestRestoreAfterResume(t *testing.T) {
	eng, fab := heartbeatFabric(2)
	b0 := newBeater(fab.Node(0))
	newBeater(fab.Node(1))
	d1 := newDetector(fab.Node(1))
	restored := false
	d1.OnRestore = func(peer NodeID) { restored = peer == 0 }
	eng.At(sim.Time(200*sim.Microsecond), func() { b0.Suspend() })
	eng.At(sim.Time(1*sim.Millisecond), func() { b0.Resume() })
	eng.RunUntil(sim.Time(2 * sim.Millisecond))
	if !restored {
		t.Fatal("resumed node never restored")
	}
	if d1.Suspected(0) {
		t.Fatal("node still suspected after restore")
	}
}

func TestCrashedNodeIsSuspected(t *testing.T) {
	eng, fab := heartbeatFabric(2)
	newBeater(fab.Node(0))
	newBeater(fab.Node(1))
	d1 := newDetector(fab.Node(1))
	suspected := false
	d1.OnSuspect = func(peer NodeID) { suspected = suspected || peer == 0 }
	eng.At(sim.Time(300*sim.Microsecond), func() { fab.Node(0).Crash() })
	eng.RunUntil(sim.Time(3 * sim.Millisecond))
	if !suspected {
		t.Fatal("crashed node never suspected")
	}
}

func TestForgetClearsSuspicionImmediately(t *testing.T) {
	// A node that cleanly leaves the configuration while suspected must be
	// cleared at once — no TrustAfter advancing checks, which would
	// never come anyway (its beater is gone with it) — and must not be
	// re-suspected afterwards even though its counter stays frozen.
	eng, fab := heartbeatFabric(3, func(l *LatencyModel) {
		l.TrustAfter = 50 // a restore-by-advances would take ~1.25 ms
	})
	b0 := newBeater(fab.Node(0))
	newBeater(fab.Node(1))
	newBeater(fab.Node(2))
	d1 := newDetector(fab.Node(1))
	restores := 0
	d1.OnRestore = func(NodeID) { restores++ }

	eng.At(sim.Time(200*sim.Microsecond), func() { b0.Suspend() })
	eng.RunUntil(sim.Time(600 * sim.Microsecond))
	if !d1.Suspected(0) {
		t.Fatal("node 0 not suspected before the clean leave")
	}

	d1.Forget(0)
	if d1.Suspected(0) {
		t.Fatal("Forget did not clear suspicion immediately")
	}
	if restores != 0 {
		t.Fatal("Forget fired OnRestore; a departed node is not a recovery")
	}

	// The counter never advances again; a forgotten peer must stay clear.
	eng.RunUntil(sim.Time(3 * sim.Millisecond))
	if d1.Suspected(0) {
		t.Fatal("forgotten node re-suspected")
	}

	// Watch re-admits it: with the beater still suspended, suspicion is
	// raised again from a clean slate — membership is what changed.
	d1.Watch(0)
	eng.RunUntil(sim.Time(4 * sim.Millisecond))
	if !d1.Suspected(0) {
		t.Fatal("re-watched dead node never suspected")
	}
}

func TestForgetWhileCheckInFlight(t *testing.T) {
	// A check read completing after Forget must not resurrect suspicion.
	eng, fab := heartbeatFabric(2, func(l *LatencyModel) {
		l.SuspectAfter = 1 // a single missed check suffices to suspect
	})
	b0 := newBeater(fab.Node(0))
	newBeater(fab.Node(1))
	d1 := newDetector(fab.Node(1))
	eng.At(sim.Time(100*sim.Microsecond), func() { b0.Suspend() })
	// Forget between a check's post and its completion: the read is in
	// flight (check period 25µs, read RTT ~2.5µs — land just after a tick).
	eng.At(sim.Time(301*sim.Microsecond), func() { d1.Forget(0) })
	eng.RunUntil(sim.Time(2 * sim.Millisecond))
	if d1.Suspected(0) {
		t.Fatal("in-flight check resurrected suspicion after Forget")
	}
}

func TestNodeSuspendStopsBeating(t *testing.T) {
	// Suspending the whole node (not just the beater) must also stop
	// heartbeats: the beat callback checks the node state.
	eng, fab := heartbeatFabric(2)
	newBeater(fab.Node(0))
	newBeater(fab.Node(1))
	d1 := newDetector(fab.Node(1))
	suspected := false
	d1.OnSuspect = func(peer NodeID) { suspected = suspected || peer == 0 }
	eng.At(sim.Time(300*sim.Microsecond), func() { fab.Node(0).Suspend() })
	eng.RunUntil(sim.Time(2 * sim.Millisecond))
	if !suspected {
		t.Fatal("suspended node never suspected")
	}
}

// TestCheckRoundAllocatesNothing pins the failure detector's host cost: a
// warm check round over three peers — a READ of each peer's counter and the
// three completions — allocates nothing. Each read rides a recycled rdma
// record and completes through the detector's callback for that peer, bound
// once; the callback only decodes the borrowed counter.
func TestCheckRoundAllocatesNothing(t *testing.T) {
	eng, fab := heartbeatFabric(4)
	for i := 1; i < 4; i++ {
		newBeater(fab.Node(NodeID(i)))
	}
	d := newDetector(fab.Node(0))
	d.Stop() // the measured rounds are the only ones
	round := func() {
		d.check()
		eng.RunFor(5 * sim.Microsecond) // the reads' round trips and polls
	}
	for i := 0; i < 4; i++ {
		round()
	}
	reads := fab.Stats().Reads
	if allocs := testing.AllocsPerRun(100, round); allocs != 0 {
		t.Errorf("a warm check round over three peers allocates %.2f objects, want 0", allocs)
	}
	if got := fab.Stats().Reads - reads; got != 3*101 {
		t.Fatalf("%d check reads in 101 rounds, want three a round", got)
	}
	for p := 1; p < 4; p++ {
		if d.inflight[p] || d.lastSeen[p] == 0 {
			t.Fatalf("peer %d: in flight %v, last seen %d: its reads did not complete", p, d.inflight[p], d.lastSeen[p])
		}
	}
}

// TestTrustThresholdDelaysRestore: a TrustAfter above 1 delays restore until
// the peer has advanced that many consecutive checks.
func TestTrustThresholdDelaysRestore(t *testing.T) {
	restoreAt := func(trust int) sim.Time {
		eng, fab := heartbeatFabric(2, func(l *LatencyModel) { l.TrustAfter = trust })
		b0 := newBeater(fab.Node(0))
		newBeater(fab.Node(1))
		d1 := newDetector(fab.Node(1))
		restored := sim.Time(-1)
		d1.OnRestore = func(peer NodeID) {
			if peer == 0 && restored < 0 {
				restored = eng.Now()
			}
		}
		eng.At(sim.Time(200*sim.Microsecond), func() { b0.Suspend() })
		eng.At(sim.Time(600*sim.Microsecond), func() { b0.Resume() })
		eng.RunUntil(sim.Time(3 * sim.Millisecond))
		if restored < 0 {
			t.Fatalf("trust=%d: resumed node never restored", trust)
		}
		return restored
	}
	fast := restoreAt(1)
	slow := restoreAt(4)
	// Three further advancing checks at the 25 µs check period.
	if want := sim.Time(3 * 25 * sim.Microsecond); slow-fast != want {
		t.Fatalf("trust=4 restored %v after trust=1, want %v", sim.Duration(slow-fast), sim.Duration(want))
	}
}

// A long partition must produce exactly one suspicion and, after heal, one
// restore — not a churn of stale verdicts from reads queued during the
// outage (the detector keeps at most one read in flight per peer).
func TestPartitionHealNoSuspicionChurn(t *testing.T) {
	eng, fab := heartbeatFabric(2)
	newBeater(fab.Node(0))
	newBeater(fab.Node(1))
	d1 := newDetector(fab.Node(1))
	var suspicions, restores int
	d1.OnSuspect = func(NodeID) { suspicions++ }
	d1.OnRestore = func(NodeID) { restores++ }

	// Cut node 1's read path to node 0 for 1 ms (40 check periods).
	eng.At(sim.Time(200*sim.Microsecond), func() { fab.Partition(0, 1) })
	eng.At(sim.Time(1200*sim.Microsecond), func() { fab.HealAll() })
	eng.RunUntil(sim.Time(4 * sim.Millisecond))

	// One in-flight read parks for the whole outage; its post-heal
	// completion sees an advanced counter, so the peer is never suspected.
	if suspicions != 0 || restores != 0 {
		t.Fatalf("partition outage produced %d suspicions / %d restores, want 0/0 "+
			"(single in-flight check sees the advanced counter at heal)", suspicions, restores)
	}
	if d1.Suspected(0) {
		t.Fatal("peer left suspected after heal")
	}
}

// TestSubscribeSharesTheNodeServices: a node runs one beater and one
// detector, checking at the fabric's CheckPeriod, however many subscribers
// it has. Every subscriber hears each transition, a stopped one hears none,
// and the last Stop cancels both tickers; a later subscriber restarts them,
// and a beater suspended in between stays suspended.
func TestSubscribeSharesTheNodeServices(t *testing.T) {
	eng, fab := heartbeatFabric(2, func(l *LatencyModel) { l.CheckPeriod = 50 * sim.Microsecond })
	var subs [3][2]*Subscription
	heard := map[*Subscription]int{}
	for i := range subs {
		for n := range subs[i] {
			var s *Subscription
			s = fab.Node(NodeID(n)).Subscribe(func(NodeID) { heard[s]++ }, nil)
			subs[i][n] = s
		}
	}
	eng.RunFor(sim.Millisecond)
	reads := fab.Stats().Reads
	eng.RunFor(sim.Millisecond)
	if got := fab.Stats().Reads - reads; got != 2*20 {
		t.Fatalf("%d heartbeat reads in 1 ms, want 40: one detector a node, checking every 50 µs", got)
	}

	subs[0][1].Stop()
	fab.Node(0).Beater().Suspend()
	eng.RunFor(sim.Millisecond)
	if heard[subs[0][1]] != 0 || heard[subs[1][1]] != 1 || heard[subs[2][1]] != 1 {
		t.Fatalf("stopped subscriber heard %d suspicions, running ones %d and %d; want 0, 1 and 1",
			heard[subs[0][1]], heard[subs[1][1]], heard[subs[2][1]])
	}

	for i := range subs {
		for _, s := range subs[i] {
			s.Stop()
		}
	}
	eng.RunFor(sim.Millisecond)
	if eng.Pending() != 0 {
		t.Fatalf("%d events pending after the last Stop, want 0", eng.Pending())
	}
	fab.Node(1).Detector().Forget(0) // a clean slate: only a fresh miss can suspect node 0 again
	fab.Node(1).Detector().Watch(0)
	for n := 0; n < 2; n++ {
		fab.Node(NodeID(n)).Subscribe(nil, nil)
	}
	eng.RunFor(sim.Millisecond)
	if !fab.Node(1).Detector().Suspected(0) {
		t.Fatal("restarted services missed the beater suspended while stopped")
	}
}

// TestLateSubscriberHearsCurrentSuspects: a subscriber arriving while its
// node's detector suspects peers hears each of them once, ascending, on the
// node's CPU after Subscribe returns; a transition before that is folded into
// what it hears, not heard twice, and a subscriber stopped first hears
// nothing.
func TestLateSubscriberHearsCurrentSuspects(t *testing.T) {
	eng, fab := heartbeatFabric(4)
	node := fab.Node(0)
	var early []NodeID
	node.Subscribe(func(p NodeID) { early = append(early, p) }, nil)
	for n := 1; n < 4; n++ {
		fab.Node(NodeID(n)).Subscribe(nil, nil)
	}
	fab.Node(3).Suspend()
	fab.Node(1).Suspend()
	eng.RunFor(sim.Millisecond)
	if !slices.Equal(early, []NodeID{1, 3}) {
		t.Fatalf("the first subscriber heard %v, want [1 3]", early)
	}

	var late, stopped, restored []NodeID
	node.Subscribe(func(p NodeID) { late = append(late, p) }, func(p NodeID) { restored = append(restored, p) })
	node.Subscribe(func(p NodeID) { stopped = append(stopped, p) }, nil).Stop()
	if len(late) != 0 {
		t.Fatalf("the late subscriber heard %v inside Subscribe, want nothing before its CPU item", late)
	}
	eng.RunFor(sim.Millisecond)
	if !slices.Equal(late, []NodeID{1, 3}) || len(stopped) != 0 {
		t.Fatalf("late subscriber heard %v and the stopped one %v, want [1 3] and nothing", late, stopped)
	}

	// Transitions between a subscription and its catch-up item are folded
	// into what the item reports, and none reaches the subscriber twice:
	// node 3 leaves the membership and node 2, whose beats stopped two checks
	// ago, reaches its third missed check in between.
	d := node.Detector()
	fab.Node(2).Suspend()
	eng.RunFor(2 * fab.Latency().CheckPeriod)
	if d.Suspected(2) {
		t.Fatal("node 2 suspected two checks after it stopped: the test needs it suspected later")
	}
	var later []NodeID
	node.Subscribe(func(p NodeID) { later = append(later, p) }, nil)
	d.Forget(3)
	for !d.Suspected(2) {
		d.miss(2)
	}
	eng.RunFor(sim.Millisecond)
	if !slices.Equal(later, []NodeID{1, 2}) {
		t.Fatalf("a subscriber whose catch-up came after two transitions heard %v, want [1 2]", later)
	}
	if !slices.Equal(late, []NodeID{1, 3, 2}) || len(restored) != 0 {
		t.Fatalf("the caught-up subscriber heard suspects %v and restores %v, want [1 3 2] and none", late, restored)
	}
}

// writeContinuously has node w write a record, its count, into a region of
// each node of to every microsecond, and each of them take in what landed
// every 2 µs and count a new record as word from w (Node.Heard), as the
// receive paths above the fabric do. A suspended w posts nothing.
func writeContinuously(eng *sim.Engine, fab *Fabric, w NodeID, to ...NodeID) {
	var count uint64
	for _, p := range to {
		fab.Node(p).Register("records", 8).AllowWrite(w)
		node, last := fab.Node(p), uint64(0)
		eng.NewTicker(2*sim.Microsecond, func() {
			if v := binary.LittleEndian.Uint64(node.Region("records").Bytes()); v != last {
				last = v
				node.Heard(w)
			}
		})
	}
	eng.NewTicker(sim.Microsecond, func() {
		if fab.Node(w).Suspended() {
			return
		}
		count++
		for _, p := range to {
			fab.Node(w).QP(p).Write("records", 0, binary.LittleEndian.AppendUint64(nil, count), nil)
		}
	})
}

// TestWritingNodeSuspectedNoLater: a node whose records its peers consume is
// not read while they hear it, and yet, suspended, it is suspected no later
// than an idle node suspended at the same instant — at every instant over
// 50 µs, the beats' and the checks' common period. Node 0 writes to the
// survivors 2 and 3, node 1 writes nothing, and both are suspended
// together. Two controls drop one rule each and must be caught: a check
// that skips a peer heard since the previous check however long ago, and a
// read after skipped checks that compares with the counter read before them
// instead of taking a baseline. Either lets a writer fail just after a
// check pass the next one as advancing, and be suspected a CheckPeriod late.
func TestWritingNodeSuspectedNoLater(t *testing.T) {
	if late := suspectedLate(t, nil); late != 0 {
		t.Fatalf("the writer was suspected after the idle node at %d of 50 failure instants", late)
	}
	for _, c := range []struct {
		name   string
		mutate func(*Detector)
	}{
		{"no freshness bound", func(d *Detector) { d.noFreshness = true }},
		{"no baseline", func(d *Detector) { d.noBaseline = true }},
	} {
		late := suspectedLate(t, c.mutate)
		if late == 0 {
			t.Errorf("%s: the writer was never suspected after the idle node", c.name)
		}
		t.Logf("%s control: the writer suspected late at %d of 50 failure instants", c.name, late)
	}
}

// suspectedLate fails nodes 0 and 1 at 50 instants a microsecond apart and
// returns at how many a survivor suspected node 0 after node 1.
func suspectedLate(t *testing.T, mutate func(*Detector)) (late int) {
	t.Helper()
	for phase := sim.Duration(0); phase < 50*sim.Microsecond; phase += sim.Microsecond {
		eng, fab := heartbeatFabric(4)
		writeContinuously(eng, fab, 0, 2, 3)
		for i := 0; i < 4; i++ {
			newBeater(fab.Node(NodeID(i)))
		}
		var at [4][2]sim.Time // at[survivor][failed node]: when it was suspected
		for _, s := range []NodeID{2, 3} {
			d := newDetector(fab.Node(s))
			if mutate != nil {
				mutate(d)
			}
			d.OnSuspect = func(peer NodeID) {
				if peer < 2 && at[s][peer] == 0 {
					at[s][peer] = eng.Now()
				}
			}
		}
		failAt := sim.Time(300*sim.Microsecond + phase)
		eng.At(failAt, func() {
			fab.Node(0).Suspend()
			fab.Node(1).Suspend()
		})
		eng.RunUntil(failAt + sim.Time(300*sim.Microsecond))
		for _, s := range []NodeID{2, 3} {
			if at[s][0] == 0 || at[s][1] == 0 {
				t.Fatalf("failed at %v: survivor %d suspected the writer at %v and the idle node at %v", failAt, s, at[s][0], at[s][1])
			}
			if at[s][0] > at[s][1] {
				late++
				break
			}
		}
	}
	return late
}

// TestWritingNodeWithoutHeartbeatRaisesNoSuspicion pins what records as
// heartbeats change: a node whose heartbeat thread alone is suspended but
// which keeps writing is not suspected by the peers it writes to, which
// hear it; a peer it does not write to suspects it.
func TestWritingNodeWithoutHeartbeatRaisesNoSuspicion(t *testing.T) {
	eng, fab := heartbeatFabric(4)
	writeContinuously(eng, fab, 0, 1, 2)
	var b0 *Beater
	for i := 0; i < 4; i++ {
		if b := newBeater(fab.Node(NodeID(i))); i == 0 {
			b0 = b
		}
	}
	var ds []*Detector
	for i := 1; i < 4; i++ {
		ds = append(ds, newDetector(fab.Node(NodeID(i))))
	}
	eng.At(sim.Time(300*sim.Microsecond), func() { b0.Suspend() })
	eng.RunUntil(sim.Time(2 * sim.Millisecond))
	for i, d := range ds {
		if got, want := d.Suspected(0), i == 2; got != want {
			t.Errorf("node %d suspects node 0: %v, want %v", i+1, got, want)
		}
	}
}
