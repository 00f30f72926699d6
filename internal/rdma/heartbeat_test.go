package rdma

import (
	"testing"

	"hamband/internal/sim"
)

func heartbeatFabric(n int) (*sim.Engine, *Fabric) {
	eng := sim.NewEngine(21)
	return eng, NewFabric(eng, n, DefaultLatency())
}

func TestHealthyNodesNotSuspected(t *testing.T) {
	eng, fab := heartbeatFabric(3)
	cfg := DefaultHeartbeatConfig()
	var beaters []*Beater
	var detectors []*Detector
	for i := 0; i < 3; i++ {
		beaters = append(beaters, newBeater(fab.Node(NodeID(i)), cfg.BeatPeriod))
		d := newDetector(fab.Node(NodeID(i)), cfg)
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
	cfg := DefaultHeartbeatConfig()
	b0 := newBeater(fab.Node(0), cfg.BeatPeriod)
	newBeater(fab.Node(1), cfg.BeatPeriod)
	newBeater(fab.Node(2), cfg.BeatPeriod)
	d1 := newDetector(fab.Node(1), cfg)
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
	cfg := DefaultHeartbeatConfig()
	b0 := newBeater(fab.Node(0), cfg.BeatPeriod)
	newBeater(fab.Node(1), cfg.BeatPeriod)
	d1 := newDetector(fab.Node(1), cfg)
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
	cfg := DefaultHeartbeatConfig()
	newBeater(fab.Node(0), cfg.BeatPeriod)
	newBeater(fab.Node(1), cfg.BeatPeriod)
	d1 := newDetector(fab.Node(1), cfg)
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
	// cleared at once — no TrustThreshold advancing checks, which would
	// never come anyway (its beater is gone with it) — and must not be
	// re-suspected afterwards even though its counter stays frozen.
	eng, fab := heartbeatFabric(3)
	cfg := DefaultHeartbeatConfig()
	cfg.TrustThreshold = 50 // a restore-by-advances would take ~1.25 ms
	b0 := newBeater(fab.Node(0), cfg.BeatPeriod)
	newBeater(fab.Node(1), cfg.BeatPeriod)
	newBeater(fab.Node(2), cfg.BeatPeriod)
	d1 := newDetector(fab.Node(1), cfg)
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
	eng, fab := heartbeatFabric(2)
	cfg := DefaultHeartbeatConfig()
	cfg.Threshold = 1 // a single missed check suffices to suspect
	b0 := newBeater(fab.Node(0), cfg.BeatPeriod)
	newBeater(fab.Node(1), cfg.BeatPeriod)
	d1 := newDetector(fab.Node(1), cfg)
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
	cfg := DefaultHeartbeatConfig()
	newBeater(fab.Node(0), cfg.BeatPeriod)
	newBeater(fab.Node(1), cfg.BeatPeriod)
	d1 := newDetector(fab.Node(1), cfg)
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
		newBeater(fab.Node(NodeID(i)), 0)
	}
	d := newDetector(fab.Node(0), DefaultHeartbeatConfig())
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

// TestSubscribeSharesTheNodeServices: a node runs one beater and one
// detector however many subscribers it has. The first subscriber's config
// starts them, every subscriber hears each transition, a stopped one hears
// none, and the last Stop cancels both tickers; a later subscriber restarts
// them, and a beater suspended in between stays suspended.
func TestSubscribeSharesTheNodeServices(t *testing.T) {
	eng := sim.NewEngine(22)
	fab := NewFabric(eng, 2, DefaultLatency())
	cfg := HeartbeatConfig{CheckPeriod: 50 * sim.Microsecond}
	var subs [2][2]*Subscription
	heard := map[*Subscription]int{}
	for i := range subs {
		for n := range subs[i] {
			s := fab.Node(NodeID(n)).Subscribe(cfg)
			s.OnSuspect = func(NodeID) { heard[s]++ }
			subs[i][n] = s
		}
		cfg.CheckPeriod = 5 * sim.Microsecond // not read: the services run
	}
	if d := fab.Node(1).Detector(); d.cfg.CheckPeriod != 50*sim.Microsecond {
		t.Fatalf("detector checks every %v, want the first subscriber's 50µs", d.cfg.CheckPeriod)
	}
	eng.RunFor(sim.Millisecond)
	reads := fab.Stats().Reads
	eng.RunFor(sim.Millisecond)
	if got := fab.Stats().Reads - reads; got != 2*20 {
		t.Fatalf("%d heartbeat reads in 1 ms, want 40: one detector a node", got)
	}

	subs[0][1].Stop()
	fab.Node(0).Beater().Suspend()
	eng.RunFor(sim.Millisecond)
	if heard[subs[0][1]] != 0 || heard[subs[1][1]] != 1 {
		t.Fatalf("stopped subscriber heard %d suspicions, running one %d; want 0 and 1", heard[subs[0][1]], heard[subs[1][1]])
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
		fab.Node(NodeID(n)).Subscribe(HeartbeatConfig{})
	}
	eng.RunFor(sim.Millisecond)
	if !fab.Node(1).Detector().Suspected(0) {
		t.Fatal("restarted services missed the beater suspended while stopped")
	}
}
