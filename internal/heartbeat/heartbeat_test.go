package heartbeat

import (
	"testing"

	"hamband/internal/rdma"
	"hamband/internal/sim"
)

func setup(n int) (*sim.Engine, *rdma.Fabric) {
	eng := sim.NewEngine(21)
	fab := rdma.NewFabric(eng, n, rdma.DefaultLatency())
	for i := 0; i < n; i++ {
		Register(fab.Node(rdma.NodeID(i)))
	}
	return eng, fab
}

func TestHealthyNodesNotSuspected(t *testing.T) {
	eng, fab := setup(3)
	cfg := DefaultConfig()
	var beaters []*Beater
	var detectors []*Detector
	for i := 0; i < 3; i++ {
		beaters = append(beaters, NewBeater(eng, fab.Node(rdma.NodeID(i)), cfg.BeatPeriod))
		d := NewDetector(fab, fab.Node(rdma.NodeID(i)), cfg)
		d.OnSuspect = func(peer rdma.NodeID) {
			t.Errorf("healthy peer %d suspected", peer)
		}
		detectors = append(detectors, d)
	}
	eng.RunUntil(sim.Time(2 * sim.Millisecond))
	for _, b := range beaters {
		b.Stop()
	}
	for _, d := range detectors {
		d.Stop()
	}
}

func TestSuspendedHeartbeatIsSuspected(t *testing.T) {
	eng, fab := setup(3)
	cfg := DefaultConfig()
	b0 := NewBeater(eng, fab.Node(0), cfg.BeatPeriod)
	NewBeater(eng, fab.Node(1), cfg.BeatPeriod)
	NewBeater(eng, fab.Node(2), cfg.BeatPeriod)
	d1 := NewDetector(fab, fab.Node(1), cfg)
	suspectedAt := sim.Time(-1)
	d1.OnSuspect = func(peer rdma.NodeID) {
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
	eng, fab := setup(2)
	cfg := DefaultConfig()
	b0 := NewBeater(eng, fab.Node(0), cfg.BeatPeriod)
	NewBeater(eng, fab.Node(1), cfg.BeatPeriod)
	d1 := NewDetector(fab, fab.Node(1), cfg)
	restored := false
	d1.OnRestore = func(peer rdma.NodeID) { restored = peer == 0 }
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
	eng, fab := setup(2)
	cfg := DefaultConfig()
	NewBeater(eng, fab.Node(0), cfg.BeatPeriod)
	NewBeater(eng, fab.Node(1), cfg.BeatPeriod)
	d1 := NewDetector(fab, fab.Node(1), cfg)
	suspected := false
	d1.OnSuspect = func(peer rdma.NodeID) { suspected = suspected || peer == 0 }
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
	eng, fab := setup(3)
	cfg := DefaultConfig()
	cfg.TrustThreshold = 50 // a restore-by-advances would take ~1.25 ms
	b0 := NewBeater(eng, fab.Node(0), cfg.BeatPeriod)
	NewBeater(eng, fab.Node(1), cfg.BeatPeriod)
	NewBeater(eng, fab.Node(2), cfg.BeatPeriod)
	d1 := NewDetector(fab, fab.Node(1), cfg)
	restores := 0
	d1.OnRestore = func(rdma.NodeID) { restores++ }

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
	eng, fab := setup(2)
	cfg := DefaultConfig()
	cfg.Threshold = 1 // a single missed check suffices to suspect
	b0 := NewBeater(eng, fab.Node(0), cfg.BeatPeriod)
	NewBeater(eng, fab.Node(1), cfg.BeatPeriod)
	d1 := NewDetector(fab, fab.Node(1), cfg)
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
	eng, fab := setup(2)
	cfg := DefaultConfig()
	NewBeater(eng, fab.Node(0), cfg.BeatPeriod)
	NewBeater(eng, fab.Node(1), cfg.BeatPeriod)
	d1 := NewDetector(fab, fab.Node(1), cfg)
	suspected := false
	d1.OnSuspect = func(peer rdma.NodeID) { suspected = suspected || peer == 0 }
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
	eng, fab := setup(4)
	for i := 1; i < 4; i++ {
		NewBeater(eng, fab.Node(rdma.NodeID(i)), 0)
	}
	d := NewDetector(fab, fab.Node(0), DefaultConfig())
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
