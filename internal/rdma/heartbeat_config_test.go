package rdma

import (
	"testing"

	"hamband/internal/sim"
)

// suspicionTime runs a two-node scenario — node 0's beater suspends at
// 200 µs — under cfg and returns the virtual time node 1 suspected node 0.
func suspicionTime(t *testing.T, cfg HeartbeatConfig) sim.Time {
	t.Helper()
	eng, fab := heartbeatFabric(2)
	b0 := newBeater(fab.Node(0), cfg.BeatPeriod)
	newBeater(fab.Node(1), cfg.BeatPeriod)
	d1 := newDetector(fab.Node(1), cfg)
	suspectedAt := sim.Time(-1)
	d1.OnSuspect = func(peer NodeID) {
		if peer == 0 && suspectedAt < 0 {
			suspectedAt = eng.Now()
		}
	}
	eng.At(sim.Time(200*sim.Microsecond), func() { b0.Suspend() })
	eng.RunUntil(sim.Time(2 * sim.Millisecond))
	if suspectedAt < 0 {
		t.Fatal("suspended node never suspected")
	}
	return suspectedAt
}

// A zero HeartbeatConfig must reproduce DefaultHeartbeatConfig's timing exactly: every zero
// field means "default", so existing callers keep their behaviour.
func TestZeroConfigMatchesDefaultTiming(t *testing.T) {
	def := suspicionTime(t, DefaultHeartbeatConfig())
	zero := suspicionTime(t, HeartbeatConfig{})
	if def != zero {
		t.Fatalf("zero config suspected at %d, DefaultHeartbeatConfig at %d — want identical timing", zero, def)
	}
}

// Partial configs only override the fields they set.
func TestPartialConfigKeepsOtherDefaults(t *testing.T) {
	cfg := HeartbeatConfig{Threshold: 6}.withDefaults()
	def := DefaultHeartbeatConfig()
	if cfg.Threshold != 6 {
		t.Fatalf("Threshold = %d, want the override 6", cfg.Threshold)
	}
	if cfg.BeatPeriod != def.BeatPeriod || cfg.CheckPeriod != def.CheckPeriod || cfg.TrustThreshold != def.TrustThreshold {
		t.Fatalf("partial config lost defaults: %+v", cfg)
	}
}

// TrustThreshold > 1 delays restore until the peer has advanced that many
// consecutive checks.
func TestTrustThresholdDelaysRestore(t *testing.T) {
	restoreAt := func(trust int) sim.Time {
		eng, fab := heartbeatFabric(2)
		cfg := DefaultHeartbeatConfig()
		cfg.TrustThreshold = trust
		b0 := newBeater(fab.Node(0), cfg.BeatPeriod)
		newBeater(fab.Node(1), cfg.BeatPeriod)
		d1 := newDetector(fab.Node(1), cfg)
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
	cfg := DefaultHeartbeatConfig()
	newBeater(fab.Node(0), cfg.BeatPeriod)
	newBeater(fab.Node(1), cfg.BeatPeriod)
	d1 := newDetector(fab.Node(1), cfg)
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
