package rdma

import (
	"testing"

	"hamband/internal/sim"
)

// A partitioned link parks writes at the NIC; healing releases them in
// posting order and they land with RC ordering intact.
func TestPartitionParksAndHealReleasesInOrder(t *testing.T) {
	eng, f := testFabric(2)
	r := f.Node(1).Register("buf", 64)
	r.AllowWrite(0)

	var completions []byte
	eng.At(0, func() { f.Partition(0, 1) })
	eng.At(1, func() {
		for _, b := range []byte{'a', 'b', 'c'} {
			b := b
			f.Node(0).QP(1).Write("buf", int(b-'a'), []byte{b}, func(err error) {
				if err != nil {
					t.Errorf("write %c: %v", b, err)
				}
				completions = append(completions, b)
			})
		}
	})
	eng.RunUntil(sim.Time(50 * sim.Microsecond))

	if got := f.Stats().Parked; got != 3 {
		t.Fatalf("parked = %d, want 3", got)
	}
	if r.Bytes()[0] != 0 {
		t.Fatal("write landed across a partitioned link")
	}
	if len(completions) != 0 {
		t.Fatal("completion delivered while partitioned")
	}

	eng.At(eng.Now(), func() { f.Heal(0, 1) })
	eng.Run()

	if got := string(r.Bytes()[:3]); got != "abc" {
		t.Fatalf("remote memory = %q, want %q", got, "abc")
	}
	if got := string(completions); got != "abc" {
		t.Fatalf("completion order = %q, want posting order %q", got, "abc")
	}
	if f.links != nil && len(f.links) != 0 {
		t.Fatalf("healed fabric still tracks %d links", len(f.links))
	}
}

// Partitions are directional: cutting 0→1 leaves 1→0 working.
func TestPartitionIsDirectional(t *testing.T) {
	eng, f := testFabric(2)
	r0 := f.Node(0).Register("buf", 8)
	r0.AllowWrite(1)
	r1 := f.Node(1).Register("buf", 8)
	r1.AllowWrite(0)

	eng.At(0, func() {
		f.PartitionLink(0, 1)
		f.Node(0).QP(1).Write("buf", 0, []byte{1}, nil)
		f.Node(1).QP(0).Write("buf", 0, []byte{2}, nil)
	})
	eng.RunUntil(sim.Time(50 * sim.Microsecond))

	if r1.Bytes()[0] != 0 {
		t.Fatal("write crossed the cut direction")
	}
	if r0.Bytes()[0] != 2 {
		t.Fatal("write on the open direction did not land")
	}
	if !f.Partitioned(0, 1) || f.Partitioned(1, 0) {
		t.Fatal("Partitioned() does not reflect the directional cut")
	}
}

// Reads park like writes: a heartbeat-style read across a partition stalls
// until heal, then completes with the then-current remote bytes.
func TestPartitionParksReads(t *testing.T) {
	eng, f := testFabric(2)
	r := f.Node(1).Register("buf", 8)
	r.Bytes()[0] = 1

	var got []byte
	eng.At(0, func() {
		f.Partition(0, 1)
		f.Node(0).QP(1).Read("buf", 0, 1, func(data []byte, err error) {
			if err != nil {
				t.Errorf("read: %v", err)
			}
			got = append([]byte(nil), data...) // borrowed until the callback returns
		})
	})
	eng.At(sim.Time(10*sim.Microsecond), func() {
		r.Bytes()[0] = 2 // owner updates while the read is parked
		f.Heal(0, 1)
	})
	eng.Run()

	if got == nil {
		t.Fatal("parked read never completed after heal")
	}
	if got[0] != 2 {
		t.Fatalf("read snapshot = %d, want the post-heal value 2", got[0])
	}
}

// HealAll clears partitions and delay spikes in one sweep.
func TestHealAllReleasesEverything(t *testing.T) {
	eng, f := testFabric(3)
	for i := 1; i <= 2; i++ {
		r := f.Node(NodeID(i)).Register("buf", 8)
		r.AllowWrite(0)
	}
	eng.At(0, func() {
		f.Partition(0, 1)
		f.Partition(0, 2)
		f.SetDelay(1, 2, 5*sim.Microsecond, 0)
		f.Node(0).QP(1).Write("buf", 0, []byte{1}, nil)
		f.Node(0).QP(2).Write("buf", 0, []byte{2}, nil)
	})
	eng.At(sim.Time(20*sim.Microsecond), func() { f.HealAll() })
	eng.Run()

	if f.Node(1).Region("buf").Bytes()[0] != 1 || f.Node(2).Region("buf").Bytes()[0] != 2 {
		t.Fatal("parked writes did not land after HealAll")
	}
	if len(f.links) != 0 {
		t.Fatalf("HealAll left %d links installed", len(f.links))
	}
}

// A latency spike delays delivery by the configured extra; clearing it
// restores the baseline. The spike must not reorder the QP (RC ordering).
func TestLinkDelaySpike(t *testing.T) {
	land := func(extra sim.Duration) sim.Time {
		eng, f := testFabric(2)
		r := f.Node(1).Register("buf", 8)
		r.AllowWrite(0)
		if extra > 0 {
			f.SetLinkDelay(0, 1, extra, 0)
		}
		var landed sim.Time
		eng.At(0, func() {
			f.Node(0).QP(1).Write("buf", 0, []byte{1}, func(error) { landed = eng.Now() })
		})
		eng.Run()
		return landed
	}
	base := land(0)
	spiked := land(7 * sim.Microsecond)
	if got := sim.Duration(spiked - base); got != 7*sim.Microsecond {
		t.Fatalf("spike delayed completion by %v, want 7µs", got)
	}

	// Clearing the spike drops the link state entirely.
	eng, f := testFabric(2)
	_ = eng
	f.SetLinkDelay(0, 1, 3*sim.Microsecond, sim.Microsecond)
	f.SetLinkDelay(0, 1, 0, 0)
	if len(f.links) != 0 {
		t.Fatal("cleared delay left link state installed")
	}
}

// Jitter draws come from the engine's seeded RNG: two fabrics with the same
// seed observe identical jittered delivery times.
func TestLinkJitterIsDeterministic(t *testing.T) {
	run := func(seed int64) []sim.Time {
		eng := sim.NewEngine(seed)
		f := NewFabric(eng, 2, DefaultLatency())
		r := f.Node(1).Register("buf", 64)
		r.AllowWrite(0)
		f.SetLinkDelay(0, 1, sim.Microsecond, 2*sim.Microsecond)
		var times []sim.Time
		for i := 0; i < 5; i++ {
			i := i
			eng.At(sim.Time(i)*sim.Time(10*sim.Microsecond), func() {
				f.Node(0).QP(1).Write("buf", i, []byte{byte(i)}, func(error) {
					times = append(times, eng.Now())
				})
			})
		}
		eng.Run()
		return times
	}
	a, b := run(99), run(99)
	if len(a) != 5 || len(b) != 5 {
		t.Fatalf("runs completed %d/%d writes, want 5", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("write %d landed at %d vs %d across same-seed runs", i, a[i], b[i])
		}
	}
}

// A verb parked on a partitioned link is dropped if its poster crashes
// before the heal: the NIC died with the retransmit queue.
func TestParkedVerbDroppedOnPosterCrash(t *testing.T) {
	eng, f := testFabric(2)
	r := f.Node(1).Register("buf", 8)
	r.AllowWrite(0)
	eng.At(0, func() {
		f.Partition(0, 1)
		f.Node(0).QP(1).Write("buf", 0, []byte{9}, nil)
	})
	eng.At(sim.Time(5*sim.Microsecond), func() { f.Node(0).Crash() })
	eng.At(sim.Time(10*sim.Microsecond), func() { f.Heal(0, 1) })
	eng.Run()
	if r.Bytes()[0] != 0 {
		t.Fatal("parked write from a crashed poster landed after heal")
	}
}
