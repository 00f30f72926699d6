package rdma

import (
	"fmt"
	"slices"
	"testing"

	"hamband/internal/sim"
)

// TestPollRunsEverySweepInOneItem: k registered sweeps cost one SweepCost
// work item per SweepPeriod between them, and each item calls them in
// registration order.
func TestPollRunsEverySweepInOneItem(t *testing.T) {
	const k, periods = 3, 4
	eng, f := testFabric(1)
	node := f.Node(0)
	lat := f.Latency()
	var items []sim.Duration
	node.CPU.Observe = func(cost sim.Duration) { items = append(items, cost) }
	var calls []int
	for i := 0; i < k; i++ {
		node.Poll(func() { calls = append(calls, i) })
	}
	if node.Sweeps() != k {
		t.Fatalf("%d sweeps registered, want %d", node.Sweeps(), k)
	}
	eng.RunUntil(sim.Time(periods)*sim.Time(lat.SweepPeriod) + sim.Time(lat.SweepCost))

	if len(items) != periods || slices.ContainsFunc(items, func(d sim.Duration) bool { return d != lat.SweepCost }) {
		t.Fatalf("over %d periods: items %v, want %d of %v", periods, items, periods, lat.SweepCost)
	}
	var want []int
	for p := 0; p < periods; p++ {
		want = append(want, 0, 1, 2)
	}
	if !slices.Equal(calls, want) {
		t.Fatalf("sweeps ran %v, want %v", calls, want)
	}
}

// TestPollSkipsDownNode: the loop submits one SweepCost item per period, none
// while its node is suspended — nothing is queued to run on resume — and none
// once it has crashed.
func TestPollSkipsDownNode(t *testing.T) {
	eng, f := testFabric(1)
	node := f.Node(0)
	lat := f.Latency()
	var items []sim.Duration
	node.CPU.Observe = func(cost sim.Duration) { items = append(items, cost) }
	sweeps := 0
	node.Poll(func() { sweeps++ })
	node.Poll(func() { sweeps++ })
	// at(k) is when the k-th period's item has run.
	at := func(k int) sim.Time { return sim.Time(k)*sim.Time(lat.SweepPeriod) + sim.Time(lat.SweepCost) }

	eng.RunUntil(at(4))
	if sweeps != 8 || len(items) != 4 || slices.ContainsFunc(items, func(d sim.Duration) bool { return d != lat.SweepCost }) {
		t.Fatalf("over four periods: %d sweeps, items %v; want 8 sweeps in four items of %v", sweeps, items, lat.SweepCost)
	}
	node.Suspend()
	eng.RunUntil(at(10))
	node.Resume()
	eng.RunUntil(at(10) + 1)
	if sweeps != 8 || len(items) != 4 {
		t.Fatalf("suspended for six periods: %d sweeps, %d items; want none added", sweeps, len(items))
	}
	eng.RunUntil(at(12))
	if sweeps != 12 {
		t.Fatalf("resumed: %d sweeps, want 12", sweeps)
	}
	node.Crash()
	eng.RunUntil(at(20))
	if len(items) != 6 {
		t.Fatalf("crashed: %d items, want no more than the 6 before", len(items))
	}
}

// TestPollStop: stopping one sweep leaves the others polling; a work item
// already queued no longer calls it, nor a sweep an earlier one stops in the
// same item; a sweep registered from inside a sweep runs from the next tick;
// and stopping the last sweep cancels the ticker, so the engine runs dry.
func TestPollStop(t *testing.T) {
	eng, f := testFabric(1)
	node := f.Node(0)
	lat := f.Latency()
	var calls []string
	a := node.Poll(func() { calls = append(calls, "a") })
	var c *Sweep
	b := node.Poll(func() {
		calls = append(calls, "b")
		if c == nil {
			c = node.Poll(func() { calls = append(calls, "c") })
		}
	})
	period := sim.Time(lat.SweepPeriod)
	eng.RunUntil(2*period + sim.Time(lat.SweepCost))
	if want := []string{"a", "b", "a", "b", "c"}; !slices.Equal(calls, want) {
		t.Fatalf("two ticks ran %v, want %v", calls, want)
	}

	calls = nil
	eng.RunUntil(3 * period) // the third item is queued, not yet run
	a.Stop()
	a.Stop()
	eng.RunUntil(4*period + sim.Time(lat.SweepCost))
	if want := []string{"b", "c", "b", "c"}; !slices.Equal(calls, want) {
		t.Fatalf("after a stopped: %v, want %v", calls, want)
	}

	calls = nil
	b.fn = func() { calls = append(calls, "b"); c.Stop() }
	eng.RunUntil(5*period + sim.Time(lat.SweepCost))
	if want := []string{"b"}; !slices.Equal(calls, want) {
		t.Fatalf("b stopping c: %v, want %v", calls, want)
	}

	b.Stop()
	if node.Sweeps() != 0 || node.poll.ticker != nil {
		t.Fatalf("after the last Stop: %d sweeps, ticker %v; want none", node.Sweeps(), node.poll.ticker)
	}
	eng.RunUntil(20 * period)
	if eng.Pending() != 0 || len(calls) != 1 {
		t.Fatalf("after the last Stop: %d events pending, calls %v; want a dry engine", eng.Pending(), calls)
	}
}

// TestPollWithoutSweepsHasNoTicker: a node nothing registered with schedules
// nothing, and registering again after the last Stop starts a fresh ticker
// one period from then.
func TestPollWithoutSweepsHasNoTicker(t *testing.T) {
	eng, f := testFabric(2)
	if eng.Pending() != 0 {
		t.Fatalf("a fabric without in-channels has %d events pending, want 0", eng.Pending())
	}
	node := f.Node(1)
	node.Poll(func() {}).Stop()
	eng.RunUntil(sim.Time(5 * f.Latency().SweepPeriod))
	if eng.Pending() != 0 {
		t.Fatalf("%d events pending after the only sweep stopped, want 0", eng.Pending())
	}
	var ran []sim.Time
	node.Poll(func() { ran = append(ran, eng.Now()) })
	eng.RunFor(f.Latency().SweepPeriod + f.Latency().SweepCost)
	if want := []sim.Time{sim.Time(6*f.Latency().SweepPeriod + f.Latency().SweepCost)}; !slices.Equal(ran, want) {
		t.Fatalf("re-registered sweep ran at %v, want %v", ran, want)
	}
}

// TestPollOneSweepKeepsTheTickerSchedule: a node with one registration runs
// the schedule of a ticker of its own that submits the sweep as a SweepCost
// item (what each in-channel ran before the loop was shared), event for
// event, across verbs that share the CPU and a suspension.
func TestPollOneSweepKeepsTheTickerSchedule(t *testing.T) {
	run := func(shared bool) []string {
		eng, f := testFabric(2)
		node, peer := f.Node(0), f.Node(1)
		peer.Register("buf", 64).AllowWrite(0)
		lat := f.Latency()
		var log []string
		note := func(what string) { log = append(log, fmt.Sprintf("%s@%d#%d", what, eng.Now(), eng.Executed())) }
		node.CPU.Observe = func(cost sim.Duration) { note(fmt.Sprint("item", cost)) }
		sweep := func() { note("sweep") }
		if shared {
			node.Poll(sweep)
		} else {
			eng.NewTicker(lat.SweepPeriod, func() {
				if !node.Suspended() && !node.Crashed() {
					node.CPU.Submit(lat.SweepCost, sweep)
				}
			})
		}
		for i := 0; i < 20; i++ {
			eng.At(sim.Time(i)*730, func() { node.QP(1).Write("buf", i, []byte{byte(i)}, func(error) { note("cqe") }) })
		}
		eng.At(9000, node.Suspend)
		eng.At(15500, node.Resume)
		eng.RunUntil(sim.Time(30 * lat.SweepPeriod))
		return log
	}
	own, shared := run(false), run(true)
	if !slices.Equal(own, shared) {
		t.Fatalf("one shared sweep ran\n%v\na ticker of its own\n%v", shared, own)
	}
	if len(own) < 40 {
		t.Fatalf("only %d events logged: the comparison saw too little", len(own))
	}
}
