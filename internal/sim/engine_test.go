package sim

import (
	"math/rand"
	"sort"
	"testing"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine(1)
	var got []int
	e.At(30, func() { got = append(got, 3) })
	e.At(10, func() { got = append(got, 1) })
	e.At(20, func() { got = append(got, 2) })
	e.Run()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("events out of order: %v", got)
	}
	if e.Now() != 30 {
		t.Fatalf("clock = %d, want 30", e.Now())
	}
}

func TestEngineTieBreakInsertionOrder(t *testing.T) {
	e := NewEngine(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("tie-break violated insertion order: %v", got)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine(1)
	var trace []Time
	e.At(10, func() {
		trace = append(trace, e.Now())
		e.After(5, func() { trace = append(trace, e.Now()) })
	})
	e.Run()
	if len(trace) != 2 || trace[0] != 10 || trace[1] != 15 {
		t.Fatalf("nested schedule trace = %v", trace)
	}
}

func TestEnginePastSchedulingClamps(t *testing.T) {
	e := NewEngine(1)
	ran := false
	e.At(100, func() {
		e.At(50, func() { // in the past
			if e.Now() != 100 {
				t.Errorf("past event ran at %d, want 100", e.Now())
			}
			ran = true
		})
	})
	e.Run()
	if !ran {
		t.Fatal("past-scheduled event never ran")
	}
}

func TestRunUntil(t *testing.T) {
	e := NewEngine(1)
	var got []Time
	for _, at := range []Time{5, 10, 15, 20} {
		at := at
		e.At(at, func() { got = append(got, at) })
	}
	e.RunUntil(12)
	if len(got) != 2 {
		t.Fatalf("RunUntil(12) ran %d events, want 2", len(got))
	}
	if e.Now() != 12 {
		t.Fatalf("clock = %d, want 12", e.Now())
	}
	e.Run()
	if len(got) != 4 {
		t.Fatalf("resumed run executed %d events, want 4", len(got))
	}
}

func TestRunUntilAdvancesClockOnEmptyQueue(t *testing.T) {
	e := NewEngine(1)
	e.RunUntil(500)
	if e.Now() != 500 {
		t.Fatalf("clock = %d, want 500", e.Now())
	}
}

func TestStop(t *testing.T) {
	e := NewEngine(1)
	count := 0
	e.At(1, func() { count++; e.Stop() })
	e.At(2, func() { count++ })
	e.Run()
	if count != 1 {
		t.Fatalf("ran %d events after Stop, want 1", count)
	}
	e.Run()
	if count != 2 {
		t.Fatalf("resume after Stop ran %d total, want 2", count)
	}
}

func TestTicker(t *testing.T) {
	e := NewEngine(1)
	var times []Time
	tk := e.NewTicker(10, func() { times = append(times, e.Now()) })
	e.At(45, func() { tk.Cancel() })
	e.Run()
	if len(times) != 4 {
		t.Fatalf("ticker fired %d times, want 4 (at 10,20,30,40): %v", len(times), times)
	}
	for i, at := range times {
		if at != Time(10*(i+1)) {
			t.Fatalf("tick %d at %d, want %d", i, at, 10*(i+1))
		}
	}
}

func TestTickerCancelFromCallback(t *testing.T) {
	e := NewEngine(1)
	fires := 0
	var tk *Ticker
	tk = e.NewTicker(10, func() {
		fires++
		if fires == 2 {
			tk.Cancel()
		}
	})
	e.Run()
	if fires != 2 {
		t.Fatalf("ticker fired %d times after self-cancel, want 2", fires)
	}
}

func TestDurationString(t *testing.T) {
	cases := []struct {
		d    Duration
		want string
	}{
		{500, "500ns"},
		{1500, "1.500µs"},
		{2 * Millisecond, "2.000ms"},
		{3 * Second, "3.000s"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", int64(c.d), got, c.want)
		}
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []int64 {
		e := NewEngine(42)
		var out []int64
		var rec func()
		n := 0
		rec = func() {
			out = append(out, int64(e.Now()), e.Rand().Int63())
			n++
			if n < 50 {
				e.After(Duration(1+e.Rand().Intn(100)), rec)
			}
		}
		e.After(1, rec)
		e.Run()
		return out
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("runs diverged in length: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs diverged at %d: %d vs %d", i, a[i], b[i])
		}
	}
}

func TestCPUSerializesWork(t *testing.T) {
	e := NewEngine(1)
	c := NewCPU(e)
	var done []Time
	e.At(0, func() {
		c.Exec(10, func() { done = append(done, e.Now()) })
		c.Exec(10, func() { done = append(done, e.Now()) })
		c.Exec(5, func() { done = append(done, e.Now()) })
	})
	e.Run()
	want := []Time{10, 20, 25}
	if len(done) != len(want) {
		t.Fatalf("completions = %v, want %v", done, want)
	}
	for i := range want {
		if done[i] != want[i] {
			t.Fatalf("completions = %v, want %v", done, want)
		}
	}
	if c.BusyTotal() != 25 {
		t.Fatalf("busy total = %d, want 25", c.BusyTotal())
	}
}

func TestCPUSuspendResume(t *testing.T) {
	e := NewEngine(1)
	c := NewCPU(e)
	ran := false
	e.At(0, func() {
		c.Suspend()
		c.Exec(10, func() { ran = true })
	})
	e.RunUntil(100)
	if ran {
		t.Fatal("suspended CPU executed work")
	}
	c.Resume()
	e.Run()
	if !ran {
		t.Fatal("resumed CPU did not execute queued work")
	}
	if e.Now() != 110 {
		t.Fatalf("work completed at %d, want 110", e.Now())
	}
}

func TestCPUZeroAndNegativeCost(t *testing.T) {
	e := NewEngine(1)
	c := NewCPU(e)
	n := 0
	e.At(0, func() {
		c.Exec(0, func() { n++ })
		c.Exec(-5, func() { n++ })
	})
	e.Run()
	if n != 2 {
		t.Fatalf("ran %d zero-cost tasks, want 2", n)
	}
	if e.Now() != 0 {
		t.Fatalf("zero-cost work advanced clock to %d", e.Now())
	}
}

func TestEngineHeapStress(t *testing.T) {
	// Push thousands of events in adversarial order and verify
	// time-then-insertion ordering holds throughout.
	e := NewEngine(5)
	const n = 5000
	type stamp struct {
		at  Time
		idx int
	}
	var fired []stamp
	for i := 0; i < n; i++ {
		i := i
		at := Time(e.Rand().Intn(1000))
		e.At(at, func() { fired = append(fired, stamp{e.Now(), i}) })
	}
	e.Run()
	if len(fired) != n {
		t.Fatalf("fired %d, want %d", len(fired), n)
	}
	for i := 1; i < n; i++ {
		if fired[i].at < fired[i-1].at {
			t.Fatal("time ordering violated")
		}
		if fired[i].at == fired[i-1].at && fired[i].idx < fired[i-1].idx {
			t.Fatal("insertion tie-break violated")
		}
	}
}

// TestHotPathZeroAlloc pins the engine's steady-state primitives at zero
// allocations: scheduling and running an event on a warm heap, a CPU work
// item from Submit to its completion func, and one period of a ticker.
// Every simulated verb, poll and apply is built from these three.
func TestHotPathZeroAlloc(t *testing.T) {
	e := NewEngine(1)
	noop := func() {}
	e.After(1, noop) // warm the heap's backing array
	e.Run()
	if a := testing.AllocsPerRun(1000, func() {
		e.After(1, noop)
		e.Run()
	}); a != 0 {
		t.Errorf("After+Run allocates %.2f objects per event, want 0", a)
	}

	cpu := NewCPU(e)
	ran := 0
	count := func() { ran++ }
	cpu.Submit(10, count)
	e.Run()
	if a := testing.AllocsPerRun(1000, func() {
		cpu.Submit(10, count)
		e.Run()
	}); a != 0 {
		t.Errorf("CPU.Submit to completion allocates %.2f objects per item, want 0", a)
	}
	if ran != 1002 { // warm-up + AllocsPerRun's own warm-up + 1000
		t.Fatalf("completion func ran %d times, want 1002", ran)
	}

	ticks := 0
	tk := e.NewTicker(5, func() { ticks++ })
	e.RunFor(5)
	if a := testing.AllocsPerRun(1000, func() { e.RunFor(5) }); a != 0 {
		t.Errorf("one ticker period allocates %.2f objects, want 0", a)
	}
	tk.Cancel()
	if ticks != 1002 {
		t.Fatalf("ticker fired %d times, want 1002", ticks)
	}
}

// TestCPUBacklogKeepsFIFO runs a core that is never idle — every completion
// submits more work — long enough for the queue to compact behind its head
// several times, and checks items still complete in submission order.
func TestCPUBacklogKeepsFIFO(t *testing.T) {
	e := NewEngine(1)
	cpu := NewCPU(e)
	const total = 10 * cpuQueueCompact
	next, submitted := 0, 0
	var submit func()
	submit = func() {
		id := submitted
		submitted++
		cpu.Submit(1, func() {
			if id != next {
				t.Fatalf("item %d completed at position %d", id, next)
			}
			next++
			// Two for one while there is budget: the backlog only grows.
			for k := 0; k < 2 && submitted < total; k++ {
				submit()
			}
		})
	}
	submit()
	e.Run()
	if next != total || cpu.QueueLen() != 0 {
		t.Fatalf("completed %d of %d items, %d still queued", next, total, cpu.QueueLen())
	}
}

// planned is one event of TestHeapMatchesReferenceSort's random program:
// when it runs it schedules its children, each at now+delta (a negative
// delta asks for a time in the past).
type planned struct {
	id       int
	children []plannedChild
}

type plannedChild struct {
	delta Duration
	ev    *planned
}

// TestHeapMatchesReferenceSort checks the value-typed heap against the
// definition it implements: events run in ascending (time, insertion
// order). Random programs mix same-time ties, events scheduled from inside
// events and At in the past; the reference picks each next event by a
// stable sort of everything pending.
func TestHeapMatchesReferenceSort(t *testing.T) {
	type fired struct {
		id int
		at Time
	}
	for seed := int64(1); seed <= 50; seed++ {
		rng := rand.New(rand.NewSource(seed))
		nextID := 0
		var grow func(depth int) *planned
		grow = func(depth int) *planned {
			ev := &planned{id: nextID}
			nextID++
			if depth < 4 {
				for k := rng.Intn(4); k > 0; k-- {
					// Few distinct deltas, so ties are common; a fifth of
					// them point into the past.
					delta := Duration(rng.Intn(4) * 10)
					if rng.Intn(5) == 0 {
						delta = -Duration(1 + rng.Intn(30))
					}
					ev.children = append(ev.children, plannedChild{delta, grow(depth + 1)})
				}
			}
			return ev
		}
		var roots []plannedChild
		for k := 0; k < 40; k++ {
			roots = append(roots, plannedChild{Duration(rng.Intn(6) * 10), grow(0)})
		}

		// The engine under test.
		e := NewEngine(seed)
		var got []fired
		var schedule func(c plannedChild)
		schedule = func(c plannedChild) {
			e.At(e.Now()+Time(c.delta), func() {
				got = append(got, fired{c.ev.id, e.Now()})
				for _, ch := range c.ev.children {
					schedule(ch)
				}
			})
		}
		for _, r := range roots {
			schedule(r)
		}
		e.Run()

		// The reference: a flat list, stably sorted by time before every pop
		// (appending in insertion order makes stability the seq tie-break).
		type pending struct {
			at Time
			ev *planned
		}
		var now Time
		var queue []pending
		var want []fired
		push := func(c plannedChild) {
			at := now + Time(c.delta)
			if at < now {
				at = now
			}
			queue = append(queue, pending{at, c.ev})
		}
		for _, r := range roots {
			push(r)
		}
		for len(queue) > 0 {
			sort.SliceStable(queue, func(i, j int) bool { return queue[i].at < queue[j].at })
			head := queue[0]
			queue = queue[1:]
			now = head.at
			want = append(want, fired{head.ev.id, now})
			for _, ch := range head.ev.children {
				push(ch)
			}
		}

		if len(got) != len(want) || len(got) != nextID {
			t.Fatalf("seed %d: engine ran %d events, reference %d, program has %d", seed, len(got), len(want), nextID)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: event %d was %+v, reference says %+v", seed, i, got[i], want[i])
			}
		}
		if e.Pending() != 0 || e.Executed() != uint64(nextID) {
			t.Fatalf("seed %d: %d pending, %d executed after the run", seed, e.Pending(), e.Executed())
		}
	}
}
