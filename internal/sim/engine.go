// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine maintains a virtual clock and an event queue. Events are
// functions scheduled for a virtual time; the engine runs them in
// (time, insertion order) so that executions are fully deterministic for a
// given seed. All of Hamband's simulated substrates — the RDMA fabric, the
// message network, node CPUs, heartbeats and pollers — run on one engine,
// which makes whole-cluster executions reproducible and lets benchmarks
// measure throughput and response time in precise virtual time.
package sim

import (
	"fmt"
	"math/rand"
)

// Time is a point in virtual time, in nanoseconds since the start of the
// simulation.
type Time int64

// Duration is a span of virtual time in nanoseconds.
type Duration int64

// Common durations, mirroring time.Duration's constants.
const (
	Nanosecond  Duration = 1
	Microsecond          = 1000 * Nanosecond
	Millisecond          = 1000 * Microsecond
	Second               = 1000 * Millisecond
)

// String formats a duration in the most natural unit.
func (d Duration) String() string {
	switch {
	case d >= Second:
		return fmt.Sprintf("%.3fs", float64(d)/float64(Second))
	case d >= Millisecond:
		return fmt.Sprintf("%.3fms", float64(d)/float64(Millisecond))
	case d >= Microsecond:
		return fmt.Sprintf("%.3fµs", float64(d)/float64(Microsecond))
	default:
		return fmt.Sprintf("%dns", int64(d))
	}
}

// Micros returns the duration in (fractional) microseconds.
func (d Duration) Micros() float64 { return float64(d) / float64(Microsecond) }

// event is a scheduled callback.
type event struct {
	at  Time
	seq uint64 // insertion order; breaks ties deterministically
	fn  func()
}

// before orders events by (at, seq).
func (a *event) before(b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// eventHeap is a binary min-heap of events ordered by (at, seq). Events are
// stored by value, so a warm heap schedules and runs events without
// allocating; seq is unique, so the order is total and the pop sequence does
// not depend on the heap's internal layout.
type eventHeap []event

func (h *eventHeap) push(ev event) {
	q := append(*h, ev)
	*h = q
	// Sift up with a hole: move parents down, place ev once.
	i := len(q) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !ev.before(&q[parent]) {
			break
		}
		q[i] = q[parent]
		i = parent
	}
	q[i] = ev
}

func (h *eventHeap) pop() event {
	q := *h
	top := q[0]
	n := len(q) - 1
	last := q[n]
	q[n] = event{} // drop the closure reference
	q = q[:n]
	*h = q
	if n == 0 {
		return top
	}
	// Sift last down from the root.
	i := 0
	for {
		child := 2*i + 1
		if child >= n {
			break
		}
		if r := child + 1; r < n && q[r].before(&q[child]) {
			child = r
		}
		if !q[child].before(&last) {
			break
		}
		q[i] = q[child]
		i = child
	}
	q[i] = last
	return top
}

// Engine is a deterministic discrete-event simulator.
//
// The zero value is not usable; construct with NewEngine. Engine is not safe
// for concurrent use: all simulated work runs single-threaded inside Run,
// which is what makes executions deterministic.
type Engine struct {
	now     Time
	events  eventHeap
	seq     uint64
	rng     *rand.Rand
	stopped bool
	ran     uint64 // events executed, for diagnostics
}

// NewEngine returns an engine whose random source is seeded with seed.
func NewEngine(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current virtual time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic random source. All randomness in a
// simulation must come from here to preserve reproducibility.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// At schedules fn to run at virtual time t. Scheduling in the past (t before
// Now) runs fn at the current time, after already-queued events for that
// time.
func (e *Engine) At(t Time, fn func()) {
	if t < e.now {
		t = e.now
	}
	e.seq++
	e.events.push(event{at: t, seq: e.seq, fn: fn})
}

// After schedules fn to run d from now. Negative d behaves like d == 0.
func (e *Engine) After(d Duration, fn func()) { e.At(e.now+Time(d), fn) }

// Stop makes Run return after the currently executing event completes.
// Pending events remain queued and a subsequent Run resumes them.
func (e *Engine) Stop() { e.stopped = true }

// Run executes events in order until the queue drains or Stop is called.
func (e *Engine) Run() {
	e.stopped = false
	for len(e.events) > 0 && !e.stopped {
		e.step()
	}
}

// RunUntil executes events with timestamps at or before deadline, leaving
// the clock at deadline if the queue drains early.
func (e *Engine) RunUntil(deadline Time) {
	e.stopped = false
	for len(e.events) > 0 && !e.stopped && e.events[0].at <= deadline {
		e.step()
	}
	if !e.stopped && e.now < deadline {
		e.now = deadline
	}
}

// RunFor executes events within the next d of virtual time.
func (e *Engine) RunFor(d Duration) { e.RunUntil(e.now + Time(d)) }

// Pending reports the number of queued events.
func (e *Engine) Pending() int { return len(e.events) }

// Executed reports the total number of events run so far.
func (e *Engine) Executed() uint64 { return e.ran }

func (e *Engine) step() {
	ev := e.events.pop()
	if ev.at > e.now {
		e.now = ev.at
	}
	e.ran++
	ev.fn()
}

// Ticker repeatedly invokes fn every period until Cancel is called. The
// first invocation happens one period from the time of NewTicker.
type Ticker struct {
	eng      *Engine
	period   Duration
	fn       func()
	tickFn   func() // t.tick bound once, so re-arming allocates nothing
	canceled bool
}

// NewTicker schedules fn to run every period on e.
func (e *Engine) NewTicker(period Duration, fn func()) *Ticker {
	if period <= 0 {
		panic("sim: ticker period must be positive")
	}
	t := &Ticker{eng: e, period: period, fn: fn}
	t.tickFn = t.tick
	e.After(period, t.tickFn)
	return t
}

func (t *Ticker) tick() {
	if t.canceled {
		return
	}
	t.fn()
	if !t.canceled {
		t.eng.After(t.period, t.tickFn)
	}
}

// Cancel stops the ticker. It is safe to call multiple times, including
// from within the ticker's own callback.
func (t *Ticker) Cancel() { t.canceled = true }
