package core

import (
	"fmt"
	"math/rand"
	"testing"

	"hamband/internal/crdt"
	"hamband/internal/schema"
	"hamband/internal/sim"
	"hamband/internal/spec"
)

// checkViews compares every view r keeps — the one queries read and, at a
// leader, the speculative one — with Apply(S)(base) rebuilt from scratch.
func checkViews(r *Replica) error {
	for _, v := range []struct {
		name string
		v    *view
	}{{"live", &r.live}, {"speculative", r.spec}} {
		if v.v == nil {
			continue
		}
		want := v.v.base.Clone()
		for _, row := range r.sums {
			for _, slot := range row {
				r.cls.ApplyCall(want, slot.call)
			}
		}
		if !v.v.state().Equal(want) {
			return fmt.Errorf("p%d: the maintained %s view differs from a rebuild of it", r.id, v.name)
		}
	}
	return nil
}

// viewRun is the outcome of one runViews schedule.
type viewRun struct {
	err      error // first view found differing from its rebuild, if any
	checks   int
	anchors  uint64 // full-state anchor writes
	fetches  uint64 // gap, park and forced fetches
	sawSpec  bool   // some replica held a speculative view during the run
	finished bool   // the run drained and the replicas converged
}

// runViews drives a random mix of every method of cls — queries included —
// over four nodes whose δ-logs hold a couple of records and re-anchor every
// third call, and checks all views at every quiescent point (between 1 µs
// engine slices) and inside every query's callback. With faults, one link
// tears its writes for a while (its reader parks and fetches), another is cut
// while its reader is forced through a gap fetch of what it is missing.
// dropDirty is the mutation: whatever marks a view dirty is forgotten before
// anyone reads it — in a run without faults, that is anchor adoption alone.
func runViews(t *testing.T, cls *spec.Class, seed int64, faults, dropDirty bool) viewRun {
	t.Helper()
	h := newHarness(t, cls, 4, seed, func(o *Options) {
		o.CheckIntegrity = false // it reads the live view after every change; leave reads to the queries
		o.DeltaLogBytes = 160
		o.AnchorInterval = 3
	})
	var run viewRun
	note := func(err error) {
		run.checks++
		if err != nil && run.err == nil {
			run.err = fmt.Errorf("t=%v: %w", sim.Duration(h.eng.Now()), err)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	const ops = 600
	issued := 0
	issue := h.eng.NewTicker(5*sim.Microsecond, func() {
		for i, n := 0, 1+rng.Intn(3); i < n && issued < ops; i++ {
			issued++
			p := spec.ProcID(rng.Intn(4))
			u := spec.MethodID(rng.Intn(len(cls.Methods)))
			call := cls.Gen.Call(rng, u)
			if cls.Methods[u].Kind == spec.Query {
				r := h.cluster.Replica(p)
				r.Invoke(u, call.Args, func(any, error) { note(checkViews(r)) })
				continue
			}
			h.invoke(p, u, call.Args)
		}
	})
	if faults {
		at := func(us int, fn func()) { h.eng.At(sim.Time(us)*sim.Time(sim.Microsecond), fn) }
		at(300, func() { h.fab.SetLinkTorn(2, 3, 30*sim.Microsecond, 10*sim.Microsecond) })
		at(900, func() { h.fab.SetLinkTorn(2, 3, 0, 0) })
		at(500, func() { h.fab.PartitionLink(0, 1) })
		at(700, func() {
			r1 := h.cluster.Replica(1)
			for g := range r1.sums {
				r1.fetchSlot(g, 0, r1.sums[g][0])
			}
		})
		at(1000, func() { h.fab.HealLink(0, 1) })
	}
	quiescent := func() {
		for _, r := range h.cluster.Replicas {
			run.sawSpec = run.sawSpec || r.spec != nil
			if dropDirty {
				for _, v := range []*view{&r.live, r.spec} {
					if v != nil {
						v.dirty = false
					}
				}
			}
			note(checkViews(r))
		}
	}
	for h.eng.Now() < sim.Time(ops/2*5+1500)*sim.Time(sim.Microsecond) {
		h.eng.RunFor(1 * sim.Microsecond)
		quiescent()
	}
	issue.Cancel()
	run.finished = h.drain(200 * sim.Millisecond)
	quiescent()
	_, run.anchors, run.fetches = deltaStats(h.cluster)
	if run.finished && !dropDirty {
		h.checkConvergence()
	}
	return run
}

// viewClasses are the classes of the view-equivalence test: scalar and
// set-valued summaries, with and without conflicting methods (and so with
// and without a leader's speculative view).
var viewClasses = []struct {
	cls   func() *spec.Class
	conf  bool // has a synchronization group
	seeds []int64
}{
	{crdt.NewCounter, false, []int64{1, 2}},
	{crdt.NewGSet, false, []int64{3, 4}},
	{crdt.NewAccount, true, []int64{5, 6}},
	{crdt.NewBankMap, true, []int64{7, 8}},
	{schema.NewCourseware, true, []int64{9, 10}},
}

// TestViewsEqualRebuild is the view-equivalence property: however own
// reducible calls, folded δ-records, applied buffer entries, anchors, gap
// fetches and repair reads interleave, what a view returns Equals a
// from-scratch σ.Clone() plus every slot's summary — at followers, and for
// the speculative view at leaders.
func TestViewsEqualRebuild(t *testing.T) {
	for _, vc := range viewClasses {
		for _, seed := range vc.seeds {
			for _, faults := range []bool{false, true} {
				cls := vc.cls()
				t.Run(fmt.Sprintf("%s/seed%d/faults=%v", cls.Name, seed, faults), func(t *testing.T) {
					run := runViews(t, cls, seed, faults, false)
					if run.err != nil {
						t.Fatal(run.err)
					}
					if !run.finished {
						t.Fatal("the run never drained")
					}
					if run.anchors < 20 {
						t.Errorf("only %d anchor writes: the schedule does not re-anchor often", run.anchors)
					}
					if faults && run.fetches == 0 {
						t.Error("no slot was fetched: neither the torn link nor the forced gap fetch engaged")
					}
					if run.sawSpec != vc.conf {
						t.Errorf("a speculative view existed: %v, want %v", run.sawSpec, vc.conf)
					}
					t.Logf("%d checks, %d anchors, %d fetches", run.checks, run.anchors, run.fetches)
				})
			}
		}
	}
}

// TestViewsCatchDroppedDirtyMark is the mutation control: in a fault-free
// run, where only an adopted anchor marks a view dirty, forgetting the mark
// must make the property above fail for every class.
func TestViewsCatchDroppedDirtyMark(t *testing.T) {
	for _, vc := range viewClasses {
		cls := vc.cls()
		run := runViews(t, cls, vc.seeds[0], false, true)
		if run.err == nil {
			t.Errorf("%s: views that forget the dirty mark of an adopted anchor passed %d checks", cls.Name, run.checks)
			continue
		}
		t.Logf("%s: caught: %v", cls.Name, run.err)
	}
}
