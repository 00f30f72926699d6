package store

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"hamband/internal/core"
	"hamband/internal/crdt"
	"hamband/internal/rdma"
	"hamband/internal/schema"
	"hamband/internal/sim"
	"hamband/internal/spec"
	"hamband/internal/trace"
)

// testOptions shrinks the per-shard rings so many shards fit fast test
// budgets; heartbeats stay default (tests here inject no failures).
func testOptions() Options {
	o := DefaultOptions()
	o.MemoryBudget = 8 << 20
	o.Core.Broadcast.RingCapacity = 1 << 12
	o.Core.Mu.RingCapacity = 1 << 12
	o.Core.Mu.CtrlCapacity = 1 << 10
	o.Core.Mu.JournalSlots = 64
	o.Core.SumSlotSize = 4 * 1024
	return o
}

func newStore(t *testing.T, nodes int, seed int64, opts Options) (*sim.Engine, *Store) {
	t.Helper()
	eng := sim.NewEngine(seed)
	fab := rdma.NewFabric(eng, nodes, rdma.DefaultLatency())
	s := New(fab, opts)
	t.Cleanup(s.Stop)
	return eng, s
}

func TestOpenBudgetTypedError(t *testing.T) {
	opts := testOptions()
	an := spec.MustAnalyze(crdt.NewCounter())
	fp := Footprint(an, 3, opts.Core)
	opts.MemoryBudget = fp + fp/2 // one counter shard fits, two do not
	_, s := newStore(t, 3, 1, opts)
	if _, err := s.Open("a", an, ShardOptions{}); err != nil {
		t.Fatalf("first open: %v", err)
	}
	_, err := s.Open("b", an, ShardOptions{})
	if !errors.Is(err, ErrBudget) {
		t.Fatalf("over-budget open: %v, want ErrBudget", err)
	}
	// The failed open left no partial registration behind.
	used, _ := s.Budget(0)
	if used != fp {
		t.Fatalf("node 0 used %d B after failed open, want %d", used, fp)
	}
}

// TestFootprintExactlyMatchesArenaAccounting opens one class of each buffer
// shape — S only, F only, S+L and all three — and pins the formula to the
// arena byte for byte after every open: Footprint and core.NewCluster consult
// the same analysis, so admission counts exactly the regions that get built.
func TestFootprintExactlyMatchesArenaAccounting(t *testing.T) {
	opts := testOptions()
	_, s := newStore(t, 4, 2, opts)
	classes := []*spec.Class{
		crdt.NewCounter(),      // reducible only: summary slots, no rings
		crdt.NewORSet(),        // irreducible conflict-free only: broadcast rings
		schema.NewCourseware(), // reducible + conflicting: slots and one Mu group
		crdt.NewBankMap(),      // all three categories
	}
	want := 0
	for _, cls := range classes {
		an := spec.MustAnalyze(cls)
		sh, err := s.Open(cls.Name, an, ShardOptions{})
		if err != nil {
			t.Fatalf("open %s: %v", cls.Name, err)
		}
		if sh.Footprint() != Footprint(an, 4, opts.Core) {
			t.Fatalf("%s: shard footprint %d != Footprint() %d", cls.Name, sh.Footprint(), Footprint(an, 4, opts.Core))
		}
		want += sh.Footprint()
		for node := 0; node < 4; node++ {
			used, total := s.Budget(node)
			if used != want {
				t.Fatalf("after opening %s: node %d arena used %d B, footprint formula says %d B", cls.Name, node, used, want)
			}
			if total != opts.MemoryBudget {
				t.Fatalf("node %d: budget %d, want %d", node, total, opts.MemoryBudget)
			}
		}
	}
}

func TestCloseFreesMemoryForReuse(t *testing.T) {
	opts := testOptions()
	_, s := newStore(t, 3, 3, opts)
	an := spec.MustAnalyze(crdt.NewAccount())
	fp := Footprint(an, 3, opts.Core)
	opts.MemoryBudget = fp + fp/2 // one shard fits, two do not
	// Rebuild with the tightened budget.
	_, s = newStore(t, 3, 3, opts)

	if _, err := s.Open("first", an, ShardOptions{}); err != nil {
		t.Fatalf("open first: %v", err)
	}
	if _, err := s.Open("second", an, ShardOptions{}); !errors.Is(err, ErrBudget) {
		t.Fatalf("second open: %v, want ErrBudget", err)
	}
	if err := s.Close("first"); err != nil {
		t.Fatalf("close: %v", err)
	}
	if used, _ := s.Budget(0); used != 0 {
		t.Fatalf("used %d B after close, want 0", used)
	}
	if _, err := s.Open("second", an, ShardOptions{}); err != nil {
		t.Fatalf("open into freed memory: %v", err)
	}
	if err := s.Close("missing"); !errors.Is(err, ErrUnknownShard) {
		t.Fatal("closing an unknown key must report ErrUnknownShard")
	}
}

func TestConcurrentOpenCloseRespectsBudget(t *testing.T) {
	opts := testOptions()
	an := spec.MustAnalyze(crdt.NewCounter())
	fp := Footprint(an, 3, opts.Core)
	opts.MemoryBudget = 4 * fp // at most 4 shards at once
	_, s := newStore(t, 3, 4, opts)

	var wg sync.WaitGroup
	var opened sync.Map
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			key := fmt.Sprintf("k%d", g)
			for i := 0; i < 20; i++ {
				_, err := s.Open(key, an, ShardOptions{})
				if err != nil {
					if !errors.Is(err, ErrBudget) {
						t.Errorf("open %s: %v", key, err)
						return
					}
					continue
				}
				opened.Store(key, true)
				if used, total := s.Budget(0); used > total {
					t.Errorf("budget exceeded: %d > %d", used, total)
				}
				if err := s.Close(key); err != nil {
					t.Errorf("close %s: %v", key, err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if used, _ := s.Budget(0); used != 0 {
		t.Fatalf("used %d B after all closes", used)
	}
	count := 0
	opened.Range(func(any, any) bool { count++; return true })
	if count == 0 {
		t.Fatal("no goroutine ever opened a shard — the test exercised nothing")
	}
}

// drainShards runs the engine until every listed shard's replicas all hold
// the expected counter value, or the deadline passes.
func drainCounters(t *testing.T, eng *sim.Engine, s *Store, want map[string]int64, deadline sim.Duration) {
	t.Helper()
	limit := eng.Now() + sim.Time(deadline)
	for eng.Now() < limit {
		eng.RunFor(200 * sim.Microsecond)
		if countersConverged(s, want) {
			return
		}
	}
	for key, w := range want {
		sh := s.Shard(key)
		for p := 0; p < sh.Cluster.Fab.Size(); p++ {
			st := sh.Replica(spec.ProcID(p)).CurrentState()
			got := sh.Cluster.An.Class.Methods[crdt.CounterValue].Eval(st, spec.Args{})
			if got != w {
				t.Errorf("shard %s p%d: value %v, want %d", key, p, got, w)
			}
		}
	}
	t.Fatal("shards did not converge before the deadline")
}

func countersConverged(s *Store, want map[string]int64) bool {
	for key, w := range want {
		sh := s.Shard(key)
		for p := 0; p < sh.Cluster.Fab.Size(); p++ {
			st := sh.Replica(spec.ProcID(p)).CurrentState()
			if got := sh.Cluster.An.Class.Methods[crdt.CounterValue].Eval(st, spec.Args{}); got != w {
				return false
			}
		}
	}
	return true
}

func TestSixteenShardsConvergeIndependently(t *testing.T) {
	opts := testOptions()
	eng, s := newStore(t, 4, 5, opts)
	an := spec.MustAnalyze(crdt.NewCounter())
	want := make(map[string]int64)
	for i := 0; i < 16; i++ {
		key := fmt.Sprintf("obj%02d", i)
		if _, err := s.Open(key, an, ShardOptions{}); err != nil {
			t.Fatalf("open %s: %v", key, err)
		}
		// Distinct per-shard totals so cross-shard leakage cannot cancel out.
		for j := 0; j <= i; j++ {
			p := spec.ProcID(j % 4)
			s.Invoke(key, p, crdt.CounterAdd, spec.ArgsI(int64(i+1)), nil)
			want[key] += int64(i + 1)
		}
	}
	drainCounters(t, eng, s, want, 50*sim.Millisecond)
}

func TestCrossShardDoorbellCoalescing(t *testing.T) {
	opts := testOptions()
	eng, s := newStore(t, 3, 6, opts)
	an := spec.MustAnalyze(crdt.NewCounter())
	want := make(map[string]int64)
	for _, key := range []string{"hot", "cold"} {
		if _, err := s.Open(key, an, ShardOptions{}); err != nil {
			t.Fatalf("open %s: %v", key, err)
		}
	}
	// Back-to-back invokes on different shards at the same node: their
	// summary WRs join one CPU drain and must share one chained doorbell
	// per peer.
	for i := 0; i < 10; i++ {
		s.Invoke("hot", 0, crdt.CounterAdd, spec.ArgsI(1), nil)
		s.Invoke("cold", 0, crdt.CounterAdd, spec.ArgsI(2), nil)
		want["hot"], want["cold"] = want["hot"]+1, want["cold"]+2
		eng.RunFor(100 * sim.Microsecond)
	}
	drainCounters(t, eng, s, want, 50*sim.Millisecond)
	st := s.Coalescer(0).Stats()
	if st.CrossChains == 0 || st.CrossWRs == 0 {
		t.Fatalf("coalescer stats %+v: no cross-shard chains — shards are not sharing doorbells", st)
	}
	if fs := s.Fabric().Stats(); fs.Chains == 0 {
		t.Fatalf("fabric stats %+v: no chained doorbells at all", fs)
	}
}

func TestShardTaggedTracesDecompose(t *testing.T) {
	opts := testOptions()
	eng := sim.NewEngine(8)
	fab := rdma.NewFabric(eng, 3, rdma.DefaultLatency())
	opts.Tracer = trace.New(eng, 1<<14)
	s := New(fab, opts)
	t.Cleanup(s.Stop)
	an := spec.MustAnalyze(crdt.NewCounter())
	want := make(map[string]int64)
	for _, key := range []string{"alpha", "beta"} {
		if _, err := s.Open(key, an, ShardOptions{}); err != nil {
			t.Fatalf("open %s: %v", key, err)
		}
		s.Invoke(key, 0, crdt.CounterAdd, spec.ArgsI(3), nil)
		want[key] = 3
	}
	drainCounters(t, eng, s, want, 50*sim.Millisecond)
	byShard := trace.ByShard(opts.Tracer.Events())
	for _, key := range []string{"alpha", "beta"} {
		evs := byShard[key]
		if len(evs) == 0 {
			t.Fatalf("no events attributed to shard %s", key)
		}
		kinds := make(map[trace.Kind]bool)
		for _, e := range evs {
			kinds[e.Kind] = true
		}
		// Runtime events come via the scoped tracer, verb events via the
		// shard-prefixed WR label; both paths must attribute.
		if !kinds[trace.Issue] || !kinds[trace.Post] {
			t.Fatalf("shard %s events miss issue/post kinds: %v", key, kinds)
		}
	}
}

func TestStaggeredLeadersSpreadAcrossNodes(t *testing.T) {
	opts := testOptions()
	_, s := newStore(t, 3, 9, opts)
	an := spec.MustAnalyze(crdt.NewAccount())
	leaders := make(map[spec.ProcID]bool)
	for i := 0; i < 3; i++ {
		sh, err := s.Open(fmt.Sprintf("acct%d", i), an, ShardOptions{})
		if err != nil {
			t.Fatalf("open %d: %v", i, err)
		}
		leaders[sh.Cluster.Leader(0, 0)] = true
	}
	if len(leaders) != 3 {
		t.Fatalf("3 shards elected only %d distinct group-0 leaders; consensus load not staggered", len(leaders))
	}
}

func TestHotShardGetsBiggerRings(t *testing.T) {
	opts := testOptions()
	_, s := newStore(t, 3, 10, opts)
	an := spec.MustAnalyze(crdt.NewORSet())
	cold, err := s.Open("cold", an, ShardOptions{})
	if err != nil {
		t.Fatalf("open cold: %v", err)
	}
	hot, err := s.Open("hot", an, ShardOptions{RingCapacity: 1 << 14})
	if err != nil {
		t.Fatalf("open hot: %v", err)
	}
	if hot.Footprint() <= cold.Footprint() {
		t.Fatalf("hot shard footprint %d not larger than cold %d despite bigger rings",
			hot.Footprint(), cold.Footprint())
	}
	co := opts.Core
	co.Broadcast.RingCapacity = 1 << 14
	co.Mu.RingCapacity = 1 << 14
	if hot.Footprint() != Footprint(an, 3, co) {
		t.Fatalf("hot footprint %d does not match formula %d", hot.Footprint(), Footprint(an, 3, co))
	}
}

func TestInvalidAndUnknownKeys(t *testing.T) {
	_, s := newStore(t, 2, 11, testOptions())
	an := spec.MustAnalyze(crdt.NewCounter())
	for _, bad := range []string{"", "a:b", "a,b", "a[b", "a]b"} {
		if _, err := s.Open(bad, an, ShardOptions{}); err == nil {
			t.Fatalf("open %q succeeded; want key validation error", bad)
		}
	}
	var gotErr error
	s.Invoke("nope", 0, crdt.CounterAdd, spec.ArgsI(1), func(_ any, err error) { gotErr = err })
	if !errors.Is(gotErr, ErrUnknownShard) {
		t.Fatalf("invoke on unknown key: %v", gotErr)
	}
	if _, err := s.Open("dup", an, ShardOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Open("dup", an, ShardOptions{}); !errors.Is(err, ErrExists) {
		t.Fatalf("duplicate open: %v, want ErrExists", err)
	}
}

func TestKeyedQueryPaths(t *testing.T) {
	opts := testOptions()
	eng, s := newStore(t, 3, 12, opts)
	an := spec.MustAnalyze(crdt.NewCounter())
	if _, err := s.Open("q", an, ShardOptions{}); err != nil {
		t.Fatal(err)
	}
	s.Invoke("q", 1, crdt.CounterAdd, spec.ArgsI(41), nil)
	drainCounters(t, eng, s, map[string]int64{"q": 41}, 50*sim.Millisecond)
	for _, fresh := range []bool{false, true} {
		var got any
		s.Query("q", 2, crdt.CounterValue, spec.Args{}, fresh, func(v any, err error) {
			if err != nil {
				t.Fatalf("query fresh=%v: %v", fresh, err)
			}
			got = v
		})
		eng.RunFor(sim.Millisecond)
		if got != int64(41) {
			t.Fatalf("query fresh=%v: %v, want 41", fresh, got)
		}
	}
}

// TestReopenUnderEpochChangeKeepsFootprintExact pins the arena accounting
// across a shard's whole membership lifecycle: a leave/join round-trip
// allocates nothing outside the budgeted arena (the epoch word is part of
// the footprint formula), Close after the round-trip returns every byte,
// and a reopen lands on exactly the formula again at epoch zero. It runs on
// the OR-set, whose commit revokes and restores the departed node's inbound
// rings, and on the counter, which has no inbound region to revoke.
func TestReopenUnderEpochChangeKeepsFootprintExact(t *testing.T) {
	for _, tc := range []struct {
		cls  *spec.Class
		u    spec.MethodID
		args func(p spec.ProcID, seq uint64) spec.Args
	}{
		{crdt.NewORSet(), crdt.ORSetAdd, func(p spec.ProcID, seq uint64) spec.Args {
			return spec.ArgsI(int64(seq), crdt.Tag(p, seq))
		}},
		{crdt.NewCounter(), crdt.CounterAdd, func(spec.ProcID, uint64) spec.Args { return spec.ArgsI(1) }},
	} {
		t.Run(tc.cls.Name, func(t *testing.T) {
			opts := testOptions()
			eng, s := newStore(t, 4, 9, opts)
			an := spec.MustAnalyze(tc.cls)
			fp := Footprint(an, 4, opts.Core)

			assertUsed := func(stage string, want int) {
				t.Helper()
				for node := 0; node < 4; node++ {
					if used, _ := s.Budget(node); used != want {
						t.Fatalf("%s: node %d arena holds %d B, footprint formula says %d B", stage, node, used, want)
					}
				}
			}

			sh, err := s.Open("obj", an, ShardOptions{})
			if err != nil {
				t.Fatal(err)
			}
			assertUsed("after open", fp)

			reconfig := func(stage string, join bool, node int) {
				t.Helper()
				done := false
				var rerr error
				cb := func(err error) { done, rerr = true, err }
				if join {
					sh.Cluster.Join(node, cb)
				} else {
					sh.Cluster.Leave(node, cb)
				}
				limit := eng.Now() + sim.Time(50*sim.Millisecond)
				for !done && eng.Now() < limit {
					eng.RunFor(100 * sim.Microsecond)
				}
				if !done {
					t.Fatalf("%s: reconfiguration never completed", stage)
				}
				if rerr != nil {
					t.Fatalf("%s: %v", stage, rerr)
				}
			}

			// State on both sides of the epoch change, so the round-trip
			// exercises real replication traffic, not an idle configuration.
			var seq uint64
			issued := make([]uint32, 4)
			workload := func(stage string) {
				t.Helper()
				for i := 0; i < 8; i++ {
					p := spec.ProcID(i % 4)
					seq++
					s.Invoke("obj", p, tc.u, tc.args(p, seq), nil)
					issued[p]++
				}
				replicated := func() bool {
					for r := 0; r < 4; r++ {
						for p, want := range issued {
							if sh.Replica(spec.ProcID(r)).Applied().Get(spec.ProcID(p), tc.u) != want {
								return false
							}
						}
					}
					return true
				}
				limit := eng.Now() + sim.Time(50*sim.Millisecond)
				for !replicated() && eng.Now() < limit {
					eng.RunFor(200 * sim.Microsecond)
				}
				if !replicated() {
					t.Fatalf("%s: the workload did not replicate to every node", stage)
				}
			}
			workload("before the leave")

			reconfig("leave", false, 3)
			assertUsed("after leave", fp)
			reconfig("join", true, 3)
			assertUsed("after join", fp)
			if e := sh.Cluster.Epoch(); e != 2 {
				t.Fatalf("epoch %d after leave/join round-trip, want 2", e)
			}
			workload("after the join")
			assertUsed("after post-join workload", fp)

			if err := s.Close("obj"); err != nil {
				t.Fatal(err)
			}
			assertUsed("after close", 0)

			sh2, err := s.Open("obj", an, ShardOptions{})
			if err != nil {
				t.Fatalf("reopen: %v", err)
			}
			assertUsed("after reopen", fp)
			if sh2.Footprint() != fp {
				t.Fatalf("reopened footprint %d, want %d", sh2.Footprint(), fp)
			}
			if e := sh2.Cluster.Epoch(); e != 0 {
				t.Fatalf("reopened shard starts at epoch %d, want a fresh configuration", e)
			}
		})
	}
}

var _ = core.Options{} // keep the import pinned for testOptions mutations
