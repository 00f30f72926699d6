package store

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"sync"
	"testing"

	"hamband/internal/core"
	"hamband/internal/crdt"
	"hamband/internal/metrics"
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
	if used != fp+s.LogBytes(0) {
		t.Fatalf("node 0 used %d B after failed open, want %d and the node's δ-logs", used, fp)
	}
}

// TestFootprintExactlyMatchesArenaAccounting opens one class of each buffer
// shape — S only, F only, S+L and all three — and checks that every byte a
// shard registers is charged: on every node, the bytes of the regions under
// the shard's namespace, the arena's Used delta — less the nodes' δ-logs,
// which the first shard with summary slots charges — Shard.Footprint and
// Footprint agree.
func TestFootprintExactlyMatchesArenaAccounting(t *testing.T) {
	opts := testOptions()
	_, s := newStore(t, 4, 2, opts)
	classes := []*spec.Class{
		crdt.NewCounter(),      // reducible only: summary slots, no rings
		crdt.NewORSet(),        // irreducible conflict-free only: broadcast rings
		schema.NewCourseware(), // reducible + conflicting: slots and one Mu group
		crdt.NewBankMap(),      // all three categories
	}
	for _, cls := range classes {
		an := spec.MustAnalyze(cls)
		before, _ := s.Budget(0)
		before -= s.LogBytes(0)
		sh, err := s.Open(cls.Name, an, ShardOptions{})
		if err != nil {
			t.Fatalf("open %s: %v", cls.Name, err)
		}
		if fp := Footprint(an, 4, opts.Core); sh.Footprint() != fp {
			t.Fatalf("%s: shard footprint %d != Footprint() %d", cls.Name, sh.Footprint(), fp)
		}
		for node := 0; node < 4; node++ {
			registered := registeredBytes(s, node, sh.Cluster.Namespace())
			used, total := s.Budget(node)
			used -= s.LogBytes(node)
			if registered != sh.Footprint() || used-before != sh.Footprint() {
				t.Fatalf("%s: node %d registered %d B under the namespace, arena charged %d B, footprint %d B",
					cls.Name, node, registered, used-before, sh.Footprint())
			}
			if total != opts.MemoryBudget {
				t.Fatalf("node %d: budget %d, want %d", node, total, opts.MemoryBudget)
			}
		}
	}
}

// registeredBytes sums the sizes of the regions registered on node whose
// names contain the namespace ns.
func registeredBytes(s *Store, node int, ns string) int {
	total := 0
	for _, r := range s.Fabric().Node(rdma.NodeID(node)).Regions(func(name string) bool { return strings.Contains(name, ns) }) {
		total += r.Size()
	}
	return total
}

// TestSetupAllocatesOnlyWhatShardsCarve pins what a store costs to build: the
// budget is bookkeeping, so store.New at the default 16 MiB budget plus 16
// counter shards on 4 nodes allocates within a small factor of the bytes the
// shards carve (4 × 16 × Footprint, 4 MiB) — never the 4 × 16 MiB of budget,
// which a store that allocated its registration up front would pay.
func TestSetupAllocatesOnlyWhatShardsCarve(t *testing.T) {
	const nodes, shards = 4, 16
	opts := DefaultOptions()
	an := spec.MustAnalyze(crdt.NewCounter())
	carved := uint64(nodes * shards * Footprint(an, nodes, opts.Core))
	fab := rdma.NewFabric(sim.NewEngine(13), nodes, rdma.DefaultLatency())

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s := New(fab, opts)
	for i := 0; i < shards; i++ {
		if _, err := s.Open(fmt.Sprintf("obj%02d", i), an, ShardOptions{}); err != nil {
			t.Fatalf("open %d: %v", i, err)
		}
	}
	runtime.ReadMemStats(&after)
	s.Stop()

	got := after.TotalAlloc - before.TotalAlloc
	t.Logf("set-up allocated %d B for %d B carved (%.2f×); the budget is %d B", got, carved, float64(got)/float64(carved), nodes*opts.MemoryBudget)
	if got > 2*carved {
		t.Errorf("set-up allocated %d B, more than twice the %d B the shards carve", got, carved)
	}
	if used, _ := s.Budget(0); uint64(used-s.LogBytes(0)) != carved/nodes {
		t.Fatalf("node 0 carved %d B, want %d", used, carved/nodes)
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
	if used, _ := s.Budget(0); used != s.LogBytes(0) {
		t.Fatalf("used %d B after close, want the %d B of the node's δ-logs", used, s.LogBytes(0))
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
	if used, _ := s.Budget(0); used != s.LogBytes(0) {
		t.Fatalf("used %d B after all closes, want the %d B of the node's δ-logs", used, s.LogBytes(0))
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

// TestCrossShardDoorbellCoalescing: back-to-back invokes on two shards at one
// node land their δ-records side by side in the node's δ-log, so each flush
// posts one WRITE per peer carrying both shards' records: the second shard's
// record is merged onto the first's (CoalesceStats.Merged), never chained
// behind it. The shards' first calls anchor, each into its own slot; they
// are excluded.
func TestCrossShardDoorbellCoalescing(t *testing.T) {
	opts := testOptions()
	opts.Core.DisableFailureHandling = true // no heartbeat verbs between the counted flushes
	eng, s := newStore(t, 3, 6, opts)
	an := spec.MustAnalyze(crdt.NewCounter())
	want := make(map[string]int64)
	for _, key := range []string{"hot", "cold"} {
		if _, err := s.Open(key, an, ShardOptions{}); err != nil {
			t.Fatalf("open %s: %v", key, err)
		}
	}
	round := func() {
		s.Invoke("hot", 0, crdt.CounterAdd, spec.ArgsI(1), nil)
		s.Invoke("cold", 0, crdt.CounterAdd, spec.ArgsI(2), nil)
		want["hot"], want["cold"] = want["hot"]+1, want["cold"]+2
		eng.RunFor(100 * sim.Microsecond)
	}
	round() // the anchors
	co := s.Coalescer(0)
	before, fs := co.Stats(), s.Fabric().Stats()
	const rounds = 10
	for i := 1; i <= rounds; i++ {
		round()
	}
	drainCounters(t, eng, s, want, 50*sim.Millisecond)
	st, after := co.Stats(), s.Fabric().Stats()
	flushes, writes := st.Flushes-before.Flushes, after.Writes-fs.Writes
	if flushes != rounds || writes != 2*flushes {
		t.Fatalf("%d flushes posted %d writes to 2 peers, want %d flushes of one write per peer", flushes, writes, rounds)
	}
	if merged := st.Merged - before.Merged; merged != 2*rounds {
		t.Fatalf("%d records merged onto the other shard's, want one per peer per flush (%d)", merged, 2*rounds)
	}
	if chains := st.Chains - before.Chains; chains != 0 {
		t.Fatalf("%d chains: the shards' records still post as separate WRs", chains)
	}
}

// TestShardsBroadcastInOnePostItem: two OR-set shards on one node, broadcasting
// in one CPU round, post their writes to every peer as one item of the node's
// broadcast batch.
func TestShardsBroadcastInOnePostItem(t *testing.T) {
	eng, s := newStore(t, 3, 7, testOptions())
	an := spec.MustAnalyze(crdt.NewORSet())
	keys := []string{"left", "right"}
	for _, key := range keys {
		if _, err := s.Open(key, an, ShardOptions{}); err != nil {
			t.Fatalf("open %s: %v", key, err)
		}
	}
	post := s.Fabric().Node(0).Batch()
	writes := s.Fabric().Stats().Writes
	for i, key := range keys {
		s.Invoke(key, 0, crdt.ORSetAdd, spec.ArgsI(int64(i), crdt.Tag(0, uint64(i+1))), nil)
	}
	eng.RunFor(50 * sim.Microsecond)
	if got, sent := post.Posts(), s.Fabric().Stats().Writes-writes; got != 1 || sent != 4 {
		t.Fatalf("two shards' broadcasts to two peers left in %d post items and %d writes, want one item of 4", got, sent)
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
// registers nothing the charge at Open did not bill (the epoch word is
// registered up front), Close after the round-trip returns every byte, and a
// reopen is charged exactly the footprint again at epoch zero. It runs on
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
					used, _ := s.Budget(node)
					used -= s.LogBytes(node)
					if reg := registeredBytes(s, node, "shard[obj]/"); used != want || reg != want {
						t.Fatalf("%s: node %d arena holds %d B and %d B are registered under the shard, footprint %d B", stage, node, used, reg, want)
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

// TestRandomOpenCloseUnderTightBudget drives a seeded sequence of Opens and
// Closes over classes of every buffer shape against a budget of three movie
// footprints, so the arenas fragment. Admission is the charge itself: an Open
// either carves every region its shard registered or is refused with
// ErrBudget and leaves every arena as it found it, whatever the free spans
// look like: enough free bytes and a large enough largest span do not make
// a shard's regions fit spans the churn has cut up.
func TestRandomOpenCloseUnderTightBudget(t *testing.T) {
	classes := []*spec.Analysis{
		spec.MustAnalyze(crdt.NewCounter()),
		spec.MustAnalyze(crdt.NewORSet()),
		spec.MustAnalyze(schema.NewCourseware()),
		spec.MustAnalyze(schema.NewMovie()),
		spec.MustAnalyze(crdt.NewBankMap()),
	}
	const nodes, steps = 3, 120
	for seed := int64(0); seed < 3; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) {
			opts := testOptions()
			opts.MemoryBudget = 3 * Footprint(classes[3], nodes, opts.Core)
			eng, s := newStore(t, nodes, seed, opts)
			rng := rand.New(rand.NewSource(seed))
			used := func() []int {
				out := make([]int, nodes)
				for i := range out {
					out[i], _ = s.Budget(i)
					out[i] -= s.LogBytes(i) // the node's δ-logs, charged once
				}
				return out
			}
			refused := 0
			for step := 0; step < steps; step++ {
				// Time passes between steps: whatever a refused or closed
				// shard left scheduled runs against a fabric it has left.
				eng.RunFor(20 * sim.Microsecond)
				key := fmt.Sprintf("k%d", rng.Intn(6))
				if s.Shard(key) != nil {
					if err := s.Close(key); err != nil {
						t.Fatalf("step %d: close %s: %v", step, key, err)
					}
					continue
				}
				an := classes[rng.Intn(len(classes))]
				before := used()
				sh, err := s.Open(key, an, ShardOptions{})
				after := used()
				if err != nil {
					if !errors.Is(err, ErrBudget) {
						t.Fatalf("step %d: open %s: %v, want ErrBudget", step, key, err)
					}
					refused++
					for i := range after {
						if after[i] != before[i] {
							t.Fatalf("step %d: refused open of %s moved node %d's arena from %d to %d B", step, key, i, before[i], after[i])
						}
					}
					continue
				}
				for i := range after {
					if after[i]-before[i] != sh.Footprint() {
						t.Fatalf("step %d: open of %s carved %d B on node %d, footprint %d B", step, key, after[i]-before[i], i, sh.Footprint())
					}
				}
			}
			if refused == 0 {
				t.Fatal("no open was refused — the budget never bound")
			}
			for _, key := range s.Keys() {
				if err := s.Close(key); err != nil {
					t.Fatal(err)
				}
			}
			for i, u := range used() {
				if u != 0 {
					t.Fatalf("node %d holds %d B after every shard closed", i, u)
				}
			}
		})
	}
}

// suspendNode0 stops node 0's process and runs the engine long enough for
// every other node's detector to suspect it.
func suspendNode0(eng *sim.Engine, s *Store) {
	s.Fabric().Node(0).Suspend()
	eng.RunFor(2 * sim.Millisecond)
}

// suspects reports whether node's detector suspects peer.
func suspects(s *Store, node, peer rdma.NodeID) bool {
	d := s.Fabric().Node(node).Detector()
	return d != nil && d.Suspected(peer)
}

// TestClosedShardIgnoresSuspicion: a closed shard's replicas are off their
// nodes' failure detection, so a suspicion after Close reaches none of them —
// a subscribed replica would start a Mu election on regions Close removed.
// A second shard stays open: it keeps the nodes' detection running, and it
// must still hear the suspicion.
func TestClosedShardIgnoresSuspicion(t *testing.T) {
	eng, s := newStore(t, 3, 21, testOptions())
	an := spec.MustAnalyze(schema.NewMovie())
	if _, err := s.Open("m", an, ShardOptions{}); err != nil {
		t.Fatal(err)
	}
	other, err := s.Open("n", an, ShardOptions{})
	if err != nil {
		t.Fatal(err)
	}
	eng.RunFor(sim.Millisecond)
	if err := s.Close("m"); err != nil {
		t.Fatal(err)
	}
	suspendNode0(eng, s)
	if !suspects(s, 1, 0) {
		t.Fatal("node 1 never suspected node 0: the test injected no failure")
	}
	if got := other.Replica(1).Suspects(); len(got) != 1 || got[0] != 0 {
		t.Fatalf("the open shard's p1 suspects %v, want [0]", got)
	}
}

// TestClosingEveryShardStopsTheNodeServices: closing a store's last shard
// stops every node's heartbeat and detector — nothing is left on the engine
// — and a shard opened afterwards starts them again: a node suspended in
// between is suspected.
func TestClosingEveryShardStopsTheNodeServices(t *testing.T) {
	eng, s := newStore(t, 3, 23, testOptions())
	an := spec.MustAnalyze(crdt.NewCounter())
	for _, key := range []string{"a", "b"} {
		if _, err := s.Open(key, an, ShardOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	eng.RunFor(sim.Millisecond)
	for _, key := range []string{"a", "b"} {
		if err := s.Close(key); err != nil {
			t.Fatal(err)
		}
	}
	eng.RunFor(sim.Millisecond)
	if eng.Pending() != 0 {
		t.Fatalf("%d events pending with every shard closed, want 0", eng.Pending())
	}
	s.Fabric().Node(0).Beater().Suspend()
	sh, err := s.Open("c", an, ShardOptions{})
	if err != nil {
		t.Fatal(err)
	}
	eng.RunFor(2 * sim.Millisecond)
	if got := sh.Replica(1).Suspects(); len(got) != 1 || got[0] != 0 {
		t.Fatalf("the new shard's p1 suspects %v, want [0]", got)
	}
}

// TestLateShardHearsEarlierSuspicion: a shard opened while its nodes'
// detectors already suspect a node hears that suspicion as it subscribes.
// Node 1 fails under shard s0; once it is suspected, s1 opens with its
// addCustomer group led by node 1, so a call on that group completes only if
// s1's replicas elect a new leader. The same call on s0, which heard the
// suspicion as it happened, is the control.
func TestLateShardHearsEarlierSuspicion(t *testing.T) {
	eng, s := newStore(t, 4, 24, testOptions())
	an := spec.MustAnalyze(schema.NewMovie())
	if _, err := s.Open("s0", an, ShardOptions{}); err != nil {
		t.Fatal(err)
	}
	s.Fabric().Node(1).Suspend()
	eng.RunFor(300 * sim.Microsecond)
	if !suspects(s, 0, 1) {
		t.Fatal("node 0 does not suspect node 1 300 µs after it failed: the test injected no failure")
	}
	late, err := s.Open("s1", an, ShardOptions{})
	if err != nil {
		t.Fatal(err)
	}
	g := an.SyncGroupOf[schema.MovieAddCustomer]
	if leader := late.Cluster.Leader(0, g); leader != 1 {
		t.Fatalf("s1's addCustomer group is led by p%d; the test needs the suspected node 1", leader)
	}
	done := map[string]error{}
	for _, key := range []string{"s0", "s1"} {
		key := key
		s.Invoke(key, 0, schema.MovieAddCustomer, spec.ArgsI(7), func(_ any, err error) { done[key] = err })
	}
	eng.RunFor(20 * sim.Millisecond)
	for _, key := range []string{"s0", "s1"} {
		err, ok := done[key]
		if !ok || err != nil {
			t.Errorf("%s: addCustomer at p0 finished %v (error %v) 20 ms after it was issued, want a completion", key, ok, err)
		}
	}
	if leader := late.Cluster.Leader(0, g); leader == 1 {
		t.Fatal("p0 still names the suspected node 1 as s1's addCustomer leader")
	}
}

// TestReopenedShardIsolatedFromItsPredecessor: a shard reopened under a
// closed shard's key registers the same region names. The closed shard's
// replicas must take no part in the new shard's consensus: node 0 leads none
// of the new shard's groups, so its suspension moves none of their terms.
func TestReopenedShardIsolatedFromItsPredecessor(t *testing.T) {
	eng, s := newStore(t, 3, 22, testOptions())
	an := spec.MustAnalyze(schema.NewMovie())
	if _, err := s.Open("k", an, ShardOptions{}); err != nil {
		t.Fatal(err)
	}
	eng.RunFor(sim.Millisecond)
	if err := s.Close("k"); err != nil {
		t.Fatal(err)
	}
	sh, err := s.Open("k", an, ShardOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for g := range an.SyncGroups {
		if sh.Cluster.Leader(0, g) == 0 {
			t.Fatalf("node 0 leads group %d of the reopened shard; the test needs it to lead none", g)
		}
	}
	suspendNode0(eng, s)
	if !suspects(s, 1, 0) {
		t.Fatal("node 1 never suspected node 0: the test injected no failure")
	}
	for p := spec.ProcID(0); p < 3; p++ {
		for g := range an.SyncGroups {
			if term := sh.Replica(p).Group(g).Term(); term != 0 {
				t.Fatalf("p%d group %d: term %d after suspecting a node that leads nothing here, want 0", p, g, term)
			}
		}
	}
}

// TestShardChurnKeepsTheRegistryFlat: a closed shard retires the read
// functions its replicas, broadcast receivers and Mu instances registered,
// folding their final counts into the counters, so a hundred open/close
// cycles of one key leave no read function behind and the totals never fall.
// Its δ-log tags are taken again, once every walk has read past its records,
// so the nodes' tag tables stay as long as one shard's groups.
func TestShardChurnKeepsTheRegistryFlat(t *testing.T) {
	for _, tc := range []struct {
		cls  *spec.Class
		u    spec.MethodID
		args func(p spec.ProcID, seq uint64) spec.Args
	}{
		{crdt.NewCounter(), crdt.CounterAdd, func(spec.ProcID, uint64) spec.Args { return spec.ArgsI(1) }},
		{crdt.NewORSet(), crdt.ORSetAdd, func(p spec.ProcID, seq uint64) spec.Args {
			return spec.ArgsI(int64(seq), crdt.Tag(p, seq))
		}},
		{schema.NewMovie(), schema.MovieAddCustomer, func(p spec.ProcID, seq uint64) spec.Args {
			return spec.ArgsI(int64(seq)*3 + int64(p))
		}},
	} {
		t.Run(tc.cls.Name, func(t *testing.T) {
			opts := testOptions()
			eng := sim.NewEngine(24)
			opts.Core.Metrics = metrics.New(eng)
			fab := rdma.NewFabric(eng, 3, rdma.DefaultLatency())
			s := New(fab, opts)
			t.Cleanup(s.Stop)
			an := spec.MustAnalyze(tc.cls)
			reg := opts.Core.Metrics
			names := []string{"core.applied", "broadcast.torn_rejects", "broadcast.stale_rejects", "mu.torn_rejects"}
			var applied uint64
			for cycle := 0; cycle < 100; cycle++ {
				if _, err := s.Open("k", an, ShardOptions{}); err != nil {
					t.Fatal(err)
				}
				calls := 1
				if len(an.Class.SumGroups) > 0 {
					calls = 2 // an anchor and a δ-record in the nodes' δ-logs
				}
				for i := 0; i < calls; i++ {
					for p := spec.ProcID(0); p < 3; p++ {
						s.Invoke("k", p, tc.u, tc.args(p, uint64(cycle+1)), nil)
					}
				}
				eng.RunFor(200 * sim.Microsecond)
				if err := s.Close("k"); err != nil {
					t.Fatal(err)
				}
				if n := core.LogTags(fab.Node(0)); n != len(an.Class.SumGroups) {
					t.Fatalf("cycle %d: node 0's δ-log table holds %d tags for %d summarization groups", cycle, n, len(an.Class.SumGroups))
				}
				for _, name := range names {
					if n := reg.Counter(name).Reads(); n != 0 {
						t.Fatalf("cycle %d: %s keeps %d read functions with no shard open", cycle, name, n)
					}
				}
				got := reg.Counter("core.applied").Value()
				if got < applied {
					t.Fatalf("cycle %d: core.applied fell from %d to %d at Close", cycle, applied, got)
				}
				applied = got
			}
			if applied == 0 {
				t.Fatal("no call applied: the churn exercised nothing")
			}
		})
	}
}
