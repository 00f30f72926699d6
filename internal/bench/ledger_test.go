package bench

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"testing"

	"hamband/internal/core"
	"hamband/internal/crdt"
	"hamband/internal/metrics"
	"hamband/internal/rdma"
	"hamband/internal/schema"
	"hamband/internal/sim"
	"hamband/internal/spec"
	"hamband/internal/store"
)

// ledger charges every work item submitted to one node's CPU to the call
// site that submitted it.
type ledger struct {
	rows  map[string]sim.Duration
	sites map[[ledgerDepth]uintptr]string // stack → row, so each stack is symbolized once
}

const ledgerDepth = 12

func newLedger() *ledger {
	return &ledger{rows: map[string]sim.Duration{}, sites: map[[ledgerDepth]uintptr]string{}}
}

// charge is the sim.CPU observer: it runs on the submitter's stack.
func (l *ledger) charge(cost sim.Duration) {
	if cost == 0 {
		return // deferred pumps and flushes: ordering only, no CPU time
	}
	var pcs [ledgerDepth]uintptr
	runtime.Callers(3, pcs[:]) // skip Callers, charge and CPU.Submit
	row, ok := l.sites[pcs]
	if !ok {
		row = ledgerRow(pcs[:])
		l.sites[pcs] = row
	}
	l.rows[row] += cost
}

// ledgerRows maps a charging site to the ledger row it belongs to. A site is
// "function" or, for the rdma verbs, "function<user": the first caller
// outside rdma, which says whose verb it is — or the coalescer's flush, which
// runs as a CPU work item of its own and posts the reducible path's writes.
// Unlisted sites get a row of their own, so the rows always sum to the CPU's
// busy time.
var ledgerRows = []struct{ site, row string }{
	{"rdma.(*verb).post<ring.(*Sender).pump", "post: log/request ring writes"},
	{"rdma.(*verb).post<rdma.(*Coalescer).flush", "post: summary writes"},
	{"rdma.(*verb).post<", "post: other writes"},
	{"rdma.(*verb).cqe", "CQE: write completions"},
	{"mu.(*Instance).deliverEntry", "deliver"},
	{"broadcast.(*Receiver).deliver", "deliver"},
	{"broadcast.(*Receiver).sweep", "crc"},
	{"core.(*Replica).kickApply", "apply"},
	{"core.(*Replica).invokeFree", "apply"},
	{"mu.(*Instance).poll", "polls"},
	{"broadcast.(*Receiver).poll", "polls"},
	{"core.(*Replica).Invoke", "accept"},
	{"rdma.(*QP).post<ring.(*Sender)", "head reads"},
	{"rdma.(*QP).post<heartbeat.", "heartbeat reads"},
	{"rdma.(*QP).complete", "CQE: read completions"},
}

// ledgerRow names the row of the stack pcs. The innermost frame outside sim
// is the charging site; for a site in rdma the first caller outside rdma, or
// the coalescer on the way there, is appended.
func ledgerRow(pcs []uintptr) string {
	site := callSite(pcs)
	for _, r := range ledgerRows {
		if strings.HasPrefix(site, r.site) {
			return r.row
		}
	}
	return site
}

func callSite(pcs []uintptr) string {
	frames := runtime.CallersFrames(pcs)
	site := ""
	for {
		f, more := frames.Next()
		fn := strings.TrimPrefix(strings.TrimPrefix(f.Function, "hamband/internal/"), "baseline/")
		switch {
		case strings.HasPrefix(fn, "sim."):
		case strings.HasPrefix(fn, "rdma.(*Coalescer).") && site != "":
			return site + "<" + fn
		case strings.HasPrefix(fn, "rdma."):
			if site == "" {
				site = fn
			}
		case site == "":
			return fn
		default:
			return site + "<" + fn
		}
		if !more {
			return site
		}
	}
}

// TestLeaderLedger prints the virtual-CPU ledger of the Fig. 10 point (movie
// schema, four nodes, all updates): µs of simulated CPU per committed call by
// call site, for the group-0 leader and for a node that leads nothing, under
// Hamband and under the SMR baseline (`make ledger`). Every row is a site
// that submitted work to the node's CPU, so the rows must sum to the CPU's
// busy time; utilisation is busy time over the makespan.
func TestLeaderLedger(t *testing.T) {
	const nodes, leader, follower = 4, 0, 3
	for _, kind := range []SystemKind{Hamband, MuSMR} {
		eng := sim.NewEngine(42)
		an := spec.MustAnalyze(schema.NewMovie())
		sys, err := Build(kind, eng, nodes, an)
		if err != nil {
			t.Fatal(err)
		}
		fab := sys.(*hambandSystem).c.Fab
		observed := []int{leader, follower}
		ledgers := []*ledger{newLedger(), newLedger()}
		for i, node := range observed {
			fab.Node(rdma.NodeID(node)).CPU.Observe = ledgers[i].charge
		}
		res := Run(eng, sys, NewWorkload(an, nodes, DefaultOps, 1.0, 43))
		if res.TimedOut || res.Completed != DefaultOps {
			t.Fatalf("%s: completed %d/%d, timed out %v", kind, res.Completed, DefaultOps, res.TimedOut)
		}
		for i, node := range observed {
			l := ledgers[i]
			sum := l.settle(t, eng, fab.Node(rdma.NodeID(node)).CPU, fmt.Sprintf("%s p%d", kind, node))
			role := "leads nothing"
			if node == leader {
				role = "leads group 0" // under SMR, the one group
			}
			t.Logf("%s p%d (%s): %.2f ops/µs, busy %.1f%% of %v\n%s", kind, node, role,
				res.Throughput(), 100*float64(sum)/float64(res.Makespan), res.Makespan, l.table(res.Completed))
		}
	}
}

// TestReduceLedger prints the virtual-CPU ledger of one node on the reducible
// path (`make ledger`): the reduce-gset-write shape (gset, all updates) and the
// Fig. 8 point (counter, a quarter updates), four nodes, eight calls
// outstanding per node. The path has no buffer and no round trip, so a node's
// CPU goes to accepting calls and to posting summary writes; the second row is
// what one write per contiguous δ-run shrinks, and the WR counts say how: the
// same records in fewer writes. At commit 15bcad2 the gset point read post
// 0.0549 of 0.0823 µs/op and one record per write (60 000 WRs).
func TestReduceLedger(t *testing.T) {
	const nodes = 4
	point := func(cls *spec.Class, updates float64) (l *ledger, ops int, perWrite float64) {
		eng := sim.NewEngine(42)
		an := spec.MustAnalyze(cls)
		sys, fab := newHamband(eng, nodes, an, rdma.DefaultLatency(), nil)
		l = newLedger()
		cpu := fab.Node(0).CPU
		cpu.Observe = l.charge
		res := Run(eng, sys, NewWorkload(an, nodes, DefaultOps, updates, 43))
		if res.TimedOut || res.Completed != DefaultOps {
			t.Fatalf("%s: completed %d/%d, timed out %v", cls.Name, res.Completed, DefaultOps, res.TimedOut)
		}
		sum := l.settle(t, eng, cpu, cls.Name+" p0")
		var records uint64 // what the replicas handed the coalescer, per peer
		for _, r := range sys.c.Replicas {
			deltas, anchors, _ := r.DeltaStats()
			records += (deltas + anchors) * (nodes - 1)
		}
		fs := fab.Stats()
		perWrite = float64(records) / float64(fs.Writes)
		t.Logf("%s, %.0f%% updates, p0: %.2f ops/µs, busy %.1f%% of %v; %d records in %d WRs (%.1f a write), %d of them chained on %d doorbells\n%s",
			cls.Name, 100*updates, res.Throughput(), 100*float64(sum)/float64(res.Makespan), res.Makespan,
			records, fs.Writes, perWrite, fs.ChainedWRs, fs.Chains, l.table(res.Completed))
		return l, res.Completed, perWrite
	}
	l, ops, perWrite := point(crdt.NewGSet(), 1.0)
	if post := l.rows["post: summary writes"].Micros() / float64(ops); post == 0 || post > 0.025 {
		t.Errorf("gset: summary writes cost %.4f µs/op, want a row and at most 0.025 (0.0549 with a WR per record)", post)
	}
	if accept := l.rows["accept"].Micros() / float64(ops); accept != 0.025 {
		t.Errorf("gset: accept costs %.4f µs/op, want the 0.0250 it cost before: the rule touches the post row only", accept)
	}
	if perWrite < 5 {
		t.Errorf("gset: %.1f records per summary write, want at least 5", perWrite)
	}
	if l, _, _ := point(crdt.NewCounter(), 0.25); l.rows["post: summary writes"] == 0 || l.rows["post: other writes"] != 0 {
		t.Errorf("counter: summary writes are not in their row: %v", l.rows)
	}
}

// TestFreeLedger prints the virtual-CPU ledger of one node on the buffered
// path (`make ledger`): the Fig. 9 point and buffer-orset shape (orset, a
// quarter updates, four nodes, eight calls outstanding per node). A node is
// busy all the time, so what the F out-channel's rule buys is on the ledger:
// deliver, post and CQE are paid per broadcast message, and one message per
// round trip carries every call accepted meanwhile; accept and apply are per
// call and do not move. At commit c6f5281, one message per call, the point
// read deliver 0.0187 + post 0.0144 + CQE 0.0085 of 0.1038 µs/op and 6 780
// ring writes for 5 000 updates.
func TestFreeLedger(t *testing.T) {
	const nodes = 4
	eng := sim.NewEngine(42)
	an := spec.MustAnalyze(crdt.NewORSet())
	reg := metrics.New(nil)
	sys, fab := newHamband(eng, nodes, an, rdma.DefaultLatency(), func(_ *rdma.Fabric, o *core.Options) { o.Metrics = reg })
	l := newLedger()
	cpu := fab.Node(0).CPU
	cpu.Observe = l.charge
	res := Run(eng, sys, NewWorkload(an, nodes, DefaultOps, 0.25, 43))
	if res.TimedOut || res.Completed != DefaultOps {
		t.Fatalf("completed %d/%d, timed out %v", res.Completed, DefaultOps, res.TimedOut)
	}
	sum := l.settle(t, eng, cpu, "orset p0")
	batch := reg.Histogram("core.free_batch_entries", nil)
	calls, msgs, writes := uint64(batch.Sum()), batch.Count(), fab.Stats().Writes
	perMsg := float64(calls) / float64(msgs)
	t.Logf("orset, 25%% updates, p0: %.2f ops/µs, busy %.1f%% of %v; %d calls in %d messages (%.1f a message), their %d ring records in %d writes (%.1f a write)\n%s",
		res.Throughput(), 100*float64(sum)/float64(res.Makespan), res.Makespan,
		calls, msgs, perMsg, msgs*(nodes-1), writes, float64(msgs*(nodes-1))/float64(writes), l.table(res.Completed))
	perOp := func(row string) float64 { return l.rows[row].Micros() / float64(res.Completed) }
	if perMessage := perOp("deliver") + perOp("post: log/request ring writes") + perOp("CQE: write completions"); perMessage == 0 || perMessage > 0.020 {
		t.Errorf("deliver + post + CQE cost %.4f µs/op, want rows and at most 0.020 (0.0416 with a message per call)", perMessage)
	}
	// Per call, so unchanged up to p0's share of the closed loop's calls.
	if accept, apply := perOp("accept"), perOp("apply"); math.Abs(accept-0.0438) > 0.0002 || math.Abs(apply-0.0124) > 0.0002 {
		t.Errorf("accept %.4f and apply %.4f µs/op, want the 0.0438 and 0.0124 they cost before: they are per call", accept, apply)
	}
	if perMsg < 3 {
		t.Errorf("%.1f calls per broadcast message, want at least 3", perMsg)
	}
}

// storeSystem drives a sharded store through the closed-loop driver: every
// call goes to a shard drawn from a Zipf 1.5 key distribution, the shape of
// the two-clock benchmark's store-zipf workload.
type storeSystem struct {
	st   *store.Store
	keys []string
	zipf *rand.Zipf
}

func (s *storeSystem) Name() string { return "Hamband store" }
func (s *storeSystem) Invoke(p spec.ProcID, u spec.MethodID, a spec.Args, cb func(any, error)) {
	s.st.Invoke(s.keys[s.zipf.Uint64()], p, u, a, cb)
}

// Applied sums the shards' applied maps: the driver's barrier compares it
// with the updates accepted over all keys, and no shard can apply more than
// it accepted.
func (s *storeSystem) Applied(p spec.ProcID) spec.AppliedMap {
	var sum spec.AppliedMap
	for _, key := range s.keys {
		a := s.st.Shard(key).Replica(p).Applied()
		if sum == nil {
			sum = a.Clone()
			continue
		}
		for q := range a {
			for u, n := range a[q] {
				sum[q][u] += n
			}
		}
	}
	return sum
}
func (s *storeSystem) Down(p spec.ProcID) bool { return s.st.Fabric().Node(rdma.NodeID(p)).Suspended() }
func (s *storeSystem) Fail(p spec.ProcID)      { s.st.Fabric().Node(rdma.NodeID(p)).Suspend() }
func (s *storeSystem) State(p spec.ProcID) spec.State {
	return s.st.Shard(s.keys[0]).Replica(p).CurrentState()
}
func (s *storeSystem) Size() int { return s.st.Fabric().Size() }

// TestStoreLedger prints the virtual-CPU ledger of one node of a sharded
// store under the store-zipf shape (four nodes, Zipf 1.5 keys, half updates
// half local queries, eight calls outstanding per node; `make ledger`). A
// counter has no irreducible conflict-free method, so its shards build no F
// rings and the ledger must hold no polls row however many are open. The
// OR-set keeps its buffers: its polls row — one receiver per open shard,
// PollCost every PollPeriod whether or not anything arrived — is what is left
// of the per-object slope, printed at 4 and 16 shards.
func TestStoreLedger(t *testing.T) {
	const nodes = 4
	point := func(cls *spec.Class, shards int) *ledger {
		eng := sim.NewEngine(42)
		fab := rdma.NewFabric(eng, nodes, rdma.DefaultLatency())
		st := store.New(fab, store.DefaultOptions())
		defer st.Stop()
		an := spec.MustAnalyze(cls)
		sys := &storeSystem{st: st, zipf: rand.NewZipf(rand.New(rand.NewSource(44)), 1.5, 1, uint64(shards-1))}
		for i := 0; i < shards; i++ {
			sys.keys = append(sys.keys, fmt.Sprintf("obj%03d", i))
			if _, err := st.Open(sys.keys[i], an, store.ShardOptions{}); err != nil {
				t.Fatal(err)
			}
		}
		l := newLedger()
		cpu := fab.Node(0).CPU
		cpu.Observe = l.charge
		res := Run(eng, sys, NewWorkload(an, nodes, DefaultOps, 0.5, 43))
		if res.TimedOut || res.Completed != DefaultOps {
			t.Fatalf("%s ×%d: completed %d/%d, timed out %v", cls.Name, shards, res.Completed, DefaultOps, res.TimedOut)
		}
		sum := l.settle(t, eng, cpu, fmt.Sprintf("%s ×%d p0", cls.Name, shards))
		polls := l.rows["polls"]
		t.Logf("%d %s shards, p0: %.2f ops/µs, busy %.1f%% of %v; polls %.4f µs/op = %.1f%% of the node's CPU time\n%s",
			shards, cls.Name, res.Throughput(), 100*float64(sum)/float64(res.Makespan), res.Makespan,
			polls.Micros()/float64(res.Completed), 100*float64(polls)/float64(res.Makespan), l.table(res.Completed))
		return l
	}
	if polls, ok := point(crdt.NewCounter(), 16).rows["polls"]; ok {
		t.Errorf("16 counter shards charge %v of polls: a class without F or L buffers has nothing to poll", polls)
	}
	for _, shards := range []int{4, 16} {
		if point(crdt.NewORSet(), shards).rows["polls"] == 0 {
			t.Errorf("%d orset shards charge no polls: the ledger lost the receivers' row", shards)
		}
	}
}

// settle closes a ledger after a run: busy time is charged at dispatch, the
// ledger at submission, so it lets the few items still queued when the run
// stopped dispatch, detaches the observer and checks that the rows sum to the
// CPU's busy time, which it returns.
func (l *ledger) settle(t *testing.T, eng *sim.Engine, cpu *sim.CPU, who string) sim.Duration {
	t.Helper()
	for cpu.QueueLen() > 0 {
		eng.RunFor(100 * sim.Nanosecond)
	}
	cpu.Observe = nil
	sum := l.total()
	if sum != cpu.BusyTotal() {
		t.Errorf("%s: ledger rows sum to %v, CPU.BusyTotal is %v", who, sum, cpu.BusyTotal())
	}
	return sum
}

func (l *ledger) total() sim.Duration {
	var sum sim.Duration
	for _, c := range l.rows {
		sum += c
	}
	return sum
}

// table formats the ledger, largest row first.
func (l *ledger) table(ops int) string {
	names := make([]string, 0, len(l.rows))
	for name := range l.rows {
		names = append(names, name)
	}
	sum := l.total()
	sort.Slice(names, func(i, j int) bool {
		if l.rows[names[i]] != l.rows[names[j]] {
			return l.rows[names[i]] > l.rows[names[j]]
		}
		return names[i] < names[j]
	})
	var b strings.Builder
	for _, name := range names {
		c := l.rows[name]
		fmt.Fprintf(&b, "  %-30s %8.4f µs/op %6.1f%%\n", name, c.Micros()/float64(ops), 100*float64(c)/float64(sum))
	}
	fmt.Fprintf(&b, "  %-30s %8.4f µs/op", "total", sum.Micros()/float64(ops))
	return b.String()
}
