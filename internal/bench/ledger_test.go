package bench

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
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
)

// ledger charges every work item submitted to one node's CPU to the call
// site that submitted it, and counts the items of each site.
type ledger struct {
	rows  map[string]sim.Duration
	items map[string]int                  // site → work items
	sites map[[ledgerDepth]uintptr]string // stack → site, so each stack is symbolized once
}

const ledgerDepth = 12

func newLedger() *ledger {
	return &ledger{rows: map[string]sim.Duration{}, items: map[string]int{}, sites: map[[ledgerDepth]uintptr]string{}}
}

// charge is the sim.CPU observer: it runs on the submitter's stack.
func (l *ledger) charge(cost sim.Duration) {
	if cost == 0 {
		return // deferred pumps and flushes: ordering only, no CPU time
	}
	var pcs [ledgerDepth]uintptr
	runtime.Callers(3, pcs[:]) // skip Callers, charge and CPU.Submit
	site, ok := l.sites[pcs]
	if !ok {
		site = callSite(pcs[:])
		l.sites[pcs] = site
	}
	l.rows[ledgerRow(site)] += cost
	l.items[site]++
}

// itemsAt counts the work items of the sites that start with prefix.
func (l *ledger) itemsAt(prefix string) int {
	n := 0
	for site, k := range l.items {
		if strings.HasPrefix(site, prefix) {
			n += k
		}
	}
	return n
}

// perOp is row's µs of virtual CPU per call of ops.
func (l *ledger) perOp(row string, ops int) float64 { return l.rows[row].Micros() / float64(ops) }

// ledgerRows maps a charging site to the ledger row it belongs to. A site is
// "function" or, for the rdma verbs, "function<user": the first caller
// outside rdma, which says whose verb it is — or the node service posting it
// from its own work item or ticker: the coalescer (summary writes) or the
// detector (heartbeat reads). A ring write is a post item of the batch its
// Sender posts through, or a lone post after a head read. Every verb's completion lands in the node's one
// completion queue, whose polls (PollCost each) are the CQ polls row, reads and
// writes alike; the node's poll loop ticks (SweepCost each) are the sweeps row,
// and a Mu leader's drain of its request rings at a round's decision (one
// SweepCost each) the intake row.
// An unlisted site gets a row of its own, so the rows always sum to the CPU's
// busy time, and fails the test: every row is one of the list's.
var ledgerRows = []ledgerSite{
	{"rdma.(*verb).post<ring.(*Sender).pump", "post: log/request ring writes"},
	{"rdma.(*Batch).flush", "post: log/request ring writes"},
	{"rdma.(*verb).post<rdma.(*Coalescer).flush", "post: summary writes"},
	{"rdma.(*verb).post<ring.(*Sender)", "head reads"},
	{"rdma.(*verb).post<rdma.(*Detector).", "heartbeat reads"},
	{"rdma.(*verb).post<", "post: other writes"},
	{"rdma.(*completionQueue).arm", "CQ polls"},
	{"rdma.(*Handoff).Hand", "deliver"},
	{"broadcast.(*Receiver).sweep", "crc"},
	{"core.(*Replica).kickApply", "apply"},
	{"core.(*Replica).invokeFree", "apply"},
	{"rdma.(*Node).tick", "sweeps"},
	{"mu.(*Instance).decide", "intake"},
	{"core.(*Replica).submit", "accept"},
	{"core.(*Replica).queueQuery", "accept"},
}

type ledgerSite struct{ site, row string }

// ledgerRow names the row of a charging site (callSite).
func ledgerRow(site string) string {
	for _, r := range ledgerRows {
		if strings.HasPrefix(site, r.site) {
			return r.row
		}
	}
	return site
}

// callSite names the charging site of the stack pcs. The innermost frame
// outside sim is the charging site; for a site in rdma the first caller
// outside rdma, or the coalescer or the detector on the way there, is
// appended.
func callSite(pcs []uintptr) string {
	frames := runtime.CallersFrames(pcs)
	site := ""
	for {
		f, more := frames.Next()
		fn := strings.TrimPrefix(strings.TrimPrefix(f.Function, "hamband/internal/"), "baseline/")
		switch {
		case strings.HasPrefix(fn, "sim."):
		case (strings.HasPrefix(fn, "rdma.(*Coalescer).") || strings.HasPrefix(fn, "rdma.(*Detector).")) && site != "":
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
// busy time; utilisation is busy time over the makespan. The leader hands on
// what one write completion decides as one delivery, so Hamband p0's deliver
// row stays at most 0.025 µs/op: 0.0194 at seed 42, and 0.0598 with an item
// per decided entry. A round asks completions of its quorum only, posted as
// one batch, so one poll of the completion queue reaps the round: Hamband
// p0's CQ polls row stays at most maxLeaderCQ µs/op (0.0293, about 2.5 polls a
// round, with every follower signed and each write posted alone). A node
// hands on what one sweep of all its in-channels delivers as one record, so
// Hamband p3, which follows both sync groups, pays no more to deliver than
// Mu's p3, which follows one: its deliver row stays at most maxFollowerDeliver
// µs/op (0.0099 at seed 42; 0.0201 with a record per in-channel). The
// decision that completes a round takes in the request rings for the next
// one, one SweepCost item a round, so Hamband p0's intake row stays at most
// maxLeaderIntake µs/op (0.0048 at seed 42, about 10 calls a round). The two
// systems' p0 post rows are printed side by side: Mu's one leader posts less
// per call than Hamband's group-0 leader.
func TestLeaderLedger(t *testing.T) {
	post := map[SystemKind]float64{}
	for _, kind := range []SystemKind{Hamband, MuSMR} {
		l, f, ops := leaderLedger(t, kind, nil)
		post[kind] = l.perOp(ledgerPostRow, ops)
		if kind == Hamband {
			if deliver := l.perOp("deliver", ops); deliver == 0 || deliver > 0.025 {
				t.Errorf("Hamband p0: deliver costs %.4f µs/op, want a row and at most 0.025 (0.0598 with an item per decided entry)", deliver)
			}
			if cq := l.perOp("CQ polls", ops); cq == 0 || cq > maxLeaderCQ {
				t.Errorf("Hamband p0: CQ polls cost %.4f µs/op, want a row and at most %.3f (0.0293 with every follower signed)", cq, maxLeaderCQ)
			}
			if deliver := f.perOp("deliver", ops); deliver == 0 || deliver > maxFollowerDeliver {
				t.Errorf("Hamband p3: deliver costs %.4f µs/op, want a row and at most %.3f (0.0201 with a record per in-channel)", deliver, maxFollowerDeliver)
			}
			if intake := l.perOp("intake", ops); intake == 0 || intake > maxLeaderIntake {
				t.Errorf("Hamband p0: intake costs %.4f µs/op, want a row and at most %.3f", intake, maxLeaderIntake)
			}
		}
	}
	t.Logf("p0 %s: Hamband %.4f µs/op, Mu %.4f µs/op", ledgerPostRow, post[Hamband], post[MuSMR])
}

// TestLeaderLedgerCatchesSignAll is the mutation control of the CQ polls bound
// above: every follower's write signaled and posted alone, the rule before
// the quorum batch.
func TestLeaderLedgerCatchesSignAll(t *testing.T) {
	l, _, ops := leaderLedger(t, Hamband, func(c *core.Cluster) {
		for _, r := range c.Replicas {
			for g := 0; g < r.GroupCount(); g++ {
				r.Group(g).MutateSignAll()
			}
		}
	})
	cq := l.perOp("CQ polls", ops)
	if cq <= maxLeaderCQ {
		t.Fatalf("signing every follower costs %.4f µs/op of CQ polls, within the %.3f bound", cq, maxLeaderCQ)
	}
	t.Logf("caught: CQ polls %.4f µs/op", cq)
}

// TestLeaderLedgerCatchesPerEntry is the mutation control of p3's deliver
// bound above: p3's handoff closes a record at every entry.
func TestLeaderLedgerCatchesPerEntry(t *testing.T) {
	_, f, ops := leaderLedger(t, Hamband, func(c *core.Cluster) { c.Fab.Node(3).Handoff().MutatePerEntry() })
	deliver := f.perOp("deliver", ops)
	if deliver <= maxFollowerDeliver {
		t.Fatalf("a record per entry costs p3 %.4f µs/op of deliver, within the %.3f bound", deliver, maxFollowerDeliver)
	}
	t.Logf("caught: p3 deliver %.4f µs/op", deliver)
}

const (
	ledgerPostRow      = "post: log/request ring writes"
	maxLeaderCQ        = 0.015
	maxFollowerDeliver = 0.013
	maxLeaderIntake    = 0.006
)

// leaderLedger runs the Fig. 10 point under kind, after mutate, if set, has
// edited the cluster, logs the ledgers of the group-0 leader (with its CQ
// polls per quorum batch, one batch a round) and of a node that leads
// nothing, p3, and returns both and the calls completed.
func leaderLedger(t *testing.T, kind SystemKind, mutate func(*core.Cluster)) (leads, follows *ledger, ops int) {
	t.Helper()
	const nodes, leader, follower = 4, 0, 3
	eng := sim.NewEngine(42)
	an := spec.MustAnalyze(schema.NewMovie())
	sys, err := Build(kind, eng, nodes, an, Variant{})
	if err != nil {
		t.Fatal(err)
	}
	c := sys.(*hambandSystem).c
	if mutate != nil {
		mutate(c)
	}
	observed := []int{leader, follower}
	ledgers := []*ledger{newLedger(), newLedger()}
	for i, node := range observed {
		c.Fab.Node(rdma.NodeID(node)).CPU.Observe = ledgers[i].charge
	}
	res := Run(eng, sys, NewWorkload(an, nodes, DefaultOps, 1.0, 43))
	if res.TimedOut || res.Completed != DefaultOps {
		t.Fatalf("%s: completed %d/%d, timed out %v", kind, res.Completed, DefaultOps, res.TimedOut)
	}
	for i, node := range observed {
		l := ledgers[i]
		sum := l.settle(t, eng, c.Fab.Node(rdma.NodeID(node)).CPU, fmt.Sprintf("%s p%d", kind, node))
		role := "leads nothing"
		if node == leader {
			role = "leads group 0" // under SMR, the one group
			polls, batches := l.itemsAt("rdma.(*completionQueue).arm"), 0
			for g, r := 0, c.Replicas[node]; g < r.GroupCount(); g++ {
				batches += r.Group(g).QuorumPosts()
			}
			role += fmt.Sprintf("; %d CQ polls, %d quorum batches", polls, batches)
			if batches > 0 {
				role += fmt.Sprintf(", %.2f polls a batch", float64(polls)/float64(batches))
			}
		}
		t.Logf("%s p%d (%s): %.2f ops/µs, busy %.1f%% of %v\n%s", kind, node, role,
			res.Throughput(), 100*float64(sum)/float64(res.Makespan), res.Makespan, l.table(res.Completed))
	}
	return ledgers[0], ledgers[1], res.Completed
}

// TestReduceLedger prints the virtual-CPU ledger of one node on the reducible
// path (`make ledger`): the reduce-gset-write shape (gset, all updates) and the
// Fig. 8 point (counter, a quarter updates), four nodes, eight calls
// outstanding per node. The path has no buffer and no round trip, so a node's
// CPU goes to accepting calls and to posting summary writes; the second row is
// what one write per δ-run shrinks, and the WR counts say how: the same calls
// in fewer writes. At commit 15bcad2 the gset point read post 0.0549 of 0.0823
// µs/op and one call per write (60 000 WRs); since a run is one δ-record, the
// record counts fall to the WR counts and the rows do not move. Every peer
// writes δ-records to p0 while calls flow, which stand in for its heartbeat
// (rdma.Node.Heard), so the heartbeat reads row stays under
// maxHeartbeatReads at both points.
func TestReduceLedger(t *testing.T) {
	l, ops, perWrite := reduceLedger(t, crdt.NewGSet(), 1.0, "")
	if post := l.rows["post: summary writes"].Micros() / float64(ops); post == 0 || post > 0.025 {
		t.Errorf("gset: summary writes cost %.4f µs/op, want a row and at most 0.025 (0.0549 with a WR per record)", post)
	}
	if accept := l.rows["accept"].Micros() / float64(ops); accept != 0.025 {
		t.Errorf("gset: accept costs %.4f µs/op, want the 0.0250 it cost before: the rule touches the post row only", accept)
	}
	if perWrite < 5 {
		t.Errorf("gset: %.1f calls per summary write, want at least 5", perWrite)
	}
	checkHeartbeatReads(t, "gset", l, ops)
	l, ops, _ = reduceLedger(t, crdt.NewCounter(), 0.25, "")
	if l.rows["post: summary writes"] == 0 || l.rows["post: other writes"] != 0 {
		t.Errorf("counter: summary writes are not in their row: %v", l.rows)
	}
	checkHeartbeatReads(t, "counter", l, ops)
}

// maxHeartbeatReads bounds what p0's heartbeat reads cost per call while
// calls flow: 0.0002 µs/op at most at seed 42 on the reducible, buffered
// and store points, 0.0010–0.0012 with a read of every peer at every check.
const maxHeartbeatReads = 0.0004

func checkHeartbeatReads(t *testing.T, point string, l *ledger, ops int) {
	t.Helper()
	if reads := l.perOp("heartbeat reads", ops); reads > maxHeartbeatReads {
		t.Errorf("%s: heartbeat reads cost %.4f µs/op, want at most %.4f: a peer whose records p0 consumes is not read", point, reads, maxHeartbeatReads)
	}
}

// TestLedgersCatchReadAll is the mutation control of the heartbeat reads
// bound: p0's detector reads every peer at every check, heard or not
// (rdma.Detector.MutateReadAll), and each of the three ledgers must read
// more than the bound.
func TestLedgersCatchReadAll(t *testing.T) {
	l, ops, _ := reduceLedger(t, crdt.NewCounter(), 0.25, "read-all")
	rows := []float64{l.perOp("heartbeat reads", ops)}
	l, ops, _, _ = freeLedger(t, "read-all")
	rows = append(rows, l.perOp("heartbeat reads", ops))
	l, _, _ = storeLedger(t, crdt.NewCounter(), 16, "read-all")
	rows = append(rows, l.perOp("heartbeat reads", DefaultOps))
	for i, point := range []string{"counter", "orset", "16 counter shards"} {
		if rows[i] <= maxHeartbeatReads {
			t.Errorf("%s: reading every check costs %.4f µs/op of heartbeat reads, within the %.4f bound", point, rows[i], maxHeartbeatReads)
		}
	}
	t.Logf("caught: heartbeat reads %.4f, %.4f and %.4f µs/op", rows[0], rows[1], rows[2])
}

// reduceLedger runs the reducible point, cls at updates, under the named
// mutant — "read-all": p0's detector reads every peer at every check — logs
// p0's ledger with its calls per summary write, and returns the ledger, the
// calls completed and the calls per write.
func reduceLedger(t *testing.T, cls *spec.Class, updates float64, mutant string) (l *ledger, ops int, perWrite float64) {
	t.Helper()
	const nodes = 4
	eng := sim.NewEngine(42)
	an := spec.MustAnalyze(cls)
	built, err := Build(Hamband, eng, nodes, an, Variant{})
	if err != nil {
		t.Fatal(err)
	}
	sys := built.(*hambandSystem)
	fab := sys.c.Fab
	if mutant == "read-all" {
		fab.Node(0).Detector().MutateReadAll()
	}
	l = newLedger()
	cpu := fab.Node(0).CPU
	cpu.Observe = l.charge
	res := Run(eng, sys, NewWorkload(an, nodes, DefaultOps, updates, 43))
	if res.TimedOut || res.Completed != DefaultOps {
		t.Fatalf("%s: completed %d/%d, timed out %v", cls.Name, res.Completed, DefaultOps, res.TimedOut)
	}
	sum := l.settle(t, eng, cpu, cls.Name+" p0")
	var records, calls uint64 // what the replicas handed the coalescer, per peer
	for _, r := range sys.c.Replicas {
		deltas, anchors, _ := r.DeltaStats()
		records += (deltas + anchors) * (nodes - 1)
		for u := range cls.Methods {
			if an.Category[u] == spec.CatReducible {
				calls += uint64(r.Applied().Get(r.ID(), spec.MethodID(u))) * (nodes - 1)
			}
		}
	}
	fs := fab.Stats()
	perWrite = float64(calls) / float64(fs.Writes)
	t.Logf("%s, %.0f%% updates, p0: %.2f ops/µs, busy %.1f%% of %v; %d calls in %d records in %d WRs (%.1f calls a write), %d of them chained on %d doorbells\n%s",
		cls.Name, 100*updates, res.Throughput(), 100*float64(sum)/float64(res.Makespan), res.Makespan,
		calls, records, fs.Writes, perWrite, fs.ChainedWRs, fs.Chains, l.table(res.Completed))
	return l, res.Completed, perWrite
}

// TestFreeLedger prints the virtual-CPU ledger of one node on the buffered
// path (`make ledger`): the Fig. 9 point and buffer-orset shape (orset, a
// quarter updates, four nodes, eight calls outstanding per node). A node is
// busy all the time, so what the F out-channel's rule buys is on the ledger:
// post is paid per broadcast message, and one message per round trip carries
// every call accepted meanwhile; deliver is paid per sweep that found
// messages and CQ polls per poll of the completion queue; accept and apply are per
// call and do not move. A message's writes to the three peers are one post
// item, so their completions land together and one CQ poll reaps them: p0
// pays at most maxFreePostItems post items and maxFreeCQPolls CQ polls a
// message. At commit c6f5281, one message per call, the point
// read deliver 0.0187 + post 0.0144 + CQE 0.0085 of 0.1038 µs/op and 6 780
// ring writes for 5 000 updates; at a2bb955, a deliver item per message and a
// poll per completion, deliver 0.0038 + CQE 0.0047; with a post item per peer,
// post 0.0065 and CQ polls 0.0016. The heartbeat reads row stays under
// maxHeartbeatReads: the peers' ring records stand in for their heartbeats.
func TestFreeLedger(t *testing.T) {
	l, ops, items, polls := freeLedger(t, "")
	perOp := func(row string) float64 { return l.perOp(row, ops) }
	if perMessage := perOp("deliver") + perOp(ledgerPostRow) + perOp("CQ polls"); perMessage == 0 || perMessage > 0.020 {
		t.Errorf("deliver + post + CQ polls cost %.4f µs/op, want rows and at most 0.020 (0.0416 with a message per call)", perMessage)
	}
	if batched := perOp("deliver") + perOp("CQ polls"); batched > 0.005 {
		t.Errorf("deliver + CQ polls cost %.4f µs/op, want at most 0.005 (0.0085 with an item per message and per completion)", batched)
	}
	// Per call, so unchanged up to p0's share of the closed loop's calls.
	if accept, apply := perOp("accept"), perOp("apply"); math.Abs(accept-0.0438) > 0.0002 || math.Abs(apply-0.0124) > 0.0002 {
		t.Errorf("accept %.4f and apply %.4f µs/op, want the 0.0438 and 0.0124 they cost before: they are per call", accept, apply)
	}
	if items == 0 || items > maxFreePostItems {
		t.Errorf("p0 posts %.2f items a message, want at most %.1f: one item carries its writes to every peer", items, maxFreePostItems)
	}
	if polls == 0 || polls > maxFreeCQPolls {
		t.Errorf("p0 pays %.2f CQ polls a message, want at most %.2f: one poll reaps a message's completions", polls, maxFreeCQPolls)
	}
	checkHeartbeatReads(t, "orset", l, ops)
}

// TestFreeLedgerCatchesPerPeer is the mutation control of the post items
// bound above: every message posts each peer's write as an item of its own,
// the rule before a message was one batch. Its CQ polls a message stay near
// one (1.26 at seed 42): p0 is busy, so its polls find a message's
// completions landed, a post apart, all the same; it pays for 15 % more
// messages, each carrying fewer calls.
func TestFreeLedgerCatchesPerPeer(t *testing.T) {
	_, _, items, polls := freeLedger(t, "per-peer")
	if items <= maxFreePostItems {
		t.Fatalf("a post item per peer costs %.2f items a message, within the %.1f bound", items, maxFreePostItems)
	}
	t.Logf("caught: %.2f post items a message (%.2f CQ polls)", items, polls)
}

// maxFreeCQPolls leaves room for the polls that reap the failure detector's
// heartbeat reads (1.29 a message at seed 42 when every check read each
// peer; 1.05 since the peers' ring records stand in for most of them).
const (
	maxFreePostItems = 1.0
	maxFreeCQPolls   = 1.5
)

// freeLedger runs the buffered point under the named mutant — "per-peer":
// every broadcaster posts a write per peer; "read-all": p0's detector reads
// every peer at every check — logs p0's ledger with its calls per message,
// and returns the ledger, the calls completed, and p0's post items and CQ
// polls per broadcast message it sent.
func freeLedger(t *testing.T, mutant string) (l *ledger, ops int, items, polls float64) {
	t.Helper()
	const nodes = 4
	eng := sim.NewEngine(42)
	an := spec.MustAnalyze(crdt.NewORSet())
	reg := metrics.New(nil)
	sys, err := Build(Hamband, eng, nodes, an, Variant{Edit: func(_ *rdma.Fabric, o *core.Options) { o.Metrics = reg }})
	if err != nil {
		t.Fatal(err)
	}
	c := sys.(*hambandSystem).c
	switch mutant {
	case "per-peer":
		for _, r := range c.Replicas {
			r.Broadcaster().MutatePerPeer()
		}
	case "read-all":
		c.Fab.Node(0).Detector().MutateReadAll()
	}
	fab := c.Fab
	l = newLedger()
	cpu := fab.Node(0).CPU
	cpu.Observe = l.charge
	res := Run(eng, sys, NewWorkload(an, nodes, DefaultOps, 0.25, 43))
	if res.TimedOut || res.Completed != DefaultOps {
		t.Fatalf("completed %d/%d, timed out %v", res.Completed, DefaultOps, res.TimedOut)
	}
	sum := l.settle(t, eng, cpu, "orset p0")
	batch := reg.Histogram("broadcast.batch_entries", nil)
	calls, msgs, writes := uint64(batch.Sum()), batch.Count(), fab.Stats().Writes
	sent := float64(c.Replicas[0].Broadcaster().Messages())
	items = float64(l.itemsAt("rdma.(*Batch).flush")+l.itemsAt("rdma.(*verb).post<ring.(*Sender).pump")) / sent
	polls = float64(l.itemsAt("rdma.(*completionQueue).arm")) / sent
	t.Logf("orset, 25%% updates, p0: %.2f ops/µs, busy %.1f%% of %v; %d calls in %d messages (%.1f a message), their %d ring records in %d writes (%.1f a write); p0 sent %.0f messages, %.2f post items and %.2f CQ polls each\n%s",
		res.Throughput(), 100*float64(sum)/float64(res.Makespan), res.Makespan,
		calls, msgs, float64(calls)/float64(msgs), msgs*(nodes-1), writes, float64(msgs*(nodes-1))/float64(writes),
		sent, items, polls, l.table(res.Completed))
	if perMsg := float64(calls) / float64(msgs); perMsg < 3 {
		t.Errorf("%.1f calls per broadcast message, want at least 3", perMsg)
	}
	return l, res.Completed, items, polls
}

// TestStoreLedger prints the virtual-CPU ledger of one node of a sharded
// store under the store-zipf shape (four nodes, Zipf 1.5 keys, half updates
// half local queries, eight calls outstanding per node; `make ledger`). A
// counter has no irreducible conflict-free method, so its shards build no F
// rings and the ledger must hold no sweeps row however many are open. The
// OR-set keeps its buffers: one receiver per open shard. Every receiver of a
// node sweeps in the node's one poll loop, SweepCost every SweepPeriod whether
// or not anything arrived, so the sweeps row is the same share of the node at
// 4 and 16 shards (ROADMAP item 6), and 16 shards keep at least minORSet16.
// What one sweep of every receiver delivers is one record of the node's
// handoff, so the deliver row at 16 shards stays at most maxStoreDeliver
// µs/op (0.0049 at seed 42; 0.0165 with a record per receiver). The 16
// counter shards' δ-records stand in for the peers' heartbeats: the heartbeat
// reads row stays under maxHeartbeatReads.
func TestStoreLedger(t *testing.T) {
	const minORSet16 = 6.5
	l, counter16, _ := storeLedger(t, crdt.NewCounter(), 16, "")
	if l.rows["sweeps"] != 0 {
		t.Errorf("16 counter shards charge %v of sweeps: a class without F or L buffers has nothing to poll", l.rows["sweeps"])
	}
	if post := l.perOp("post: summary writes", DefaultOps); post > maxStorePost {
		t.Errorf("16 counter shards: summary writes cost %.4f µs/op to post, want at most %.3f (0.0253 with a log per slot)", post, maxStorePost)
	}
	checkHeartbeatReads(t, "16 counter shards", l, DefaultOps)
	_, counter4, _ := storeLedger(t, crdt.NewCounter(), 4, "")
	_, rate4, share4 := storeLedger(t, crdt.NewORSet(), 4, "")
	l, rate16, share16 := storeLedger(t, crdt.NewORSet(), 16, "")
	if share4 == 0 || share16 == 0 {
		t.Fatalf("orset sweeps share %.4f at 4 shards, %.4f at 16: the ledger lost the receivers' row", share4, share16)
	}
	// Up to the partial tick at each end of the run.
	if math.Abs(share16-share4) > 0.001 {
		t.Errorf("orset sweeps take %.2f%% of the node at 4 shards and %.2f%% at 16, want the same share: one poll loop a node", 100*share4, 100*share16)
	}
	if rate16 < minORSet16 {
		t.Errorf("16 orset shards run at %.2f ops/µs, want at least %.1f", rate16, minORSet16)
	}
	if deliver := l.perOp("deliver", DefaultOps); deliver == 0 || deliver > maxStoreDeliver {
		t.Errorf("16 orset shards: deliver costs %.4f µs/op, want a row and at most %.3f (0.0165 with a record per receiver)", deliver, maxStoreDeliver)
	}
	t.Logf("16 orset shards run at %.3f of the throughput of 4 (%.2f / %.2f ops/µs)", rate16/rate4, rate16, rate4)
	t.Logf("16 counter shards run at %.3f of the throughput of 4 (%.2f / %.2f ops/µs)", counter16/counter4, counter16, counter4)
}

// TestStoreLedgerCatchesSlotLogs is the mutation control of the 16-shard
// summary-writes bound above: p0's coalescer writes a δ-record onto the
// pending tail only when both are one shard's, so a flush posts a WR per
// shard per peer, as when every slot kept its own δ-log.
func TestStoreLedgerCatchesSlotLogs(t *testing.T) {
	l, _, _ := storeLedger(t, crdt.NewCounter(), 16, "slot-logs")
	post := l.perOp("post: summary writes", DefaultOps)
	if post <= maxStorePost {
		t.Fatalf("a log per slot costs %.4f µs/op of summary writes, within the %.3f bound", post, maxStorePost)
	}
	t.Logf("caught: summary writes %.4f µs/op", post)
}

// maxStorePost bounds what posting p0's summary writes costs a 16-counter-
// shard node per call: 0.0179 µs/op with one δ-log per peer.
const maxStorePost = 0.020

// TestStoreLedgerCatchesPerEntry is the mutation control of the 16-shard
// deliver bound above: p0's handoff closes a record at every entry.
func TestStoreLedgerCatchesPerEntry(t *testing.T) {
	l, _, _ := storeLedger(t, crdt.NewORSet(), 16, "per-entry")
	deliver := l.perOp("deliver", DefaultOps)
	if deliver <= maxStoreDeliver {
		t.Fatalf("a record per entry costs %.4f µs/op of deliver, within the %.3f bound", deliver, maxStoreDeliver)
	}
	t.Logf("caught: deliver %.4f µs/op", deliver)
}

const maxStoreDeliver = 0.007

// storeLedger runs the store-zipf shape over shards shards of cls, under the
// named mutant — "per-entry": p0's handoff closes a record at every entry;
// "slot-logs": p0's coalescer merges a record only onto one of its own
// shard's, a WR per shard per peer as with a δ-log per slot; "read-all":
// p0's detector reads every peer at every check — logs
// p0's ledger and summary WRs per peer per flush and returns the ledger, the
// throughput and the sweeps row's share of the node's time.
func storeLedger(t *testing.T, cls *spec.Class, shards int, mutant string) (*ledger, float64, float64) {
	t.Helper()
	const nodes = 4
	eng := sim.NewEngine(42)
	fab := rdma.NewFabric(eng, nodes, rdma.DefaultLatency())
	an := spec.MustAnalyze(cls)
	sys, err := newStoreSystem(fab, an, shards, 0, zipfPick(rand.New(rand.NewSource(44)), 1.5, shards))
	if err != nil {
		t.Fatal(err)
	}
	defer sys.st.Stop()
	switch mutant {
	case "per-entry":
		fab.Node(0).Handoff().MutatePerEntry()
	case "slot-logs":
		fab.Node(0).Coalescer().MutatePerStream()
	case "read-all":
		fab.Node(0).Detector().MutateReadAll()
	}
	l := newLedger()
	cpu := fab.Node(0).CPU
	cpu.Observe = l.charge
	res := Run(eng, sys, NewWorkload(an, nodes, DefaultOps, 0.5, 43))
	if res.TimedOut || res.Completed != DefaultOps {
		t.Fatalf("%s ×%d: completed %d/%d, timed out %v", cls.Name, shards, res.Completed, DefaultOps, res.TimedOut)
	}
	sum := l.settle(t, eng, cpu, fmt.Sprintf("%s ×%d p0", cls.Name, shards))
	sweeps := l.rows["sweeps"]
	share := float64(sweeps) / float64(res.Makespan)
	co := fab.Node(0).Coalescer().Stats()
	t.Logf("%d %s shards, p0: %.2f ops/µs, busy %.1f%% of %v; sweeps %.4f µs/op = %.1f%% of the node's CPU time; %.2f summary WRs per peer per flush\n%s",
		shards, cls.Name, res.Throughput(), 100*float64(sum)/float64(res.Makespan), res.Makespan,
		sweeps.Micros()/float64(res.Completed), 100*share, float64(co.WRs)/float64(max(co.Batches, 1)), l.table(res.Completed))
	return l, res.Throughput(), share
}

// settle closes a ledger after a run: busy time is charged at dispatch, the
// ledger at submission, so it lets the few items still queued when the run
// stopped dispatch, detaches the observer and checks that the rows sum to the
// CPU's busy time, which it returns, and that ledgerRows names every row.
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
	for row := range l.rows {
		if !slices.ContainsFunc(ledgerRows, func(r ledgerSite) bool { return r.row == row }) {
			t.Errorf("%s: row %q is a site ledgerRows does not name", who, row)
		}
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
