package bench

import (
	"fmt"
	"runtime"
	"sort"
	"strings"
	"testing"

	"hamband/internal/rdma"
	"hamband/internal/schema"
	"hamband/internal/sim"
	"hamband/internal/spec"
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
// outside rdma, which says whose verb it is. Unlisted sites get a row of
// their own, so the rows always sum to the CPU's busy time.
var ledgerRows = []struct{ site, row string }{
	{"rdma.(*verb).post<ring.(*Sender).pump", "post: log/request ring writes"},
	{"rdma.(*verb).post<", "post: other writes"},
	{"rdma.(*verb).cqe", "CQE: write completions"},
	{"mu.(*Instance).deliverEntry", "deliver"},
	{"core.(*Replica).kickApply", "apply"},
	{"smr.(*Replica).onDeliver", "apply"},
	{"mu.(*Instance).poll", "polls"},
	{"broadcast.(*Receiver).poll", "polls"},
	{"core.(*Replica).Invoke", "accept"},
	{"smr.(*Replica).Invoke", "accept"},
	{"rdma.(*QP).post<ring.(*Sender)", "head reads"},
	{"rdma.(*QP).post<heartbeat.", "heartbeat reads"},
	{"rdma.(*QP).complete", "CQE: read completions"},
}

// ledgerRow names the row of the stack pcs. The innermost frame outside sim
// is the charging site; for a site in rdma the first caller outside rdma is
// appended.
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
		var fab *rdma.Fabric
		switch s := sys.(type) {
		case *hambandSystem:
			fab = s.c.Fab
		case *smrSystem:
			fab = s.c.Fab
		}
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
			cpu := fab.Node(rdma.NodeID(node)).CPU
			// Busy time is charged at dispatch, the ledger at submission:
			// let the few items still queued when the run stopped dispatch.
			for cpu.QueueLen() > 0 {
				eng.RunFor(100 * sim.Nanosecond)
			}
			cpu.Observe = nil
			sum := l.total()
			if sum != cpu.BusyTotal() {
				t.Errorf("%s p%d: ledger rows sum to %v, CPU.BusyTotal is %v", kind, node, sum, cpu.BusyTotal())
			}
			role := "leads nothing"
			if node == leader {
				role = "leads group 0" // under SMR, the one group
			}
			t.Logf("%s p%d (%s): %.2f ops/µs, busy %.1f%% of %v\n%s", kind, node, role,
				res.Throughput(), 100*float64(sum)/float64(res.Makespan), res.Makespan, l.table(res.Completed))
		}
	}
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
