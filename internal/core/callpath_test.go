package core

import (
	"testing"

	"hamband/internal/crdt"
	"hamband/internal/metrics"
	"hamband/internal/rdma"
	"hamband/internal/sim"
	"hamband/internal/spec"
)

// TestCallsAnswerInSubmissionOrderAcrossSuspend drives the three call queues
// of one replica — issue, query and accept — through a suspension. On a
// one-node bank map every call below takes two CPU items: a deposit (FREE)
// its issue and accept items, a query and a fresh query their issue and query
// items (with no peer, a fresh query refreshes nothing). So the callbacks must
// fire once each, in submission order, and each query must see exactly the
// deposits submitted before it. The node is suspended with items queued,
// batches are submitted as it resumes and while the backlog drains, and a
// call submitted while it is suspended is refused at once.
func TestCallsAnswerInSubmissionOrderAcrossSuspend(t *testing.T) {
	h := newHarness(t, crdt.NewBankMap(), 1, 95, nil)
	r := h.cluster.Replica(0)
	const acct = 3

	var (
		fired    []int   // callback indexes, in firing order
		want     []int64 // per call: the balance a query must read, or -1 for a deposit
		balance  int64   // sum of the deposits submitted so far
		deposits int
	)
	answer := func(i int) func(any, error) {
		return func(v any, err error) {
			fired = append(fired, i)
			switch {
			case err != nil:
				t.Errorf("call %d failed: %v", i, err)
			case want[i] < 0 && v != nil:
				t.Errorf("deposit %d answered %v, want nil", i, v)
			case want[i] >= 0 && v != any(want[i]):
				t.Errorf("query %d read %v, want %d", i, v, want[i])
			}
		}
	}
	batch := func(n int) {
		for k := 0; k < n; k++ {
			i := len(want)
			switch k % 3 {
			case 0:
				deposits++
				want = append(want, -1)
				r.Invoke(crdt.BankDeposit, spec.ArgsI(acct, int64(deposits)), answer(i))
				balance += int64(deposits)
			case 1:
				want = append(want, balance)
				r.Invoke(crdt.BankBalance, spec.ArgsI(acct), answer(i))
			case 2:
				want = append(want, balance)
				r.InvokeFresh(crdt.BankBalance, spec.ArgsI(acct), answer(i))
			}
		}
	}

	opened := false
	h.eng.At(0, func() {
		r.Invoke(crdt.BankOpen, spec.ArgsI(acct), func(_ any, err error) { opened = err == nil })
	})
	const t0 = 10 * sim.Microsecond
	var queuedAtSuspend, firedAtSuspend int
	var downErr error
	h.eng.At(sim.Time(t0), func() { batch(12) })
	h.eng.At(sim.Time(t0+700*sim.Nanosecond), func() {
		h.fab.Node(0).Suspend()
		queuedAtSuspend, firedAtSuspend = r.node.CPU.QueueLen(), len(fired)
		r.Invoke(crdt.BankBalance, spec.ArgsI(acct), func(_ any, err error) { downErr = err })
	})
	h.eng.At(sim.Time(30*sim.Microsecond), func() {
		h.fab.Node(0).Resume()
		batch(9)
	})
	h.eng.At(sim.Time(30*sim.Microsecond+400*sim.Nanosecond), func() { batch(9) })
	h.eng.RunUntil(sim.Time(200 * sim.Microsecond))

	if !opened {
		t.Fatal("the account never opened")
	}
	if queuedAtSuspend == 0 || firedAtSuspend >= 12 {
		t.Fatalf("suspended with %d CPU items queued and %d of 12 callbacks fired: the suspension cut nothing", queuedAtSuspend, firedAtSuspend)
	}
	if downErr != ErrDown {
		t.Errorf("a call at the suspended node got %v, want ErrDown", downErr)
	}
	if len(fired) != len(want) {
		t.Fatalf("%d callbacks fired for %d calls", len(fired), len(want))
	}
	for k, i := range fired {
		if i != k {
			t.Fatalf("callback %d fired in place %d: order %v", i, k, fired)
		}
	}
	if got := r.CurrentState().(*crdt.BankMapState).Balances[acct]; got != balance {
		t.Fatalf("balance %d after all deposits, want %d", got, balance)
	}
}

// TestInvokeFreshCountedAndTimed: a fresh query is an issued call like any
// other — it shows in Stats' issued count and in the core.call.query latency
// histogram, measured from InvokeFresh to its answer, which includes the
// refresh's read round trip.
func TestInvokeFreshCountedAndTimed(t *testing.T) {
	const n = 5
	eng := sim.NewEngine(96)
	fab := rdma.NewFabric(eng, 3, rdma.DefaultLatency())
	opts := DefaultOptions()
	opts.Metrics = metrics.New(eng)
	c := NewCluster(fab, spec.MustAnalyze(crdt.NewCounter()), opts)
	r := c.Replica(2)
	hist := opts.Metrics.Histogram("core.call.query", nil)
	issued, _, _, _ := r.Stats()
	samples := hist.Count()

	answered := 0
	eng.At(0, func() {
		c.Replica(0).Invoke(crdt.CounterAdd, spec.ArgsI(7), nil)
	})
	eng.At(sim.Time(sim.Microsecond), func() {
		for i := 0; i < n; i++ {
			r.InvokeFresh(crdt.CounterValue, spec.Args{}, func(v any, err error) {
				if err != nil || v != any(int64(7)) {
					t.Errorf("fresh query answered (%v, %v), want (7, nil)", v, err)
				}
				answered++
			})
		}
	})
	eng.RunUntil(sim.Time(sim.Millisecond))
	c.Stop()

	if answered != n {
		t.Fatalf("%d of %d fresh queries answered", answered, n)
	}
	if now, _, _, _ := r.Stats(); now-issued != n {
		t.Errorf("Stats counts %d more issued calls after %d fresh queries", now-issued, n)
	}
	if got := hist.Count() - samples; got != n {
		t.Errorf("core.call.query gained %d samples after %d fresh queries", got, n)
	}
	if lat := fab.Latency(); hist.Min() < lat.WireLatency+lat.AckLatency {
		t.Errorf("fastest fresh query took %v, less than a read round trip", hist.Min())
	}
}
