package core

import (
	"errors"
	"math/rand"
	"testing"

	"hamband/internal/crdt"
	"hamband/internal/rdma"
	"hamband/internal/sim"
	"hamband/internal/spec"
	"hamband/internal/trace"
)

// harness runs a Hamband cluster against generated workloads.
type harness struct {
	t       *testing.T
	eng     *sim.Engine
	fab     *rdma.Fabric
	cluster *Cluster
	rng     *rand.Rand
	// issued[p][u] counts accepted (non-rejected) update calls.
	issued  [][]uint32
	pending int
}

func newHarness(t *testing.T, cls *spec.Class, n int, seed int64, mut func(*Options)) *harness {
	t.Helper()
	eng := sim.NewEngine(seed)
	fab := rdma.NewFabric(eng, n, rdma.DefaultLatency())
	opts := DefaultOptions()
	opts.CheckIntegrity = true
	if mut != nil {
		mut(&opts)
	}
	an := spec.MustAnalyze(cls)
	c := NewCluster(fab, an, opts)
	h := &harness{t: t, eng: eng, fab: fab, cluster: c, rng: rand.New(rand.NewSource(seed))}
	for i := 0; i < n; i++ {
		h.issued = append(h.issued, make([]uint32, len(cls.Methods)))
	}
	return h
}

// invoke issues one update call at replica p and tracks acceptance.
func (h *harness) invoke(p spec.ProcID, u spec.MethodID, args spec.Args) {
	h.pending++
	h.cluster.Replica(p).Invoke(u, args, func(_ any, err error) {
		h.pending--
		if err == nil {
			h.issued[p][u]++
		} else if !errors.Is(err, ErrImpermissible) && !errors.Is(err, ErrDown) {
			h.t.Errorf("invoke p%d m%d: %v", p, u, err)
		}
	})
}

// drain runs the simulation until every accepted call is applied at every
// live replica, or the deadline passes.
func (h *harness) drain(deadline sim.Duration) bool {
	limit := h.eng.Now() + sim.Time(deadline)
	for h.eng.Now() < limit {
		h.eng.RunFor(200 * sim.Microsecond)
		if h.pending == 0 && h.replicated() {
			return true
		}
	}
	return h.pending == 0 && h.replicated()
}

func (h *harness) replicated() bool {
	for _, r := range h.cluster.Replicas {
		if r.node.Suspended() || r.node.Crashed() {
			continue
		}
		for p := range h.issued {
			for u, want := range h.issued[p] {
				if r.applied.Get(spec.ProcID(p), spec.MethodID(u)) < want {
					return false
				}
			}
		}
	}
	return true
}

// checkConvergence asserts all live replicas reached the same state.
func (h *harness) checkConvergence() {
	h.t.Helper()
	var ref spec.State
	for _, r := range h.cluster.Replicas {
		if r.node.Suspended() || r.node.Crashed() {
			continue
		}
		s := r.CurrentState()
		if ref == nil {
			ref = s
			continue
		}
		if !ref.Equal(s) {
			h.t.Fatalf("replica p%d diverged", r.ID())
		}
	}
}

func TestCounterReplication(t *testing.T) {
	h := newHarness(t, crdt.NewCounter(), 3, 1, nil)
	h.eng.At(0, func() {
		h.invoke(0, crdt.CounterAdd, spec.ArgsI(5))
		h.invoke(1, crdt.CounterAdd, spec.ArgsI(7))
		h.invoke(2, crdt.CounterAdd, spec.ArgsI(-2))
	})
	if !h.drain(50 * sim.Millisecond) {
		t.Fatal("replication did not complete")
	}
	h.checkConvergence()
	st := h.cluster.Replica(0).CurrentState().(*crdt.CounterState)
	if st.V != 10 {
		t.Fatalf("counter = %d, want 10", st.V)
	}
}

func TestQueryObservesSummaries(t *testing.T) {
	h := newHarness(t, crdt.NewCounter(), 2, 2, nil)
	var got any
	h.eng.At(0, func() { h.invoke(0, crdt.CounterAdd, spec.ArgsI(42)) })
	h.eng.At(sim.Time(sim.Millisecond), func() {
		h.cluster.Replica(1).Invoke(crdt.CounterValue, spec.Args{}, func(v any, err error) {
			if err != nil {
				t.Error(err)
			}
			got = v
		})
	})
	h.drain(20 * sim.Millisecond)
	h.eng.RunUntil(sim.Time(30 * sim.Millisecond))
	if got != any(int64(42)) {
		t.Fatalf("remote query = %v, want 42", got)
	}
}

func TestAccountEndToEnd(t *testing.T) {
	// Deposits are reducible, withdraws conflicting-with-dependency: the
	// full §2 scenario over the real runtime.
	h := newHarness(t, crdt.NewAccount(), 3, 3, nil)
	var balance any
	h.eng.At(0, func() {
		h.invoke(1, crdt.AccountDeposit, spec.ArgsI(100))
	})
	h.eng.At(sim.Time(sim.Millisecond), func() {
		h.invoke(2, crdt.AccountWithdraw, spec.ArgsI(30)) // routed to leader p0
		h.invoke(0, crdt.AccountWithdraw, spec.ArgsI(20))
	})
	h.eng.At(sim.Time(5*sim.Millisecond), func() {
		h.cluster.Replica(2).Invoke(crdt.AccountBalance, spec.Args{}, func(v any, err error) {
			if err != nil {
				t.Error(err)
			}
			balance = v
		})
	})
	if !h.drain(50 * sim.Millisecond) {
		t.Fatal("replication did not complete")
	}
	h.eng.RunUntil(sim.Time(60 * sim.Millisecond))
	h.checkConvergence()
	if balance != any(int64(50)) {
		t.Fatalf("balance = %v, want 50", balance)
	}
}

func TestOverdraftRejectedAtLeader(t *testing.T) {
	h := newHarness(t, crdt.NewAccount(), 3, 4, nil)
	var rejected bool
	h.eng.At(0, func() {
		h.cluster.Replica(1).Invoke(crdt.AccountWithdraw, spec.ArgsI(5), func(_ any, err error) {
			rejected = errors.Is(err, ErrImpermissible)
		})
	})
	h.drain(50 * sim.Millisecond)
	if !rejected {
		t.Fatal("overdrafting withdraw was not rejected")
	}
	h.checkConvergence()
	st := h.cluster.Replica(0).CurrentState().(*crdt.AccountState)
	if st.Balance != 0 {
		t.Fatalf("balance = %d after rejected withdraw, want 0", st.Balance)
	}
}

func TestWithdrawWaitsForDependency(t *testing.T) {
	// A deposit and an immediate withdraw from the same node: the withdraw
	// must not overdraft anywhere, even though the deposit travels as a
	// summary write and the withdraw through consensus. CheckIntegrity
	// panics inside the runtime if the dependency gate fails.
	h := newHarness(t, crdt.NewAccount(), 4, 5, nil)
	h.eng.At(0, func() {
		h.invoke(3, crdt.AccountDeposit, spec.ArgsI(10))
		h.invoke(3, crdt.AccountWithdraw, spec.ArgsI(10))
	})
	if !h.drain(100 * sim.Millisecond) {
		t.Fatal("replication did not complete")
	}
	h.checkConvergence()
	st := h.cluster.Replica(1).CurrentState().(*crdt.AccountState)
	if st.Balance != 0 {
		t.Fatalf("balance = %d, want 0", st.Balance)
	}
}

func TestRandomWorkloadsConvergeAllTypes(t *testing.T) {
	classes := []*spec.Class{
		crdt.NewCounter(), crdt.NewLWW(), crdt.NewGSet(), crdt.NewGSetBuffered(),
		crdt.NewORSet(), crdt.NewCart(), crdt.NewAccount(),
	}
	for _, cls := range classes {
		cls := cls
		t.Run(cls.Name, func(t *testing.T) {
			h := newHarness(t, cls, 3, 77, nil)
			ups := cls.UpdateMethods()
			h.eng.At(0, func() {
				for i := 0; i < 120; i++ {
					p := spec.ProcID(h.rng.Intn(3))
					u := ups[h.rng.Intn(len(ups))]
					c := cls.Gen.Call(h.rng, u)
					// Make OR-set/cart tags globally unique per issue.
					if cls.Name == "orset" && u == crdt.ORSetAdd {
						c.Args.I[1] = crdt.Tag(p, uint64(1000+i))
					}
					if cls.Name == "cart" && u == crdt.CartAdd {
						c.Args.I[2] = crdt.Tag(p, uint64(1000+i))
					}
					h.invoke(p, u, c.Args)
				}
			})
			if !h.drain(200 * sim.Millisecond) {
				free, conf := h.cluster.Replica(0).QueueDepths()
				t.Fatalf("replication did not complete (queues %d/%d)", free, conf)
			}
			h.checkConvergence()
		})
	}
}

func TestFollowerFailureConflictFree(t *testing.T) {
	// Figure 12's scenario: a node fails; conflict-free traffic continues
	// and survivors converge.
	h := newHarness(t, crdt.NewCounter(), 4, 8, nil)
	h.eng.At(0, func() {
		for i := 0; i < 40; i++ {
			h.invoke(spec.ProcID(i%4), crdt.CounterAdd, spec.ArgsI(1))
		}
	})
	h.eng.At(sim.Time(500*sim.Microsecond), func() {
		h.cluster.Replica(3).Beater().Suspend()
		h.fab.Node(3).Suspend()
	})
	h.eng.At(sim.Time(2*sim.Millisecond), func() {
		for i := 0; i < 30; i++ {
			h.invoke(spec.ProcID(i%3), crdt.CounterAdd, spec.ArgsI(1))
		}
	})
	h.drain(100 * sim.Millisecond)
	h.checkConvergence()
	// The three survivors must account for every accepted call.
	want := int64(0)
	for p := range h.issued {
		if p != 3 {
			want += int64(h.issued[p][crdt.CounterAdd])
		}
	}
	got := h.cluster.Replica(0).CurrentState().(*crdt.CounterState).V
	// Node 3's pre-failure calls may or may not have completed; survivors
	// must at least cover every survivor-issued call.
	if got < want {
		t.Fatalf("survivors lost calls: counter = %d, want >= %d", got, want)
	}
}

func TestLeaderFailureConflicting(t *testing.T) {
	// Figure 13's leader-failure scenario: the sync-group leader fails;
	// after the leader change, conflicting calls flow again.
	h := newHarness(t, crdt.NewAccount(), 3, 9, nil)
	h.eng.At(0, func() {
		h.invoke(1, crdt.AccountDeposit, spec.ArgsI(1000))
	})
	h.eng.At(sim.Time(2*sim.Millisecond), func() {
		h.invoke(1, crdt.AccountWithdraw, spec.ArgsI(10))
	})
	h.eng.At(sim.Time(4*sim.Millisecond), func() {
		// p0 leads the withdraw group; suspend it.
		h.cluster.Replica(0).Beater().Suspend()
		h.fab.Node(0).Suspend()
	})
	completed := false
	h.eng.At(sim.Time(6*sim.Millisecond), func() {
		h.cluster.Replica(2).Invoke(crdt.AccountWithdraw, spec.ArgsI(10), func(_ any, err error) {
			if err != nil {
				t.Errorf("post-failover withdraw: %v", err)
			}
			completed = true
		})
	})
	h.eng.RunUntil(sim.Time(100 * sim.Millisecond))
	if !completed {
		t.Fatal("withdraw after leader failure never completed")
	}
	if h.cluster.Leader(1, 0) == 0 {
		t.Fatal("leader change did not happen")
	}
	// Survivors converge.
	s1 := h.cluster.Replica(1).CurrentState()
	s2 := h.cluster.Replica(2).CurrentState()
	if !s1.Equal(s2) {
		t.Fatal("survivors diverged after leader failure")
	}
	bal := s1.(*crdt.AccountState).Balance
	if bal != 980 {
		t.Fatalf("balance = %d, want 980", bal)
	}
}

func TestSummaryRepairAfterIssuerFailure(t *testing.T) {
	// A reducible call whose remote summary writes are stuck behind a
	// suspended CPU must be repaired from the issuer's authoritative slot.
	h := newHarness(t, crdt.NewCounter(), 3, 10, nil)
	h.eng.At(0, func() {
		h.cluster.Replica(0).Invoke(crdt.CounterAdd, spec.ArgsI(99), nil)
		// Suspend immediately: at most one remote write escapes.
		h.cluster.Replica(0).Beater().Suspend()
		h.fab.Node(0).Suspend()
	})
	h.eng.RunUntil(sim.Time(100 * sim.Millisecond))
	for _, p := range []spec.ProcID{1, 2} {
		st := h.cluster.Replica(p).CurrentState().(*crdt.CounterState)
		if st.V != 99 {
			t.Fatalf("replica p%d = %d, want 99 via summary repair", p, st.V)
		}
	}
}

func TestInvokeOnDownReplica(t *testing.T) {
	h := newHarness(t, crdt.NewCounter(), 2, 11, nil)
	h.fab.Node(1).Suspend()
	var got error
	h.eng.At(0, func() {
		h.cluster.Replica(1).Invoke(crdt.CounterAdd, spec.ArgsI(1), func(_ any, err error) { got = err })
	})
	h.eng.RunUntil(sim.Time(sim.Millisecond))
	if !errors.Is(got, ErrDown) {
		t.Fatalf("err = %v, want ErrDown", got)
	}
}

func TestConflictingCallsTotallyOrdered(t *testing.T) {
	// Two racing withdraws that together overdraft: exactly one must
	// succeed (the leader serializes and rejects the second).
	h := newHarness(t, crdt.NewAccount(), 3, 12, nil)
	okCount, rejCount := 0, 0
	h.eng.At(0, func() { h.invoke(0, crdt.AccountDeposit, spec.ArgsI(10)) })
	h.eng.At(sim.Time(2*sim.Millisecond), func() {
		done := func(_ any, err error) {
			if err == nil {
				okCount++
			} else if errors.Is(err, ErrImpermissible) {
				rejCount++
			} else {
				t.Errorf("unexpected error: %v", err)
			}
		}
		h.cluster.Replica(1).Invoke(crdt.AccountWithdraw, spec.ArgsI(10), done)
		h.cluster.Replica(2).Invoke(crdt.AccountWithdraw, spec.ArgsI(10), done)
	})
	h.eng.RunUntil(sim.Time(100 * sim.Millisecond))
	if okCount != 1 || rejCount != 1 {
		t.Fatalf("ok=%d rejected=%d, want exactly one of each", okCount, rejCount)
	}
	st := h.cluster.Replica(1).CurrentState().(*crdt.AccountState)
	if st.Balance != 0 {
		t.Fatalf("balance = %d, want 0", st.Balance)
	}
}

func TestStatsCounters(t *testing.T) {
	h := newHarness(t, crdt.NewCounter(), 2, 13, nil)
	h.eng.At(0, func() { h.invoke(0, crdt.CounterAdd, spec.ArgsI(1)) })
	h.drain(20 * sim.Millisecond)
	issued, applied, _, _ := h.cluster.Replica(0).Stats()
	if issued != 1 || applied == 0 {
		t.Fatalf("stats issued=%d applied=%d", issued, applied)
	}
}

func TestBankMapFreeCallDependency(t *testing.T) {
	// The §2 bank-map example: deposit is irreducible conflict-free but
	// *dependent on open*. The open travels as a summary write, the deposit
	// through the F buffers with a dependency record; no replica may apply
	// a deposit before the account's open is visible (CheckIntegrity
	// panics inside the runtime if the gate fails).
	h := newHarness(t, crdt.NewBankMap(), 4, 31, nil)
	h.eng.At(0, func() {
		h.invoke(2, crdt.BankOpen, spec.ArgsI(5))
		h.invoke(2, crdt.BankDeposit, spec.ArgsI(5, 100)) // same node, right after
	})
	h.eng.At(sim.Time(2*sim.Millisecond), func() {
		h.invoke(1, crdt.BankWithdraw, spec.ArgsI(5, 40))
	})
	h.eng.RunUntil(sim.Time(3 * sim.Millisecond))
	if !h.drain(100 * sim.Millisecond) {
		t.Fatal("replication did not complete")
	}
	h.checkConvergence()
	st := h.cluster.Replica(3).CurrentState().(*crdt.BankMapState)
	if st.Balances[5] != 60 {
		t.Fatalf("balance = %d, want 60", st.Balances[5])
	}
}

func TestBankMapDepositRejectedBeforeOpen(t *testing.T) {
	h := newHarness(t, crdt.NewBankMap(), 3, 32, nil)
	var rejected bool
	h.eng.At(0, func() {
		h.cluster.Replica(0).Invoke(crdt.BankDeposit, spec.ArgsI(9, 10), func(_ any, err error) {
			rejected = errors.Is(err, ErrImpermissible)
		})
	})
	h.eng.RunUntil(sim.Time(10 * sim.Millisecond))
	if !rejected {
		t.Fatal("deposit to an unopened account was accepted")
	}
}

func TestBankMapRandomWorkloadConverges(t *testing.T) {
	h := newHarness(t, crdt.NewBankMap(), 3, 33, nil)
	cls := h.cluster.An.Class
	ups := cls.UpdateMethods()
	h.eng.At(0, func() {
		for i := 0; i < 150; i++ {
			p := spec.ProcID(h.rng.Intn(3))
			u := ups[h.rng.Intn(len(ups))]
			c := cls.Gen.Call(h.rng, u)
			h.invoke(p, u, c.Args)
		}
	})
	if !h.drain(200 * sim.Millisecond) {
		t.Fatal("replication did not complete")
	}
	h.checkConvergence()
}

func TestPNCounterMultiMethodGroupRuntime(t *testing.T) {
	// A multi-method summarization group: increments and decrements from
	// the same node fold into one adjust summary, and the per-method
	// applied counts inside the slot advance independently.
	h := newHarness(t, crdt.NewPNCounter(), 3, 41, nil)
	h.eng.At(0, func() {
		h.invoke(0, crdt.PNInc, spec.ArgsI(10))
		h.invoke(0, crdt.PNDec, spec.ArgsI(4))
		h.invoke(1, crdt.PNAdjust, spec.ArgsI(3, 2))
	})
	if !h.drain(50 * sim.Millisecond) {
		t.Fatal("replication did not complete")
	}
	h.checkConvergence()
	st := h.cluster.Replica(2).CurrentState().(*crdt.PNCounterState)
	if st.P != 13 || st.N != 6 {
		t.Fatalf("P/N = %d/%d, want 13/6", st.P, st.N)
	}
	// Per-method counts at a remote replica.
	a := h.cluster.Replica(2).Applied()
	if a.Get(0, crdt.PNInc) != 1 || a.Get(0, crdt.PNDec) != 1 || a.Get(1, crdt.PNAdjust) != 1 {
		t.Fatal("per-method applied counts not propagated through the slot")
	}
}

func TestTwoPSetTwoSumGroupsRuntime(t *testing.T) {
	h := newHarness(t, crdt.NewTwoPSet(), 3, 42, nil)
	h.eng.At(0, func() {
		h.invoke(0, crdt.TwoPAdd, spec.ArgsI(1, 2, 3))
		h.invoke(1, crdt.TwoPRemove, spec.ArgsI(2))
		h.invoke(2, crdt.TwoPAdd, spec.ArgsI(4))
	})
	if !h.drain(50 * sim.Millisecond) {
		t.Fatal("replication did not complete")
	}
	h.checkConvergence()
	var got any
	h.cluster.Replica(1).Invoke(crdt.TwoPContains, spec.ArgsI(2), func(v any, _ error) { got = v })
	h.eng.RunFor(10 * sim.Microsecond)
	if got != false {
		t.Fatalf("contains(2) = %v, want false (tombstoned)", got)
	}
	h.cluster.Replica(1).Invoke(crdt.TwoPContains, spec.ArgsI(4), func(v any, _ error) { got = v })
	h.eng.RunFor(10 * sim.Microsecond)
	if got != true {
		t.Fatalf("contains(4) = %v, want true", got)
	}
}

func TestInvokeFreshSeesRemoteUpdatesImmediately(t *testing.T) {
	// A plain query lags until the summary write lands and is scanned
	// (~few µs); InvokeFresh reads the issuer's authoritative slot and
	// observes the update even when the remote write is stuck behind a
	// suspended CPU.
	h := newHarness(t, crdt.NewCounter(), 3, 51, nil)
	var stale, fresh any
	h.eng.At(0, func() {
		h.cluster.Replica(0).Invoke(crdt.CounterAdd, spec.ArgsI(7), nil)
		// Freeze p0 immediately: at most one remote summary write escapes,
		// so some replica's slot is stale.
		h.cluster.Replica(0).Beater().Suspend()
		h.fab.Node(0).Suspend()
	})
	// Query the replica whose write was still queued (node 2: p0's pump
	// posted node 1's write first).
	h.eng.At(sim.Time(20*sim.Microsecond), func() {
		h.cluster.Replica(2).Invoke(crdt.CounterValue, spec.Args{}, func(v any, _ error) { stale = v })
		h.cluster.Replica(2).InvokeFresh(crdt.CounterValue, spec.Args{}, func(v any, _ error) { fresh = v })
	})
	h.eng.RunUntil(sim.Time(5 * sim.Millisecond))
	if stale != any(int64(0)) {
		t.Fatalf("plain query = %v, want stale 0 (write stuck)", stale)
	}
	if fresh != any(int64(7)) {
		t.Fatalf("fresh query = %v, want 7", fresh)
	}
}

func TestInvokeFreshFallsBackWithoutSummaries(t *testing.T) {
	h := newHarness(t, crdt.NewORSet(), 2, 52, nil)
	var got any = "unset"
	h.eng.At(0, func() {
		h.cluster.Replica(0).InvokeFresh(crdt.ORSetContains, spec.ArgsI(1), func(v any, err error) {
			if err != nil {
				t.Error(err)
			}
			got = v
		})
	})
	h.eng.RunUntil(sim.Time(sim.Millisecond))
	if got != false {
		t.Fatalf("fallback fresh query = %v, want false", got)
	}
}

func TestInvokeFreshRejectsUpdates(t *testing.T) {
	h := newHarness(t, crdt.NewCounter(), 2, 53, nil)
	var got error
	h.eng.At(0, func() {
		h.cluster.Replica(0).InvokeFresh(crdt.CounterAdd, spec.ArgsI(1), func(_ any, err error) { got = err })
	})
	h.eng.RunUntil(sim.Time(sim.Millisecond))
	if !errors.Is(got, ErrNotUpdate) {
		t.Fatalf("err = %v, want ErrNotUpdate", got)
	}
}

func TestCrashFailureSurvivorsContinue(t *testing.T) {
	// A full crash (NIC dead, memory gone) is harsher than the paper's
	// suspension: in-flight state on the crashed node is unrecoverable, but
	// survivors must keep serving and converge among themselves.
	h := newHarness(t, crdt.NewCounter(), 4, 61, nil)
	h.eng.At(0, func() {
		for i := 0; i < 20; i++ {
			h.invoke(spec.ProcID(i%4), crdt.CounterAdd, spec.ArgsI(1))
		}
	})
	h.eng.At(sim.Time(2*sim.Millisecond), func() {
		h.fab.Node(2).Crash()
	})
	done := false
	h.eng.At(sim.Time(3*sim.Millisecond), func() {
		h.cluster.Replica(0).Invoke(crdt.CounterAdd, spec.ArgsI(100), func(_ any, err error) {
			done = err == nil
		})
	})
	h.eng.RunUntil(sim.Time(100 * sim.Millisecond))
	if !done {
		t.Fatal("update after crash never completed")
	}
	s0 := h.cluster.Replica(0).CurrentState()
	for _, p := range []spec.ProcID{1, 3} {
		if !s0.Equal(h.cluster.Replica(p).CurrentState()) {
			t.Fatalf("survivor p%d diverged after crash", p)
		}
	}
	if s0.(*crdt.CounterState).V < 100+20 {
		t.Fatalf("survivor state %d lost pre-crash calls", s0.(*crdt.CounterState).V)
	}
}

func TestCrashedLeaderElectionFallback(t *testing.T) {
	// When the old leader CRASHES (journal unreadable), the new leader
	// falls back to the survivors' watermarks instead of journal recovery.
	h := newHarness(t, crdt.NewAccount(), 3, 62, nil)
	h.eng.At(0, func() { h.invoke(1, crdt.AccountDeposit, spec.ArgsI(100)) })
	h.eng.At(sim.Time(2*sim.Millisecond), func() { h.invoke(1, crdt.AccountWithdraw, spec.ArgsI(10)) })
	h.eng.At(sim.Time(4*sim.Millisecond), func() {
		h.fab.Node(0).Crash() // the withdraw-group leader
	})
	done := false
	h.eng.At(sim.Time(6*sim.Millisecond), func() {
		h.cluster.Replica(2).Invoke(crdt.AccountWithdraw, spec.ArgsI(5), func(_ any, err error) {
			if err != nil {
				t.Errorf("post-crash withdraw: %v", err)
			}
			done = true
		})
	})
	h.eng.RunUntil(sim.Time(100 * sim.Millisecond))
	if !done {
		t.Fatal("withdraw after leader crash never completed")
	}
	s1 := h.cluster.Replica(1).CurrentState()
	s2 := h.cluster.Replica(2).CurrentState()
	if !s1.Equal(s2) {
		t.Fatal("survivors diverged after leader crash")
	}
	if got := s1.(*crdt.AccountState).Balance; got != 85 {
		t.Fatalf("balance = %d, want 85", got)
	}
}

func TestDisableFailureHandlingAblation(t *testing.T) {
	h := newHarness(t, crdt.NewCounter(), 3, 63, func(o *Options) {
		o.DisableFailureHandling = true
	})
	h.eng.At(0, func() { h.invoke(0, crdt.CounterAdd, spec.ArgsI(5)) })
	if !h.drain(50 * sim.Millisecond) {
		t.Fatal("replication did not complete without failure handling")
	}
	h.checkConvergence()
	if h.cluster.Replica(0).Beater() != nil {
		t.Fatal("beater should be nil with failure handling disabled")
	}
}

func TestRGACollaborativeEditingRuntime(t *testing.T) {
	// Two replicas type concurrently at the head while a third appends to
	// its own text; the runtime's dependency gating (insert depends on
	// insert) delivers anchors before children and all replicas converge
	// on the same document.
	h := newHarness(t, crdt.NewRGA(), 3, 71, nil)
	read := func(p spec.ProcID) string {
		var got string
		h.cluster.Replica(p).Invoke(crdt.RGARead, spec.Args{}, func(v any, _ error) { got = v.(string) })
		h.eng.RunFor(10 * sim.Microsecond)
		return got
	}
	a1, a2 := crdt.Tag(0, 1001), crdt.Tag(0, 1002)
	b1 := crdt.Tag(1, 1001)
	h.eng.At(0, func() {
		// p0 types "hi" (the 'i' anchors on the 'h' — dependency!).
		h.invoke(0, crdt.RGAInsert, spec.ArgsI(0, a1, 'h'))
		h.invoke(0, crdt.RGAInsert, spec.ArgsI(a1, a2, 'i'))
		// p1 concurrently types "y" at the head.
		h.invoke(1, crdt.RGAInsert, spec.ArgsI(0, b1, 'y'))
	})
	if !h.drain(100 * sim.Millisecond) {
		t.Fatal("replication did not complete")
	}
	h.checkConvergence()
	doc := read(2)
	if doc != read(0) || doc != read(1) {
		t.Fatal("documents diverged")
	}
	// Both head inserts present, 'i' after 'h'.
	if len(doc) != 3 {
		t.Fatalf("doc = %q, want 3 chars", doc)
	}
	hi := -1
	for i := 0; i < len(doc)-1; i++ {
		if doc[i] == 'h' && doc[i+1] == 'i' {
			hi = i
		}
	}
	if hi < 0 {
		t.Fatalf("doc = %q: 'i' not directly after its anchor 'h'", doc)
	}
}

func TestRGARandomEditingConverges(t *testing.T) {
	h := newHarness(t, crdt.NewRGA(), 3, 72, nil)
	cls := h.cluster.An.Class
	// Per-replica editing sessions: each replica inserts after its own
	// previously issued ids (valid anchors) and occasionally removes.
	lastID := make(map[spec.ProcID]int64)
	seq := uint64(5000)
	h.eng.At(0, func() {
		for i := 0; i < 120; i++ {
			p := spec.ProcID(h.rng.Intn(3))
			seq++
			id := crdt.Tag(p, seq)
			if h.rng.Intn(5) == 0 && lastID[p] != 0 {
				h.invoke(p, crdt.RGARemove, spec.ArgsI(lastID[p]))
				continue
			}
			h.invoke(p, crdt.RGAInsert, spec.ArgsI(lastID[p], id, int64('a'+h.rng.Intn(26))))
			lastID[p] = id
		}
	})
	if !h.drain(200 * sim.Millisecond) {
		free, conf := h.cluster.Replica(0).QueueDepths()
		t.Fatalf("replication did not complete (queues %d/%d)", free, conf)
	}
	h.checkConvergence()
	_ = cls
}

func TestSuspendedReplicaCatchesUpOnResume(t *testing.T) {
	// A suspended node keeps receiving one-sided writes (rings fill, slots
	// overwrite) but processes nothing. On resume its pollers drain the
	// backlog and it converges with the cluster — node rejoin for free from
	// the one-sided design.
	h := newHarness(t, crdt.NewCounter(), 3, 81, nil)
	h.eng.At(sim.Time(100*sim.Microsecond), func() {
		h.cluster.Replica(2).Beater().Suspend()
		h.fab.Node(2).Suspend()
	})
	h.eng.At(sim.Time(200*sim.Microsecond), func() {
		for i := 0; i < 30; i++ {
			h.invoke(spec.ProcID(i%2), crdt.CounterAdd, spec.ArgsI(1))
		}
	})
	h.eng.At(sim.Time(5*sim.Millisecond), func() {
		h.cluster.Replica(2).Beater().Resume()
		h.fab.Node(2).Resume()
	})
	h.eng.RunUntil(sim.Time(6 * sim.Millisecond)) // pass suspension + resume
	if !h.drain(100 * sim.Millisecond) {
		t.Fatal("resumed replica never caught up")
	}
	h.checkConvergence()
	st := h.cluster.Replica(2).CurrentState().(*crdt.CounterState)
	if st.V != 30 {
		t.Fatalf("resumed replica sees %d, want 30", st.V)
	}
}

func TestRingBackpressureDuringSuspension(t *testing.T) {
	// Tiny broadcast rings + a suspended reader: writers must block on
	// flow control (not overwrite unread records) and drain after resume.
	h := newHarness(t, crdt.NewORSet(), 2, 82, func(o *Options) {
		o.Broadcast.RingCapacity = 512
	})
	h.eng.At(sim.Time(50*sim.Microsecond), func() {
		h.cluster.Replica(1).Beater().Suspend()
		h.fab.Node(1).Suspend()
	})
	h.eng.At(sim.Time(100*sim.Microsecond), func() {
		for i := 0; i < 80; i++ {
			h.invoke(0, crdt.ORSetAdd, spec.ArgsI(int64(i), crdt.Tag(0, uint64(2000+i))))
		}
	})
	h.eng.At(sim.Time(10*sim.Millisecond), func() {
		h.cluster.Replica(1).Beater().Resume()
		h.fab.Node(1).Resume()
	})
	h.eng.RunUntil(sim.Time(11 * sim.Millisecond)) // pass suspension + resume
	if !h.drain(500 * sim.Millisecond) {
		t.Fatal("backpressured ring never drained after resume")
	}
	h.checkConvergence()
}

func TestMVRegisterRuntime(t *testing.T) {
	h := newHarness(t, crdt.NewMVRegister(3), 3, 91, nil)
	vv := func(a, b, c int64) []int64 { return []int64{a, b, c} }
	h.eng.At(0, func() {
		// Concurrent initial writes from p0 and p1.
		h.invoke(0, crdt.MVWrite, spec.Args{I: append([]int64{10}, vv(1, 0, 0)...)})
		h.invoke(1, crdt.MVWrite, spec.Args{I: append([]int64{20}, vv(0, 1, 0)...)})
	})
	h.eng.At(sim.Time(2*sim.Millisecond), func() {
		// p2 observed both and overwrites.
		h.invoke(2, crdt.MVWrite, spec.Args{I: append([]int64{30}, vv(1, 1, 1)...)})
	})
	h.eng.RunUntil(sim.Time(3 * sim.Millisecond))
	if !h.drain(50 * sim.Millisecond) {
		t.Fatal("replication did not complete")
	}
	h.checkConvergence()
	var got any
	h.cluster.Replica(0).Invoke(crdt.MVRead, spec.Args{}, func(v any, _ error) { got = v })
	h.eng.RunFor(10 * sim.Microsecond)
	if got != any("30") {
		t.Fatalf("read = %v, want 30 (dominating write collapsed the conflict)", got)
	}
}

func TestTracerRecordsCallLifecycle(t *testing.T) {
	h := newHarness(t, crdt.NewAccount(), 3, 101, func(o *Options) {
		o.Tracer = trace.New(nil, 0) // engine set below
	})
	// Rebuild the tracer with the right engine (the harness creates the
	// engine before options are applied) and re-wire every layer that holds
	// a reference to the placeholder.
	tr := trace.New(h.eng, 4096)
	for _, r := range h.cluster.Replicas {
		r.opts.Tracer = tr
		for _, in := range r.groups {
			in.Tracer = tr
		}
	}
	h.cluster.Fab.EnableTracing(tr)
	h.eng.At(0, func() { h.invoke(1, crdt.AccountDeposit, spec.ArgsI(50)) })
	h.eng.At(sim.Time(2*sim.Millisecond), func() { h.invoke(2, crdt.AccountWithdraw, spec.ArgsI(20)) })
	h.eng.RunUntil(sim.Time(3 * sim.Millisecond))
	if !h.drain(50 * sim.Millisecond) {
		t.Fatal("replication did not complete")
	}
	// The deposit: issue + reduce at p1.
	dep := tr.Timeline("p1#1")
	if len(dep) < 2 || dep[0].Kind != trace.Issue || dep[1].Kind != trace.Reduce {
		t.Fatalf("deposit timeline = %+v", dep)
	}
	// The withdraw: issue at p2, order at leader p0, applies, completion.
	wd := tr.Timeline("p2#1")
	kinds := map[trace.Kind]int{}
	for _, e := range wd {
		kinds[e.Kind]++
	}
	if kinds[trace.Issue] != 1 || kinds[trace.Order] != 1 || kinds[trace.Complete] != 1 {
		t.Fatalf("withdraw kinds = %v (timeline %+v)", kinds, wd)
	}
	if kinds[trace.Apply] < 2 {
		t.Fatalf("withdraw applied %d times via buffers, want 2 (followers)", kinds[trace.Apply])
	}
	// Protocol-level ordering: every follower Apply of the withdraw comes
	// after the leader's Order.
	var orderAt sim.Time
	for _, e := range wd {
		if e.Kind == trace.Order {
			orderAt = e.At
		}
	}
	for _, e := range wd {
		if e.Kind == trace.Apply && e.At < orderAt {
			t.Fatal("a follower applied the withdraw before the leader ordered it")
		}
	}
}

func TestTwoObjectsShareOneFabric(t *testing.T) {
	// Namespaces isolate two replicated objects — an account and a cart —
	// deployed over the same three nodes. Heartbeats are shared; regions,
	// broadcast domains and consensus groups are disjoint.
	eng := sim.NewEngine(111)
	fab := rdma.NewFabric(eng, 3, rdma.DefaultLatency())

	bankOpts := DefaultOptions()
	bankOpts.CheckIntegrity = true
	bankOpts.Namespace = "bank/"
	bank := NewCluster(fab, spec.MustAnalyze(crdt.NewAccount()), bankOpts)

	cartOpts := DefaultOptions()
	cartOpts.Namespace = "cart/"
	cart := NewCluster(fab, spec.MustAnalyze(crdt.NewCart()), cartOpts)

	eng.At(0, func() {
		bank.Replica(0).Invoke(crdt.AccountDeposit, spec.ArgsI(100), nil)
		cart.Replica(1).Invoke(crdt.CartAdd, spec.ArgsI(3, 2, crdt.Tag(1, 1)), nil)
	})
	eng.At(sim.Time(2*sim.Millisecond), func() {
		bank.Replica(2).Invoke(crdt.AccountWithdraw, spec.ArgsI(40), nil)
		cart.Replica(2).Invoke(crdt.CartAdd, spec.ArgsI(3, 5, crdt.Tag(2, 1)), nil)
	})
	eng.RunUntil(sim.Time(50 * sim.Millisecond))

	for p := spec.ProcID(0); p < 3; p++ {
		b := bank.Replica(p).CurrentState().(*crdt.AccountState)
		if b.Balance != 60 {
			t.Fatalf("bank at p%d = %d, want 60", p, b.Balance)
		}
	}
	var qty any
	cart.Replica(0).Invoke(crdt.CartQty, spec.ArgsI(3), func(v any, _ error) { qty = v })
	eng.RunFor(10 * sim.Microsecond)
	if qty != any(int64(7)) {
		t.Fatalf("cart quantity = %v, want 7", qty)
	}
}

func TestClusterStopQuiescesEngine(t *testing.T) {
	// After Stop, no ticker keeps the engine alive: the event queue drains.
	h := newHarness(t, crdt.NewAccount(), 3, 141, nil)
	h.eng.At(0, func() { h.invoke(0, crdt.AccountDeposit, spec.ArgsI(5)) })
	if !h.drain(50 * sim.Millisecond) {
		t.Fatal("replication did not complete")
	}
	h.cluster.Stop()
	h.eng.Run() // must terminate: nothing re-arms
	if h.eng.Pending() != 0 {
		t.Fatalf("engine still has %d pending events after Stop", h.eng.Pending())
	}
}

// TestClusterStopLeavesSuppliedDomainRunning is the other half of the
// ownership rule: a domain the caller supplied (a store's, shared by its
// shards) outlives the cluster's Stop and is stopped by its owner.
func TestClusterStopLeavesSuppliedDomainRunning(t *testing.T) {
	eng := sim.NewEngine(142)
	fab := rdma.NewFabric(eng, 3, rdma.DefaultLatency())
	opts := DefaultOptions()
	opts.FailureDomain = NewFailureDomain(fab, opts.Heartbeat)
	c := NewCluster(fab, spec.MustAnalyze(crdt.NewAccount()), opts)
	eng.RunFor(sim.Millisecond)
	c.Stop()
	eng.RunFor(sim.Millisecond)
	if eng.Pending() == 0 {
		t.Fatal("Cluster.Stop stopped a failure domain it does not own")
	}
	opts.FailureDomain.Stop()
	eng.Run()
	if eng.Pending() != 0 {
		t.Fatalf("engine still has %d pending events after the owner stopped the domain", eng.Pending())
	}
}

func TestLWWMapStringArgsThroughRuntime(t *testing.T) {
	// String arguments traverse the codec, summary slots and queries.
	h := newHarness(t, crdt.NewLWWMap(), 3, 151, nil)
	h.eng.At(0, func() {
		h.invoke(0, crdt.LWWMapSet, spec.Args{S: []string{"region", "eu-west", "tier", "gold"}, I: []int64{5, 5}})
		h.invoke(1, crdt.LWWMapSet, spec.Args{S: []string{"region", "ap-south"}, I: []int64{9}})
	})
	if !h.drain(50 * sim.Millisecond) {
		t.Fatal("replication did not complete")
	}
	h.checkConvergence()
	var got any
	h.cluster.Replica(2).Invoke(crdt.LWWMapGet, spec.ArgsS("region"), func(v any, _ error) { got = v })
	h.eng.RunFor(10 * sim.Microsecond)
	if got != "ap-south" {
		t.Fatalf("get(region) at p2 = %v, want ap-south (newer write wins)", got)
	}
}
