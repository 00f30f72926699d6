// Store: several replicated objects behind one keyed directory — an
// online shop with a bank account (reducible deposits, leader-ordered
// withdrawals), a product catalog (grow-only set) and a shopping cart
// (OR-cart), each with exactly the coordination its methods need. The
// sharded store carves every object's rings, summary slots and δ-logs out
// of one registration budget per node (an rdma.Arena that allocates only
// the carved bytes), runs one heartbeat/detector pair per node for all
// objects, and routes every object's summary writes through shared per-peer
// QPs so fan-out to the same peer rides one chained doorbell even across
// objects.
//
// Run with: go run ./examples/store
package main

import (
	"fmt"

	"hamband/internal/crdt"
	"hamband/internal/rdma"
	"hamband/internal/sim"
	"hamband/internal/spec"
	"hamband/internal/store"
)

func main() {
	eng := sim.NewEngine(4)
	fab := rdma.NewFabric(eng, 3, rdma.DefaultLatency())

	opts := store.DefaultOptions()
	opts.MemoryBudget = 8 << 20 // an 8 MiB registration budget per node
	opts.Core.CheckIntegrity = true
	st := store.New(fab, opts)
	defer st.Stop()

	open := func(key string, cls *spec.Class) *store.Shard {
		sh, err := st.Open(key, spec.MustAnalyze(cls), store.ShardOptions{})
		if err != nil {
			panic(err)
		}
		used, total := st.Budget(0)
		fmt.Printf("opened %-8s %7d B/node  (budget %d/%d B)\n", key, sh.Footprint(), used, total)
		return sh
	}
	bank := open("bank", crdt.NewAccount())
	catalog := open("catalog", crdt.NewGSet())
	cart := open("cart", crdt.NewCart())

	at := func(d sim.Duration, fn func()) { eng.At(sim.Time(d), fn) }
	log := func(format string, args ...any) {
		fmt.Printf("t=%-10v ", sim.Duration(eng.Now()))
		fmt.Printf(format+"\n", args...)
	}

	at(0, func() {
		log("p0 lists products {101, 102, 103} in the catalog (reducible set add)")
		catalog.Invoke(0, crdt.GSetAdd, spec.ArgsI(101, 102, 103), nil)
		log("p0 customer deposits 50 into the account (same drain: shares the doorbell)")
		bank.Invoke(0, crdt.AccountDeposit, spec.ArgsI(50), nil)
	})
	at(300*sim.Microsecond, func() {
		log("p2 customer puts product 101 (×2) in the cart")
		cart.Invoke(2, crdt.CartAdd, spec.ArgsI(101, 2, crdt.Tag(2, 1)), nil)
	})
	at(600*sim.Microsecond, func() {
		log("p2 checkout: withdraw 30 (conflicting, ordered by the bank shard's leader)")
		bank.Invoke(2, crdt.AccountWithdraw, spec.ArgsI(30), func(_ any, err error) {
			log("checkout completed, err=%v", err)
		})
	})

	eng.RunUntil(sim.Time(20 * sim.Millisecond))

	// Every replica of every object agrees.
	fmt.Println()
	for p := spec.ProcID(0); p < 3; p++ {
		p := p
		bank.Query(p, crdt.AccountBalance, spec.Args{}, false, func(bal any, _ error) {
			catalog.Query(p, crdt.GSetSize, spec.Args{}, false, func(n any, _ error) {
				cart.Query(p, crdt.CartQty, spec.ArgsI(101), false, func(q any, _ error) {
					fmt.Printf("p%d view: balance=%v, catalog=%v products, cart[101]=%v\n",
						p, bal, n, q)
				})
			})
		})
	}
	eng.RunUntil(eng.Now() + sim.Time(sim.Millisecond))

	cross := rdma.CoalesceStats{}
	for n := 0; n < 3; n++ {
		cs := st.Coalescer(n).Stats()
		cross.Chains += cs.Chains
		cross.CrossChains += cs.CrossChains
		cross.CrossWRs += cs.CrossWRs
	}
	fmt.Printf("\nthree objects, one fabric: %d one-sided writes, %d chained doorbells (%d crossing objects, %d WRs)\n",
		fab.Stats().Writes, cross.Chains, cross.CrossChains, cross.CrossWRs)
}
