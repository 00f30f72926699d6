// Auction: a Hamsaz-style schema with S-conflicts and a recency-aware
// query (the Hampa extension).
//
//   - register is reducible: bidder registrations summarize into one
//     set-typed call and propagate as single remote writes;
//   - placeBid and close form a synchronization group: a bid racing a close
//     must be ordered (counted toward the winner, or suppressed as late);
//   - placeBid depends on register — a bid must not reach a replica before
//     its bidder's registration;
//   - InvokeFresh demonstrates the recency extension: right after a remote
//     registration, a plain query may still miss it, while a fresh query
//     reads the issuer's authoritative summary slot and sees it.
//
// Run with: go run ./examples/auction
package main

import (
	"fmt"

	"hamband/internal/core"
	"hamband/internal/rdma"
	"hamband/internal/schema"
	"hamband/internal/sim"
	"hamband/internal/spec"
)

func main() {
	eng := sim.NewEngine(5)
	// A slow summary scan makes the plain-vs-fresh query contrast visible.
	lat := rdma.DefaultLatency()
	lat.ScanPeriod = 200 * sim.Microsecond
	fab := rdma.NewFabric(eng, 3, lat)
	cls := schema.NewAuction()
	an := spec.MustAnalyze(cls)
	fmt.Print(an.Summary())

	opts := core.DefaultOptions()
	opts.CheckIntegrity = true
	cluster := core.NewCluster(fab, an, opts)

	log := func(format string, args ...any) {
		fmt.Printf("t=%-10v ", sim.Duration(eng.Now()))
		fmt.Printf(format+"\n", args...)
	}
	at := func(d sim.Duration, fn func()) { eng.At(sim.Time(d), fn) }

	at(0, func() {
		log("p0 registers bidders {1, 2} (reducible: one remote write per peer)")
		cluster.Replica(0).Invoke(schema.AuctionRegister, spec.ArgsI(1, 2), nil)
	})

	// Recency: query p2 both ways a few µs later, before its 200 µs scan
	// notices p0's registration summary.
	at(10*sim.Microsecond, func() {
		cluster.Replica(2).Invoke(schema.AuctionBidders, spec.Args{}, func(v any, _ error) {
			log("p2 plain   bidders() = %v (summary landed but unscanned)", v)
		})
		cluster.Replica(2).InvokeFresh(schema.AuctionBidders, spec.Args{}, func(v any, _ error) {
			log("p2 fresh   bidders() = %v (read peers' authoritative slots first)", v)
		})
	})

	at(400*sim.Microsecond, func() {
		log("p1 bids 70 for bidder 1; p2 bids 90 for bidder 2 (ordered by the group leader)")
		cluster.Replica(1).Invoke(schema.AuctionBid, spec.ArgsI(1, 70), nil)
		cluster.Replica(2).Invoke(schema.AuctionBid, spec.ArgsI(2, 90), nil)
	})

	at(800*sim.Microsecond, func() {
		log("p0 closes the auction (conflicts with racing bids: serialized)")
		cluster.Replica(0).Invoke(schema.AuctionClose, spec.Args{}, nil)
	})

	// A late bid must not change the winner.
	at(1200*sim.Microsecond, func() {
		cluster.Replica(1).Invoke(schema.AuctionBid, spec.ArgsI(1, 999), func(_ any, err error) {
			log("p1 late bid 999 -> err=%v (ordered after close: suppressed)", err)
		})
	})

	at(2*sim.Millisecond, func() {
		for p := spec.ProcID(0); p < 3; p++ {
			p := p
			cluster.Replica(p).Invoke(schema.AuctionWinner, spec.Args{}, func(v any, _ error) {
				log("p%d winner() = bidder %v", p, v)
			})
		}
	})

	eng.RunUntil(sim.Time(10 * sim.Millisecond))

	s0 := cluster.Replica(0).CurrentState()
	for p := spec.ProcID(1); p < 3; p++ {
		if !s0.Equal(cluster.Replica(p).CurrentState()) {
			fmt.Println("ERROR: replicas diverged")
			return
		}
	}
	st := s0.(*schema.AuctionState)
	fmt.Printf("\nconverged: %d bidders, %d bids, winner = bidder %d at %d\n",
		len(st.Bidders), len(st.Bids), st.Winner, st.Bids[st.Winner])
}
