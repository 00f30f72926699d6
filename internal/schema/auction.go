package schema

import "hamband/internal/spec"

// AuctionState is the state of the auction use-case (a Hamsaz-style
// schema): registered bidders, the placed bids, whether the auction has
// closed, and the winning amount computed at close.
type AuctionState struct {
	Bidders i64Set
	Bids    map[int64]int64 // bidder → highest amount
	Closed  bool
	Winner  int64 // winning bidder, -1 while open or without bids
}

// Clone implements spec.State.
func (s *AuctionState) Clone() spec.State {
	c := &AuctionState{
		Bidders: s.Bidders.Clone(),
		Bids:    make(map[int64]int64, len(s.Bids)),
		Closed:  s.Closed,
		Winner:  s.Winner,
	}
	for b, a := range s.Bids {
		c.Bids[b] = a
	}
	return c
}

// Equal implements spec.State.
func (s *AuctionState) Equal(o spec.State) bool {
	t, ok := o.(*AuctionState)
	if !ok || !s.Bidders.Equal(t.Bidders) || s.Closed != t.Closed || s.Winner != t.Winner ||
		len(s.Bids) != len(t.Bids) {
		return false
	}
	for b, a := range s.Bids {
		if t.Bids[b] != a {
			return false
		}
	}
	return true
}

// Auction method IDs.
const (
	AuctionRegister spec.MethodID = iota
	AuctionBid
	AuctionClose
	AuctionWinner
	AuctionIsOpen
	AuctionBidders
)

// maxBidder returns the current winning (bidder, amount), ties broken by
// the larger bidder id so the computation is deterministic.
func maxBidder(bids map[int64]int64) int64 {
	best, bestAmt := int64(-1), int64(-1)
	for b, a := range bids {
		if a > bestAmt || (a == bestAmt && b > best) {
			best, bestAmt = b, a
		}
	}
	return best
}

// NewAuction returns the auction schema:
//
//   - register(bidders…) — reducible (set-typed, summarizable,
//     invariant-sufficient);
//   - placeBid(bidder, amount) — conflicts with close (a bid landing after
//     the close would change the winner in one order and be suppressed in
//     the other) and depends on register (only registered bidders may
//     bid); bids against a closed auction are suppressed, keeping the
//     winner stable;
//   - close() — seals the auction and computes the winner; closing twice
//     is idempotent;
//   - winner(), isOpen() — queries.
//
// The integrity invariant: once closed, the winner is exactly the maximum
// placed bid, and every bid belongs to a registered bidder.
func NewAuction() *spec.Class {
	isBid := func(c spec.Call) bool { return c.Method == AuctionBid }
	isClose := func(c spec.Call) bool { return c.Method == AuctionClose }
	registers := func(c spec.Call, bidder int64) bool {
		if c.Method != AuctionRegister {
			return false
		}
		for _, x := range c.Args.I {
			if x == bidder {
				return true
			}
		}
		return false
	}
	cls := &spec.Class{
		Name: "auction",
		Methods: []spec.Method{
			AuctionRegister: {
				Name: "register",
				Kind: spec.Update,
				Apply: func(s spec.State, a spec.Args) {
					st := s.(*AuctionState)
					for _, b := range a.I {
						st.Bidders[b] = true
					}
				},
			},
			AuctionBid: {
				Name: "placeBid",
				Kind: spec.Update,
				Apply: func(s spec.State, a spec.Args) {
					st := s.(*AuctionState)
					if st.Closed {
						return // late bid: suppressed, winner stands
					}
					b, amt := a.I[0], a.I[1]
					if amt > st.Bids[b] {
						st.Bids[b] = amt
					}
				},
			},
			AuctionClose: {
				Name: "close",
				Kind: spec.Update,
				Apply: func(s spec.State, _ spec.Args) {
					st := s.(*AuctionState)
					if st.Closed {
						return
					}
					st.Closed = true
					st.Winner = maxBidder(st.Bids)
				},
			},
			AuctionWinner: {
				Name: "winner",
				Kind: spec.Query,
				Eval: func(s spec.State, _ spec.Args) any {
					return s.(*AuctionState).Winner
				},
			},
			AuctionIsOpen: {
				Name: "isOpen",
				Kind: spec.Query,
				Eval: func(s spec.State, _ spec.Args) any {
					return !s.(*AuctionState).Closed
				},
			},
			AuctionBidders: {
				Name: "bidders",
				Kind: spec.Query,
				Eval: func(s spec.State, _ spec.Args) any {
					return int64(len(s.(*AuctionState).Bidders))
				},
			},
		},
		NewState: func() spec.State {
			return &AuctionState{Bidders: make(i64Set), Bids: make(map[int64]int64), Winner: -1}
		},
		// I: bids come from registered bidders; once closed, the winner is
		// the maximum bid.
		Invariant: func(s spec.State) bool {
			st := s.(*AuctionState)
			for b := range st.Bids {
				if !st.Bidders[b] {
					return false
				}
			}
			if st.Closed && st.Winner != maxBidder(st.Bids) {
				return false
			}
			return true
		},
		Rel: spec.Relations{
			// A bid and a close on the same auction do not commute: one
			// order counts the bid toward the winner, the other suppresses
			// it. Everything else commutes (bids max-merge; close is
			// idempotent; register is a set union).
			SCommute: func(c1, c2 spec.Call) bool {
				return !(isBid(c1) && isClose(c2)) && !(isClose(c1) && isBid(c2))
			},
			// register and close never break the invariant; a bid needs
			// its bidder registered.
			InvariantSufficient: func(c spec.Call) bool { return !isBid(c) },
			// A bid stays permissible after anything except nothing —
			// registration is monotone and late bids are suppressed (a
			// suppressed application still preserves the invariant).
			PRCommute: func(_, _ spec.Call) bool { return true },
			// A bid may owe its permissibility to a preceding registration
			// of its bidder — or to a preceding close, after which any bid
			// is a suppressed no-op (permissible even when the bidder was
			// never registered).
			PLCommute: func(c2, c1 spec.Call) bool {
				if !isBid(c2) {
					return true
				}
				return !registers(c1, c2.Args.I[0]) && !isClose(c1)
			},
		},
		ConflictsWith: map[spec.MethodID][]spec.MethodID{
			AuctionBid: {AuctionClose},
		},
		DependsOn: map[spec.MethodID][]spec.MethodID{
			AuctionBid: {AuctionRegister, AuctionClose},
		},
		SumGroups: []spec.SumGroup{{
			Name:    "register",
			Methods: []spec.MethodID{AuctionRegister},
			Identity: func() spec.Call {
				return spec.Call{Method: AuctionRegister}
			},
			Summarize: func(a, b spec.Call) spec.Call {
				return spec.Call{Method: AuctionRegister, Args: spec.Args{I: spec.UnionSorted(a.Args.I, b.Args.I)}}
			},
		}},
	}
	cls.Gen = spec.Generators{
		State: func(r spec.Rand) spec.State {
			st := &AuctionState{Bidders: make(i64Set), Bids: make(map[int64]int64), Winner: -1}
			for i, n := 0, 1+r.Intn(5); i < n; i++ {
				st.Bidders[int64(r.Intn(10))] = true
			}
			for b := range st.Bidders {
				if r.Intn(2) == 0 {
					st.Bids[b] = int64(1 + r.Intn(100))
				}
			}
			if r.Intn(4) == 0 {
				st.Closed = true
				st.Winner = maxBidder(st.Bids)
			}
			return st
		},
		Call: func(r spec.Rand, u spec.MethodID) spec.Call {
			switch u {
			case AuctionRegister:
				n := 1 + r.Intn(2)
				bs := make([]int64, n)
				for i := range bs {
					bs[i] = int64(r.Intn(10))
				}
				return spec.Call{Method: AuctionRegister, Args: spec.Args{I: bs}}
			case AuctionBid:
				return spec.Call{Method: AuctionBid,
					Args: spec.ArgsI(int64(r.Intn(10)), int64(1+r.Intn(100)))}
			case AuctionClose:
				return spec.Call{Method: AuctionClose}
			default:
				return spec.Call{Method: u}
			}
		},
	}
	return cls
}
