package crdt

import "hamband/internal/spec"

// BankMapState is the state of the bank-as-a-map example from §2 of the
// paper: a map from accounts to balances plus the set of opened accounts.
// The invariant requires every account with money to be open and every
// balance to be non-negative.
type BankMapState struct {
	Open     i64Set
	Balances map[int64]int64
}

// Clone implements spec.State.
func (s *BankMapState) Clone() spec.State {
	c := &BankMapState{Open: s.Open.Clone(), Balances: make(map[int64]int64, len(s.Balances))}
	for a, b := range s.Balances {
		c.Balances[a] = b
	}
	return c
}

// Equal implements spec.State.
func (s *BankMapState) Equal(o spec.State) bool {
	t, ok := o.(*BankMapState)
	if !ok || !s.Open.Equal(t.Open) || len(s.Balances) != len(t.Balances) {
		return false
	}
	for a, b := range s.Balances {
		if t.Balances[a] != b {
			return false
		}
	}
	return true
}

// BankMap method IDs.
const (
	BankOpen spec.MethodID = iota
	BankDeposit
	BankWithdraw
	BankBalance
)

// NewBankMap returns the paper's §2 bank example: "a bank that is
// represented as a map that associates accounts to their balances, and in
// addition to deposit and withdraw, exposes the open method to open
// accounts. The deposit method is conflict-free but is dependent on the
// open method."
//
// The analysis places one method in each category:
//
//   - open(accounts…) — reducible: set-typed, summarizable by union,
//     invariant-sufficient;
//   - deposit(a, n) — *irreducible conflict-free with a dependency*: it
//     commutes with everything and stays permissible under interleavings,
//     but is only permissible once its account is open, so Dep(deposit) =
//     {open} and it travels through the F buffers with a dependency record;
//   - withdraw(a, n) — conflicting (two concurrent withdrawals of the same
//     account can jointly overdraft) and dependent on open and deposit.
func NewBankMap() *spec.Class {
	acct := func(c spec.Call) int64 { return c.Args.I[0] }
	amt := func(c spec.Call) int64 { return c.Args.I[1] }
	opens := func(c spec.Call, a int64) bool {
		if c.Method != BankOpen {
			return false
		}
		for _, x := range c.Args.I {
			if x == a {
				return true
			}
		}
		return false
	}
	cls := &spec.Class{
		Name: "bankmap",
		Methods: []spec.Method{
			BankOpen: {
				Name: "open",
				Kind: spec.Update,
				Apply: func(s spec.State, a spec.Args) {
					st := s.(*BankMapState)
					for _, x := range a.I {
						st.Open[x] = true
					}
				},
			},
			BankDeposit: {
				Name: "deposit",
				Kind: spec.Update,
				Apply: func(s spec.State, a spec.Args) {
					st := s.(*BankMapState)
					st.Balances[a.I[0]] += a.I[1]
					if st.Balances[a.I[0]] == 0 {
						delete(st.Balances, a.I[0])
					}
				},
			},
			BankWithdraw: {
				Name: "withdraw",
				Kind: spec.Update,
				Apply: func(s spec.State, a spec.Args) {
					st := s.(*BankMapState)
					st.Balances[a.I[0]] -= a.I[1]
					if st.Balances[a.I[0]] == 0 {
						delete(st.Balances, a.I[0])
					}
				},
			},
			BankBalance: {
				Name: "balance",
				Kind: spec.Query,
				Eval: func(s spec.State, a spec.Args) any {
					return s.(*BankMapState).Balances[a.I[0]]
				},
			},
		},
		NewState: func() spec.State {
			return &BankMapState{Open: make(i64Set), Balances: make(map[int64]int64)}
		},
		// I: money only in open accounts, and no negative balances.
		Invariant: func(s spec.State) bool {
			st := s.(*BankMapState)
			for a, b := range st.Balances {
				if b < 0 || !st.Open[a] {
					return false
				}
			}
			return true
		},
		Rel: spec.Relations{
			// Map additions and subtractions commute; open is a monotone
			// set insert.
			SCommute: func(_, _ spec.Call) bool { return true },
			// open never breaks the invariant; zero-amount money moves are
			// no-ops.
			InvariantSufficient: func(c spec.Call) bool {
				return c.Method == BankOpen || amt(c) == 0
			},
			// deposit stays permissible after anything (accounts never
			// close, deposits only grow balances); withdraw survives
			// deposits and opens but not other positive withdrawals of the
			// same account.
			PRCommute: func(c1, c2 spec.Call) bool {
				if c1.Method != BankWithdraw || c2.Method != BankWithdraw {
					return true
				}
				return acct(c1) != acct(c2) || amt(c1) == 0 || amt(c2) == 0
			},
			// deposit may owe its permissibility to a preceding open of
			// its account; withdraw to a preceding open or deposit.
			PLCommute: func(c2, c1 spec.Call) bool {
				switch c2.Method {
				case BankDeposit:
					return !opens(c1, acct(c2))
				case BankWithdraw:
					if opens(c1, acct(c2)) {
						return false
					}
					return !(c1.Method == BankDeposit && acct(c1) == acct(c2) && amt(c1) != 0 && amt(c2) != 0)
				default:
					return true
				}
			},
		},
		ConflictsWith: map[spec.MethodID][]spec.MethodID{
			BankWithdraw: {BankWithdraw},
		},
		DependsOn: map[spec.MethodID][]spec.MethodID{
			BankDeposit:  {BankOpen},
			BankWithdraw: {BankOpen, BankDeposit},
		},
		SumGroups: []spec.SumGroup{{
			Name:    "open",
			Methods: []spec.MethodID{BankOpen},
			Identity: func() spec.Call {
				return spec.Call{Method: BankOpen}
			},
			Summarize: func(a, b spec.Call) spec.Call {
				return spec.Call{Method: BankOpen, Args: spec.Args{I: spec.UnionSorted(a.Args.I, b.Args.I)}}
			},
		}},
	}
	cls.Gen = spec.Generators{
		State: func(r spec.Rand) spec.State {
			st := &BankMapState{Open: make(i64Set), Balances: make(map[int64]int64)}
			for i, n := 0, 1+r.Intn(5); i < n; i++ {
				st.Open[int64(r.Intn(8))] = true
			}
			for a := range st.Open {
				if r.Intn(2) == 0 {
					st.Balances[a] = int64(1 + r.Intn(50))
				}
			}
			return st
		},
		Call: func(r spec.Rand, u spec.MethodID) spec.Call {
			a := int64(r.Intn(8))
			switch u {
			case BankOpen:
				n := 1 + r.Intn(2)
				xs := make([]int64, n)
				for i := range xs {
					xs[i] = int64(r.Intn(8))
				}
				return spec.Call{Method: BankOpen, Args: spec.Args{I: xs}}
			case BankDeposit:
				return spec.Call{Method: BankDeposit, Args: spec.ArgsI(a, int64(r.Intn(10)))}
			case BankWithdraw:
				return spec.Call{Method: BankWithdraw, Args: spec.ArgsI(a, int64(r.Intn(5)))}
			default:
				return spec.Call{Method: BankBalance, Args: spec.ArgsI(a)}
			}
		},
	}
	return cls
}
