package crdt

import "hamband/internal/spec"

// AccountState is the bank-account state: the balance b.
type AccountState struct{ Balance int64 }

// Clone implements spec.State.
func (s *AccountState) Clone() spec.State { c := *s; return &c }

// CopyFrom implements spec.State.
func (s *AccountState) CopyFrom(src spec.State) { *s = *src.(*AccountState) }

// Equal implements spec.State.
func (s *AccountState) Equal(o spec.State) bool {
	t, ok := o.(*AccountState)
	return ok && s.Balance == t.Balance
}

// Account method IDs.
const (
	AccountDeposit spec.MethodID = iota
	AccountWithdraw
	AccountBalance
)

// NewAccount returns the paper's running bank-account example (Figure 1):
//
//   - invariant I: the balance stays non-negative;
//   - deposit(a) — invariant-sufficient, summarizable, dependence-free:
//     the reducible method carried by a single remote write;
//   - withdraw(a) — permissible-conflicts with withdraw (two concurrent
//     withdrawals can jointly overdraft) and depends on deposit (a
//     withdrawal may rely on a preceding deposit), so it is conflicting
//     with synchronization group {withdraw};
//   - balance() — query.
func NewAccount() *spec.Class {
	amount := func(c spec.Call) int64 { return c.Args.I[0] }
	isDeposit := func(c spec.Call) bool { return c.Method == AccountDeposit }
	cls := &spec.Class{
		Name: "account",
		Methods: []spec.Method{
			AccountDeposit: {
				Name: "deposit",
				Kind: spec.Update,
				Apply: func(s spec.State, a spec.Args) {
					s.(*AccountState).Balance += a.I[0]
				},
			},
			AccountWithdraw: {
				Name: "withdraw",
				Kind: spec.Update,
				Apply: func(s spec.State, a spec.Args) {
					s.(*AccountState).Balance -= a.I[0]
				},
				Guard: func(s spec.State, a spec.Args) bool {
					return s.(*AccountState).Balance-a.I[0] >= 0
				},
			},
			AccountBalance: {
				Name: "balance",
				Kind: spec.Query,
				Eval: func(s spec.State, _ spec.Args) any {
					return s.(*AccountState).Balance
				},
			},
		},
		NewState:  func() spec.State { return &AccountState{} },
		Invariant: func(s spec.State) bool { return s.(*AccountState).Balance >= 0 },
		Rel: spec.Relations{
			// Additions and subtractions commute on the integers.
			SCommute: always2,
			// A deposit (of a non-negative amount) never overdrafts; a
			// zero withdrawal is trivially safe.
			InvariantSufficient: func(c spec.Call) bool {
				return isDeposit(c) || amount(c) == 0
			},
			// withdraw(a) stays permissible after a deposit, but not
			// after another (positive) withdrawal.
			PRCommute: func(c1, c2 spec.Call) bool {
				if isDeposit(c1) || isDeposit(c2) {
					return true
				}
				return amount(c1) == 0 || amount(c2) == 0
			},
			// A withdrawal permissible after a (positive) deposit may
			// overdraft without it; it L-commutes with withdrawals
			// (removing money first only makes the check stricter).
			PLCommute: func(c2, c1 spec.Call) bool {
				if isDeposit(c2) || !isDeposit(c1) {
					return true
				}
				return amount(c1) == 0 || amount(c2) == 0
			},
		},
		ConflictsWith: map[spec.MethodID][]spec.MethodID{
			AccountWithdraw: {AccountWithdraw},
		},
		DependsOn: map[spec.MethodID][]spec.MethodID{
			AccountWithdraw: {AccountDeposit},
		},
		SumGroups: []spec.SumGroup{spec.AddGroup("deposit", AccountDeposit)},
	}
	cls.Gen = spec.Generators{
		State: func(r spec.Rand) spec.State {
			return &AccountState{Balance: int64(r.Intn(100))}
		},
		Call: func(r spec.Rand, u spec.MethodID) spec.Call {
			switch u {
			case AccountDeposit:
				return spec.Call{Method: AccountDeposit, Args: spec.ArgsI(int64(r.Intn(10)))}
			case AccountWithdraw:
				return spec.Call{Method: AccountWithdraw, Args: spec.ArgsI(int64(r.Intn(10)))}
			default:
				return spec.Call{Method: AccountBalance}
			}
		},
	}
	return cls
}
