// Package crdt defines the replicated data types the paper evaluates
// (§5, adopted from Shapiro et al.'s comprehensive CRDT study, plus the
// running bank-account example):
//
//   - Counter — reducible (summarizable additions)
//   - LWW register — reducible (summarizable last-writer-wins writes)
//   - GSet — grow-only set with set-typed add; reducible, with a buffered
//     variant (NewGSetBuffered) used by the paper's Figure 9
//   - ORSet — observed-remove set; irreducible conflict-free
//   - Cart — shopping cart with OR-set semantics; irreducible conflict-free
//   - Account — the bank account: reducible deposit, conflicting withdraw
//     that depends on deposit
//
// Each constructor returns a spec.Class carrying the data type's methods,
// invariant, declared coordination relations, summarization groups and
// random generators. The declarations are validated against their semantic
// definitions by spec.CheckRelations in this package's tests.
package crdt

import "hamband/internal/spec"

// Tag builds a globally unique OR-set element tag from the issuing process
// and a per-process counter. Tags identify individual add operations so
// that removes cancel exactly the adds they observed.
func Tag(p spec.ProcID, seq uint64) int64 { return int64(p)<<40 | int64(seq&0xFFFFFFFFFF) }

// i64Set is the set of int64 several states are made of.
type i64Set = spec.I64Set

// always and never are convenience relation predicates.
func always2(_, _ spec.Call) bool { return true }
func always1(_ spec.Call) bool    { return true }

// crdtRelations returns the relations of a pure op-based CRDT: every pair
// of calls state-commutes and every call is invariant-sufficient (the
// invariant is the constant true). This is the special case in which WRDTs
// degenerate to CRDTs (§3.2).
func crdtRelations() spec.Relations {
	return spec.Relations{
		SCommute:            always2,
		InvariantSufficient: always1,
		PRCommute:           always2,
		PLCommute:           always2,
	}
}

func invariantTrue(spec.State) bool { return true }

// markTrivial flags a pure-CRDT class's invariant as constant true.
func markTrivial(cls *spec.Class) *spec.Class {
	cls.TrivialInvariant = true
	return cls
}
