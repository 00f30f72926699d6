package crdt

import (
	"fmt"
	"sort"
	"strings"

	"hamband/internal/spec"
)

// mvEntry is one surviving write of the multi-value register: a value and
// the version vector the writer observed.
type mvEntry struct {
	V  int64
	VV []uint32
}

func (e mvEntry) key() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%d@", e.V)
	for _, x := range e.VV {
		fmt.Fprintf(&b, "%d.", x)
	}
	return b.String()
}

// dominates reports a ≥ b pointwise with a ≠ b (a strictly supersedes b).
func dominates(a, b []uint32) bool {
	strict := false
	for i := range a {
		if a[i] < b[i] {
			return false
		}
		if a[i] > b[i] {
			strict = true
		}
	}
	return strict
}

// MVRegisterState is the state of the multi-value register: the antichain
// of maximal writes (concurrent writes all survive until a later write
// dominates them).
type MVRegisterState struct {
	Entries map[string]mvEntry
}

// Clone implements spec.State.
func (s *MVRegisterState) Clone() spec.State { c := &MVRegisterState{}; c.CopyFrom(s); return c }

// CopyFrom implements spec.State.
func (s *MVRegisterState) CopyFrom(src spec.State) {
	s.Entries = spec.CopyMapWith(s.Entries, src.(*MVRegisterState).Entries, func(into, from mvEntry) mvEntry {
		return mvEntry{V: from.V, VV: append(into.VV[:0], from.VV...)}
	})
}

// Equal implements spec.State.
func (s *MVRegisterState) Equal(o spec.State) bool {
	t, ok := o.(*MVRegisterState)
	if !ok || len(s.Entries) != len(t.Entries) {
		return false
	}
	for k := range s.Entries {
		if _, ok := t.Entries[k]; !ok {
			return false
		}
	}
	return true
}

// MVRegister method IDs.
const (
	MVWrite spec.MethodID = iota
	MVRead
)

// NewMVRegister returns the multi-value register CRDT for nprocs processes
// (Shapiro et al.'s MV-Register, the register that keeps all concurrent
// writes instead of arbitrating like LWW).
//
// write(v, vv…) carries the version vector the writer observed (nprocs
// components). Applying a write inserts it into the state's antichain:
// entries dominated by the new vector are discarded; the new entry is
// discarded if an existing one dominates it. The merge keeps the maximal
// elements of the union of all applied writes, which is order-independent,
// so the method is conflict-free; it is not summarizable (two surviving
// concurrent writes cannot be one write call), making the register
// irreducible conflict-free, like the OR-set.
//
// read() returns the surviving values, sorted, as "v1|v2|…".
func NewMVRegister(nprocs int) *spec.Class {
	cls := &spec.Class{
		Name: "mvregister",
		Methods: []spec.Method{
			MVWrite: {
				Name: "write",
				Kind: spec.Update,
				Apply: func(s spec.State, a spec.Args) {
					st := s.(*MVRegisterState)
					e := mvEntry{V: a.I[0], VV: make([]uint32, nprocs)}
					for i := 0; i < nprocs && i+1 < len(a.I); i++ {
						e.VV[i] = uint32(a.I[i+1])
					}
					// Discard if dominated by any survivor; drop survivors
					// the new write dominates.
					for k, old := range st.Entries {
						if dominates(old.VV, e.VV) {
							return
						}
						if dominates(e.VV, old.VV) {
							delete(st.Entries, k)
						}
					}
					st.Entries[e.key()] = e
				},
			},
			MVRead: {
				Name: "read",
				Kind: spec.Query,
				Eval: func(s spec.State, _ spec.Args) any {
					st := s.(*MVRegisterState)
					vals := make([]int64, 0, len(st.Entries))
					for _, e := range st.Entries {
						vals = append(vals, e.V)
					}
					sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
					parts := make([]string, len(vals))
					for i, v := range vals {
						parts[i] = fmt.Sprint(v)
					}
					return strings.Join(parts, "|")
				},
			},
		},
		NewState: func() spec.State {
			return &MVRegisterState{Entries: make(map[string]mvEntry)}
		},
		Invariant: invariantTrue,
		Rel:       crdtRelations(),
	}
	// The generators keep per-process version-vector counters so generated
	// writes have realistic happened-before structure. The counters belong to
	// the workload drawing the calls, one set per rng, not to the class: a
	// class value driving a second workload gives it the calls a fresh class
	// would.
	counters := map[spec.Rand][]uint32{}
	vvOf := func(r spec.Rand) []uint32 {
		if counters[r] == nil {
			counters[r] = make([]uint32, nprocs)
		}
		return counters[r]
	}
	// write draws p's next write: p's counter moves on, and the writer
	// observes the others' counters, each one behind at random when stale.
	write := func(r spec.Rand, stale bool) spec.Call {
		vv := vvOf(r)
		p := r.Intn(nprocs)
		vv[p]++
		args := make([]int64, 1+nprocs)
		args[0] = int64(r.Intn(100))
		for j := range vv {
			args[j+1] = int64(vv[j])
			if stale && j != p {
				args[j+1] = max(0, args[j+1]-int64(r.Intn(2)))
			}
		}
		return spec.Call{Method: MVWrite, Args: spec.Args{I: args}}
	}
	cls.Gen = spec.Generators{
		State: func(r spec.Rand) spec.State {
			st := cls.NewState().(*MVRegisterState)
			for i, n := 0, r.Intn(4); i < n; i++ {
				cls.ApplyCall(st, write(r, false))
			}
			return st
		},
		Call: func(r spec.Rand, u spec.MethodID) spec.Call {
			if u != MVWrite {
				return spec.Call{Method: MVRead}
			}
			return write(r, true)
		},
	}
	return markTrivial(cls)
}
