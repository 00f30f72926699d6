package crdt

import (
	"slices"
	"strings"

	"hamband/internal/spec"
)

// lwwCell is one key's register: the value and the (timestamp, value)
// winner metadata (ties break to the larger value, as in the LWW register).
type lwwCell struct {
	V  string
	TS int64
}

func (c lwwCell) beats(o lwwCell) bool {
	return c.TS > o.TS || (c.TS == o.TS && c.V > o.V)
}

// LWWMapState is the state of the last-writer-wins map: a dictionary of
// independent LWW registers keyed by strings (a replicated configuration
// registry).
type LWWMapState struct {
	Cells map[string]lwwCell
}

// Clone implements spec.State.
func (s *LWWMapState) Clone() spec.State { c := &LWWMapState{}; c.CopyFrom(s); return c }

// CopyFrom implements spec.State.
func (s *LWWMapState) CopyFrom(src spec.State) {
	s.Cells = spec.CopyMap(s.Cells, src.(*LWWMapState).Cells)
}

// Equal implements spec.State.
func (s *LWWMapState) Equal(o spec.State) bool {
	t, ok := o.(*LWWMapState)
	if !ok || len(s.Cells) != len(t.Cells) {
		return false
	}
	for k, v := range s.Cells {
		if t.Cells[k] != v {
			return false
		}
	}
	return true
}

// LWWMap method IDs.
const (
	LWWMapSet spec.MethodID = iota
	LWWMapGet
	LWWMapLen
)

// lwwEntry is one (key, cell) pair of a set call.
type lwwEntry struct {
	K string
	C lwwCell
}

// lwwMapDecode appends a set call's entries, read from its parallel vectors,
// to out: Args.S holds key1,val1,key2,val2,…; Args.I holds one timestamp per
// entry.
func lwwMapDecode(out []lwwEntry, a spec.Args) []lwwEntry {
	n := len(a.I)
	for i := 0; i < n && 2*i+1 < len(a.S); i++ {
		out = append(out, lwwEntry{K: a.S[2*i], C: lwwCell{V: a.S[2*i+1], TS: a.I[i]}})
	}
	return out
}

// lwwMapWinners sorts es by key in place and keeps each key's winning cell.
func lwwMapWinners(es []lwwEntry) []lwwEntry {
	slices.SortStableFunc(es, func(x, y lwwEntry) int { return strings.Compare(x.K, y.K) })
	out := es[:0]
	for _, e := range es {
		if n := len(out); n > 0 && out[n-1].K == e.K {
			if e.C.beats(out[n-1].C) {
				out[n-1].C = e.C
			}
			continue
		}
		out = append(out, e)
	}
	return out
}

// lwwMapCanonical reports whether a is laid out as Summarize writes it: one
// (key, value) pair per timestamp, keys strictly increasing.
func lwwMapCanonical(a spec.Args) bool {
	if len(a.S) != 2*len(a.I) {
		return false
	}
	for i := 1; i < len(a.I); i++ {
		if a.S[2*i-2] >= a.S[2*i] {
			return false
		}
	}
	return true
}

// lwwMapSummarize merges the entries of second into first, the accumulated
// summary, under Summarize's contract: canonical by construction (see
// lwwMapCanonical), so one pass over it finds what second changes. A winning
// entry overwrites its key's cell in place and new keys are inserted into
// first's vectors, which grow by doubling when full; second is only read. A
// first in any other layout (a raw client call) is rebuilt canonical first.
func lwwMapSummarize(first, second spec.Args) spec.Args {
	if !lwwMapCanonical(first) {
		first = lwwMapSummarize(spec.Args{}, first)
	}
	var small [4]lwwEntry // a client call's entries fit: no allocation to sort them
	add := lwwMapWinners(lwwMapDecode(small[:0], second))
	n := len(first.I)

	missing := 0
	i := 0
	for _, e := range add {
		for i < n && first.S[2*i] < e.K {
			i++
		}
		switch {
		case i == n || first.S[2*i] != e.K:
			missing++
		case e.C.beats(lwwCell{V: first.S[2*i+1], TS: first.I[i]}):
			first.S[2*i+1], first.I[i] = e.C.V, e.C.TS
		}
	}
	if missing == 0 {
		return first
	}
	m := n + missing
	if m > cap(first.I) || 2*m > cap(first.S) {
		c := max(m, 2*cap(first.I))
		first.I = append(make([]int64, 0, c), first.I...)
		first.S = append(make([]string, 0, 2*c), first.S...)
	}
	// Merge the new keys in from the back, as UnionSorted does.
	s, ts := first.S[:2*m], first.I[:m]
	i, k := n-1, m-1
	for j := len(add) - 1; j >= 0; {
		switch e := add[j]; {
		case i >= 0 && first.S[2*i] > e.K:
			s[2*k], s[2*k+1], ts[k] = first.S[2*i], first.S[2*i+1], first.I[i]
			i--
		case i >= 0 && first.S[2*i] == e.K:
			j-- // an existing key: settled in place above
			continue
		default:
			s[2*k], s[2*k+1], ts[k] = e.K, e.C.V, e.C.TS
			j--
		}
		k--
	}
	return spec.Args{S: s, I: ts}
}

// NewLWWMap returns a last-writer-wins map with string keys and values —
// per-key LWW registers under one object (a replicated configuration
// registry). set takes a *set of entries*, so two set calls summarize into
// one (the per-key winners), making the method reducible: a whole burst of
// configuration updates travels as one remote write. It is also the
// bundled data type exercising string arguments through the wire codec.
//
//   - set(entries…) — each entry is (key, value, timestamp);
//   - get(key) — the current value ("" when absent);
//   - size() — number of keys.
func NewLWWMap() *spec.Class {
	cls := &spec.Class{
		Name: "lwwmap",
		Methods: []spec.Method{
			LWWMapSet: {
				Name: "set",
				Kind: spec.Update,
				Apply: func(s spec.State, a spec.Args) {
					st := s.(*LWWMapState)
					for _, e := range lwwMapDecode(make([]lwwEntry, 0, len(a.I)), a) {
						if cur, ok := st.Cells[e.K]; !ok || e.C.beats(cur) {
							st.Cells[e.K] = e.C
						}
					}
				},
			},
			LWWMapGet: {
				Name: "get",
				Kind: spec.Query,
				Eval: func(s spec.State, a spec.Args) any {
					return s.(*LWWMapState).Cells[a.S[0]].V
				},
			},
			LWWMapLen: {
				Name: "size",
				Kind: spec.Query,
				Eval: func(s spec.State, _ spec.Args) any {
					return int64(len(s.(*LWWMapState).Cells))
				},
			},
		},
		NewState:  func() spec.State { return &LWWMapState{Cells: make(map[string]lwwCell)} },
		Invariant: invariantTrue,
		Rel:       crdtRelations(),
		SumGroups: []spec.SumGroup{{
			Name:    "set",
			Methods: []spec.MethodID{LWWMapSet},
			Identity: func() spec.Call {
				return spec.Call{Method: LWWMapSet}
			},
			Summarize: func(a, b spec.Call) spec.Call {
				return spec.Call{Method: LWWMapSet, Args: lwwMapSummarize(a.Args, b.Args)}
			},
		}},
	}
	keyNames := []string{"region", "quota", "owner", "mode", "limit", "tier", "zone", "plan"}
	cls.Gen = spec.Generators{
		State: func(r spec.Rand) spec.State {
			st := &LWWMapState{Cells: make(map[string]lwwCell)}
			for i, n := 0, r.Intn(5); i < n; i++ {
				st.Cells[keyNames[r.Intn(len(keyNames))]] = lwwCell{
					V:  keyNames[r.Intn(len(keyNames))],
					TS: int64(1 + r.Intn(50)),
				}
			}
			return st
		},
		Call: func(r spec.Rand, u spec.MethodID) spec.Call {
			switch u {
			case LWWMapSet:
				var args spec.Args
				for i, n := 0, 1+r.Intn(3); i < n; i++ {
					args.S = append(args.S,
						keyNames[r.Intn(len(keyNames))], keyNames[r.Intn(len(keyNames))])
					args.I = append(args.I, int64(1+r.Intn(100)))
				}
				return spec.Call{Method: LWWMapSet, Args: args}
			case LWWMapGet:
				return spec.Call{Method: LWWMapGet, Args: spec.ArgsS(keyNames[r.Intn(len(keyNames))])}
			default:
				return spec.Call{Method: LWWMapLen}
			}
		},
	}
	return markTrivial(cls)
}
