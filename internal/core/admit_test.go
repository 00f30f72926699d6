package core

import (
	"testing"

	"hamband/internal/codec"
	"hamband/internal/crdt"
	"hamband/internal/rdma"
	"hamband/internal/schema"
	"hamband/internal/sim"
	"hamband/internal/spec"
)

// appliedTotal sums r's applied map over every process and method.
func appliedTotal(r *Replica) (n uint32) {
	for _, row := range r.applied {
		for _, v := range row {
			n += v
		}
	}
	return n
}

// TestMalformedCallsAreDropped: a call whose bytes decode inside an intact
// frame but that names no method of its buffer's category, a process other
// than the one that wrote it, or a dependency record of the wrong length is
// dropped with what follows it. Nothing of it queues or applies, and nothing
// panics: before admission, method 99 indexed past the class's methods in the
// apply pump, process 7 past the applied map, and a record of the wrong
// length was applied or read past its end. The F path is onFreeDelivery, the
// L path the leader's Transform and onConfDelivery; each table has a control
// row that must be admitted, so a path that drops everything fails.
func TestMalformedCallsAreDropped(t *testing.T) {
	add := func(seq uint64) spec.Call {
		return spec.Call{Method: crdt.ORSetAdd, Args: spec.ArgsI(int64(seq), crdt.Tag(0, seq)), Proc: 0, Seq: seq}
	}
	t.Run("free", func(t *testing.T) {
		for _, tc := range []struct {
			name string
			c    spec.Call
			d    spec.DepVec
			ok   bool
		}{
			{"well-formed", add(2), nil, true},
			{"unknown method", spec.Call{Method: 99, Proc: 0, Seq: 2}, nil, false},
			{"query method", spec.Call{Method: crdt.ORSetContains, Args: spec.ArgsI(2), Proc: 0, Seq: 2}, nil, false},
			{"unknown process", spec.Call{Method: crdt.ORSetAdd, Args: spec.ArgsI(2, crdt.Tag(7, 2)), Proc: 7, Seq: 2}, nil, false},
			{"another process", spec.Call{Method: crdt.ORSetAdd, Args: spec.ArgsI(2, crdt.Tag(1, 2)), Proc: 1, Seq: 2}, nil, false},
			{"dependency record too long", spec.Call{Method: crdt.ORSetRemove, Args: spec.ArgsI(1), Proc: 0, Seq: 2}, spec.DepVec{0}, false},
		} {
			t.Run(tc.name, func(t *testing.T) {
				h := newHarness(t, crdt.NewORSet(), 2, 78, nil)
				r := h.cluster.Replica(1)
				batch := codec.AppendCall(codec.AppendCall(codec.AppendCall(nil, add(1), nil), tc.c, tc.d), add(3), nil)
				h.eng.At(h.eng.Now(), func() { r.onFreeDelivery(0, 1, batch) })
				h.eng.RunFor(100 * sim.Microsecond)
				want := uint32(1) // the call ahead of a dropped one
				if tc.ok {
					want = 3
				}
				if got := appliedTotal(r); got != want || r.fQueues[0].Len() != 0 || r.fQueues[1].Len() != 0 {
					t.Fatalf("p1 applied %d calls and buffers %d, want %d applied and none buffered",
						got, r.fQueues[0].Len()+r.fQueues[1].Len(), want)
				}
			})
		}
	})
	t.Run("conf", func(t *testing.T) {
		const n, g, origin = 3, 0, rdma.NodeID(1) // group 0's leader is p0; the calls come from p1
		account, movie := crdt.NewAccount, schema.NewMovie
		withdraw := func(p spec.ProcID) spec.Call {
			return spec.Call{Method: crdt.AccountWithdraw, Args: spec.ArgsI(0), Proc: p, Seq: 1} // permissible on an empty account
		}
		// cells is the dependency record's length, -1 for the right one: the
		// method's projection over every process once ordered, none in a
		// request at the leader.
		for _, tc := range []struct {
			name  string
			cls   func() *spec.Class
			c     spec.Call
			cells int
			tail  []byte
			ok    bool
		}{
			{"well-formed", account, withdraw(1), -1, nil, true},
			{"unknown method", account, spec.Call{Method: 99, Proc: 1, Seq: 1}, -1, nil, false},
			{"reducible method", account, spec.Call{Method: crdt.AccountDeposit, Args: spec.ArgsI(1), Proc: 1, Seq: 1}, -1, nil, false},
			{"query method", account, spec.Call{Method: crdt.AccountBalance, Proc: 1, Seq: 1}, -1, nil, false},
			{"another group's method", movie, spec.Call{Method: schema.MovieAddMovie, Args: spec.ArgsI(1), Proc: 1, Seq: 1}, -1, nil, false},
			{"unknown process", account, withdraw(7), -1, nil, false},
			{"another process", account, withdraw(2), -1, nil, false},
			{"dependency record too short", account, withdraw(1), 1, nil, false},
			{"bytes after the call", account, withdraw(1), -1, []byte{0}, false},
		} {
			t.Run(tc.name, func(t *testing.T) {
				h := newHarness(t, tc.cls(), n, 79, nil)
				entry := func(r *Replica, ordered bool) []byte {
					cells := tc.cells
					if cells < 0 {
						cells = 0
						if u := int(tc.c.Method); ordered && u < len(r.an.DependsOn) {
							cells = n * len(r.an.DependsOn[u])
						}
					}
					return append(encodeConf(nil, tc.c, make(spec.DepVec, cells)), tc.tail...)
				}
				// The leader's Transform must order a malformed request as an
				// entry no replica buffers.
				leader, follower := h.cluster.Replica(0), h.cluster.Replica(2)
				var ordered []byte
				h.eng.At(h.eng.Now(), func() {
					ordered = append([]byte(nil), leader.leaderTransform(g, origin, entry(leader, false))...)
					if !tc.ok {
						leader.onConfDelivery(g, origin, ordered)
					}
				})
				h.eng.RunFor(100 * sim.Microsecond)
				if tc.ok {
					if flags, _, err := decodeConf(&leader.callRec, ordered); err != nil || flags != 0 || !leader.admits(&leader.callRec, g, origin, true) {
						t.Fatalf("the leader ordered a well-formed request as %x (%v), which is rejected or its L buffer would not admit", ordered, err)
					}
				} else if got := leader.lQueues[g].Len() + int(appliedTotal(leader)); leader.spec != nil || len(ordered) != 0 || got != 0 {
					t.Fatalf("the leader ordered the request as %d bytes, forked its speculative view (%v) and buffered or applied %d calls; want an empty entry and nothing",
						len(ordered), leader.spec != nil, got)
				}
				// An entry ordered as sent reaches a follower's delivery.
				h.eng.At(h.eng.Now(), func() { follower.onConfDelivery(g, origin, entry(follower, true)) })
				h.eng.RunFor(100 * sim.Microsecond)
				want := 0
				if tc.ok {
					want = 1
				}
				if got := follower.lQueues[g].Len() + int(appliedTotal(follower)); got != want {
					t.Fatalf("p2 buffered or applied %d calls, want %d", got, want)
				}
			})
		}
	})
}
