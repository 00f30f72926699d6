package rdma

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"hamband/internal/sim"
)

func TestArenaExhaustionTypedError(t *testing.T) {
	a := NewArena(1024)
	if err := a.Carve("fits", 1000); err != nil {
		t.Fatalf("carve fits: %v", err)
	}
	err := a.Carve("overflow", 100)
	if err == nil {
		t.Fatal("carve past budget succeeded")
	}
	if !errors.Is(err, ErrArenaExhausted) {
		t.Fatalf("error %v does not wrap ErrArenaExhausted", err)
	}
	if a.Used() != 1000 || a.Available() != 24 || a.Largest() != 24 {
		t.Fatalf("used=%d available=%d largest=%d after failed carve", a.Used(), a.Available(), a.Largest())
	}
}

func TestArenaReleaseReuseAndCoalesce(t *testing.T) {
	n := NewFabric(sim.NewEngine(1), 2, DefaultLatency()).Node(0)
	a := NewArena(300)
	all := func(string) bool { return true }
	for _, name := range []string{"a", "b", "c"} {
		r := n.Register(name, 100)
		for i := range r.Bytes() {
			r.Bytes()[i] = 0xAB
		}
	}
	if err := n.Charge(all, a); err != nil {
		t.Fatalf("charge: %v", err)
	}
	if err := a.Carve("d", 1); !errors.Is(err, ErrArenaExhausted) {
		t.Fatalf("full arena carve: %v", err)
	}
	// Free the middle span, then both ends; spans must coalesce back into
	// one 300-byte run so a full-size carve succeeds again.
	n.Unregister("b")
	if a.Used() != 200 || a.Largest() != 100 {
		t.Fatalf("used=%d largest=%d after releasing the middle span", a.Used(), a.Largest())
	}
	n.Unregister("a")
	n.Unregister("c")
	if a.Used() != 0 {
		t.Fatalf("used=%d after releasing everything", a.Used())
	}
	if got := a.Largest(); got != 300 {
		t.Fatalf("largest=%d after full release; spans not coalesced", got)
	}
	r := n.Register("whole", 300)
	if err := n.Charge(all, a); err != nil {
		t.Fatalf("charge after full release: %v", err)
	}
	for i, b := range r.Bytes() {
		if b != 0 {
			t.Fatalf("byte %d = %#x: the new tenant sees a previous one's memory", i, b)
		}
	}
}

func TestArenaConcurrentCarveReleaseBudget(t *testing.T) {
	a := NewArena(64 * 1024)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			name := string(rune('a' + g))
			for i := 0; i < 200; i++ {
				if err := a.Carve(name, 4096); err != nil {
					if !errors.Is(err, ErrArenaExhausted) {
						t.Errorf("goroutine %d: %v", g, err)
						return
					}
					continue
				}
				if used := a.Used(); used < 4096 || used > a.Size() {
					t.Errorf("goroutine %d: used=%d while holding a 4096-byte carve", g, used)
				}
				a.release(name)
			}
		}(g)
	}
	wg.Wait()
	if a.Used() != 0 {
		t.Fatalf("used=%d after all goroutines released", a.Used())
	}
	if a.Available() != 64*1024 {
		t.Fatalf("available=%d, want full budget back", a.Available())
	}
}

func TestChargeCarvesMatchingRegionsIntoArena(t *testing.T) {
	eng := sim.NewEngine(1)
	n := NewFabric(eng, 2, DefaultLatency()).Node(0)
	a := NewArena(4096)
	shard := func(name string) bool { return strings.HasPrefix(name, "shard/") }

	charged := n.Register("shard/ring", 1024)
	direct := n.Register("plain", 1024)
	if a.Used() != 0 {
		t.Fatalf("arena used=%d before any charge: Register carved", a.Used())
	}
	if err := n.Charge(shard, a); err != nil {
		t.Fatalf("charge: %v", err)
	}
	if charged.arena != a || charged.owner != n {
		t.Fatal("matching region not charged to the arena, or not owned by its node")
	}
	if direct.arena != nil {
		t.Fatal("non-matching region was charged to the arena")
	}
	if a.Used() != 1024 {
		t.Fatalf("arena used=%d after charge, want 1024", a.Used())
	}
	if got := n.UnregisterMatch(shard); got != 1 {
		t.Fatalf("UnregisterMatch removed %d regions", got)
	}
	if n.Region("shard/ring") != nil {
		t.Fatal("region still resolvable after unregister")
	}
	if a.Used() != 0 {
		t.Fatalf("arena used=%d after unregister", a.Used())
	}
}

// A Charge that does not fit carves nothing: the spans it carved before the
// refusal go back to the arena and their regions stay uncharged, so a later
// Charge into a larger arena takes all of them.
func TestArenaChargeRefusalRollsBack(t *testing.T) {
	n := NewFabric(sim.NewEngine(1), 2, DefaultLatency()).Node(0)
	all := func(string) bool { return true }
	for _, name := range []string{"a", "b", "c"} {
		n.Register(name, 100)
	}
	small := NewArena(250)
	if err := n.Charge(all, small); !errors.Is(err, ErrArenaExhausted) {
		t.Fatalf("charging 300 B into 250 B: %v, want ErrArenaExhausted", err)
	}
	if small.Used() != 0 || small.Largest() != 250 {
		t.Fatalf("used=%d largest=%d after a refused charge, want 0/250", small.Used(), small.Largest())
	}
	for _, name := range []string{"a", "b", "c"} {
		if n.Region(name).arena != nil {
			t.Fatalf("region %q left charged by a refused charge", name)
		}
	}
	big := NewArena(300)
	if err := n.Charge(all, big); err != nil {
		t.Fatalf("charge after the refusal: %v", err)
	}
	if big.Used() != 300 {
		t.Fatalf("used=%d, want 300", big.Used())
	}
}

// Charge carves in name order, not registration order: two nodes that
// registered the same regions in opposite orders get the same placement.
func TestArenaChargeInNameOrder(t *testing.T) {
	fab := NewFabric(sim.NewEngine(1), 2, DefaultLatency())
	sizes := map[string]int{"a": 64, "b": 128, "c": 32}
	all := func(string) bool { return true }
	var arenas []*Arena
	for i, order := range [][]string{{"a", "b", "c"}, {"c", "b", "a"}} {
		n := fab.Node(NodeID(i))
		for _, name := range order {
			n.Register(name, sizes[name])
		}
		a := NewArena(1024)
		if err := n.Charge(all, a); err != nil {
			t.Fatal(err)
		}
		arenas = append(arenas, a)
	}
	want := map[string]span{"a": {0, 64}, "b": {64, 128}, "c": {192, 32}}
	for i, a := range arenas {
		for name, sp := range want {
			if got := a.allocs[name]; got != sp {
				t.Fatalf("node %d: %q placed at %+v, want %+v", i, name, got, sp)
			}
		}
	}
}

// A verb targeting a carved sub-region behaves exactly like one targeting a
// first-class registration: the region holds exactly its carved bytes, bounds
// are its own (a write past its end fails even though the budget continues),
// a sibling carve next to it in the budget is untouched, and an unregistered
// name fails with ErrNoRegion (the rkey-invalidated case).
func TestArenaRegionServesVerbs(t *testing.T) {
	eng := sim.NewEngine(1)
	fab := NewFabric(eng, 2, DefaultLatency())
	target := fab.Node(1)
	a := NewArena(4096)
	sub := target.Register("sub0", 64)
	sibling := target.Register("sub1", 64)
	if err := target.Charge(func(name string) bool { return strings.HasPrefix(name, "sub") }, a); err != nil {
		t.Fatal(err)
	}
	sub.AllowWrite(0)
	sibling.AllowWrite(0)
	if b := sub.Bytes(); len(b) != 64 || cap(b) != 64 {
		t.Fatalf("carved region has len %d cap %d, want 64/64", len(b), cap(b))
	}

	write := func(off int, data string) error {
		t.Helper()
		done, got := false, error(nil)
		fab.Node(0).QP(1).Write("sub0", off, []byte(data), func(err error) { done, got = true, err })
		eng.Run()
		if !done {
			t.Fatal("write completion never delivered")
		}
		return got
	}
	if err := write(8, "hello"); err != nil {
		t.Fatalf("write to carved region: %v", err)
	}
	if got := string(sub.Bytes()[8:13]); got != "hello" {
		t.Fatalf("carved region holds %q", got)
	}
	if err := write(60, "hello"); !errors.Is(err, ErrOutOfBounds) {
		t.Fatalf("write past the carve's end: %v, want ErrOutOfBounds", err)
	}
	for i, b := range sibling.Bytes() {
		if b != 0 {
			t.Fatalf("sibling carve byte %d = %#x: a write to sub0 reached it", i, b)
		}
	}

	target.Unregister("sub0")
	var gotErr error
	fab.Node(0).QP(1).Write("sub0", 8, []byte("again"), func(err error) { gotErr = err })
	eng.Run()
	if !errors.Is(gotErr, ErrNoRegion) {
		t.Fatalf("write after unregister: %v, want ErrNoRegion", gotErr)
	}
}

func TestCoalescerCrossStreamChain(t *testing.T) {
	eng := sim.NewEngine(1)
	fab := NewFabric(eng, 2, DefaultLatency())
	src, dst := fab.Node(0), fab.Node(1)
	reg := dst.Register("slots", 1024)
	reg.AllowAllWrites()

	co := NewCoalescer(src)
	src.CPU.Submit(0, func() {
		co.Enqueue(1, "shard-a", WR{Region: "slots", Off: 0, Data: []byte{1, 2, 3, 4}})
		co.Enqueue(1, "shard-b", WR{Region: "slots", Off: 16, Data: []byte{5, 6, 7, 8}})
		co.Enqueue(1, "shard-a", WR{Region: "slots", Off: 32, Data: []byte{9, 10, 11, 12}})
	})
	eng.Run()

	st := co.Stats()
	if st.Flushes != 1 || st.Chains != 1 {
		t.Fatalf("flushes=%d chains=%d, want 1/1", st.Flushes, st.Chains)
	}
	if st.CrossChains != 1 || st.CrossWRs != 3 {
		t.Fatalf("cross chains=%d wrs=%d, want 1/3", st.CrossChains, st.CrossWRs)
	}
	if fs := fab.Stats(); fs.Chains != 1 || fs.ChainedWRs != 2 {
		t.Fatalf("fabric chains=%d chainedWRs=%d — WRs did not share a doorbell", fs.Chains, fs.ChainedWRs)
	}
	for off, want := range map[int]byte{0: 1, 16: 5, 32: 9} {
		if reg.Bytes()[off] != want {
			t.Fatalf("offset %d = %d, want %d", off, reg.Bytes()[off], want)
		}
	}
}

func TestCoalescerSingleStreamNotCross(t *testing.T) {
	eng := sim.NewEngine(1)
	fab := NewFabric(eng, 2, DefaultLatency())
	src, dst := fab.Node(0), fab.Node(1)
	dst.Register("slots", 1024).AllowAllWrites()

	co := NewCoalescer(src)
	src.CPU.Submit(0, func() {
		co.Enqueue(1, "only", WR{Region: "slots", Off: 0, Data: []byte{1}})
		co.Enqueue(1, "only", WR{Region: "slots", Off: 8, Data: []byte{2}})
	})
	eng.Run()
	st := co.Stats()
	if st.Chains != 1 || st.CrossChains != 0 || st.CrossWRs != 0 {
		t.Fatalf("stats %+v: single-stream chain miscounted as cross", st)
	}
}
