package rdma

import (
	"errors"
	"strings"
	"sync"
	"testing"

	"hamband/internal/sim"
)

func arenaFixture(t *testing.T, budget int) (*Node, *Arena) {
	t.Helper()
	eng := sim.NewEngine(1)
	fab := NewFabric(eng, 2, DefaultLatency())
	n := fab.Node(0)
	return n, NewArena(n.Register("arena", budget))
}

func TestArenaExhaustionTypedError(t *testing.T) {
	_, a := arenaFixture(t, 1024)
	if _, err := a.Carve("fits", 1000); err != nil {
		t.Fatalf("carve fits: %v", err)
	}
	_, err := a.Carve("overflow", 100)
	if err == nil {
		t.Fatal("carve past budget succeeded")
	}
	if !errors.Is(err, ErrArenaExhausted) {
		t.Fatalf("error %v does not wrap ErrArenaExhausted", err)
	}
	if a.Used() != 1000 || a.Available() != 24 {
		t.Fatalf("used=%d available=%d after failed carve", a.Used(), a.Available())
	}
}

func TestArenaReleaseReuseAndCoalesce(t *testing.T) {
	n, a := arenaFixture(t, 300)
	for _, name := range []string{"a", "b", "c"} {
		r, err := a.Carve(name, 100)
		if err != nil {
			t.Fatalf("carve %s: %v", name, err)
		}
		for i := range r.Bytes() {
			r.Bytes()[i] = 0xAB
		}
		n.regions[name] = r
	}
	if _, err := a.Carve("d", 1); !errors.Is(err, ErrArenaExhausted) {
		t.Fatalf("full arena carve: %v", err)
	}
	// Free the middle span, then both ends; spans must coalesce back into
	// one 300-byte run so a full-size carve succeeds again.
	n.Unregister("b")
	n.Unregister("a")
	n.Unregister("c")
	if a.Used() != 0 {
		t.Fatalf("used=%d after releasing everything", a.Used())
	}
	if got := a.Largest(); got != 300 {
		t.Fatalf("largest=%d after full release; spans not coalesced", got)
	}
	r, err := a.Carve("whole", 300)
	if err != nil {
		t.Fatalf("re-carve whole arena: %v", err)
	}
	for i, b := range r.Bytes() {
		if b != 0 {
			t.Fatalf("byte %d = %#x: released memory not zeroed", i, b)
		}
	}
}

func TestArenaConcurrentCarveReleaseBudget(t *testing.T) {
	_, a := arenaFixture(t, 64*1024)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			name := string(rune('a' + g))
			for i := 0; i < 200; i++ {
				r, err := a.Carve(name, 4096)
				if err != nil {
					if !errors.Is(err, ErrArenaExhausted) {
						t.Errorf("goroutine %d: %v", g, err)
						return
					}
					continue
				}
				if len(r.Bytes()) != 4096 {
					t.Errorf("goroutine %d: carved %d bytes", g, len(r.Bytes()))
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

func TestRegisterRoutesIntoArena(t *testing.T) {
	n, a := arenaFixture(t, 4096)
	n.Route(func(name string) bool { return strings.HasPrefix(name, "shard/") }, a)

	routed := n.Register("shard/ring", 1024)
	if routed.arena != a {
		t.Fatal("routed region not carved from arena")
	}
	if a.Used() != 1024 {
		t.Fatalf("arena used=%d after routed register", a.Used())
	}
	direct := n.Register("plain", 1024)
	if direct.arena != nil {
		t.Fatal("non-matching register went through the arena")
	}
	if a.Used() != 1024 {
		t.Fatalf("arena used=%d after direct register", a.Used())
	}
	if got := n.UnregisterMatch(func(name string) bool { return strings.HasPrefix(name, "shard/") }); got != 1 {
		t.Fatalf("UnregisterMatch removed %d regions", got)
	}
	if n.Region("shard/ring") != nil {
		t.Fatal("region still resolvable after unregister")
	}
	if a.Used() != 0 {
		t.Fatalf("arena used=%d after unregister", a.Used())
	}
}

// A verb targeting a carved sub-region behaves exactly like one targeting a
// first-class registration, and an unregistered name fails with ErrNoRegion
// (the rkey-invalidated case).
func TestArenaRegionServesVerbs(t *testing.T) {
	eng := sim.NewEngine(1)
	fab := NewFabric(eng, 2, DefaultLatency())
	target := fab.Node(1)
	a := NewArena(target.Register("arena", 4096))
	target.Route(func(name string) bool { return strings.HasPrefix(name, "sub") }, a)
	sub := target.Register("sub0", 64)
	sub.AllowWrite(0)

	done := false
	fab.Node(0).QP(1).Write("sub0", 8, []byte("hello"), func(err error) {
		if err != nil {
			t.Errorf("write to carved region: %v", err)
		}
		done = true
	})
	eng.Run()
	if !done {
		t.Fatal("write completion never delivered")
	}
	if got := string(sub.Bytes()[8:13]); got != "hello" {
		t.Fatalf("carved region holds %q", got)
	}
	// The parent buffer aliases the carve.
	parent := target.Region("arena")
	if got := string(parent.Bytes()[8:13]); got != "hello" {
		t.Fatalf("parent region holds %q — carve does not alias parent memory", got)
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
	src.CPU.Exec(0, func() {
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
	src.CPU.Exec(0, func() {
		co.Enqueue(1, "only", WR{Region: "slots", Off: 0, Data: []byte{1}})
		co.Enqueue(1, "only", WR{Region: "slots", Off: 8, Data: []byte{2}})
	})
	eng.Run()
	st := co.Stats()
	if st.Chains != 1 || st.CrossChains != 0 || st.CrossWRs != 0 {
		t.Fatalf("stats %+v: single-stream chain miscounted as cross", st)
	}
}
