package rdma

import (
	"errors"
	"fmt"
	"sync"
)

// ErrArenaExhausted is returned by Arena.Carve when the requested size does
// not fit in any free span of the budget. It is a typed, recoverable error:
// multi-object stores turn it into an admission decision ("this shard does
// not fit the ring-memory budget") instead of a crash.
var ErrArenaExhausted = errors.New("rdma: arena exhausted")

// span is one contiguous byte range of the arena's budget.
type span struct{ off, size int }

// Arena is one node's registration budget, sub-allocated by name.
//
// Real RDMA deployments register a few large memory regions at startup
// (registration pins pages and programs the NIC's MTT, which is slow and a
// scarce resource) and carve per-object rings and slots out of them. Arena
// models that discipline as bookkeeping: the budget is the modelled
// registration, an address space [0, size) that is never allocated, and every
// Carve reserves a span of it. Node.Charge carves one span per registered
// region, of exactly the region's size, so the bytes a tenant holds are the
// bytes carved, while admission, fragmentation and reuse follow the spans.
//
// Allocation is first-fit over a sorted, coalesced free list. Release merges
// the span back; the next tenant gets fresh memory, so it never observes a
// previous shard's bytes. All operations are mutex-guarded so stores can admit
// and close shards concurrently against one budget.
type Arena struct {
	mu     sync.Mutex
	size   int
	used   int    // bytes carved: the sum of allocs' sizes
	free   []span // sorted by offset, adjacent spans coalesced
	allocs map[string]span
}

// NewArena returns an arena over a budget of size bytes, all of it free.
func NewArena(size int) *Arena {
	return &Arena{
		size:   size,
		free:   []span{{0, size}},
		allocs: make(map[string]span),
	}
}

// Size returns the arena's total capacity in bytes.
func (a *Arena) Size() int { return a.size }

// Used returns the bytes currently carved out.
func (a *Arena) Used() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.used
}

// Available returns the bytes not currently carved out. Fragmentation can
// make a Carve of Available() bytes fail; Largest reports the worst case.
func (a *Arena) Available() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.size - a.used
}

// Largest returns the biggest single allocation that can currently succeed.
func (a *Arena) Largest() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.largest()
}

func (a *Arena) largest() int {
	max := 0
	for _, s := range a.free {
		if s.size > max {
			max = s.size
		}
	}
	return max
}

// Carve reserves a span of the given size under name; Node.Charge carves
// one for each region it charges. Exhaustion returns an error
// wrapping ErrArenaExhausted; a duplicate name or non-positive size is a
// programming error and panics, matching Node.Register.
func (a *Arena) Carve(name string, size int) error {
	if size <= 0 {
		panic(fmt.Sprintf("rdma: arena carve %q with size %d", name, size))
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if _, ok := a.allocs[name]; ok {
		panic(fmt.Sprintf("rdma: arena sub-region %q already carved", name))
	}
	for i, s := range a.free {
		if s.size < size {
			continue
		}
		if s.size == size {
			a.free = append(a.free[:i], a.free[i+1:]...)
		} else {
			a.free[i] = span{s.off + size, s.size - size}
		}
		a.allocs[name] = span{s.off, size}
		a.used += size
		return nil
	}
	return fmt.Errorf("rdma: carving %q (%d B, %d B free, largest span %d B): %w",
		name, size, a.size-a.used, a.largest(), ErrArenaExhausted)
}

// release returns name's span to the free list. Unknown names are a no-op
// (release is idempotent).
func (a *Arena) release(name string) {
	a.mu.Lock()
	defer a.mu.Unlock()
	s, ok := a.allocs[name]
	if !ok {
		return
	}
	delete(a.allocs, name)
	a.used -= s.size
	// Insert sorted by offset, then coalesce with the neighbors.
	at := len(a.free)
	for i, f := range a.free {
		if f.off > s.off {
			at = i
			break
		}
	}
	a.free = append(a.free, span{})
	copy(a.free[at+1:], a.free[at:])
	a.free[at] = s
	a.coalesce()
}

// coalesce merges adjacent free spans.
func (a *Arena) coalesce() {
	out := a.free[:0]
	for _, s := range a.free {
		if n := len(out); n > 0 && out[n-1].off+out[n-1].size == s.off {
			out[n-1].size += s.size
			continue
		}
		out = append(out, s)
	}
	a.free = out
}
