// Package fifo is the queue the runtime's buffers share: in a replica (core),
// its client calls waiting for their issue, query or accept item and the
// lengths of the calls its F and L buffers hold; in a consensus instance
// (mu), each follower's unacknowledged round records; the records a node's
// handoff holds for their delivery item, broadcast messages and decided Mu
// entries alike; and a ring sender's posts in flight with the completions
// they carry.
package fifo

// Queue is a first-in-first-out queue over a circular array. The array grows
// by doubling and is otherwise reused, so a queue that stays under its
// high-water mark allocates nothing however many items pass through it. A
// slot is zeroed as its item leaves: the queue keeps nothing a popped item
// referenced alive. The zero Queue is empty and ready to use.
type Queue[T any] struct {
	buf  []T
	head int // index of the oldest item
	n    int // items queued
}

// Len returns the number of items queued.
func (q *Queue[T]) Len() int { return q.n }

// index maps the i-th oldest item, 0 ≤ i ≤ Len, to its slot.
func (q *Queue[T]) index(i int) int {
	if i += q.head; i >= len(q.buf) {
		i -= len(q.buf)
	}
	return i
}

// Push queues v behind everything already there.
func (q *Queue[T]) Push(v T) {
	if q.n == len(q.buf) {
		buf := make([]T, max(2*len(q.buf), 4))
		k := copy(buf, q.buf[q.head:])
		copy(buf[k:], q.buf[:q.head])
		q.buf, q.head = buf, 0
	}
	q.buf[q.index(q.n)] = v
	q.n++
}

// Head returns the oldest item without removing it. The queue must not be
// empty.
func (q *Queue[T]) Head() T {
	if q.n == 0 {
		panic("fifo: Head of an empty queue")
	}
	return q.buf[q.head]
}

// Pop removes and returns the oldest item. The queue must not be empty.
func (q *Queue[T]) Pop() T {
	v := q.Head()
	q.clear(q.head)
	q.head = q.index(1)
	q.n--
	return v
}

// PopBack removes and returns the newest item: what a writer takes back, or
// a deliberately wrong consumer takes first. The queue must not be empty.
func (q *Queue[T]) PopBack() T {
	if q.n == 0 {
		panic("fifo: PopBack of an empty queue")
	}
	q.n--
	i := q.index(q.n)
	v := q.buf[i]
	q.clear(i)
	return v
}

func (q *Queue[T]) clear(i int) {
	var zero T
	q.buf[i] = zero
}
