package rdma

import "hamband/internal/sim"

// completionQueue is a node's one completion queue, shared by all its queue
// pairs. Every signaled verb the node posts lands its completion here
// (verb.cqe), and one PollCost work item reaps, in landing order, every
// completion that had landed by the time the item started — ibv_poll_cq(cq,
// n, wc) — so a burst of completions costs one poll, not one each. A
// completion that lands while the item runs waits for the next poll: nothing
// is reaped for free.
type completionQueue struct {
	node   *Node
	landed []landedCQE // completions not yet reaped, in landing order
	batch  []*verb     // the completions one poll reaps; reused like landed
	armed  bool        // a poll is queued or running on the node's CPU
	reapFn func()      // q.reap bound once: a poll allocates nothing

	perCompletion bool // the mutation controls' poll that reaps one completion
}

// landedCQE is one completion waiting in the queue, with its landing time.
type landedCQE struct {
	at sim.Time
	v  *verb
}

func (q *completionQueue) init(n *Node) {
	q.node = n
	q.reapFn = q.reap
}

// land queues v's completion and arms a poll unless one is waiting.
func (q *completionQueue) land(v *verb) {
	q.landed = append(q.landed, landedCQE{at: q.node.fabric.eng.Now(), v: v})
	if !q.armed {
		q.arm()
	}
}

// arm queues one poll on the node's CPU: PollCost whatever it reaps.
func (q *completionQueue) arm() {
	q.armed = true
	q.node.CPU.Submit(q.node.fabric.lat.PollCost, q.reapFn)
}

// reap runs when a poll's item ends. It takes every completion that had
// landed when the item started, the item having occupied the core for exactly
// PollCost, arms the next poll for the ones that landed since, and then runs
// the callbacks of those it took in landing order: the next poll queues
// ahead of the work they submit.
func (q *completionQueue) reap() {
	started := q.node.fabric.eng.Now() - sim.Time(q.node.fabric.lat.PollCost)
	k := 0
	for k < len(q.landed) && q.landed[k].at <= started && !(q.perCompletion && k == 1) {
		q.batch = append(q.batch, q.landed[k].v)
		k++
	}
	n := copy(q.landed, q.landed[k:])
	clear(q.landed[n:])
	q.landed = q.landed[:n]
	q.armed = false
	if len(q.landed) > 0 {
		q.arm()
	}
	for i, v := range q.batch {
		q.batch[i] = nil
		v.poll()
	}
	q.batch = q.batch[:0]
}
