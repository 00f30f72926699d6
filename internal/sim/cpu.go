package sim

// CPU models a single processing core of a simulated node. Work items are
// executed one at a time in FIFO order; each item occupies the core for its
// declared duration before its completion function runs.
//
// Charging protocol work (posting verbs, handling received messages,
// applying calls, polling buffers) as CPU busy time is what lets the
// simulator reproduce the paper's central effect: one-sided RDMA operations
// consume no CPU on the remote node, while two-sided messages consume CPU on
// both ends.
type CPU struct {
	eng       *Engine
	busyUntil Time
	queue     []cpuTask // waiting items are queue[head:]
	head      int
	cur       func() // completion func of the item occupying the core
	doneFn    func() // c.done bound once, so dispatch allocates nothing
	running   bool
	suspended bool
	busyTotal Duration

	// Observe, when non-nil, is called with every work item's cost as it is
	// submitted, on the submitter's stack, so a ledger can charge the cost to
	// its call site (runtime.Callers). Nil, the default, costs one check.
	Observe func(cost Duration)
}

// CallCosts price a replica's application work on its CPU. Hamband reads
// them from the fabric's cost model (rdma.LatencyModel embeds them); the MSG
// baseline, which has no RDMA fabric, takes them directly.
type CallCosts struct {
	IssueCost Duration // accept and dispatch a client call
	ApplyCost Duration // apply one update call
	QueryCost Duration // evaluate one query
}

type cpuTask struct {
	cost Duration
	fn   func()
}

// NewCPU returns an idle CPU bound to e.
func NewCPU(e *Engine) *CPU {
	c := &CPU{eng: e}
	c.doneFn = c.done
	return c
}

// Submit enqueues a work item that occupies the core for cost and then runs
// fn. fn may be nil when only the busy time matters. A suspended CPU queues
// work but does not execute it until Resume.
func (c *CPU) Submit(cost Duration, fn func()) {
	if cost < 0 {
		cost = 0
	}
	if c.Observe != nil {
		c.Observe(cost)
	}
	c.queue = append(c.queue, cpuTask{cost: cost, fn: fn})
	c.kick()
}

// cpuQueueCompact is the consumed-prefix length beyond which a backlogged
// queue is shifted down instead of growing behind its head.
const cpuQueueCompact = 64

func (c *CPU) kick() {
	if c.running || c.suspended || c.head == len(c.queue) {
		return
	}
	c.running = true
	task := c.queue[c.head]
	c.queue[c.head] = cpuTask{}
	c.head++
	switch {
	case c.head == len(c.queue):
		c.queue, c.head = c.queue[:0], 0
	case c.head >= cpuQueueCompact && 2*c.head >= len(c.queue):
		n := copy(c.queue, c.queue[c.head:])
		clear(c.queue[n:])
		c.queue, c.head = c.queue[:n], 0
	}
	start := c.eng.Now()
	if c.busyUntil > start {
		start = c.busyUntil
	}
	end := start + Time(task.cost)
	c.busyUntil = end
	c.busyTotal += task.cost
	c.cur = task.fn
	c.eng.At(end, c.doneFn)
}

// done runs when the dispatched item's busy period ends: its completion
// func runs with the core still marked busy (work it submits queues behind
// it), then the next queued item dispatches.
func (c *CPU) done() {
	fn := c.cur
	c.cur = nil
	if fn != nil {
		fn()
	}
	c.running = false
	c.kick()
}

// Suspend pauses execution of queued work. Items already dispatched to the
// engine complete; everything else waits for Resume. This models the paper's
// failure injection, which suspends a node's threads while its NIC keeps
// serving one-sided accesses.
func (c *CPU) Suspend() { c.suspended = true }

// Resume continues execution of queued work after Suspend.
func (c *CPU) Resume() {
	if !c.suspended {
		return
	}
	c.suspended = false
	c.kick()
}

// Suspended reports whether the CPU is suspended.
func (c *CPU) Suspended() bool { return c.suspended }

// QueueLen reports the number of work items waiting to execute.
func (c *CPU) QueueLen() int { return len(c.queue) - c.head }

// BusyTotal reports the cumulative busy time charged to this core.
func (c *CPU) BusyTotal() Duration { return c.busyTotal }
