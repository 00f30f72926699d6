package rdma

import (
	"slices"

	"hamband/internal/fifo"
	"hamband/internal/sim"
)

// Sweep is one in-channel's place in its node's poll loop (Node.Poll).
type Sweep struct {
	node *Node
	fn   func() // nil once stopped
}

// pollLoop is a node's one poll loop: a ticker at SweepPeriod that, unless the
// node is suspended or crashed, submits one SweepCost work item calling every
// registered sweep in registration order, then closing the node's handoff
// record (Handoff.Hand) the sweeps opened. The ticker exists while a sweep is
// registered, so a node without in-channels has none.
type pollLoop struct {
	sweeps []*Sweep
	ticker *sim.Ticker
	tickFn func() // n.tick and n.sweep bound once: a poll allocates nothing
	runFn  func()
	ticks  fifo.Queue[sim.Time] // the ticks of the queued items, oldest first
	tickAt sim.Time             // the tick of the running item (SweepTick)
}

// Poll registers sweep in the node's poll loop. The first registration
// creates the loop's ticker, first firing one SweepPeriod from now, so a node
// with one in-channel polls on the schedule a ticker of its own would. sweep
// is bound once by the caller and borrows nothing past its call.
func (n *Node) Poll(sweep func()) *Sweep {
	s := &Sweep{node: n, fn: sweep}
	if n.poll.ticker == nil {
		if n.poll.tickFn == nil {
			n.poll.tickFn, n.poll.runFn = n.tick, n.sweep
		}
		n.poll.ticker = n.fabric.eng.NewTicker(n.fabric.lat.SweepPeriod, n.poll.tickFn)
	}
	n.poll.sweeps = append(n.poll.sweeps, s)
	return s
}

// Stop unregisters the sweep: a work item already queued no longer calls it,
// and stopping the node's last sweep cancels the loop's ticker. Stopping again
// does nothing.
func (s *Sweep) Stop() {
	if s.fn == nil {
		return
	}
	s.fn = nil
	n := s.node
	// A fresh list: a loop running now keeps ranging over the old one.
	n.poll.sweeps = slices.DeleteFunc(slices.Clone(n.poll.sweeps), func(o *Sweep) bool { return o == s })
	if len(n.poll.sweeps) == 0 {
		n.poll.ticker.Cancel()
		n.poll.ticker = nil
	}
}

// Sweeps returns how many sweeps the node's poll loop runs each tick.
func (n *Node) Sweeps() int { return len(n.poll.sweeps) }

// SweepTick returns when the poll loop's running item was ticked. The node's
// CPU runs its work in submission order, and a completion that lands arms a
// poll of the completion queue at once, so a sweep has seen every completion
// that landed before its tick reaped — one that landed while a poll was
// running aside, which waits for the next poll — however long the item
// waited for the CPU.
func (n *Node) SweepTick() sim.Time { return n.poll.tickAt }

func (n *Node) tick() {
	if !n.suspended && !n.crashed {
		n.poll.ticks.Push(n.fabric.eng.Now())
		n.CPU.Submit(n.fabric.lat.SweepCost, n.poll.runFn)
	}
}

func (n *Node) sweep() {
	n.poll.tickAt = n.poll.ticks.Pop()
	for _, s := range n.poll.sweeps {
		if fn := s.fn; fn != nil {
			fn()
		}
	}
	n.hand.Hand() // what every sweep delivered, as one record
}
