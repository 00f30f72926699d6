package ring

import (
	"encoding/binary"

	"hamband/internal/metrics"
	"hamband/internal/rdma"
	"hamband/internal/sim"
)

// maxBackoff caps the head-read retry delay at this multiple of the base.
const maxBackoff = 32

// Sender is the writer's end of one remote ring: a local FIFO of framed
// records, the ring's Writer, and the pump that moves the one into the
// other. It is the out-channel of reliable broadcast (one per peer) and of
// every Mu channel (log, request, vote, grant).
//
// Send arms a deferred pump as a zero-cost CPU work item, so records queued
// by work already on the CPU (a poll sweep proposing several entries,
// pipelined calls) reach the ring together. Records appended back to back
// are adjacent bytes of the ring, so the pump posts them as one remote write
// — two when the run crosses the wrap boundary — built in a staging buffer
// that is reused from pump to pump (PostChain copies at post time). RC
// ordering makes the tail completion cover the whole post; it and any error
// fan out to every batched record's onDone.
//
// When the ring looks full the pump reads the remote head counter. A read
// that frees nothing (a suspended reader) holds every further read until a
// retry timer fires; the delay doubles from the base up to maxBackoff times
// it and resets when a read frees space, so a stalled reader costs a bounded
// trickle of reads however many sends pile up.
type Sender struct {
	node   *rdma.Node
	eng    *sim.Engine
	qp     *rdma.QP
	region string
	w      *Writer
	queue  []sendItem
	stage  []byte // the pump's merged runs; reused across pumps

	pumpArmed bool         // deferred pump queued on the CPU
	pumpFn    func()       // the deferred pump, bound once: a Send allocates nothing
	waiting   bool         // head read in flight, or held back by the retry timer
	retry     sim.Duration // base retry delay
	delay     sim.Duration // next retry delay

	// HeadReads and Retries, when non-nil, count remote head-counter reads
	// and the reads that found no space freed.
	HeadReads, Retries *metrics.Counter
}

type sendItem struct {
	record []byte
	label  string
	onDone func(error)
}

// NewSender returns node's out-channel to the ring of the given data
// capacity in region at peer. retry is the base delay between head reads of
// a ring that stays full.
func NewSender(fab *rdma.Fabric, node *rdma.Node, peer rdma.NodeID, region string, capacity int, retry sim.Duration) *Sender {
	s := &Sender{
		node:   node,
		eng:    fab.Engine(),
		qp:     node.QP(peer),
		region: region,
		w:      NewWriter(capacity),
		retry:  retry,
		delay:  retry,
	}
	s.pumpFn = func() { s.pumpArmed = false; s.pump() }
	return s
}

// Send queues a framed record, which must not change until it is pumped.
// label, when non-empty, tags the remote write carrying the record
// (rdma.WR.Label; labels sharing a write are joined with commas). onDone, if
// non-nil, receives that write's completion, or the error that cost the
// record its place: a failed write, or a failed head read while it queued.
// The onDones of one Sender run in send order: records leave the queue in
// order, a write's completion reaches the records it carried in order, and an
// RC queue pair completes its writes in posting order.
func (s *Sender) Send(record []byte, label string, onDone func(error)) {
	s.queue = append(s.queue, sendItem{record, label, onDone})
	if !s.pumpArmed {
		s.pumpArmed = true
		s.node.CPU.Exec(0, s.pumpFn)
	}
}

// Drop discards every queued record without completing it and returns how
// many of them carried an onDone. A peer's onDones run in send order and the
// queue holds the newest sends, so a caller that tracks its outstanding
// completions in a FIFO forgets that many from the tail.
func (s *Sender) Drop() (withDone int) {
	for i := range s.queue {
		if s.queue[i].onDone != nil {
			withDone++
		}
	}
	clear(s.queue)
	s.queue = s.queue[:0]
	return withDone
}

// RestartAt repositions the writer at logical offset head — the reader's
// head counter, read after the ring was wiped (see NewWriterAt).
func (s *Sender) RestartAt(head uint64) {
	s.w = NewWriterAt(int(s.w.capacity), head)
	s.delay = s.retry
}

// pump moves every queued record the ring has room for into one post.
// Records leave the queue as they are staged, so a later crash drain in
// onHead cannot complete them a second time.
func (s *Sender) pump() {
	if s.node.Crashed() {
		return
	}
	// The ring never has more than one lap free, so a pump crosses the wrap
	// boundary at most once: the run stage[:split] goes at data offset off,
	// the run stage[split:] at offset zero.
	off, split, run := 0, 0, 0
	var labels [2]string
	stage := s.stage[:0]
	var dones []func(error)
	sent := 0
	for ; sent < len(s.queue); sent++ {
		it := &s.queue[sent]
		pos, skip, ok := s.w.reserve(len(it.record))
		if !ok {
			break
		}
		if sent == 0 {
			off = pos
		}
		if skip >= 4 {
			stage = binary.LittleEndian.AppendUint32(stage, skipMarker)
		}
		if skip > 0 || (pos == 0 && sent > 0) {
			// The record opens a lap: after a skip, or after a record that
			// ended exactly at the boundary.
			split, run = len(stage), 1
		}
		stage = append(stage, it.record...)
		if l := &labels[run]; *l == "" {
			*l = it.label
		} else if it.label != "" {
			*l += "," + it.label
		}
		if it.onDone != nil {
			if dones == nil {
				dones = make([]func(error), 0, len(s.queue)-sent)
			}
			dones = append(dones, it.onDone)
		}
	}
	s.stage = stage
	if sent > 0 {
		n := copy(s.queue, s.queue[sent:])
		clear(s.queue[n:])
		s.queue = s.queue[:n]
		if run == 0 {
			split = len(stage)
		}
		var wrs [2]rdma.WR
		k := 0
		if split > 0 { // empty when the first record wraps past a remainder too short for a marker
			wrs[0] = rdma.WR{Region: s.region, Off: HeaderSize + off, Data: stage[:split], Label: labels[0]}
			k = 1
		}
		if split < len(stage) {
			wrs[k] = rdma.WR{Region: s.region, Off: HeaderSize, Data: stage[split:], Label: labels[1]}
			k++
		}
		var cb func(error)
		if len(dones) > 0 {
			cb = func(err error) {
				for _, done := range dones {
					done(err)
				}
			}
		}
		s.qp.PostChain(wrs[:k], cb)
	}
	s.refreshHead() // a no-op unless records are left behind a ring that looks full
}

// refreshHead reads the remote head counter, unless a read is in flight or
// held back by the retry timer.
func (s *Sender) refreshHead() {
	if s.waiting || len(s.queue) == 0 {
		return
	}
	s.waiting = true
	s.HeadReads.Inc()
	s.qp.Read(s.region, 0, HeaderSize, s.onHead)
}

func (s *Sender) onHead(data []byte, err error) {
	if err != nil {
		// Peer crashed: fail the queue. It is detached first, so a record an
		// onDone sends is queued afresh instead of being dropped with it.
		queue := s.queue
		s.queue, s.waiting = nil, false
		for _, it := range queue {
			if it.onDone != nil {
				it.onDone(err)
			}
		}
		return
	}
	before := s.w.Free()
	s.w.NoteHead(DecodeHead(data))
	if s.w.Free() == before && len(s.queue) > 0 {
		s.Retries.Inc()
		s.eng.After(s.delay, func() { s.waiting = false; s.refreshHead() })
		if s.delay < maxBackoff*s.retry {
			s.delay *= 2
		}
		return
	}
	s.waiting, s.delay = false, s.retry
	s.pump()
}
