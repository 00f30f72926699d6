// Package mu implements a Mu-style consensus instance over the simulated
// RDMA fabric (Aguilera et al., OSDI '20) — the protocol Hamband
// instantiates once per synchronization group to order conflicting calls
// (§4 "Synchronization"), and the SMR baseline of the evaluation.
//
// Common case: a designated leader holds exclusive write permission on a
// log ring at every replica. The leader orders calls in rounds, one round in
// flight at a time: requests that arrive while a round is undecided queue,
// and the decision that completes the round sequences everything queued as
// the next one. A round is one local journal write per entry plus one
// one-sided RDMA write per follower per round; the leader considers an entry
// decided once a majority of writes (counting itself) completed. Every entry
// of a round carries the previous round's last sequence number as its commit
// watermark, so followers, which poll their log rings and deliver entries in
// sequence order, deliver round k when round k+1 arrives; only a round with
// no successor is followed by a dedicated commit record.
//
// Failure case: when the failure detector suspects the leader, the next
// node requests leadership under a higher term. Every replica that accepts
// the request revokes the old leader's write permission on its log ring
// before granting it to the candidate — permissions guarantee at most one
// writer per ring — and replies with a grant carrying its delivery
// watermark. With a majority of grants the candidate recovers undelivered
// entries from the old leader's journal (readable one-sidedly under the
// paper's suspension failure model), re-disseminates them, and serves new
// requests. Deliveries are deduplicated by (origin, submission sequence),
// so recovery plus resubmission yields exactly-once delivery.
package mu

import (
	"encoding/binary"
	"fmt"
	"sort"

	"hamband/internal/codec"
	"hamband/internal/fifo"
	"hamband/internal/metrics"
	"hamband/internal/rdma"
	"hamband/internal/ring"
	"hamband/internal/sim"
	"hamband/internal/trace"
)

// Region name builders; all are per consensus group.
func logRegion(g string) string                   { return "mu-log-" + g }
func reqRegion(g string, from rdma.NodeID) string { return fmt.Sprintf("mu-req-%s-%d", g, from) }
func voteRegion(g string, from rdma.NodeID) string {
	return fmt.Sprintf("mu-vote-%s-%d", g, from)
}
func grantRegion(g string, from rdma.NodeID) string {
	return fmt.Sprintf("mu-grant-%s-%d", g, from)
}
func journalRegion(g string) string { return "mu-journal-" + g }
func stateRegion(g string) string   { return "mu-state-" + g }

// Config holds consensus parameters.
type Config struct {
	RingCapacity    int          // log and request ring capacity
	CtrlCapacity    int          // vote/grant ring capacity
	JournalSlots    int          // journal length (entries)
	JournalSlotSize int          // bytes per journal slot
	PollPeriod      sim.Duration // poll loop period
	PollCost        sim.Duration // CPU cost per poll sweep
	DeliverCost     sim.Duration // CPU cost per delivered entry
	RetryDelay      sim.Duration // backpressure retry delay
	CatchUpAfter    sim.Duration // follower staleness before a journal catch-up

	// Metrics, when non-nil, receives commit latency and leader-change
	// instruments. Nil disables instrumentation.
	Metrics *metrics.Registry
}

// DefaultConfig returns sizes suited to the benchmark workloads.
func DefaultConfig() Config {
	return Config{
		RingCapacity:    1 << 16,
		CtrlCapacity:    1 << 12,
		JournalSlots:    1024,
		JournalSlotSize: 256,
		PollPeriod:      2 * sim.Microsecond,
		PollCost:        50 * sim.Nanosecond,
		DeliverCost:     100 * sim.Nanosecond,
		RetryDelay:      5 * sim.Microsecond,
		CatchUpAfter:    100 * sim.Microsecond,
	}
}

// Setup registers the consensus regions for group on every node and grants
// the initial leader write permission on all log rings. Call once per group
// before creating instances.
func Setup(fab *rdma.Fabric, group string, cfg Config, initialLeader rdma.NodeID) {
	for i := 0; i < fab.Size(); i++ {
		node := fab.Node(rdma.NodeID(i))
		lr := node.Register(logRegion(group), ring.RegionSize(cfg.RingCapacity))
		lr.AllowWrite(initialLeader)
		node.Register(journalRegion(group), cfg.JournalSlots*cfg.JournalSlotSize)
		node.Register(stateRegion(group), 16)
		for p := 0; p < fab.Size(); p++ {
			peer := rdma.NodeID(p)
			if peer == node.ID() {
				continue
			}
			node.Register(reqRegion(group, peer), ring.RegionSize(cfg.RingCapacity)).AllowWrite(peer)
			node.Register(voteRegion(group, peer), ring.RegionSize(cfg.CtrlCapacity)).AllowWrite(peer)
			node.Register(grantRegion(group, peer), ring.RegionSize(cfg.CtrlCapacity)).AllowWrite(peer)
		}
	}
}

// DeliverFunc consumes decided entries, in sequence order, exactly once. The
// payload is the callee's to keep: the instance never reads, reuses or
// overwrites it afterwards.
type DeliverFunc func(seq uint64, origin rdma.NodeID, payload []byte)

// Instance is one node's participant in a consensus group.
type Instance struct {
	fab   *rdma.Fabric
	node  *rdma.Node
	group string
	cfg   Config
	n     int

	// Role state.
	term     uint64
	votedFor rdma.NodeID // candidate granted in the current term (-1: none)
	leader   rdma.NodeID
	isLeader bool
	electing bool
	// recovering is set between winning an election and finishing journal
	// recovery; proposals are held until it clears so recovered entries
	// keep their original sequence numbers.
	recovering bool

	// Leader state.
	nextSeq uint64 // next sequence number to assign (1-based)
	// queue holds the requests waiting for the next round, in arrival order.
	// Only an active leader queues, and a deposed one drops the queue, so it
	// is non-empty only at a leader that is not recovering. The backing array
	// is reused from round to round.
	queue  []request
	logOut map[rdma.NodeID]*ring.Sender
	// props is what this leader sequenced and has not delivered — the round in
	// flight, or the entries a fresh leader recovered: props[i] is sequence
	// number propBase+i. A round starts it over and a deposition empties it, so
	// it never outgrows a round, and a write that completes after its entry was
	// delivered finds nothing to count toward.
	propBase uint64
	props    []proposal
	// unacked[p] lists the sequence numbers of the entries sent to follower p
	// whose log writes have not completed, oldest first; ackFns[p], bound once,
	// is the completion of every one of them and pops its own (a Sender's
	// onDones run in send order). Both are indexed by node id.
	unacked   []fifo.Queue[uint64]
	ackFns    []func(error)
	zeros     []byte // RingCapacity zero bytes: what resetRing writes over a follower's ring
	grants    map[rdma.NodeID]uint64
	oldLeader rdma.NodeID

	// Delivery state (all roles).
	lastDelivered  uint64
	stash          map[uint64][]byte // out-of-order, not-yet-committed log entries
	commitSeen     uint64            // highest commit watermark received
	ringTerm       uint64            // highest term seen in the log ring
	catching       bool              // journal catch-up read in flight
	lastProgressAt sim.Time          // when delivery last advanced (or was verified current)
	dedupLow       map[rdma.NodeID]uint64
	dedupSet       map[rdma.NodeID]map[uint64]bool
	// deliveries holds the decided entries whose DeliverCost item is still
	// queued on the CPU, oldest first. The CPU runs its items in FIFO order and
	// never discards one (Suspend and Crash only pause it), so the k-th run of
	// deliverFn pops the k-th entry pushed.
	deliveries fifo.Queue[delivery]
	deliverFn  func() // in.deliverNext bound once: a delivery allocates no closure

	// Membership view (dynamic reconfiguration). nil means the fixed
	// full-fabric membership; otherwise members[p] reports whether node p
	// is in the current configuration. Non-members count toward no
	// majority and their votes and grants are ignored.
	members []bool

	// Submission state.
	submitSeq uint64
	pending   map[uint64][]byte // my submissions not yet delivered
	reqOut    map[rdma.NodeID]*ring.Sender
	voteOut   map[rdma.NodeID]*ring.Sender
	grantOut  map[rdma.NodeID]*ring.Sender

	// Readers.
	logReader   *ring.Reader
	reqReaders  map[rdma.NodeID]*ring.Reader
	voteReaders map[rdma.NodeID]*ring.Reader
	grantReader map[rdma.NodeID]*ring.Reader

	ticker  *sim.Ticker
	sweepFn func() // in.sweep bound once: a poll allocates nothing

	// Instrumentation. proposedAt is populated only when metrics are
	// enabled, so the disabled path stays allocation-free.
	mCommitLat     *metrics.Histogram // leader: round start → majority decide
	mQueueWait     *metrics.Histogram // leader: request queued → its round starts
	mRoundEntries  *metrics.Histogram // leader: entries per round (a count, not a time)
	mCommitRecords *metrics.Counter   // leader: dedicated commit records sent
	mLeaderChanges *metrics.Counter   // leader-view adoptions on this node
	mElections     *metrics.Counter   // candidacies started by this node
	proposedAt     map[uint64]sim.Time

	// Deliver is invoked, on this node's CPU, for every decided entry in
	// sequence order.
	Deliver DeliverFunc
	// Transform, if set, is applied by the leader to every request payload
	// immediately before sequencing it (for both local submissions and
	// redirected requests). Hamband uses it to check permissibility and
	// attach the dependency record at the ordering point, as rule CONF
	// prescribes.
	Transform func(origin rdma.NodeID, payload []byte) []byte
	// OnLeaderChange is invoked when this node adopts a new leader view.
	OnLeaderChange func(leader rdma.NodeID, term uint64)

	// Tracer, if set, records a Commit event at the leader the moment an
	// entry reaches a majority, labeled via TraceLabel applied to the
	// entry's payload. Both must be set for events to be recorded; neither
	// affects timing.
	Tracer     *trace.Tracer
	TraceLabel func(payload []byte) string
}

// NewInstance creates this node's participant for group. Setup must have
// run with the same initialLeader.
func NewInstance(fab *rdma.Fabric, node *rdma.Node, group string, cfg Config, initialLeader rdma.NodeID) *Instance {
	in := &Instance{
		fab:       fab,
		node:      node,
		group:     group,
		cfg:       cfg,
		n:         fab.Size(),
		leader:    initialLeader,
		votedFor:  -1,
		isLeader:  node.ID() == initialLeader,
		nextSeq:   1,
		oldLeader: initialLeader,

		logOut:   make(map[rdma.NodeID]*ring.Sender),
		unacked:  make([]fifo.Queue[uint64], fab.Size()),
		ackFns:   make([]func(error), fab.Size()),
		stash:    make(map[uint64][]byte),
		dedupLow: make(map[rdma.NodeID]uint64),
		dedupSet: make(map[rdma.NodeID]map[uint64]bool),
		pending:  make(map[uint64][]byte),

		reqOut:   make(map[rdma.NodeID]*ring.Sender),
		voteOut:  make(map[rdma.NodeID]*ring.Sender),
		grantOut: make(map[rdma.NodeID]*ring.Sender),

		reqReaders:  make(map[rdma.NodeID]*ring.Reader),
		voteReaders: make(map[rdma.NodeID]*ring.Reader),
		grantReader: make(map[rdma.NodeID]*ring.Reader),
	}
	if cfg.Metrics.Enabled() {
		in.mCommitLat = cfg.Metrics.Histogram("mu.commit_latency", nil)
		in.mQueueWait = cfg.Metrics.Histogram("mu.queue_wait", nil)
		// Counts observed as durations, doubling up to the default journal's length.
		in.mRoundEntries = cfg.Metrics.Histogram("mu.round_entries",
			[]sim.Duration{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024})
		in.mCommitRecords = cfg.Metrics.Counter("mu.commit_records")
		in.mLeaderChanges = cfg.Metrics.Counter("mu.leader_changes")
		in.mElections = cfg.Metrics.Counter("mu.elections")
		in.proposedAt = make(map[uint64]sim.Time)
	}
	in.logReader = ring.NewReader(node.Region(logRegion(group)).Bytes())
	for p := 0; p < in.n; p++ {
		peer := rdma.NodeID(p)
		if peer == node.ID() {
			continue
		}
		in.logOut[peer] = in.newOut(peer, logRegion(group), cfg.RingCapacity)
		in.ackFns[peer] = func(err error) { in.acked(peer, err) }
		in.reqOut[peer] = in.newOut(peer, reqRegion(group, node.ID()), cfg.RingCapacity)
		in.voteOut[peer] = in.newOut(peer, voteRegion(group, node.ID()), cfg.CtrlCapacity)
		in.grantOut[peer] = in.newOut(peer, grantRegion(group, node.ID()), cfg.CtrlCapacity)
		in.reqReaders[peer] = ring.NewReader(node.Region(reqRegion(group, peer)).Bytes())
		in.voteReaders[peer] = ring.NewReader(node.Region(voteRegion(group, peer)).Bytes())
		in.grantReader[peer] = ring.NewReader(node.Region(grantRegion(group, peer)).Bytes())
		in.dedupSet[peer] = make(map[uint64]bool)
	}
	in.dedupSet[node.ID()] = make(map[uint64]bool)
	in.sweepFn, in.deliverFn = in.sweep, in.deliverNext
	in.ticker = fab.Engine().NewTicker(cfg.PollPeriod, in.poll)
	return in
}

// Stop cancels the instance's poll loop.
func (in *Instance) Stop() { in.ticker.Cancel() }

// Leader returns this node's current leader view.
func (in *Instance) Leader() rdma.NodeID { return in.leader }

// IsLeader reports whether this node believes it leads the group.
func (in *Instance) IsLeader() bool { return in.isLeader }

// Term returns the current term.
func (in *Instance) Term() uint64 { return in.term }

// LastDelivered returns the highest contiguously delivered sequence number.
func (in *Instance) LastDelivered() uint64 { return in.lastDelivered }

// Electing reports whether this node is mid-candidacy (diagnostics).
func (in *Instance) Electing() bool { return in.electing }

// Recovering reports whether a fresh leader is still rebuilding state
// (diagnostics).
func (in *Instance) Recovering() bool { return in.recovering }

// PendingCount reports this node's submissions not yet delivered
// (diagnostics).
func (in *Instance) PendingCount() int { return len(in.pending) }

func (in *Instance) newOut(peer rdma.NodeID, region string, capacity int) *ring.Sender {
	return ring.NewSender(in.fab, in.node, peer, region, capacity, in.cfg.RetryDelay)
}

// SetMembers installs the configuration's membership view. Majorities are
// computed over members only, and votes, grants and log acks from
// non-members are discarded. A nil view restores the fixed full-fabric
// membership. Fan-out is unchanged: departed nodes keep receiving the log
// as observers, they just no longer count.
func (in *Instance) SetMembers(members []bool) {
	if members == nil {
		in.members = nil
		return
	}
	in.members = append([]bool(nil), members[:in.n]...)
}

// member reports whether node p is in the current configuration.
func (in *Instance) member(p rdma.NodeID) bool {
	return in.members == nil || in.members[p]
}

func (in *Instance) majority() int {
	if in.members == nil {
		return in.n/2 + 1
	}
	live := 0
	for _, m := range in.members {
		if m {
			live++
		}
	}
	return live/2 + 1
}

func (in *Instance) alive() bool { return !in.node.Suspended() && !in.node.Crashed() }

// --- wire formats -----------------------------------------------------

// entry: u64 seq | u64 term | u64 commit | u16 origin | u64 submitSeq | payload.
// term is the proposing leader's term: receivers drop entries from terms
// older than the highest they have seen, which silences a deposed "zombie"
// leader that has not yet learned of its deposition. commit is the
// proposer's decided watermark: receivers deliver an entry only once some
// record shows it committed, so a zombie's never-decided proposals are
// never applied. A seq of zero marks a pure commit record (no payload).
func appendEntry(dst []byte, seq, term, commit uint64, origin rdma.NodeID, submitSeq uint64, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, seq)
	dst = binary.LittleEndian.AppendUint64(dst, term)
	dst = binary.LittleEndian.AppendUint64(dst, commit)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(origin))
	dst = binary.LittleEndian.AppendUint64(dst, submitSeq)
	return append(dst, payload...)
}

const entryHeader = 34 // the fixed fields ahead of an entry's payload

// frameEntry builds an entry inside the ring record that carries it, in one
// buffer: the entry is the record's payload, and whoever keeps it keeps a
// sub-slice of the record. A nil record is an entry no ring record can carry.
func frameEntry(seq, term, commit uint64, origin rdma.NodeID, submitSeq uint64, payload []byte) (entry, rec []byte) {
	b := codec.BeginRaw(make([]byte, 0, codec.RawOverhead+entryHeader+len(payload)))
	b = appendEntry(b, seq, term, commit, origin, submitSeq, payload)
	rec, _ = codec.FinishRaw(b, 0)
	return b[4:], rec
}

type logEntry struct {
	seq, term, commit uint64
	origin            rdma.NodeID
	submitSeq         uint64
	payload           []byte
}

func decodeLogEntry(b []byte) (logEntry, error) {
	if len(b) < entryHeader {
		return logEntry{}, codec.ErrCorrupt
	}
	return logEntry{
		seq:       binary.LittleEndian.Uint64(b),
		term:      binary.LittleEndian.Uint64(b[8:]),
		commit:    binary.LittleEndian.Uint64(b[16:]),
		origin:    rdma.NodeID(binary.LittleEndian.Uint16(b[24:])),
		submitSeq: binary.LittleEndian.Uint64(b[26:]),
		payload:   b[entryHeader:],
	}, nil
}

// request: u64 submitSeq | payload, built inside its ring record like an entry.
func frameReq(submitSeq uint64, payload []byte) ([]byte, error) {
	b := codec.BeginRaw(make([]byte, 0, codec.RawOverhead+8+len(payload)))
	b = binary.LittleEndian.AppendUint64(b, submitSeq)
	return codec.FinishRaw(append(b, payload...), 0)
}

// vote: u64 term | u16 candidate
func encodeVote(term uint64, cand rdma.NodeID) []byte {
	b := make([]byte, 10)
	binary.LittleEndian.PutUint64(b, term)
	binary.LittleEndian.PutUint16(b[8:], uint16(cand))
	return b
}

// grant: u64 term | u64 lastDelivered | u16 voter
func encodeGrant(term, lastDelivered uint64, voter rdma.NodeID) []byte {
	b := make([]byte, 18)
	binary.LittleEndian.PutUint64(b, term)
	binary.LittleEndian.PutUint64(b[8:], lastDelivered)
	binary.LittleEndian.PutUint16(b[16:], uint16(voter))
	return b
}

// --- output ------------------------------------------------------------

// send frames an election message and queues it on an out channel (see
// ring.Sender: one remote write per pump).
func (in *Instance) send(oc *ring.Sender, payload []byte) {
	if rec, err := codec.EncodeRaw(payload); err == nil {
		oc.Send(rec, "", nil)
	}
}

// replicate appends rec, an entry framed once, to every follower's log ring
// (a write error — e.g. permission revoked by a new leader — reaches every
// record the write carried, so a deposed leader still cannot assemble a
// majority). With a nonzero seq each follower's completed write is counted
// toward deciding seq: the sequence number joins the follower's unacked queue,
// and the follower's one completion callback pops it.
func (in *Instance) replicate(rec []byte, seq uint64) {
	for p := 0; p < in.n; p++ {
		oc := in.logOut[rdma.NodeID(p)]
		if oc == nil {
			continue
		}
		var onDone func(error)
		if seq != 0 {
			in.unacked[p].Push(seq)
			onDone = in.ackFns[p]
		}
		oc.Send(rec, "", onDone)
	}
}

// --- submission -------------------------------------------------------

// Submit hands a payload to the group for total ordering. The payload will
// be delivered, exactly once and in order, through Deliver on every node.
// Submissions survive leader changes via resubmission: the instance keeps the
// payload, uncopied, until it is delivered here, so the caller must not
// change it after the call.
func (in *Instance) Submit(payload []byte) {
	in.submitSeq++
	in.pending[in.submitSeq] = payload
	in.route(in.submitSeq, payload)
	in.startRound()
}

func (in *Instance) route(submitSeq uint64, payload []byte) {
	if in.isLeader {
		if in.recovering {
			return // held in pending; resubmitted after recovery
		}
		in.propose(in.node.ID(), submitSeq, payload)
		return
	}
	oc := in.reqOut[in.leader]
	if oc == nil {
		return // leader view is self but not leader yet; retried on change
	}
	if rec, err := frameReq(submitSeq, payload); err == nil {
		oc.Send(rec, "", nil)
	}
}

// request is one call waiting in the leader's queue for its round.
type request struct {
	origin    rdma.NodeID
	submitSeq uint64
	payload   []byte
	at        sim.Time // when it was queued
}

// propose queues a request for the leader's next round.
func (in *Instance) propose(origin rdma.NodeID, submitSeq uint64, payload []byte) {
	in.queue = append(in.queue, request{origin, submitSeq, payload, in.fab.Engine().Now()})
}

// startRound sequences everything queued as one round — Transform, sequence
// number, journal and one log write per follower for the lot — unless a
// round is in flight: something proposed is still undelivered here. The gate
// makes lastDelivered the previous round's last sequence number, and every
// entry of this round carries it as its commit watermark. A leader whose
// round can never decide (a zombie) therefore proposes nothing further. It
// reports whether a round started.
//
// A round takes at most half the journal, so the journal always holds the
// round in flight and the one before it: followers learn that a round is
// decided only from its successor, and a new leader that has the earlier
// round merely stashed must find both in the journal. The remainder of a
// longer queue waits for the next round.
func (in *Instance) startRound() bool {
	if len(in.queue) == 0 || in.lastDelivered+1 != in.nextSeq {
		return false
	}
	n := min(len(in.queue), max(in.cfg.JournalSlots/2, 1))
	now := in.fab.Engine().Now()
	first := in.nextSeq
	in.propBase, in.props = first, in.props[:0] // everything before is delivered
	for i := 0; i < n; i++ {
		r := &in.queue[i]
		in.mQueueWait.Observe(sim.Duration(now - r.at))
		payload := r.payload
		if in.Transform != nil {
			payload = in.Transform(r.origin, payload)
		}
		seq := in.nextSeq
		in.nextSeq++
		if in.proposedAt != nil {
			in.proposedAt[seq] = now
		}
		entry, rec := frameEntry(seq, in.term, in.lastDelivered, r.origin, r.submitSeq, payload)
		in.journal(seq, entry)
		in.props = append(in.props, proposal{entry: entry, acks: 1}) // self
		if rec != nil {
			in.replicate(rec, seq)
		} // else oversized: reaches no follower, so is never decided
	}
	in.mRoundEntries.Observe(sim.Duration(n))
	rest := copy(in.queue, in.queue[n:])
	clear(in.queue[rest:])
	in.queue = in.queue[:rest]
	// A configuration whose majority is this node alone decides here, after
	// the round has left the queue: the last decision completes the round and
	// comes back for the remainder.
	if in.majority() == 1 {
		for seq := first; seq < first+uint64(n); seq++ {
			in.decide(seq)
		}
	}
	return true
}

// acked is the completion of the oldest unacknowledged log write to peer.
func (in *Instance) acked(peer rdma.NodeID, err error) {
	seq := in.unacked[peer].Pop()
	// Only successful writes count: a deposed leader's writes fail with
	// permission errors at every voter, so it can never assemble a
	// majority and never decides its zombie proposals. Acks from nodes
	// outside the current configuration are discarded the same way — an
	// observer's copy must not help decide an entry.
	if !in.isLeader || err != nil || !in.member(peer) {
		return
	}
	p := in.proposal(seq)
	if p == nil || p.entry == nil {
		return // delivered without this write, or sequenced under an earlier leadership
	}
	p.acks++
	if !p.decided && p.acks >= in.majority() {
		in.decide(seq)
	}
}

// proposal is an entry this leader sequenced and has not delivered yet. The
// zero value is a sequence number the leader holds nothing for: one it has
// delivered, or a hole in what it recovered.
type proposal struct {
	entry   []byte // the full entry record
	acks    int    // completed writes, counting the local journal's
	decided bool   // a majority reached
}

// proposal returns seq's slot in props, or nil when seq is outside it.
func (in *Instance) proposal(seq uint64) *proposal {
	if seq < in.propBase || seq-in.propBase >= uint64(len(in.props)) {
		return nil
	}
	return &in.props[seq-in.propBase]
}

// decide marks seq decided and delivers contiguous decided entries locally.
// The decision that completes the round in flight starts the next one, whose
// entries carry the new commit watermark; with nothing queued, a dedicated
// commit record carries it to the followers.
func (in *Instance) decide(seq uint64) {
	p := in.proposal(seq)
	p.decided = true
	if at, ok := in.proposedAt[seq]; ok {
		in.mCommitLat.Observe(sim.Duration(in.fab.Engine().Now() - at))
		delete(in.proposedAt, seq)
	}
	if in.Tracer != nil && in.TraceLabel != nil {
		if e, err := decodeLogEntry(p.entry); err == nil {
			if label := in.TraceLabel(e.payload); label != "" {
				in.Tracer.Record(int(in.node.ID()), trace.Commit, label,
					fmt.Sprintf("%s seq %d replicated to a majority", in.group, seq))
			}
		}
	}
	advanced := false
	for {
		next := in.proposal(in.lastDelivered + 1)
		if next == nil || !next.decided {
			break
		}
		entry := next.entry
		*next = proposal{}
		in.bumpDelivered(in.lastDelivered + 1)
		advanced = true
		in.deliverEntry(entry)
	}
	if advanced && in.lastDelivered+1 >= in.nextSeq && !in.startRound() {
		in.sendCommitRecord()
	}
}

// sendCommitRecord broadcasts a payload-less record carrying the current
// commit watermark (seq 0 marks it as pure metadata).
func (in *Instance) sendCommitRecord() {
	in.mCommitRecords.Inc()
	_, rec := frameEntry(0, in.term, in.lastDelivered, in.node.ID(), 0, nil)
	in.replicate(rec, 0)
}

// bumpDelivered advances the delivery watermark and publishes it in the
// state region so that a future leader can compute the global recovery
// floor with one-sided reads.
func (in *Instance) bumpDelivered(to uint64) {
	in.lastDelivered = to
	in.lastProgressAt = in.fab.Engine().Now()
	binary.LittleEndian.PutUint64(in.node.Region(stateRegion(in.group)).Bytes()[8:], to)
}

// journal stores an entry in the local journal region and advances the
// published nextSeq.
func (in *Instance) journal(seq uint64, entry []byte) {
	in.journalRaw(seq, entry)
	binary.LittleEndian.PutUint64(in.node.Region(stateRegion(in.group)).Bytes(), in.nextSeq)
}

// journalRaw frames entry into seq's journal slot, in place: the frame is
// written once, where one-sided readers find it. Only the bytes used are
// written; the frame is self-delimiting and the slot's stale tail is never
// read.
func (in *Instance) journalRaw(seq uint64, entry []byte) {
	size := in.cfg.JournalSlotSize
	if len(entry)+codec.SlotOverhead > size {
		panic(fmt.Sprintf("mu: journal slot too small: %d-byte entry for a %d-byte slot", len(entry), size))
	}
	off := int(seq) % in.cfg.JournalSlots * size
	slot := in.node.Region(journalRegion(in.group)).Bytes()[off : off : off+size]
	codec.FinishSlot(append(codec.BeginSlot(slot, uint32(seq)), entry...), 0)
}

// deliverEntry dedups by (origin, submitSeq) and queues the entry for Deliver.
// The caller gives entry away: its payload goes to Deliver as a sub-slice.
func (in *Instance) deliverEntry(entry []byte) {
	e, err := decodeLogEntry(entry)
	if err != nil {
		return
	}
	if e.origin == in.node.ID() {
		delete(in.pending, e.submitSeq)
	}
	if e.submitSeq <= in.dedupLow[e.origin] || in.dedupSet[e.origin][e.submitSeq] {
		return
	}
	set := in.dedupSet[e.origin]
	if set == nil {
		set = make(map[uint64]bool)
		in.dedupSet[e.origin] = set
	}
	set[e.submitSeq] = true
	for set[in.dedupLow[e.origin]+1] {
		in.dedupLow[e.origin]++
		delete(set, in.dedupLow[e.origin])
	}
	if in.Deliver != nil {
		in.deliveries.Push(delivery{e.seq, e.origin, e.payload})
		in.node.CPU.Exec(in.cfg.DeliverCost, in.deliverFn)
	}
}

// delivery is a decided entry on its way to Deliver.
type delivery struct {
	seq     uint64
	origin  rdma.NodeID
	payload []byte
}

// deliverNext is the DeliverCost item of the oldest queued delivery.
func (in *Instance) deliverNext() {
	d := in.deliveries.Pop()
	in.Deliver(d.seq, d.origin, d.payload)
}

// --- polling ----------------------------------------------------------

func (in *Instance) poll() {
	if !in.alive() {
		return
	}
	in.node.CPU.Exec(in.cfg.PollCost, in.sweepFn)
}

// sweep is one poll's work on the node's CPU.
func (in *Instance) sweep() {
	in.pollLog()
	if in.isLeader && !in.recovering {
		in.pollRequests()
	}
	in.pollVotes()
	if in.electing {
		in.pollGrants()
	}
	// Anti-entropy with the leader: a stash gap, or simply no delivery
	// progress for a while, means entries may have been lost to a
	// permission window or a ring reset — pull them from the leader's
	// journal. (An idle but current follower pays one 8-byte read per
	// staleness window.)
	if !in.isLeader {
		_, gapped := in.stash[in.lastDelivered+1]
		stale := in.fab.Engine().Now()-in.lastProgressAt > sim.Time(in.cfg.CatchUpAfter)
		if (len(in.stash) > 0 && !gapped) || stale {
			in.catchUp(in.leader)
		}
	}
}

func (in *Instance) pollLog() {
	for {
		rec, ok, err := in.logReader.Poll()
		if err != nil || !ok {
			return
		}
		msg, _, err := codec.DecodeRaw(rec)
		if err != nil {
			return
		}
		e, derr := decodeLogEntry(msg)
		if derr != nil {
			continue
		}
		// Zombie filter: drop anything from a term older than the highest
		// this ring has carried.
		if e.term < in.ringTerm {
			continue
		}
		if e.term > in.ringTerm {
			in.ringTerm = e.term
			// A newer term invalidates stashed uncommitted entries from
			// older terms.
			for seq, old := range in.stash {
				if oe, oerr := decodeLogEntry(old); oerr == nil && oe.term < e.term {
					delete(in.stash, seq)
				}
			}
		}
		if e.commit > in.commitSeen {
			in.commitSeen = e.commit
		}
		if e.seq == 0 {
			// Pure commit record.
			in.drainCommitted()
			continue
		}
		if e.seq > in.lastDelivered {
			in.stash[e.seq] = msg // a sub-slice of Poll's copy, which nothing else holds
		}
		in.drainCommitted()
	}
}

// drainCommitted delivers stashed entries in sequence order up to the
// received commit watermark.
func (in *Instance) drainCommitted() {
	for in.lastDelivered < in.commitSeen {
		next, ok := in.stash[in.lastDelivered+1]
		if !ok {
			return
		}
		delete(in.stash, in.lastDelivered+1)
		in.bumpDelivered(in.lastDelivered + 1)
		in.deliverEntry(next)
	}
}

func (in *Instance) pollRequests() {
	for p := 0; p < in.n; p++ {
		from := rdma.NodeID(p)
		rd := in.reqReaders[from]
		if rd == nil {
			continue
		}
		for {
			rec, ok, err := rd.Poll()
			if err != nil || !ok {
				break
			}
			msg, _, err := codec.DecodeRaw(rec)
			if err != nil || len(msg) < 8 {
				break
			}
			submitSeq := binary.LittleEndian.Uint64(msg)
			// Requests may be replayed after a leader change; dedup before
			// proposing to keep the log free of duplicates where possible
			// (delivery-side dedup is the safety net).
			if submitSeq <= in.dedupLow[from] || in.dedupSet[from][submitSeq] {
				continue
			}
			in.propose(from, submitSeq, msg[8:]) // Poll's copy is this request's alone
		}
	}
	in.startRound()
}

// --- leader change ----------------------------------------------------

// StartElection makes this node request leadership of the group under a
// higher term. Wire it to the failure detector's suspicion of the current
// leader.
func (in *Instance) StartElection() {
	if in.isLeader || in.electing || !in.alive() {
		return
	}
	in.electing = true
	in.mElections.Inc()
	in.oldLeader = in.leader
	in.term++
	in.votedFor = in.node.ID() // self-vote
	in.grants = map[rdma.NodeID]uint64{in.node.ID(): in.lastDelivered}
	// Self-vote: take write permission on the local log ring.
	in.switchLogPermission(in.node.ID())
	// Ascending NodeID, not map order: the posting order of the vote
	// requests fixes the engine's event order, and with it the schedule.
	for p := 0; p < in.n; p++ {
		if oc := in.voteOut[rdma.NodeID(p)]; oc != nil {
			in.send(oc, encodeVote(in.term, in.node.ID()))
		}
	}
	in.maybeLead()
}

func (in *Instance) switchLogPermission(to rdma.NodeID) {
	region := in.node.Region(logRegion(in.group))
	for p := 0; p < in.n; p++ {
		region.RevokeWrite(rdma.NodeID(p))
	}
	region.AllowWrite(to)
}

func (in *Instance) pollVotes() {
	for p := 0; p < in.n; p++ {
		rd := in.voteReaders[rdma.NodeID(p)]
		if rd == nil {
			continue
		}
		for {
			rec, ok, err := rd.Poll()
			if err != nil || !ok {
				break
			}
			msg, _, err := codec.DecodeRaw(rec)
			if err != nil || len(msg) < 10 {
				break
			}
			term := binary.LittleEndian.Uint64(msg)
			cand := rdma.NodeID(binary.LittleEndian.Uint16(msg[8:]))
			in.handleVote(term, cand)
		}
	}
}

func (in *Instance) handleVote(term uint64, cand rdma.NodeID) {
	if !in.member(cand) {
		return // a node outside the configuration cannot lead it
	}
	switch {
	case term > in.term:
		// Newer term: adopt it and grant.
	case term == in.term && in.electing && cand < in.node.ID():
		// Tie between simultaneous candidates: the lower id wins
		// deterministically, so competing elections cannot deadlock.
	default:
		return // stale candidacy, or already voted this term
	}
	in.term = term
	in.votedFor = cand
	in.isLeader = false
	in.electing = false
	in.leader = cand
	// A deposed leader drops its queue: every origin resubmits what it has
	// pending to the new leader, and delivery dedup covers the overlap.
	clear(in.queue)
	in.queue = in.queue[:0]
	// Its proposals go with it: they can no longer be decided here, and the
	// entries a later leadership recovers are sequenced afresh.
	clear(in.props)
	in.props = in.props[:0]
	// Revoke the previous leader's permission before granting the next —
	// the order the paper prescribes.
	in.switchLogPermission(cand)
	if oc := in.grantOut[cand]; oc != nil {
		in.send(oc, encodeGrant(term, in.lastDelivered, in.node.ID()))
	}
	in.mLeaderChanges.Inc()
	if in.OnLeaderChange != nil {
		in.OnLeaderChange(cand, term)
	}
	in.resubmitPending()
	// A voter that was suspended through the election may have missed log
	// writes entirely (they were rejected by its old permissions): pull
	// the gap from the new leader's journal.
	in.catchUp(cand)
}

// catchUp reads the leader's published nextSeq and journal with one-sided
// reads and fills any delivery gap [lastDelivered+1, nextSeq). It runs when
// a node adopts a new leader and whenever the poll loop observes a stash
// gap (entries lost to a permission window or a wiped ring).
func (in *Instance) catchUp(from rdma.NodeID) {
	if in.catching || in.isLeader || from == in.node.ID() || !in.alive() {
		return
	}
	in.catching = true
	in.node.QP(from).Read(stateRegion(in.group), 0, 16, func(data []byte, err error) {
		if err != nil {
			in.catching = false
			return
		}
		// Deliver only what the leader itself has decided: its published
		// lastDelivered is its commit watermark (the journal also holds
		// proposed-but-undecided entries).
		next := binary.LittleEndian.Uint64(data[8:]) + 1
		if n := binary.LittleEndian.Uint64(data); n < next {
			next = n
		}
		if next <= in.lastDelivered+1 {
			in.catching = false
			in.lastProgressAt = in.fab.Engine().Now() // verified current
			return
		}
		size := in.cfg.JournalSlots * in.cfg.JournalSlotSize
		in.node.QP(from).Read(journalRegion(in.group), 0, size, func(jdata []byte, jerr error) {
			in.catching = false
			if jerr != nil {
				return
			}
			for seq := in.lastDelivered + 1; seq < next; seq++ {
				slot := int(seq) % in.cfg.JournalSlots
				framed := jdata[slot*in.cfg.JournalSlotSize : (slot+1)*in.cfg.JournalSlotSize]
				entry, _, derr := codec.DecodeSlot(framed)
				if derr != nil {
					return // hole (journal wrapped or write in flight): stop
				}
				je, derr := decodeLogEntry(entry)
				if derr != nil || je.seq != seq {
					return
				}
				if je.seq-1 > in.commitSeen {
					in.commitSeen = je.seq - 1
				}
				in.bumpDelivered(seq)
				delete(in.stash, seq)
				// A copy: what Deliver keeps must not pin the whole journal read.
				in.deliverEntry(append([]byte(nil), entry...))
			}
			// Drain any stashed successors the catch-up unblocked.
			in.drainCommitted()
		})
	})
}

func (in *Instance) pollGrants() {
	for p := 0; p < in.n; p++ {
		rd := in.grantReader[rdma.NodeID(p)]
		if rd == nil {
			continue
		}
		for {
			rec, ok, err := rd.Poll()
			if err != nil || !ok {
				break
			}
			msg, _, err := codec.DecodeRaw(rec)
			if err != nil || len(msg) < 18 {
				break
			}
			term := binary.LittleEndian.Uint64(msg)
			lastDelivered := binary.LittleEndian.Uint64(msg[8:])
			voter := rdma.NodeID(binary.LittleEndian.Uint16(msg[16:]))
			if term != in.term || !in.electing {
				continue
			}
			if !in.member(voter) {
				continue
			}
			in.grants[voter] = lastDelivered
			in.maybeLead()
		}
	}
}

func (in *Instance) maybeLead() {
	if !in.electing || len(in.grants) < in.majority() {
		return
	}
	in.electing = false
	in.isLeader = true
	in.recovering = true
	in.leader = in.node.ID()
	in.mLeaderChanges.Inc()
	if in.OnLeaderChange != nil {
		in.OnLeaderChange(in.leader, in.term)
	}
	in.recoverFrom(in.oldLeader)
}

// recoverFrom rebuilds leadership state after winning an election:
//
//  1. read every peer's published delivery watermark and the old leader's
//     published nextSeq (one-sided reads; a crashed peer is skipped);
//  2. read the old leader's journal and collect entries past the global
//     minimum watermark (the recovery floor);
//  3. reset every follower's log ring — zero-fill the data area and
//     reposition this leader's ring writer at the follower's (now
//     quiescent) head — because the old leader's writer position is
//     unknown to us;
//  4. re-disseminate the recovered entries and start serving.
func (in *Instance) recoverFrom(old rdma.NodeID) {
	if old == in.node.ID() {
		in.becomeActiveLeader(in.lastDelivered + 1)
		return
	}
	floor := in.lastDelivered
	ceil := in.lastDelivered
	oldNext := uint64(0)
	remaining := 0
	var journal []byte
	done := func() {
		remaining--
		if remaining > 0 {
			return
		}
		// Never assign a sequence number at or below any watermark we can
		// observe: a predecessor that died mid-recovery may publish a
		// stale (even zero) nextSeq, and reusing numbers would diverge
		// replicas that already delivered them.
		if oldNext < ceil+1 {
			oldNext = ceil + 1
		}
		var recovered [][]byte
		for seq := floor + 1; seq < oldNext; seq++ {
			if journal == nil {
				break
			}
			slot := int(seq) % in.cfg.JournalSlots
			framed := journal[slot*in.cfg.JournalSlotSize : (slot+1)*in.cfg.JournalSlotSize]
			entry, _, derr := codec.DecodeSlot(framed)
			if derr != nil {
				continue
			}
			je, derr := decodeLogEntry(entry)
			if derr != nil || je.seq != seq {
				continue // slot overwritten (journal wrapped)
			}
			recovered = append(recovered, append([]byte(nil), entry...))
		}
		in.resetRings(func() {
			in.propBase, in.props = in.lastDelivered+1, in.props[:0]
			for _, entry := range recovered {
				in.redisseminate(entry)
			}
			in.becomeActiveLeader(oldNext)
		})
	}
	// Phase 1+2: gather peer states and the old leader's journal.
	for p := 0; p < in.n; p++ {
		peer := rdma.NodeID(p)
		if peer == in.node.ID() {
			continue
		}
		remaining++
		in.node.QP(peer).Read(stateRegion(in.group), 0, 16, func(data []byte, err error) {
			if err == nil {
				ld := binary.LittleEndian.Uint64(data[8:])
				if ld < floor {
					floor = ld
				}
				if ld > ceil {
					ceil = ld
				}
				if peer == old {
					oldNext = binary.LittleEndian.Uint64(data)
				}
			}
			done()
		})
	}
	remaining++
	size := in.cfg.JournalSlots * in.cfg.JournalSlotSize
	in.node.QP(old).Read(journalRegion(in.group), 0, size, func(data []byte, err error) {
		if err == nil {
			journal = data
		}
		done()
	})
}

// resetRings zero-fills every follower's log ring and repositions this
// node's ring writers at the followers' heads, then runs next. Zero-filling
// quiesces each reader (nothing left to consume), so the head read after it
// is stable; the subsequent entry writes travel on the same QP and land in
// order.
func (in *Instance) resetRings(next func()) {
	remaining := 0
	done := func() {
		remaining--
		if remaining == 0 {
			next()
		}
	}
	for p := 0; p < in.n; p++ {
		peer := rdma.NodeID(p)
		oc := in.logOut[peer]
		if oc == nil {
			continue
		}
		remaining++
		// The dropped records complete nothing: their sequence numbers, the
		// newest sent to peer, leave its unacked queue with them, and a write
		// still in flight keeps popping its own.
		for dropped := oc.Drop(); dropped > 0; dropped-- {
			in.unacked[peer].PopBack()
		}
		in.resetRing(peer, oc, done)
	}
	if remaining == 0 {
		next()
	}
}

// resetRing zero-fills one follower's log ring and repositions the writer
// at the follower's head. A suspended follower still holds the old
// leader's write permission (it has not processed the vote request yet);
// the reset retries until the permission flips or this node is deposed,
// with the journal catch-up covering the follower in the interim. done is
// invoked exactly once, on the first outcome.
func (in *Instance) resetRing(peer rdma.NodeID, oc *ring.Sender, done func()) {
	first := true
	finish := func() {
		if first {
			first = false
			done()
		}
	}
	var attempt func()
	attempt = func() {
		if !in.isLeader && !in.recovering {
			finish() // deposed meanwhile
			return
		}
		// One zero buffer serves every follower and every attempt: the write
		// copies its data at post time.
		if in.zeros == nil {
			in.zeros = make([]byte, in.cfg.RingCapacity)
		}
		in.node.QP(peer).Write(logRegion(in.group), ring.HeaderSize, in.zeros, func(err error) {
			if err == rdma.ErrPermission {
				// Voter has not switched permissions yet: retry.
				in.fab.Engine().After(in.cfg.CatchUpAfter, attempt)
				finish()
				return
			}
			if err != nil {
				finish() // crashed peer: leave its channel alone
				return
			}
			in.node.QP(peer).Read(logRegion(in.group), 0, ring.HeaderSize, func(data []byte, rerr error) {
				if rerr == nil {
					oc.RestartAt(ring.DecodeHead(data))
				}
				finish()
			})
		})
	}
	attempt()
}

// redisseminate re-journals and re-sends a recovered entry under this
// leader's term. Receivers (and our own delivery path) dedup.
func (in *Instance) redisseminate(old []byte) {
	oe, err := decodeLogEntry(old)
	if err != nil {
		return
	}
	seq := oe.seq
	entry, rec := frameEntry(seq, in.term, in.lastDelivered, oe.origin, oe.submitSeq, oe.payload)
	in.journalRaw(seq, entry)
	if seq > in.lastDelivered {
		// Recovered entries come in sequence order; one the journal had lost
		// leaves a zero proposal behind, which is never decided.
		for in.propBase+uint64(len(in.props)) <= seq {
			in.props = append(in.props, proposal{})
		}
		p := in.proposal(seq)
		*p = proposal{entry: entry, acks: 1}
		if p.acks >= in.majority() {
			in.decide(seq)
		}
	}
	if rec != nil {
		in.replicate(rec, seq)
	}
}

func (in *Instance) becomeActiveLeader(nextSeq uint64) {
	in.recovering = false
	if nextSeq > in.nextSeq {
		in.nextSeq = nextSeq
	}
	binary.LittleEndian.PutUint64(in.node.Region(stateRegion(in.group)).Bytes(), in.nextSeq)
	in.resubmitPending()
}

// resubmitPending re-routes this node's undelivered submissions to the
// current leader, in submission order (sorted for determinism).
// Delivery-side dedup makes replays harmless.
func (in *Instance) resubmitPending() {
	seqs := make([]uint64, 0, len(in.pending))
	for submitSeq := range in.pending {
		seqs = append(seqs, submitSeq)
	}
	sort.Slice(seqs, func(i, j int) bool { return seqs[i] < seqs[j] })
	for _, submitSeq := range seqs {
		in.route(submitSeq, in.pending[submitSeq])
	}
	in.startRound()
}
