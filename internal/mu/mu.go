// Package mu implements a Mu-style consensus instance over the simulated
// RDMA fabric (Aguilera et al., OSDI '20) — the protocol Hamband
// instantiates once per synchronization group to order conflicting calls
// (§4 "Synchronization"), and the SMR baseline of the evaluation.
//
// Common case: a designated leader holds exclusive write permission on a
// log ring at every replica. The leader orders calls in rounds, one round in
// flight at a time: requests that arrive while a round is undecided queue,
// and the decision that completes the round first takes in every request
// that has landed in the leader's request rings — the drain a poll sweep
// runs, charged one SweepCost item queued ahead of the round's post — and
// then sequences everything queued as the next one. A round is one local
// journal write per entry plus one ring record — one one-sided RDMA write —
// per follower; the leader considers an entry decided once a majority of
// writes (counting itself) completed. Only
// the majority−1 followers' writes the decision waits on ask a completion,
// posted as one batch, so one poll reaps them; if one of them fails or is
// overdue, the round's other followers are asked instead. A
// round record carries the previous round's last sequence number as its
// commit watermark, so followers, which poll their log rings and deliver
// entries in sequence order, deliver round k, as one delivery, when round k+1
// arrives. A round that completes with nothing queued leaves its commit owed:
// the leader's next poll sweep sends a round of no entries, which carries it
// alone, unless a round started in between has carried it already.
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
	"math"
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
func ctrlRegion(g string, from rdma.NodeID) string {
	return fmt.Sprintf("mu-ctrl-%s-%d", g, from)
}
func journalRegion(g string) string { return "mu-journal-" + g }
func stateRegion(g string) string   { return "mu-state-" + g }

// Config holds consensus sizes. The poll period, the CPU prices and the
// catch-up period are the fabric's (rdma.LatencyModel's SweepPeriod,
// SweepCost, DeliverCost and CatchUpAfter).
type Config struct {
	RingCapacity    int // log and request ring capacity
	CtrlCapacity    int // control (vote and grant) ring capacity
	JournalSlots    int // journal length (entries)
	JournalSlotSize int // bytes per journal slot
}

// DefaultConfig returns sizes suited to the benchmark workloads.
func DefaultConfig() Config {
	return Config{
		RingCapacity:    1 << 16,
		CtrlCapacity:    1 << 12,
		JournalSlots:    1024,
		JournalSlotSize: 256,
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
			node.Register(ctrlRegion(group, peer), ring.RegionSize(cfg.CtrlCapacity)).AllowWrite(peer)
		}
	}
}

// DeliverFunc consumes decided entries, in sequence order, exactly once. The
// payload is borrowed for the call: it lies in the buffer its entry waited in,
// which goes back to the node's free list when Deliver returns and is
// overwritten by a later entry, so a callee that keeps the bytes copies them.
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

	// Buffers. Every payload the instance holds on to — a submission not yet
	// delivered here, a request queued for a round, a proposal, a stashed
	// follower entry — lives in a buffer from the free list of hand, the
	// node's handoff, and the buffer goes back there when its holder is done
	// with it: when the submission is delivered, when Deliver returns from the
	// entry's payload (the handoff takes the entry's buffer as it is), or when
	// the entry is dropped as a duplicate, as an older-term entry, or because a
	// catch-up or a newer leader's entry filled its stash slot. A warm
	// instance therefore allocates no buffers. The handoff hands the entries
	// delivered on to Deliver (deliverFn) in one CPU item for what one event
	// delivers: at the leader a write completion's decisions, a self-majority
	// round or a recovery, at a follower a caught-up journal slot, and what one
	// sweep of the node's in-channels commits. rec is the scratch buffer every
	// outgoing ring record is framed in: ring.Sender.Send copies it.
	hand      *rdma.Handoff
	deliverFn rdma.Handler
	rec       []byte

	journal *ring.Slots // every entry sequenced here, as a round of one, for one-sided reads
	state   []byte      // the state words, published for one-sided reads (publish)

	// Leader state.
	nextSeq uint64 // next sequence number to assign (1-based)
	// queue holds the requests waiting for the next round, in arrival order.
	// Only an active leader queues, and a deposed one drops the queue, so it
	// is non-empty only at a leader that is not recovering. The backing array
	// is reused from round to round.
	queue  []request
	logOut []*ring.Sender // indexed by node id, nil for this node
	// props is what this leader sequenced and has not delivered — the round in
	// flight, or the entries a fresh leader recovered: props[i] is sequence
	// number propBase+i. A round starts it over and a deposition empties it, so
	// it never outgrows a round, and a write that completes after its entry was
	// delivered finds nothing to count toward.
	propBase uint64
	props    []proposal
	// unacked[p] lists the sequence numbers each signaled record sent to
	// follower p counts toward, one span per record whose log write has not
	// completed, oldest first; ackFns[p], bound once, is the completion of
	// every one of them and pops its own (a Sender's onDones run in send
	// order). Both are indexed by node id.
	unacked []fifo.Queue[span]
	ackFns  []func(error)
	// copies[p] is how the round in flight went to follower p: not at all, a
	// copy asking no completion, or a signaled one (replicate). missed[p]
	// reports that p's last signaled write failed or was overdue, so later
	// rounds sign the other followers first; a completed write clears it.
	// pick is replicate's scratch. All are indexed by node id. batch posts a
	// round's signaled writes as one CPU item, inline whatever fits
	// (rdma.InlineFits): a conflicting call's response waits on them.
	copies []roundCopy
	missed []bool
	pick   []bool
	batch  *rdma.Batch
	// signAll is the mutant that signs every follower's write, each posted
	// alone (MutateSignAll), noFallback the one that never signs the others
	// (the fault tests' control), and sweepIntake the one that takes in
	// requests at sweeps only (MutateSweepIntake).
	signAll, noFallback, sweepIntake bool
	// open[p] reports whether this node's writer on follower p's log ring sits
	// at a position it established: from the start for the initial leader,
	// once resetRing has wiped the ring and read its head for a later one.
	// replicate skips a follower whose ring is not open, and the journal
	// catch-up covers that follower meanwhile. Indexed by node id.
	open      []bool
	zeros     []byte // RingCapacity zero bytes: what resetRing writes over a follower's ring
	grants    map[rdma.NodeID]uint64
	oldLeader rdma.NodeID
	// owed reports that the followers have not been sent the delivery
	// watermark: a round completed with nothing queued. The next sweep pays
	// it with a round of no entries, a round starting first carries it, and a
	// deposition forgets it.
	owed bool

	// Delivery state (all roles).
	lastDelivered  uint64
	stash          map[uint64]stashed // not-yet-committed log entries, each payload in a buffer from free
	commitSeen     uint64             // highest commit watermark received
	ringTerm       uint64             // highest term seen in the log ring
	logWriter      rdma.NodeID        // the node this one let write its log ring
	catching       bool               // journal catch-up read in flight
	lastProgressAt sim.Time           // when delivery last advanced (or was verified current)
	// dedup[p] is what has been delivered of origin p's submissions, by
	// submission sequence number.
	dedup []ring.Watermark

	// Membership view (dynamic reconfiguration). nil means the fixed
	// full-fabric membership; otherwise members[p] reports whether node p
	// is in the current configuration. Non-members count toward no
	// majority and their votes and grants are ignored.
	members []bool

	// Submission state.
	submitSeq uint64
	pending   map[uint64][]byte // my submissions not yet delivered, each in a buffer from free
	// Writers on each peer's request and control rings from this node,
	// indexed by peer (nil for this node). A control ring carries votes and
	// grants alike.
	reqOut  []*ring.Sender
	ctrlOut []*ring.Sender

	// Readers: the log ring (a set of one, for ring.Drain), and each peer's
	// request and control rings, indexed by peer (nil for this node).
	logReader   [1]*ring.Reader
	reqReaders  []*ring.Reader
	ctrlReaders []*ring.Reader

	poll *rdma.Sweep

	// Instrumentation. proposedAt is populated only when metrics are
	// enabled, so the disabled path stays allocation-free.
	mCommitLat     *metrics.Histogram // leader: round start → majority decide
	mQueueWait     *metrics.Histogram // leader: request queued → its round starts
	mRoundEntries  *metrics.Histogram // leader: entries per round (a count, not a time)
	mCommitRecords *metrics.Counter   // leader: rounds of no entries sent
	mFallbacks     *metrics.Counter   // leader: rounds whose other followers were signed
	mLeaderChanges *metrics.Counter   // leader-view adoptions on this node
	mElections     *metrics.Counter   // candidacies started by this node
	tornRead       *metrics.Read      // mu.torn_rejects; Stop retires it
	proposedAt     map[uint64]sim.Time

	// Deliver is invoked, on this node's CPU, for every decided entry in
	// sequence order.
	Deliver DeliverFunc
	// Transform, if set, is applied by the leader to every request payload
	// immediately before sequencing it (for both local submissions and
	// redirected requests). Hamband uses it to check permissibility and
	// attach the dependency record at the ordering point, as rule CONF
	// prescribes. Both the payload and the result are borrowed for the call:
	// the instance copies the result into the entry before anything else
	// runs, so Transform may return a buffer it reuses, or its argument.
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
// run with the same initialLeader. Its instruments go to the fabric's
// registry, if one is attached.
func NewInstance(fab *rdma.Fabric, node *rdma.Node, group string, cfg Config, initialLeader rdma.NodeID) *Instance {
	in := &Instance{
		fab:       fab,
		node:      node,
		group:     group,
		cfg:       cfg,
		n:         fab.Size(),
		leader:    initialLeader,
		logWriter: initialLeader,
		votedFor:  -1,
		isLeader:  node.ID() == initialLeader,
		nextSeq:   1,
		oldLeader: initialLeader,

		logOut:  make([]*ring.Sender, fab.Size()),
		unacked: make([]fifo.Queue[span], fab.Size()),
		ackFns:  make([]func(error), fab.Size()),
		copies:  make([]roundCopy, fab.Size()),
		missed:  make([]bool, fab.Size()),
		pick:    make([]bool, fab.Size()),
		batch:   node.NewBatch(rdma.InlineFits),
		open:    make([]bool, fab.Size()),
		stash:   make(map[uint64]stashed),
		dedup:   make([]ring.Watermark, fab.Size()),
		pending: make(map[uint64][]byte),

		reqOut:  make([]*ring.Sender, fab.Size()),
		ctrlOut: make([]*ring.Sender, fab.Size()),

		reqReaders:  make([]*ring.Reader, fab.Size()),
		ctrlReaders: make([]*ring.Reader, fab.Size()),

		journal: ring.NewSlots(node, journalRegion(group), cfg.JournalSlots, cfg.JournalSlotSize),
		hand:    node.Handoff(),
		state:   node.Region(stateRegion(group)).Bytes(),
	}
	if reg := fab.Metrics(); reg.Enabled() {
		in.mCommitLat = reg.Histogram("mu.commit_latency", nil)
		in.mQueueWait = reg.Histogram("mu.queue_wait", nil)
		// Counts observed as durations, doubling up to the default journal's length.
		in.mRoundEntries = reg.Histogram("mu.round_entries",
			[]sim.Duration{1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024})
		in.mCommitRecords = reg.Counter("mu.commit_records")
		in.mFallbacks = reg.Counter("mu.quorum_fallbacks")
		in.mLeaderChanges = reg.Counter("mu.leader_changes")
		in.mElections = reg.Counter("mu.elections")
		in.proposedAt = make(map[uint64]sim.Time)
		in.tornRead = reg.CounterFunc("mu.torn_rejects", func() uint64 {
			return ring.TornRejects(in.logReader[:], in.reqReaders, in.ctrlReaders) + in.journal.TornRejects()
		})
	}
	in.logReader[0] = ring.NewReader(node.Region(logRegion(group)).Bytes())
	for p := 0; p < in.n; p++ {
		peer := rdma.NodeID(p)
		if peer == node.ID() {
			continue
		}
		in.logOut[peer] = in.newOut(peer, logRegion(group), cfg.RingCapacity)
		in.ackFns[peer] = func(err error) { in.acked(peer, err) }
		in.open[peer] = true // every ring starts empty, with its head at zero
		in.reqOut[peer] = in.newOut(peer, reqRegion(group, node.ID()), cfg.RingCapacity)
		in.ctrlOut[peer] = in.newOut(peer, ctrlRegion(group, node.ID()), cfg.CtrlCapacity)
		in.reqReaders[peer] = ring.NewReader(node.Region(reqRegion(group, peer)).Bytes())
		in.ctrlReaders[peer] = ring.NewReader(node.Region(ctrlRegion(group, peer)).Bytes())
	}
	in.deliverFn = func(origin rdma.NodeID, seq uint64, payload []byte) { in.Deliver(seq, origin, payload) }
	in.poll = node.Poll(in.sweep)
	return in
}

// Stop takes the instance's sweep out of its node's poll loop.
func (in *Instance) Stop() {
	in.poll.Stop()
	in.tornRead.Retire()
}

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

// QuorumPosts reports how many post items the leader's quorum batch has
// submitted (diagnostics).
func (in *Instance) QuorumPosts() int { return in.batch.Posts() }

func (in *Instance) newOut(peer rdma.NodeID, region string, capacity int) *ring.Sender {
	return ring.NewSender(in.fab, in.node, in.node.NewBatch(rdma.InlineFits), peer, region, capacity)
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

// member reports whether node p is in the current configuration. An id read
// off a ring that names no node is in none.
func (in *Instance) member(p rdma.NodeID) bool {
	return int(p) < in.n && (in.members == nil || in.members[p])
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
//
// Every message is the payload of a raw ring record (codec.BeginRaw /
// FinishRaw), and its fixed fields are a run of the call record's canonical
// uvarints (codec.AppendUvarint, codec.Uvarints) ahead of the payload, if it
// has one. A node id above maxNode is codec.ErrCorrupt.

// maxNode is the largest node id a message carries.
const maxNode = 0xFFFF

// round: uvarint first | uvarint term | uvarint commit | uvarint count, then
// count entries, each uvarint origin | uvarint submitSeq | uvarint length |
// payload. The entries carry sequence numbers first, first+1, …; a round of
// no entries carries its commit alone. term is the proposing leader's term:
// receivers drop rounds from terms older than the highest they have seen,
// which silences a deposed "zombie" leader that has not yet learned of its
// deposition. commit is the proposer's decided watermark: receivers deliver
// an entry only once some record shows it committed, so a zombie's
// never-decided proposals are never applied. The log ring carries a round as
// one record, or several when it outgrows the ring's record bound; the
// journal keeps each entry as a round of one.
func appendRoundHeader(dst []byte, first, term, commit uint64, count int) []byte {
	dst = codec.AppendUvarint(dst, first)
	dst = codec.AppendUvarint(dst, term)
	dst = codec.AppendUvarint(dst, commit)
	return codec.AppendUvarint(dst, uint64(count))
}

// entry is one log entry: who submitted it, its submission sequence number
// at its origin, and its payload.
type entry struct {
	origin    rdma.NodeID
	submitSeq uint64
	payload   []byte
}

func appendEntry(dst []byte, e entry) []byte {
	dst = codec.AppendUvarint(dst, uint64(e.origin))
	dst = codec.AppendUvarint(dst, e.submitSeq)
	dst = codec.AppendUvarint(dst, uint64(len(e.payload)))
	return append(dst, e.payload...)
}

// size is how long e packs to in a round.
func (e entry) size() int {
	return codec.UvarintLen(uint64(e.origin)) + codec.UvarintLen(e.submitSeq) +
		codec.UvarintLen(uint64(len(e.payload))) + len(e.payload)
}

// maxOneHeader is the longest a round of one packs to ahead of its payload's
// length: three ten-byte varints, a one-byte count, a three-byte origin and a
// ten-byte submission sequence number.
const maxOneHeader = 3*binary.MaxVarintLen64 + 1 + 3 + binary.MaxVarintLen64

// MaxPayload is the largest payload Submit can order under c. The round of
// one that carries its entry (the longest packed header, the payload's length,
// raw framing) must fit a journal slot, which keeps the record as it is, half
// a log ring (ring.Writer's bound) and one codec record. Whichever is tighter
// decides. A request for the payload is shorter than its entry.
func (c Config) MaxPayload() int {
	room := min(c.JournalSlotSize, c.RingCapacity/2, codec.MaxRecord) - maxOneHeader - codec.RawOverhead
	n := room
	for n > 0 && n+codec.UvarintLen(uint64(n)) > room {
		n--
	}
	return n
}

// maxRound is the longest message a log ring record carries: a round is cut
// into records no longer than this.
func (c Config) maxRound() int {
	return min(c.RingCapacity/2, codec.MaxRecord) - codec.RawOverhead
}

// frame closes the ring record b, opened on the scratch buffer with
// codec.BeginRaw, and keeps b's array as the scratch buffer. The record is
// valid until the next one is framed; ring.Sender.Send copies it. It is nil
// when no ring record can carry b's message.
func (in *Instance) frame(b []byte) []byte {
	rec, err := codec.FinishRaw(b, 0)
	if err != nil {
		in.rec = b
		return nil
	}
	in.rec = rec
	return rec
}

// frameOne frames e as seq's round of one under this node's term and commit
// watermark: its journal slot, and the record recovery re-sends it in.
func (in *Instance) frameOne(seq uint64, e entry) []byte {
	b := appendRoundHeader(codec.BeginRaw(in.rec[:0]), seq, in.term, in.lastDelivered, 1)
	return in.frame(appendEntry(b, e))
}

// round is a decoded round record: its header, and its entries still packed.
type round struct {
	first, term, commit uint64
	count               int
	entries             []byte
}

// decodeRound decodes a round record's message. Every entry is checked, so
// a record is taken whole or not at all: a cut anywhere is an error, and a
// byte past the last entry, a first sequence number of zero or a count the
// sequence numbers cannot hold is codec.ErrCorrupt.
func decodeRound(b []byte) (round, error) {
	var r round
	var count uint64
	body, err := codec.Uvarints(b, &r.first, &r.term, &r.commit, &count)
	switch {
	case err != nil:
		return round{}, err
	case r.first == 0 || count > math.MaxUint64-r.first+1:
		return round{}, fmt.Errorf("%w: round of %d from seq %d", codec.ErrCorrupt, count, r.first)
	case count > uint64(len(body))/3: // an entry packs to three bytes at least
		return round{}, codec.ErrTruncated
	}
	r.count, r.entries = int(count), body
	for i := 0; i < r.count; i++ {
		if _, body, err = nextEntry(body); err != nil {
			return round{}, err
		}
	}
	if len(body) > 0 {
		return round{}, fmt.Errorf("%w: %d bytes past a round", codec.ErrCorrupt, len(body))
	}
	return r, nil
}

// nextEntry decodes the entry at the front of b and returns the bytes past it.
func nextEntry(b []byte) (e entry, rest []byte, err error) {
	var origin, n uint64
	rest, err = codec.Uvarints(b, &origin, &e.submitSeq, &n)
	if err == nil {
		e.origin, err = nodeID(origin)
	}
	if err == nil && n > uint64(len(rest)) {
		err = codec.ErrTruncated
	}
	if err != nil {
		return entry{}, nil, err
	}
	return entry{e.origin, e.submitSeq, rest[:n]}, rest[n:], nil
}

// each calls fn with every entry of r, a decoded round, and its sequence
// number, in order. The payloads lie in the decoded bytes.
func (r round) each(fn func(seq uint64, e entry)) {
	b := r.entries
	for i := 0; i < r.count; i++ {
		var e entry
		e, b, _ = nextEntry(b)
		fn(r.first+uint64(i), e)
	}
}

// nodeID checks a node id read off a ring.
func nodeID(v uint64) (rdma.NodeID, error) {
	if v > maxNode {
		return 0, fmt.Errorf("%w: node id %d", codec.ErrCorrupt, v)
	}
	return rdma.NodeID(v), nil
}

// request: uvarint submitSeq | payload, built inside its ring record like a
// round.
func (in *Instance) frameReq(submitSeq uint64, payload []byte) []byte {
	b := codec.AppendUvarint(codec.BeginRaw(in.rec[:0]), submitSeq)
	return in.frame(append(b, payload...))
}

func decodeRequest(b []byte) (submitSeq uint64, payload []byte, err error) {
	payload, err = codec.Uvarints(b, &submitSeq)
	return submitSeq, payload, err
}

// Votes and grants share a peer's control ring, and a kind byte ahead of
// their fields tells them apart. Counting fields would save the byte, but a
// grant cut short after its second field would then read as a well-formed
// vote; with the kind byte every cut is an error.
const (
	kindVote  byte = 1 // vote: kind | uvarint term | uvarint candidate
	kindGrant byte = 2 // grant: kind | uvarint term | uvarint lastDelivered | uvarint voter
)

// frameVote builds a vote inside its ring record like a request.
func (in *Instance) frameVote(term uint64, cand rdma.NodeID) []byte {
	b := codec.AppendUvarint(append(codec.BeginRaw(in.rec[:0]), kindVote), term)
	return in.frame(codec.AppendUvarint(b, uint64(cand)))
}

// frameGrant builds a grant like a vote.
func (in *Instance) frameGrant(term, lastDelivered uint64, voter rdma.NodeID) []byte {
	b := codec.AppendUvarint(append(codec.BeginRaw(in.rec[:0]), kindGrant), term)
	b = codec.AppendUvarint(b, lastDelivered)
	return in.frame(codec.AppendUvarint(b, uint64(voter)))
}

// ctrl is a decoded vote (grant false: node is the candidate) or grant (node
// is the voter).
type ctrl struct {
	grant               bool
	term, lastDelivered uint64
	node                rdma.NodeID
}

// decodeCtrl decodes a vote or a grant; a byte past its fields is
// codec.ErrCorrupt. On error the message is partly decoded.
func decodeCtrl(b []byte) (m ctrl, err error) {
	var node uint64
	var rest []byte
	switch {
	case len(b) == 0:
		return m, codec.ErrTruncated
	case b[0] == kindVote:
		rest, err = codec.Uvarints(b[1:], &m.term, &node)
	case b[0] == kindGrant:
		m.grant = true
		rest, err = codec.Uvarints(b[1:], &m.term, &m.lastDelivered, &node)
	default:
		return m, fmt.Errorf("%w: control kind %d", codec.ErrCorrupt, b[0])
	}
	if err == nil && len(rest) > 0 {
		err = fmt.Errorf("%w: %d bytes past a control message", codec.ErrCorrupt, len(rest))
	}
	if err == nil {
		m.node, err = nodeID(node)
	}
	return m, err
}

// --- output ------------------------------------------------------------

// span is the sequence numbers a round record carries: n of them, from first.
type span struct {
	first uint64
	n     int
}

// roundCopy is how the round in flight went to one follower.
type roundCopy uint8

const (
	noCopy   roundCopy = iota // not at all: the follower's ring was closed
	unsigned                  // its writes ask no completion
	signed                    // its writes ask a completion, counted toward the round
)

// replicate appends rec, a round record framed once, to the log ring of every
// follower whose ring is open. A record of entries asks a completion of
// majority−1 member followers only, the quorum the round waits on: the first
// ones, by node id, that have not missed a quorum, then the first that have
// (pickQuorum). Their writes go out as one batch, so their completions land
// together and one poll of the completion queue reaps them; each completed
// write counts toward every entry of the record (its span joins the
// follower's unacked queue, and the follower's one completion callback pops
// it), and a write error — e.g. permission revoked by a new leader — counts
// nothing, so a deposed leader still cannot assemble a majority. Every other
// follower's write, and a round of no entries, posts unsignaled behind the
// batch. A round's records all go out in one event, so each of them picks the
// same quorum.
func (in *Instance) replicate(rec []byte, s span) {
	if s.n > 0 {
		in.pickQuorum(in.majority() - 1)
	}
	for p := 0; p < in.n; p++ {
		oc := in.logOut[p]
		if oc == nil || !in.open[p] {
			continue
		}
		switch {
		case s.n == 0:
			oc.Send(rec, "", nil)
		case in.pick[p]:
			in.sign(p, rec, s)
		default:
			in.copies[p] = max(in.copies[p], unsigned)
			oc.Send(rec, "", nil)
		}
	}
}

// sign sends rec to follower p asking a completion, which counts toward s,
// in the quorum batch; under the signAll mutant, in its Sender's own.
func (in *Instance) sign(p int, rec []byte, s span) {
	in.copies[p] = signed
	in.unacked[p].Push(s)
	if in.signAll {
		in.logOut[p].Send(rec, "", in.ackFns[p])
		return
	}
	in.logOut[p].SendIn(in.batch, rec, "", in.ackFns[p])
}

// pickQuorum sets pick to the want open member followers whose writes ask a
// completion: those that have not missed a quorum first, each group in node
// id order.
func (in *Instance) pickQuorum(want int) {
	if in.signAll {
		want = in.n
	}
	clear(in.pick)
	for _, late := range [2]bool{false, true} {
		for p := 0; p < in.n && want > 0; p++ {
			if in.logOut[p] != nil && in.open[p] && in.member(rdma.NodeID(p)) && in.missed[p] == late {
				in.pick[p] = true
				want--
			}
		}
	}
}

// overdue reports, at a sweep, whether the round in flight can no longer
// count on the completions it asked for: every signed write still
// outstanding to a member is late, marking its follower missed, or none is
// outstanding and the round is short of its quorum (a signed follower's ack
// was discarded, or the majority grew). A signed write is late a round trip
// (WireLatency + AckLatency) and one SweepPeriod after the newest verb of its
// follower's log Sender left (ring.Sender.SentAt): its round record, or the
// head read a full ring holds it behind. The queue pair to the follower is no
// clock: broadcast, requests and summaries post on it too, and while the link
// is partitioned each of their verbs parks fresh. The sweep's clock is its
// tick, not its start: it has seen every completion that landed before it
// (rdma.Node.SweepTick), however long a busy CPU held it. Nothing is due
// while the round's batch waits on the CPU.
func (in *Instance) overdue() bool {
	if in.lastDelivered+1 >= in.nextSeq || in.batch.Pending() {
		return false
	}
	lat := in.fab.Latency()
	due := sim.Time(lat.WireLatency + lat.AckLatency + lat.SweepPeriod)
	tick, waiting := in.node.SweepTick(), false
	for p := range in.copies {
		switch {
		case in.copies[p] != signed || in.unacked[p].Len() == 0 || !in.member(rdma.NodeID(p)):
		case tick <= in.logOut[p].SentAt()+due:
			waiting = true // it may yet complete in time
		default:
			in.missed[p] = true
		}
	}
	return !waiting
}

// signOthers asks a completion of every open member follower to which the
// round in flight went unsignaled: a signaled round of no entries each, all
// in one batch. RC ordering completes it only once the round's records to that
// follower have landed, so its span is the whole round, and the round decides
// from any majority. A signaled write that failed, or a quorum overdue at a
// sweep, calls it.
func (in *Instance) signOthers() {
	if in.noFallback || in.recovering || in.lastDelivered+1 >= in.nextSeq {
		return
	}
	var rec []byte
	for p, oc := range in.logOut {
		if oc == nil || !in.open[p] || in.copies[p] != unsigned || !in.member(rdma.NodeID(p)) {
			continue
		}
		if rec == nil {
			in.mFallbacks.Inc()
			rec = in.frame(appendRoundHeader(codec.BeginRaw(in.rec[:0]), in.nextSeq, in.term, in.lastDelivered, 0))
		}
		in.sign(p, rec, span{in.propBase, len(in.props)})
	}
}

// MutateSignAll makes every round ask a completion of every follower, each
// write posted alone: the rule before the quorum batch. It is for the
// mutation controls only, a cost the ledger's completion-queue bound must
// catch.
func (in *Instance) MutateSignAll() { in.signAll = true }

// MutateSweepIntake makes the leader take in its request rings at its sweeps
// only, not at the decision that completes a round: the rule before the
// decision's intake. It is for the mutation controls only.
func (in *Instance) MutateSweepIntake() { in.sweepIntake = true }

// --- submission -------------------------------------------------------

// Submit hands a payload to the group for total ordering. The payload will
// be delivered, exactly once and in order, through Deliver on every node.
// Submissions survive leader changes via resubmission: the instance keeps a
// copy of the payload, in a buffer from the node's free list, until it is
// delivered here, so the caller may reuse its buffer as soon as Submit
// returns.
func (in *Instance) Submit(payload []byte) {
	in.submitSeq++
	payload = in.hand.Keep(payload)
	in.pending[in.submitSeq] = payload
	in.route(in.submitSeq, payload)
	in.startRound()
	in.hand.Hand() // a round a majority of one decided
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
	if rec := in.frameReq(submitSeq, payload); rec != nil {
		oc.Send(rec, "", nil)
	}
}

// request is one call waiting in the leader's queue for its round.
type request struct {
	origin    rdma.NodeID
	submitSeq uint64
	payload   []byte   // a buffer from the free list
	at        sim.Time // when it was queued
}

// propose queues a copy of a request for the leader's next round.
func (in *Instance) propose(origin rdma.NodeID, submitSeq uint64, payload []byte) {
	in.queue = append(in.queue, request{origin, submitSeq, in.hand.Keep(payload), in.fab.Engine().Now()})
}

// startRound sequences everything queued as one round — Transform, sequence
// number, journal and one round record per follower for the lot — unless a
// round is in flight: something proposed is still undelivered here. The gate
// makes lastDelivered the previous round's last sequence number, and the
// round's record carries it as its commit watermark. A leader whose round can
// never decide (a zombie) therefore proposes nothing further. It reports
// whether a round started.
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
	clear(in.copies)
	for i := 0; i < n; i++ {
		r := &in.queue[i]
		in.mQueueWait.Observe(sim.Duration(now - r.at))
		payload := r.payload
		if in.Transform != nil {
			// The result is borrowed: the proposal keeps a copy of it.
			payload = in.hand.Keep(in.Transform(r.origin, payload))
			in.hand.Release(r.payload)
		}
		seq := in.nextSeq
		in.nextSeq++
		if in.proposedAt != nil {
			in.proposedAt[seq] = now
		}
		e := entry{r.origin, r.submitSeq, payload}
		in.journal.Put(seq, in.frameOne(seq, e))
		in.props = append(in.props, proposal{entry: e, acks: 1}) // self
	}
	in.publish()
	in.mRoundEntries.Observe(sim.Duration(n))
	rest := copy(in.queue, in.queue[n:])
	clear(in.queue[rest:])
	in.queue = in.queue[:rest]
	in.sendRound(first, in.props)
	in.owed = false // the round's records carry the watermark
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

// sendRound replicates props, sequence numbers first on, as round records
// under this leader's term and commit watermark: one record, or as many as
// the log ring's record bound cuts the round into, each taking as many
// entries as fit.
func (in *Instance) sendRound(first uint64, props []proposal) {
	for len(props) > 0 {
		// The header at its longest for what is left: the count is at most
		// len(props).
		size := codec.UvarintLen(first) + codec.UvarintLen(in.term) +
			codec.UvarintLen(in.lastDelivered) + codec.UvarintLen(uint64(len(props)))
		k := 0
		for ; k < len(props) && (k == 0 || size+props[k].size() <= in.cfg.maxRound()); k++ {
			size += props[k].size()
		}
		b := appendRoundHeader(codec.BeginRaw(in.rec[:0]), first, in.term, in.lastDelivered, k)
		for i := range props[:k] {
			b = appendEntry(b, props[i].entry)
		}
		in.replicate(in.frame(b), span{first, k})
		first, props = first+uint64(k), props[k:]
	}
}

// acked is the completion of the oldest unacknowledged signaled log write to
// peer: a completed write counts toward every entry of its span, and what its
// decisions deliver is handed on as one item. A failed one leaves the quorum
// short, so the round's other followers are signed.
func (in *Instance) acked(peer rdma.NodeID, err error) {
	s := in.unacked[peer].Pop()
	// Only successful writes count: a deposed leader's writes fail with
	// permission errors at every voter, so it can never assemble a
	// majority and never decides its zombie proposals. Acks from nodes
	// outside the current configuration are discarded the same way — an
	// observer's copy must not help decide an entry.
	if !in.isLeader || !in.member(peer) {
		return
	}
	if err != nil {
		in.missed[peer] = true
		in.signOthers()
		return
	}
	in.missed[peer] = false
	for seq := s.first; seq < s.first+uint64(s.n); seq++ {
		p := in.proposal(seq)
		if p == nil || p.acks == 0 {
			continue // delivered without this write, or sequenced under an earlier leadership
		}
		p.acks++
		if !p.decided && p.acks >= in.majority() {
			in.decide(seq)
		}
	}
	in.hand.Hand()
}

// proposal is an entry this leader sequenced and has not delivered yet, its
// payload in a buffer from the free list. The zero value, with no acks, is a
// sequence number the leader holds nothing for: one it has delivered, or a
// hole in what it recovered.
type proposal struct {
	entry
	acks    int  // completed writes, counting the local journal's
	decided bool // a majority reached
}

// proposal returns seq's slot in props, or nil when seq is outside it.
func (in *Instance) proposal(seq uint64) *proposal {
	if seq < in.propBase || seq-in.propBase >= uint64(len(in.props)) {
		return nil
	}
	return &in.props[seq-in.propBase]
}

// decide marks seq decided and delivers contiguous decided entries locally;
// the caller, or a sweep's poll loop, closes the handoff record. The decision
// that completes the round in flight takes in the request rings (intake) and
// starts the next round, whose record carries the new commit watermark; with
// nothing queued, it is owed to the next sweep.
func (in *Instance) decide(seq uint64) {
	p := in.proposal(seq)
	p.decided = true
	if at, ok := in.proposedAt[seq]; ok {
		in.mCommitLat.Observe(sim.Duration(in.fab.Engine().Now() - at))
		delete(in.proposedAt, seq)
	}
	if in.Tracer != nil && in.TraceLabel != nil {
		if label := in.TraceLabel(p.payload); label != "" {
			in.Tracer.Record(int(in.node.ID()), trace.Commit, label,
				fmt.Sprintf("%s seq %d replicated to a majority", in.group, seq))
		}
	}
	advanced := false
	for {
		next := in.proposal(in.lastDelivered + 1)
		if next == nil || !next.decided {
			break
		}
		e := next.entry
		*next = proposal{}
		in.bumpDelivered(in.lastDelivered + 1)
		advanced = true
		in.deliverEntry(in.lastDelivered, e)
	}
	if advanced && in.lastDelivered+1 >= in.nextSeq {
		if in.isLeader && !in.recovering && !in.sweepIntake {
			// What a sweep's drain costs, queued ahead of the round's post.
			in.node.CPU.Submit(in.fab.Latency().SweepCost, nil)
			in.intake()
		}
		if !in.startRound() {
			in.owed = true
		}
	}
}

// sendCommitRecord broadcasts a round of no entries, which carries the
// current commit watermark alone, and so pays the owed one.
func (in *Instance) sendCommitRecord() {
	in.owed = false
	in.mCommitRecords.Inc()
	b := appendRoundHeader(codec.BeginRaw(in.rec[:0]), in.nextSeq, in.term, in.lastDelivered, 0)
	in.replicate(in.frame(b), span{})
}

// bumpDelivered advances the delivery watermark and publishes it, so that a
// future leader can compute the global recovery floor with one-sided reads.
func (in *Instance) bumpDelivered(to uint64) {
	in.lastDelivered = to
	in.lastProgressAt = in.fab.Engine().Now()
	in.publish()
}

// publish writes the state words, nextSeq and then lastDelivered, to the
// state region, where readState reads them.
func (in *Instance) publish() {
	binary.LittleEndian.PutUint64(in.state, in.nextSeq)
	binary.LittleEndian.PutUint64(in.state[8:], in.lastDelivered)
}

// readState reads peer's published state words (one 16-byte READ); got
// receives them, or the read's error.
func (in *Instance) readState(peer rdma.NodeID, got func(next, delivered uint64, err error)) {
	in.node.QP(peer).Read(stateRegion(in.group), 0, 16, func(data []byte, err error) {
		if err != nil {
			got(0, 0, err)
			return
		}
		got(binary.LittleEndian.Uint64(data), binary.LittleEndian.Uint64(data[8:]), nil)
	})
}

// deliverEntry dedups e, entry seq, by (origin, submitSeq) and adds its
// payload to the node's open handoff record, for Deliver; an entry naming no
// node is sequenced but delivered nowhere. The
// caller gives e's payload, a buffer from the free list, away: the handoff
// takes it as it is and puts it back once Deliver returns, or it goes back at
// once. An entry of this node's own submission also puts the pending copy
// back.
func (in *Instance) deliverEntry(seq uint64, e entry) {
	if int(e.origin) < in.n {
		if mine, ok := in.pending[e.submitSeq]; ok && e.origin == in.node.ID() {
			delete(in.pending, e.submitSeq)
			in.hand.Release(mine)
		}
		if _, fresh := in.dedup[e.origin].Admit(e.submitSeq, len(e.payload), true); fresh && in.Deliver != nil {
			in.hand.Add(in.deliverFn, e.origin, seq, e.payload)
			return
		}
	}
	in.hand.Release(e.payload)
}

// --- polling ----------------------------------------------------------

// sweep is one poll's work on the node's CPU.
func (in *Instance) sweep() {
	ring.Drain(in.logReader[:], in.handleLog)
	if in.isLeader && !in.recovering {
		in.intake()
		in.startRound()
		if in.owed {
			in.sendCommitRecord()
		}
		if in.overdue() {
			in.signOthers()
		}
	}
	ring.Drain(in.ctrlReaders, in.handleCtrl)
	// Anti-entropy with the leader: a stash gap, or simply no delivery
	// progress for a while, means entries may have been lost to a
	// permission window or a ring reset — pull them from the leader's
	// journal. (An idle but current follower pays one 8-byte read per
	// staleness window.)
	if !in.isLeader {
		_, gapped := in.stash[in.lastDelivered+1]
		stale := in.fab.Engine().Now()-in.lastProgressAt > sim.Time(in.fab.Latency().CatchUpAfter)
		if (len(in.stash) > 0 && !gapped) || stale {
			in.catchUp(in.leader)
		}
	}
}

// stashed is a follower's copy of an entry it has not delivered, and the
// term of the round that carried it.
type stashed struct {
	entry
	term uint64
}

// handleLog takes in the round record msg: it stashes the round's entries and
// delivers what the record's commit watermark decides. One that does not
// decode, or comes from a term older than the highest this ring has carried
// (a zombie), is dropped; the drain goes on either way. A record taken in is
// word from the node this one lets write its log ring (rdma.Node.Heard).
func (in *Instance) handleLog(_ rdma.NodeID, msg []byte) error {
	r, err := decodeRound(msg)
	if err != nil || r.term < in.ringTerm {
		return nil
	}
	in.node.Heard(in.logWriter)
	if r.term > in.ringTerm {
		in.ringTerm = r.term
		// A newer term invalidates stashed uncommitted entries from
		// older terms.
		for seq, old := range in.stash {
			if old.term < r.term {
				delete(in.stash, seq)
				in.hand.Release(old.payload)
			}
		}
	}
	in.commitSeen = max(in.commitSeen, r.commit)
	r.each(func(seq uint64, e entry) {
		if seq <= in.lastDelivered {
			return
		}
		// Poll reuses its buffer, so the stash keeps a copy, in place of any
		// entry a newer leader's re-dissemination supersedes.
		in.hand.Release(in.stash[seq].payload)
		e.payload = in.hand.Keep(e.payload)
		in.stash[seq] = stashed{e, r.term}
	})
	in.drainCommitted()
	return nil
}

// drainCommitted delivers stashed entries in sequence order up to the
// received commit watermark, into the open handoff record: a sweep's closes
// with the poll loop's item, a catch-up's after this drain.
func (in *Instance) drainCommitted() {
	for in.lastDelivered < in.commitSeen {
		next, ok := in.stash[in.lastDelivered+1]
		if !ok {
			break
		}
		delete(in.stash, in.lastDelivered+1)
		in.bumpDelivered(in.lastDelivered + 1)
		in.deliverEntry(in.lastDelivered, next.entry)
	}
}

// intake queues every request that has landed in the request rings: an
// active leader's sweep runs it, and so does the decision that completes a
// round, so the next round takes what landed while this one was in flight.
func (in *Instance) intake() { ring.Drain(in.reqReaders, in.handleRequest) }

// handleRequest proposes the request msg that from redirected to this leader.
func (in *Instance) handleRequest(from rdma.NodeID, msg []byte) error {
	submitSeq, payload, err := decodeRequest(msg)
	if err != nil {
		return err
	}
	in.node.Heard(from)
	// Requests may be replayed after a leader change; dedup before proposing
	// to keep the log free of duplicates where possible (delivery-side dedup
	// is the safety net).
	if in.dedup[from].Delivered(submitSeq) {
		return nil
	}
	in.propose(from, submitSeq, payload)
	return nil
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
	// requests fixes the engine's event order, and with it the schedule. One
	// record serves every peer: ring.Sender.Send copies it.
	rec := in.frameVote(in.term, in.node.ID())
	for p := 0; p < in.n; p++ {
		if oc := in.ctrlOut[p]; oc != nil {
			oc.Send(rec, "", nil)
		}
	}
	in.maybeLead()
	in.hand.Hand() // what a majority of one decided
}

func (in *Instance) switchLogPermission(to rdma.NodeID) {
	region := in.node.Region(logRegion(in.group))
	for p := 0; p < in.n; p++ {
		region.RevokeWrite(rdma.NodeID(p))
	}
	region.AllowWrite(to)
	in.logWriter = to
}

// handleCtrl handles msg off a control ring, a vote request or a grant. A
// grant that lands while this node is not electing is consumed and dropped.
func (in *Instance) handleCtrl(from rdma.NodeID, msg []byte) error {
	m, err := decodeCtrl(msg)
	if err != nil {
		return err
	}
	in.node.Heard(from)
	if m.grant {
		in.handleGrant(m.term, m.lastDelivered, m.node)
	} else {
		in.handleVote(m.term, m.node)
	}
	return nil
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
	clear(in.copies)
	in.owed = false
	// Revoke the previous leader's permission before granting the next —
	// the order the paper prescribes.
	in.switchLogPermission(cand)
	if oc := in.ctrlOut[cand]; oc != nil {
		oc.Send(in.frameGrant(term, in.lastDelivered, in.node.ID()), "", nil)
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

// catchUp reads the leader's published nextSeq and then the journal slots of
// the delivery gap [lastDelivered+1, nextSeq) with one-sided reads, and fills
// the gap. It runs when a node adopts a new leader and whenever the poll loop
// observes a stash gap (entries lost to a permission window or a wiped ring,
// or sent while the leader had not yet reset this node's ring).
func (in *Instance) catchUp(from rdma.NodeID) {
	if in.catching || in.isLeader || from == in.node.ID() || !in.alive() {
		return
	}
	in.catching = true
	in.readState(from, func(leaderNext, delivered uint64, err error) {
		if err != nil {
			in.catching = false
			return
		}
		// Deliver only what the leader itself has decided: its published
		// lastDelivered is its commit watermark (the journal also holds
		// proposed-but-undecided entries).
		next := min(delivered+1, leaderNext)
		if next <= in.lastDelivered+1 {
			in.catching = false
			in.lastProgressAt = in.fab.Engine().Now() // verified current
			return
		}
		in.journal.Read(in.node.QP(from), in.lastDelivered+1, next, func(rec func(uint64) []byte, jerr error) {
			in.catching = false
			if jerr != nil {
				return
			}
			// Deliveries off the ring may have advanced lastDelivered while the
			// read was in flight: what is left of the gap lies inside the range
			// read.
			for seq := in.lastDelivered + 1; seq < next; seq++ {
				e, ok := journaled(rec(seq), seq)
				if !ok {
					return // hole (journal wrapped, or a slot torn on every look): stop
				}
				in.commitSeen = max(in.commitSeen, seq-1)
				in.bumpDelivered(seq)
				in.hand.Release(in.stash[seq].payload)
				delete(in.stash, seq)
				e.payload = in.hand.Keep(e.payload)
				in.deliverEntry(seq, e) // a journal slot is a round of one
				in.hand.Hand()
			}
			// Drain any stashed successors the catch-up unblocked.
			in.drainCommitted()
			in.hand.Hand()
		})
	})
}

// handleGrant counts voter's grant, with its delivery watermark, toward this
// node's candidacy.
func (in *Instance) handleGrant(term, lastDelivered uint64, voter rdma.NodeID) {
	if term != in.term || !in.electing || !in.member(voter) {
		return
	}
	in.grants[voter] = lastDelivered
	in.maybeLead()
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

// recoverFrom rebuilds leadership state after winning an election. Two
// strands run side by side from the moment the election is won:
//
//   - resetRings establishes this leader's writer on every follower's log
//     ring, because the old leader's writer position is unknown to us;
//   - the reads: every peer's published delivery watermark and the old
//     leader's published nextSeq (one-sided reads; a crashed peer is
//     skipped), then only the old leader's journal slots past the global
//     minimum watermark (the recovery floor), up to that nextSeq.
//
// Once both have finished, the recovered entries are re-disseminated and the
// leader starts serving.
func (in *Instance) recoverFrom(old rdma.NodeID) {
	if old == in.node.ID() {
		in.becomeActiveLeader(in.lastDelivered + 1)
		return
	}
	floor, ceil, oldNext := in.lastDelivered, in.lastDelivered, uint64(0)
	type recoveredEntry struct {
		seq uint64
		entry
	}
	var recovered []recoveredEntry
	strands := 2
	done := func() {
		if strands--; strands > 0 {
			return
		}
		in.propBase, in.props = in.lastDelivered+1, in.props[:0]
		clear(in.copies)
		for _, r := range recovered {
			in.redisseminate(r.seq, r.entry)
		}
		in.becomeActiveLeader(oldNext)
		in.hand.Hand() // what a majority of one decided
	}
	in.resetRings(done)
	states := in.n - 1 // every peer's state words
	stated := func() {
		if states--; states > 0 {
			return
		}
		// Never assign a sequence number at or below any watermark we can
		// observe: a predecessor that died mid-recovery may publish a
		// stale (even zero) nextSeq, and reusing numbers would diverge
		// replicas that already delivered them.
		oldNext = max(oldNext, ceil+1)
		in.journal.Read(in.node.QP(old), floor+1, oldNext, func(rec func(uint64) []byte, err error) {
			for seq := floor + 1; err == nil && seq < oldNext; seq++ {
				if e, ok := journaled(rec(seq), seq); ok {
					e.payload = in.hand.Keep(e.payload)
					recovered = append(recovered, recoveredEntry{seq, e})
				}
			}
			done()
		})
	}
	for p := 0; p < in.n; p++ {
		peer := rdma.NodeID(p)
		if peer == in.node.ID() {
			continue
		}
		in.readState(peer, func(next, delivered uint64, err error) {
			if err == nil {
				floor, ceil = min(floor, delivered), max(ceil, delivered)
				if peer == old {
					oldNext = next
				}
			}
			stated()
		})
	}
}

// journaled returns the entry in rec, the record read from seq's journal
// slot, if it is seq's round of one, and false for a hole — an empty slot, or
// one still torn — or a slot that holds another sequence number (the journal
// wrapped). The payload lies in rec.
func journaled(rec []byte, seq uint64) (e entry, ok bool) {
	r, err := decodeRound(rec)
	if err != nil || r.first != seq || r.count != 1 {
		return entry{}, false
	}
	e, _, _ = nextEntry(r.entries)
	return e, true
}

// resetRings establishes this node's writer on every follower's log ring (see
// resetRing), closing each follower's channel until its ring is reset, and
// runs next once every follower has had a first outcome. The subsequent entry
// writes travel on the same QP as the reset and land after it.
func (in *Instance) resetRings(next func()) {
	remaining := 0
	done := func() {
		remaining--
		if remaining == 0 {
			next()
		}
	}
	for p, oc := range in.logOut {
		peer := rdma.NodeID(p)
		if oc == nil {
			continue
		}
		remaining++
		// The dropped records complete nothing: their spans, the newest sent
		// to peer, leave its unacked queue with them, and a write still in
		// flight keeps popping its own.
		for dropped := oc.Drop(); dropped > 0; dropped-- {
			in.unacked[peer].PopBack()
		}
		in.open[peer] = false
		in.resetRing(peer, oc, done)
	}
	if remaining == 0 {
		next()
	}
}

// resetRing probes one follower's log ring with a word of zeros and, once a
// probe lands, zero-fills the ring, repositions the writer at the follower's
// head and opens the channel. Zero-filling quiesces the reader (nothing left
// to consume), so the head read after it is stable. A follower that has not
// yet switched its permission to this node — the suspended old leader, or any
// voter that has not processed the vote request — refuses the probe; the probe
// (8 bytes, not the whole ring) retries every CatchUpAfter until the
// permission flips or this node leaves the term, with the journal catch-up
// covering the follower in the interim. done is invoked exactly once, on the
// first outcome: the ring reset, the first probe refused, or the peer lost.
func (in *Instance) resetRing(peer rdma.NodeID, oc *ring.Sender, done func()) {
	first := true
	finish := func() {
		if first {
			first = false
			done()
		}
	}
	term := in.term
	current := func() bool { return in.isLeader && in.term == term }
	qp, region := in.node.QP(peer), logRegion(in.group)
	// One zero buffer serves every follower and every attempt: a write copies
	// its data at post time.
	if in.zeros == nil {
		in.zeros = make([]byte, in.cfg.RingCapacity)
	}
	var probe func()
	probe = func() {
		if !current() {
			finish() // deposed meanwhile
			return
		}
		qp.Write(region, ring.HeaderSize, in.zeros[:8], func(err error) {
			if err == rdma.ErrPermission {
				// Voter has not switched permissions yet: probe again.
				in.fab.Engine().After(in.fab.Latency().CatchUpAfter, probe)
				finish()
				return
			}
			if err != nil {
				finish() // crashed peer: its channel stays closed
				return
			}
			qp.Write(region, ring.HeaderSize, in.zeros, func(err error) {
				if err != nil {
					finish() // the permission moved on to a newer candidate
					return
				}
				qp.Read(region, 0, ring.HeaderSize, func(data []byte, rerr error) {
					if rerr == nil && current() {
						oc.RestartAt(ring.DecodeHead(data))
						in.open[peer] = true
					}
					finish()
				})
			})
		})
	}
	probe()
}

// redisseminate re-journals and re-sends a recovered entry, seq, under this
// leader's term, as a round of one. Receivers (and our own delivery path)
// dedup. The caller gives e's payload, a buffer from the free list, away.
func (in *Instance) redisseminate(seq uint64, e entry) {
	rec := in.frameOne(seq, e)
	in.journal.Put(seq, rec)
	// The record goes out after a decision, which may frame records of its
	// own in the scratch buffer: it waits in a buffer of its own.
	rec = in.hand.Keep(rec)
	defer in.hand.Release(rec)
	if seq > in.lastDelivered {
		// Recovered entries come in sequence order; one the journal had lost
		// leaves a zero proposal behind, which is never decided.
		for in.propBase+uint64(len(in.props)) <= seq {
			in.props = append(in.props, proposal{})
		}
		p := in.proposal(seq)
		*p = proposal{entry: e, acks: 1}
		if p.acks >= in.majority() {
			in.decide(seq)
		}
	} else {
		in.hand.Release(e.payload)
	}
	in.replicate(rec, span{seq, 1})
}

func (in *Instance) becomeActiveLeader(nextSeq uint64) {
	in.recovering = false
	in.nextSeq = max(in.nextSeq, nextSeq)
	in.publish()
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
