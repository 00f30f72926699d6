package core

import (
	"hamband/internal/codec"
	"hamband/internal/rdma"
	"hamband/internal/ring"
	"hamband/internal/sim"
	"hamband/internal/spec"
)

// NodeLogRegion names a node's δ-log region: one log per writer node, each
// its Options.DeltaLogBytes long, which every object on the writer shares.
// It is registered once per node, by the first cluster with a summarization
// group built on the fabric, and never unregistered. A node's own index in
// it is its mirror: the bytes every peer's copy of its log holds once its
// writes have landed.
const NodeLogRegion = "ham-dlog"

// passes is how many δ-log passes a record's pass number tells apart: it
// stays a one-byte varint, the byte of the empty dependency record it
// replaces. A pass's head carries the pass itself (ring.LogWriter), one to
// four bytes once per pass.
const passes = 128

// nodeLogKey is the key of a node's *nodeLog, tagPoolKey of the fabric's
// *tagPool (rdma.Node.Attached, on node 0).
type (
	nodeLogKey struct{}
	tagPoolKey struct{}
)

// nodeLog is a node's side of the δ-logs (DESIGN.md §4, "The summary
// out-channel"), a ring.LogWriter and a ring.LogWalker per writer around
// core's tags, fences and folds. As a writer, every δ-record of every
// summarization group of every object on the node is appended at one cursor
// to one log per peer, so a flush's records to a peer are adjacent bytes,
// which the coalescer's tail merge posts as one WRITE. Each record names its
// slot by a tag in the call's Proc field (the writer is implied by the log).
// As a reader, one walk per writer per ScanPeriod folds each record into the
// slot its tag names.
type nodeLog struct {
	node *rdma.Node
	size int             // bytes per log
	w    *ring.LogWriter // over the node's own index of the region

	// Reader side.
	slots  []slotRef  // by tag: whose records carry it; zero while no replica here does
	reps   []*Replica // the replicas the scan visits, in build order
	walks  []logWalk  // per writer node
	ticker *sim.Ticker
	rec    codec.DeltaRecord // the record the walks decode, borrowed by a fold
	seq    uint64            // records delivered; a slot notes the count at its last (sumSlot.seen)
}

// slotRef is the summary slot a tag names on a reader: group g of replica r.
type slotRef struct {
	r *Replica
	g int
}

// logWalk is a reader's walk of one writer's log.
type logWalk struct {
	*ring.LogWalker

	// short: the last walk stopped before the end of what had landed — at a
	// gap, or stuck on a torn record. Nothing behind it was read, so no
	// replica on the node may count the writer's records drained (scanEnd).
	short bool

	// Which tags of the writer's the node refuses (a cluster the writer left
	// at its commit), and the changes to that still ahead of the walk.
	refused []bool
	fences  []fence
}

// fence is a change to the tags of a writer's records a reader refuses,
// at the position in the writer's log where what had landed at a
// membership commit ended (nodeLog.fence): the records before it had
// landed, like writes a revocation at the NIC lets through; the ones
// behind it are those it would refuse.
type fence struct {
	ring.LogPos
	tags   []int
	refuse bool
}

// nodeLogOf returns node's δ-log state, registering the log region with logs
// of size bytes on first use.
func nodeLogOf(fab *rdma.Fabric, node *rdma.Node, size int) *nodeLog {
	return node.Attached(nodeLogKey{}, func() any {
		n := fab.Size()
		reg := node.Register(NodeLogRegion, n*size)
		for p := 0; p < n; p++ {
			if rdma.NodeID(p) != node.ID() {
				reg.AllowWrite(rdma.NodeID(p))
			}
		}
		me := int(node.ID())
		nl := &nodeLog{node: node, size: size, walks: make([]logWalk, n), w: ring.NewLogWriter(reg.Bytes()[me*size:(me+1)*size], passes)}
		for w := range nl.walks {
			nl.walks[w].LogWalker = ring.NewLogWalker(nl.log(w), passes, &nl.rec)
		}
		return nl
	}).(*nodeLog)
}

// LogTags reports how many tags node's δ-log table holds: one more than the
// highest summary-slot tag a cluster built on the fabric took, 0 before any
// cluster with a summarization group was built.
func LogTags(node *rdma.Node) int {
	if node.Region(NodeLogRegion) == nil {
		return 0
	}
	return len(attachedLog(node).slots)
}

// attachedLog returns the δ-log state of a node that has one.
func attachedLog(node *rdma.Node) *nodeLog {
	return node.Attached(nodeLogKey{}, func() any { panic("core: node has no δ-log") }).(*nodeLog)
}

// tagPool numbers the fabric's summary slots for the δ-logs. A cluster's
// groups take freed tags first, in the order they were freed, then new
// ones. A stopped cluster's tags are free once
// every node's walk of every writer has passed where that writer's log
// ended when the cluster stopped: no record that carries them is left to
// read, and a walk never goes back.
type tagPool struct {
	next int
	free []freeTag
}

// freeTag is a stopped cluster's tag and, per writer node, its log's cursor
// when the cluster stopped.
type freeTag struct {
	tag  int
	ends []ring.LogPos
}

func tagPoolOf(fab *rdma.Fabric) *tagPool {
	return fab.Node(0).Attached(tagPoolKey{}, func() any { return &tagPool{} }).(*tagPool)
}

// take returns k tags, free ones first: every walk has crossed the fences
// of the cluster that held a free one (they lie before its writer's cursor
// when it stopped), so no refusal of its records outlives it.
func (tp *tagPool) take(fab *rdma.Fabric, k int) []int {
	tags := make([]int, 0, k)
	for i := 0; i < len(tp.free) && len(tags) < k; {
		if !tp.drained(fab, tp.free[i].ends) {
			i++
			continue
		}
		tag := tp.free[i].tag
		tags = append(tags, tag)
		tp.free = append(tp.free[:i], tp.free[i+1:]...)
		for n := 0; n < fab.Size(); n++ { // a refusal was of the stopped cluster's
			walks := attachedLog(fab.Node(rdma.NodeID(n))).walks
			for w := range walks {
				if tag < len(walks[w].refused) {
					walks[w].refused[tag] = false
				}
			}
		}
	}
	for len(tags) < k {
		tags = append(tags, tp.next)
		tp.next++
	}
	return tags
}

// drained reports whether every node's walk of every writer w has passed
// ends[w].
func (tp *tagPool) drained(fab *rdma.Fabric, ends []ring.LogPos) bool {
	for i := 0; i < fab.Size(); i++ {
		nl := attachedLog(fab.Node(rdma.NodeID(i)))
		for w, e := range ends {
			if w != i && nl.walks[w].Pos().Before(e) {
				return false
			}
		}
	}
	return true
}

// release frees tags, which a stopped cluster's records carry up to every
// writer's current cursor.
func (tp *tagPool) release(fab *rdma.Fabric, tags []int) {
	ends := make([]ring.LogPos, fab.Size())
	for w := range ends {
		ends[w] = attachedLog(fab.Node(rdma.NodeID(w))).w.Pos()
	}
	for _, tag := range tags {
		tp.free = append(tp.free, freeTag{tag, ends})
	}
}

// join registers r's slots under tags and starts the scan with the node's
// first replica.
func (nl *nodeLog) join(r *Replica, tags []int) {
	for g, tag := range tags {
		for len(nl.slots) <= tag {
			nl.slots = append(nl.slots, slotRef{})
		}
		nl.slots[tag] = slotRef{r, g}
	}
	nl.reps = append(nl.reps, r)
	if nl.ticker == nil {
		nl.ticker = r.cluster.Fab.Engine().NewTicker(r.cluster.Fab.Latency().ScanPeriod, nl.scan)
	}
}

// leave unregisters r; the scan stops with the node's last replica.
func (nl *nodeLog) leave(r *Replica) {
	for _, tag := range r.cluster.tags {
		nl.slots[tag] = slotRef{}
	}
	for i, x := range nl.reps {
		if x == r {
			nl.reps = append(nl.reps[:i], nl.reps[i+1:]...)
			break
		}
	}
	if len(nl.reps) == 0 && nl.ticker != nil {
		nl.ticker.Cancel()
		nl.ticker = nil
	}
}

// scan is one pass of the node's summary scan: per writer, every replica's
// anchors of that writer's slots, then the walk of its log; then each
// replica settles its floors and applies.
func (nl *nodeLog) scan() {
	if nl.node.Suspended() || nl.node.Crashed() {
		return
	}
	for _, r := range nl.reps {
		r.scanBegin()
	}
	for w := range nl.walks {
		if rdma.NodeID(w) == nl.node.ID() {
			continue
		}
		for _, r := range nl.reps {
			r.scanAnchors(spec.ProcID(w))
		}
		nl.walk(w)
	}
	for _, r := range nl.reps {
		r.scanEnd()
	}
}

// log returns the node's copy of writer w's log.
func (nl *nodeLog) log(w int) []byte {
	return nl.node.Region(NodeLogRegion).Bytes()[w*nl.size : (w+1)*nl.size]
}

// walk folds what landed in writer w's log since the last walk
// (ring.LogWalker.Step). A lapped walk fetches every slot of w that no
// record of the new pass reached (a slot one did reach checks itself: a lost
// record of its makes that one a gap), and a walk stuck on a torn record for
// rdma.TornLooks scans fetches every slot of w that did not change meanwhile
// (Replica.settleSlots).
func (nl *nodeLog) walk(w int) {
	if len(nl.reps) == 0 {
		return
	}
	wk := &nl.walks[w]
	wk.short = false
	wk.Start()
	lapSeq, lapped := nl.seq, false // the records delivered when the walk first left its pass
	for stop := false; !stop; {
		wk.cross()
		switch wk.Step() {
		case ring.LogRecord:
			if stop = !nl.deliver(w); stop {
				wk.short = true // a gap: the walk waits for the slot's fetch
			} else {
				wk.Advance()
				nl.node.Heard(rdma.NodeID(w))
			}
		case ring.LogLap:
			if !lapped {
				lapSeq, lapped = nl.seq, true
			}
		case ring.LogTorn:
			nl.stuck(w)
			wk.short = true
			stop = true
		case ring.LogEnd:
			stop = true
		}
	}
	torn, validated := wk.Counts()
	nl.reps[0].statTorn += uint64(torn)
	nl.reps[0].statValidated += uint64(validated)
	if wk.Lapped() {
		nl.fetchUnseen(w, lapSeq)
	}
	for _, r := range nl.reps {
		r.settleSlots(spec.ProcID(w))
	}
}

// cross applies the fences the walk has reached.
func (wk *logWalk) cross() {
	for len(wk.fences) > 0 {
		f := wk.fences[0]
		if wk.Pos().Before(f.LogPos) {
			return
		}
		for _, tag := range f.tags {
			for len(wk.refused) <= tag {
				wk.refused = append(wk.refused, false)
			}
			wk.refused[tag] = f.refuse
		}
		wk.fences = wk.fences[1:]
	}
}

// fence makes the node refuse, or accept again, writer w's records of
// tags from the end of what has landed of w's log on: a membership change
// of w's in the cluster the tags number, which the shared log cannot
// revoke at the NIC as the cluster's own regions do.
func (nl *nodeLog) fence(w int, tags []int, refuse bool) {
	wk := &nl.walks[w]
	wk.fences = append(wk.fences, fence{wk.Landed(), tags, refuse})
}

// deliver hands nl.rec, a record of writer w's, to the slot its tag names,
// and reports whether the walk passes it (Replica.foldRecord); a record of
// a stopped replica's, or of a tag the node refuses from w, is passed.
func (nl *nodeLog) deliver(w int) bool {
	tag := int(nl.rec.C.Proc)
	refused := nl.walks[w].refused
	if tag < 0 || tag >= len(nl.slots) || nl.slots[tag].r == nil || tag < len(refused) && refused[tag] {
		return true
	}
	ref := nl.slots[tag]
	p := spec.ProcID(w)
	nl.seq++
	ref.r.sums[ref.g][p].seen = nl.seq
	nl.rec.C.Proc = p
	return ref.r.foldRecord(ref.g, p, &nl.rec)
}

// stuck leaves every slot of writer w unreadable in this pass: the walk
// ended on a torn record of w's log, whose tag is among its torn bytes
// (Replica.settleSlots).
func (nl *nodeLog) stuck(w int) {
	for _, r := range nl.reps {
		for _, row := range r.sums {
			row[w].stuck = true
		}
	}
}

// fetchUnseen fetches every slot of writer w on every replica of the node
// that no record reached since the walk had delivered since.
func (nl *nodeLog) fetchUnseen(w int, since uint64) {
	p := spec.ProcID(w)
	for _, r := range nl.reps {
		for g, row := range r.sums {
			if row[p].seen <= since {
				r.fetchSlot(g, p, row[p])
			}
		}
	}
}
