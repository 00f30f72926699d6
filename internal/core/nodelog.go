package core

import (
	"encoding/binary"
	"errors"

	"hamband/internal/codec"
	"hamband/internal/rdma"
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
// replaces. A walk lapped by a multiple of passes finds the record at the
// head of the log changed under the same pass number (logWalk.passHead).
const passes = 128

// nodeLogKey is the key of a node's *nodeLog, tagPoolKey of the fabric's
// *tagPool (rdma.Node.Attached, on node 0).
type (
	nodeLogKey struct{}
	tagPoolKey struct{}
)

// nodeLog is a node's side of the δ-logs (DESIGN.md §4, "The summary
// out-channel"). As a writer, every δ-record of every summarization group of
// every object on the node is appended at one cursor to one log per peer, so
// a flush's records to a peer are adjacent bytes, which the coalescer's tail
// merge posts as one WRITE. Each record names its slot by a tag in the call's
// Proc field (the writer is implied by the log) and carries the pass of the
// log it was written in. As a reader, one walk per writer per ScanPeriod
// folds each record into the slot its tag names.
type nodeLog struct {
	node *rdma.Node
	size int // bytes per log

	// Writer side: where the node's next record lands in every copy of its
	// log, the pass it is in (mod passes) and the passes started before it.
	at     int
	pass   uint32
	abs    uint64
	mirror []byte            // the node's own index of the region
	probe  codec.DeltaRecord // what the bytes behind the cursor decode to (terminate)

	// Reader side.
	slots  []slotRef  // by tag: whose records carry it; zero while no replica here does
	reps   []*Replica // the replicas the scan visits, in build order
	walks  []logWalk  // per writer node
	ticker *sim.Ticker
	rec    codec.DeltaRecord // the record the walk decodes, borrowed by a fold
	seq    uint64            // records delivered; a slot notes the count at its last (sumSlot.seen)

	// mutatePass is the ignore-pass mutant (Cluster.MutateIgnorePass): the
	// walk reads every record as one of its pass.
	mutatePass bool
}

// slotRef is the summary slot a tag names on a reader: group g of replica r.
type slotRef struct {
	r *Replica
	g int
}

// logPos is a position in a writer's log: byte at of its abs-th pass.
type logPos struct {
	abs uint64
	at  int
}

// logWalk is a reader's position in one writer's log.
type logWalk struct {
	at   int
	pass uint32
	abs  uint64 // the writer's passes before the walk's, as far as the walk can tell

	// short: the last walk stopped before the end of what had landed — at a
	// gap, or stuck on a torn record. Nothing behind it was read, so no
	// replica on the node may count the writer's records drained (scanEnd).
	short bool

	// passHead is the CRC of the record the walk read at offset 0 of its
	// pass, 0 before it read one. Once landed, that record changes only
	// when the writer starts a new pass, so a head that differs under the
	// same pass number is a whole number of passes later: a lap.
	passHead uint32

	// The record the last look at the log's head validated: its length
	// word, its CRC and its pass. A head whose length word and CRC read the
	// same is that record, and is not validated again.
	headLen, headCRC uint32
	headPass         uint32

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
	logPos
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
		return &nodeLog{node: node, size: size, walks: make([]logWalk, n), mirror: reg.Bytes()[me*size : (me+1)*size]}
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
	ends []logPos
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
func (tp *tagPool) drained(fab *rdma.Fabric, ends []logPos) bool {
	for i := 0; i < fab.Size(); i++ {
		nl := attachedLog(fab.Node(rdma.NodeID(i)))
		for w, e := range ends {
			if wk := &nl.walks[w]; w != i && (wk.abs < e.abs || wk.abs == e.abs && wk.at < e.at) {
				return false
			}
		}
	}
	return true
}

// release frees tags, which a stopped cluster's records carry up to every
// writer's current cursor.
func (tp *tagPool) release(fab *rdma.Fabric, tags []int) {
	ends := make([]logPos, fab.Size())
	for w := range ends {
		nl := attachedLog(fab.Node(rdma.NodeID(w)))
		ends[w] = logPos{nl.abs, nl.at}
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

// terminate is the writer's part in keeping its peers' walks off stale
// bytes. A record of a new pass lands over the bytes of older ones, whose
// records lie at other offsets: what follows it until the next record
// lands may read as a torn record, or, a multiple of passes on, as a record
// of the pass. rec, padded, has just been placed at at, and the cursor moved
// behind it. terminate copies it into the mirror and reports whether the
// bytes at the cursor read as either: the write then carries a zero length
// word behind rec, which peers' walks stop at and the next record
// overwrites.
func (nl *nodeLog) terminate(at int, rec []byte) bool {
	copy(nl.mirror[at:], rec)
	if nl.at+4 > nl.size || binary.LittleEndian.Uint32(nl.mirror[nl.at:]) == 0 {
		return false
	}
	b := nl.mirror[nl.at:]
	h, err := codec.PeekDeltaRecord(b)
	switch {
	case err == nil && h.Kind == codec.FrameDelta:
		if codec.DecodeDeltaBody(&nl.probe, b, h) != nil || nl.probe.Pass != nl.pass {
			return false
		}

	case !errors.Is(err, codec.ErrTorn):
		return false
	}
	clear(b[:4])
	return true
}

// wrap starts the writer's next pass at offset 0.
func (nl *nodeLog) wrap() {
	nl.at, nl.pass, nl.abs = 0, (nl.pass+1)%passes, nl.abs+1
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

// walk folds what landed in writer w's log since the last walk. It reads the
// records of its pass from its position; where none is, the pass has ended
// there or its next record has not landed. A record of the next pass at the
// log's head means the writer moved on: the walk follows it, and when that
// pass already reaches past where the walk left the old one, records it had
// not read may have been overwritten — it was lapped. So was a walk that
// finds a head of any other pass, or a changed head under its own pass
// number. A lapped walk fetches every slot of w that no record of the new
// pass reached (a slot one did reach checks itself: a lost record of its
// makes that one a gap), and a walk stuck on a torn record for
// rdma.TornLooks scans fetches every slot of w that did not change meanwhile
// (Replica.settleSlots).
func (nl *nodeLog) walk(w int) {
	if len(nl.reps) == 0 {
		return
	}
	wk := &nl.walks[w]
	log := nl.log(w)
	wk.short = false
	lapAt, lapSeq := -1, nl.seq // where the walk left the old pass in this scan, and the records delivered by then
	for {
		wk.cross()
		total, pass, err := nl.read(log, wk.at)
		if err == nil && nl.same(pass, wk.pass) {
			if wk.at == 0 {
				wk.passHead = binary.LittleEndian.Uint32(log[total-codec.RecordTrailer:])
			}
			if !nl.deliver(w) {
				wk.short = true // a gap: the walk waits for the slot's fetch
				break
			}
			wk.at += total
			continue
		}
		torn := errors.Is(err, codec.ErrTorn)
		head, herr := pass, err
		moved := false // the head changed under the walk's pass number
		if wk.at > 0 {
			head, herr = nl.head(wk, log)
			moved = herr == nil && !nl.mutatePass && wk.passHead != 0 && wk.headCRC != wk.passHead
		}
		tornHead := wk.at > 0 && errors.Is(herr, codec.ErrTorn)
		if torn {
			nl.reps[0].statTorn++
		}
		if tornHead {
			nl.reps[0].statTorn++
		}
		switch {
		case herr != nil || !moved && (nl.same(head, wk.pass) || head == (wk.pass+passes-1)%passes):
			// The writer is still in the walk's pass, or a torn head hides
			// whether it moved on.
			if torn || tornHead {
				nl.stuck(w)
				wk.short = true
			}
		case head == (wk.pass+1)%passes && wk.at > 0 && lapAt < 0 && !torn:
			lapAt, lapSeq = wk.at, nl.seq
			wk.enter(head)
			continue
		case lapAt != 0: // torn bytes left behind, two passes on, or a whole pass missed
			if lapAt < 0 {
				lapSeq = nl.seq
			}
			lapAt = 0
			wk.enter(head)
			continue
		}
		break
	}
	// A walk that stopped at a gap has not seen where the new pass ends.
	if lapAt >= 0 && nl.passEnd(log, wk.at, wk.pass) > lapAt {
		nl.fetchUnseen(w, lapSeq)
	}
	for _, r := range nl.reps {
		r.settleSlots(spec.ProcID(w))
	}
}

// enter moves the walk to the start of the writer's pass pass, the next
// one it knows of: pass numbers a whole lap apart count a lap.
func (wk *logWalk) enter(pass uint32) {
	d := uint64((pass + passes - wk.pass) % passes)
	if d == 0 {
		d = passes
	}
	wk.abs += d
	wk.at, wk.pass, wk.passHead = 0, pass, 0
}

// cross applies the fences the walk has reached.
func (wk *logWalk) cross() {
	for len(wk.fences) > 0 {
		f := wk.fences[0]
		if wk.abs < f.abs || wk.abs == f.abs && wk.at < f.at {
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
	log := nl.log(w)
	pos := logPos{wk.abs, nl.passEnd(log, wk.at, wk.pass)}
	if _, pass, err := nl.read(log, 0); err == nil && pos.at > 0 && pass == (wk.pass+1)%passes {
		pos = logPos{wk.abs + 1, nl.passEnd(log, 0, pass)}
	}
	wk.fences = append(wk.fences, fence{pos, tags, refuse})
}

// read decodes the record at log[at:] into nl.rec and returns its frame
// length and pass.
func (nl *nodeLog) read(log []byte, at int) (int, uint32, error) {
	h, err := codec.PeekDeltaRecord(log[at:])
	if err != nil {
		return 0, 0, err
	}
	if h.Kind != codec.FrameDelta {
		return 0, 0, codec.ErrCorrupt
	}
	if err := codec.DecodeDeltaBody(&nl.rec, log[at:], h); err != nil {
		return 0, 0, err
	}
	return h.Total, nl.rec.Pass, nil
}

// passEnd returns where the records of pass that follow one another from at
// end.
func (nl *nodeLog) passEnd(log []byte, at int, pass uint32) int {
	for {
		total, p, err := nl.read(log, at)
		if err != nil || !nl.same(p, pass) {
			return at
		}
		at += total
	}
}

// head returns the pass of the record at the head of log, validating it
// only when its length word or CRC changed since the walk last looked.
func (nl *nodeLog) head(wk *logWalk, log []byte) (uint32, error) {
	n := binary.LittleEndian.Uint32(log)
	if wk.headLen != 0 && n == wk.headLen && binary.LittleEndian.Uint32(log[n-codec.RecordTrailer:]) == wk.headCRC {
		return wk.headPass, nil
	}
	total, pass, err := nl.read(log, 0)
	if err != nil {
		return 0, err
	}
	nl.reps[0].statValidated++
	wk.headLen, wk.headCRC, wk.headPass = uint32(total), binary.LittleEndian.Uint32(log[total-codec.RecordTrailer:]), pass
	return pass, nil
}

// same reports whether a record of pass belongs to the walk's pass — any
// record does, under the ignore-pass mutant.
func (nl *nodeLog) same(pass, walk uint32) bool { return nl.mutatePass || pass == walk }

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
