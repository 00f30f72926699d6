package core

import (
	"errors"
	"fmt"

	"hamband/internal/codec"
	"hamband/internal/metrics"
	"hamband/internal/rdma"
	"hamband/internal/sim"
	"hamband/internal/spec"
	"hamband/internal/trace"
)

// callID renders a call's request identity for traces.
func callID(c spec.Call) string { return fmt.Sprintf("p%d#%d", c.Proc, c.Seq) }

// confLabel recovers the call identity from an ordered group entry's
// payload so the consensus layer can attribute its Commit events to the
// originating call.
func confLabel(payload []byte) string {
	var rec codec.DeltaRecord
	if _, _, err := decodeConf(&rec, payload); err != nil {
		return ""
	}
	return callID(rec.C)
}

// tracing reports whether a tracer is attached; call sites that build
// notes or payloads guard on it so the disabled path stays allocation-free.
func (r *Replica) tracing() bool { return r.opts.Tracer != nil }

// callLabel renders a call's trace identity: the bare callID standalone,
// "shard:callID" inside a multi-object store — the same string tags the
// call's WR labels, so fabric verb events attribute to the right shard.
// Only called on tracing paths; the disabled path never builds it.
func (r *Replica) callLabel(c spec.Call) string {
	if r.opts.Shard == "" {
		return callID(c)
	}
	return r.opts.Shard + ":" + callID(c)
}

// trace records a lifecycle event when tracing is enabled.
func (r *Replica) trace(kind trace.Kind, c spec.Call, note string) {
	if r.opts.Tracer == nil {
		return
	}
	r.opts.Tracer.Record(int(r.id), kind, r.callLabel(c), note)
}

// traceData records a lifecycle event with a structured payload for the
// conformance checker.
func (r *Replica) traceData(kind trace.Kind, c spec.Call, note string, data any) {
	if r.opts.Tracer == nil {
		return
	}
	r.opts.Tracer.RecordData(int(r.id), kind, r.callLabel(c), note, data)
}

// Errors returned to clients through Invoke's callback.
var (
	ErrImpermissible = errors.New("core: call not locally permissible")
	ErrNotUpdate     = errors.New("core: method is neither update nor query")
	ErrDown          = errors.New("core: replica is down")
)

// Invoke submits a client call at this replica. onDone, if non-nil, runs on
// the replica's CPU when the call completes: immediately after local
// execution for queries, reducible and irreducible conflict-free calls, and
// after ordered delivery for conflicting calls. The result is the query's
// return value (nil for updates).
func (r *Replica) Invoke(u spec.MethodID, args spec.Args, onDone func(result any, err error)) {
	r.submit(u, args, false, onDone)
}

// submit queues a client call for its IssueCost item; fresh asks for a query
// on refreshed summaries (InvokeFresh).
func (r *Replica) submit(u spec.MethodID, args spec.Args, fresh bool, onDone func(any, error)) {
	if r.node.Suspended() || r.node.Crashed() {
		if onDone != nil {
			onDone(nil, ErrDown)
		}
		return
	}
	if fresh && r.an.Category[u] != spec.CatQuery {
		if onDone != nil {
			onDone(nil, ErrNotUpdate)
		}
		return
	}
	// submitAt is the Invoke-entry time: the span layer derives the
	// issue→dispatch stage (CPU queueing + issue cost) from it.
	r.calls.Push(clientCall{u: u, args: args, submitAt: r.cluster.Fab.Engine().Now(),
		fresh: fresh && r.haveSums, onDone: r.measureCall(u, onDone)})
	r.node.CPU.Submit(r.cluster.Fab.Latency().IssueCost, r.issueFn)
}

// issue is a call's IssueCost item. It pops the call before dispatching it:
// the call's onDone may re-enter Invoke, which pushes behind it.
func (r *Replica) issue() {
	cc := r.calls.Pop()
	r.statIssued++
	switch r.an.Category[cc.u] {
	case spec.CatQuery:
		if cc.fresh {
			r.refresh(cc)
		} else {
			r.queueQuery(cc)
		}
	case spec.CatReducible:
		r.invokeReduce(cc.u, cc.args, cc.submitAt, cc.onDone)
	case spec.CatIrreducibleFree:
		r.invokeFree(cc.u, cc.args, cc.submitAt, cc.onDone)
	case spec.CatConflicting:
		r.invokeConf(cc.u, cc.args, cc.submitAt, cc.onDone)
	default:
		if cc.onDone != nil {
			cc.onDone(nil, ErrNotUpdate)
		}
	}
}

// queueQuery queues a query for its QueryCost item.
func (r *Replica) queueQuery(cc clientCall) {
	r.queries.Push(cc)
	r.node.CPU.Submit(r.cluster.Fab.Latency().QueryCost, r.queryFn)
}

// query is a query's QueryCost item: it pops the query, evaluates it against
// Apply(S)(σ) and answers.
func (r *Replica) query() {
	cc := r.queries.Pop()
	v := r.cls.Methods[cc.u].Eval(r.queryState(), cc.args)
	if r.tracing() {
		r.opts.Tracer.RecordData(int(r.id), trace.Query, "", r.cls.Methods[cc.u].Name,
			trace.QueryRecord{Method: cc.u, Args: cc.args, Result: v, Fresh: cc.fresh})
	}
	if cc.onDone != nil {
		cc.onDone(v, nil)
	}
}

// measureCall wraps a completion callback so the call's client-observed
// latency (Invoke entry → callback) lands in the category's histogram.
// With metrics disabled it returns onDone untouched — no wrapper, no
// allocation on the invoke path.
func (r *Replica) measureCall(u spec.MethodID, onDone func(any, error)) func(any, error) {
	var h *metrics.Histogram
	switch r.an.Category[u] {
	case spec.CatQuery:
		h = r.mQueryLat
	case spec.CatReducible:
		h = r.mReduceLat
	case spec.CatIrreducibleFree:
		h = r.mFreeLat
	case spec.CatConflicting:
		h = r.mConfLat
	}
	if h == nil {
		return onDone
	}
	start := r.cluster.Fab.Engine().Now()
	return func(v any, err error) {
		h.Observe(sim.Duration(r.cluster.Fab.Engine().Now() - start))
		if onDone != nil {
			onDone(v, err)
		}
	}
}

// noteQueueDepths publishes the current buffer depths (metrics only).
func (r *Replica) noteQueueDepths() {
	if r.mFreeDepth == nil {
		return
	}
	free, conf := r.QueueDepths()
	r.mFreeDepth.Set(int64(free))
	r.mConfDepth.Set(int64(conf))
}

// newCall stamps a fresh request identifier.
func (r *Replica) newCall(u spec.MethodID, args spec.Args) spec.Call {
	r.nextSeq++
	return spec.Call{Method: u, Args: args, Proc: r.id, Seq: r.nextSeq}
}

// --- queries ------------------------------------------------------------

// view is a stored state together with Apply(S)(state), its image under
// the summary slots, maintained as calls happen instead of recomputed per
// read. Maintaining it is sound because a reducible method sits in no
// synchronization group and therefore S-commutes with every call (the
// declared relation spec.Check tests): a call that lands in the stored state
// may be applied to the image after the summaries already in it, and a call
// folded into one slot after the other slots' summaries.
type view struct {
	r     *Replica
	base  spec.State // the stored state: no summarized call applied
	mat   spec.State // Apply(S)(base); nil until first read, and always without summarization groups
	dirty bool       // a slot was replaced wholesale: mat is rebuilt, into its own storage, on the next read
}

// maintained reports whether v has an image to keep up to date. A view that
// was never read, or is dirty anyway, costs nothing per call.
func (v *view) maintained() bool { return v != nil && v.mat != nil && !v.dirty }

// apply runs c, a call that lands in the stored state, on v.
func (v *view) apply(c spec.Call) {
	v.r.cls.ApplyCall(v.base, c)
	if v.maintained() {
		v.r.cls.ApplyCall(v.mat, c)
	}
}

// state returns Apply(S)(base), rebuilding it from the slots only when it
// was never built or a slot was replaced since. A rebuild copies base into
// the image's own maps (spec.State.CopyFrom), so once the image has grown to
// size an anchor adoption costs a copy and the slots' summaries, not a fresh
// state. For classes without summarization groups it is the stored state
// itself.
func (v *view) state() spec.State {
	if !v.r.haveSums {
		return v.base
	}
	if !v.maintained() {
		if v.mat == nil {
			v.mat = v.r.cls.NewState()
		}
		v.mat.CopyFrom(v.base)
		for _, row := range v.r.sums {
			for _, slot := range row {
				v.r.cls.ApplyCall(v.mat, slot.call)
			}
		}
		v.dirty = false
	}
	return v.mat
}

// foldViews tells the views that c was folded into a summary slot (an own
// reducible call, or a peer's δ-record): the slot now summarizes what it did
// before and then c, so each maintained image just applies c.
func (r *Replica) foldViews(c spec.Call) {
	for _, v := range [...]*view{&r.live, r.spec} {
		if v.maintained() {
			r.cls.ApplyCall(v.mat, c)
		}
	}
}

// dirtyViews tells the views that a slot's summary was replaced wholesale
// (an anchor, a gap fetch, a repair or recency read): nothing says what the
// new summary adds to the old, so the images are rebuilt when next read.
func (r *Replica) dirtyViews() {
	r.live.dirty = true
	if r.spec != nil {
		r.spec.dirty = true
	}
}

// queryState returns Apply(S)(σ): the stored state with all summarized
// calls applied.
func (r *Replica) queryState() spec.State { return r.live.state() }

// permissible checks P against the current (summary-applied) state in place
// (spec.Class.Allows). A vacuous call does not even read the state, so its
// check never rebuilds a view.
func (r *Replica) permissible(c spec.Call) bool {
	return r.cls.Vacuous(c) || r.cls.Allows(r.queryState(), c)
}

func (r *Replica) assertIntegrity(context string) {
	if !r.opts.CheckIntegrity || r.cls.TrivialInvariant {
		return
	}
	if !r.cls.Invariant(r.queryState()) {
		panic(fmt.Sprintf("core: integrity violated at p%d during %s", r.id, context))
	}
}

// --- reducible calls (rule REDUCE) ---------------------------------------

func (r *Replica) invokeReduce(u spec.MethodID, args spec.Args, submitAt sim.Time, onDone func(any, error)) {
	c := r.newCall(u, args)
	if r.tracing() {
		r.traceData(trace.Issue, c, r.cls.Methods[u].Name+" (reducible)", trace.CallRecord{C: c, SubmitAt: submitAt})
	}
	if !r.permissible(c) {
		r.statRejected++
		r.trace(trace.Reject, c, "not locally permissible")
		if onDone != nil {
			onDone(nil, ErrImpermissible)
		}
		return
	}
	g := r.an.SumGroupOf[u]
	slot := r.sums[g][r.id]
	slot.call = r.cls.SumGroups[g].Summarize(slot.call, c)
	gi := groupIndexOf(r.cls.SumGroups[g].Methods, u)
	slot.counts[gi]++
	r.applied.Set(r.id, u, slot.counts[gi])
	r.foldViews(c)
	slot.version++

	// The call ships as one record in one write: usually a small δ-record
	// (nextDelta) into the log area of the issuer's own slot and into every
	// peer's copy of the node's δ-log, and when the slot's log fills the anchor,
	// one call record at the slot head (codec.FrameAnchor: the summary call,
	// its applied counts and the epoch that stamps it with the configuration
	// its writer believed current; adopters reject anchors stamped below the
	// writer's departure epoch, see the floors on Replica). The issuer
	// installs it in its own slot, the copy fetches, repairs and recency reads
	// fold, which so holds what every peer's does, byte for byte; every other
	// node gets it as an unsignaled one-sided write, inline only when the CPU
	// has nothing else queued (rdma.Coalescer), queued per peer — the
	// coalescer copies what it is given — and flushed as one chained doorbell,
	// a burst's calls to one slot as one δ-record in one write. Summary and
	// applied counts travel in one record, so no remote node can observe the
	// count without the summary (the S-before-A ordering of rule REDUCE), and
	// successive versions of a slot stay ordered on the QP.
	var label string
	if r.tracing() {
		label = r.callLabel(c) // built only when tracing: keeps the hot path allocation-free
	}
	off := r.slotOffset(g, r.id)
	own := r.node.Region(r.sumRegion)
	rec, at, nodeAt, term := r.nextDelta(g, slot, c)
	if rec != nil && !r.mutateLocal {
		own.Write(off+r.anchorCap()+at, rec)
	}
	if term {
		rec = append(rec, 0, 0, 0, 0)
		r.recBuf = rec
	}
	wr := rdma.WR{Region: NodeLogRegion, Off: int(r.id)*r.nlog.size + nodeAt, Data: rec, Label: label}
	if rec == nil {
		// Encoded in place, so a growing summary costs no scratch.
		frame, err := codec.AppendDeltaRecord(own.Bytes()[off:off:off+r.anchorCap()], codec.DeltaRecord{
			Kind: codec.FrameAnchor, Version: slot.version, Epoch: r.cluster.epoch, Counts: slot.counts, C: slot.call})
		if err != nil || len(frame) > r.anchorCap() {
			// The summary outgrew its slot: surface a hard configuration error.
			panic(fmt.Sprintf("core: summary slot overflow at p%d: %d-byte anchor for a %d-byte anchor area (%v)",
				r.id, len(frame), r.anchorCap(), err))
		}
		wr.Region, wr.Off, wr.Data = r.sumRegion, off, frame
		own.Write(off, frame)
	}
	r.propagate(g, wr)
	r.statApplied++
	r.assertIntegrity("reduce")
	if r.tracing() {
		traced := c // its own copy: taking c's address would put every call on the heap, tracer or not
		r.traceData(trace.Reduce, c, fmt.Sprintf("summary v%d remote-written to %d peers", slot.version, r.n-1),
			trace.SlotRecord{Group: g, Src: r.id, Version: slot.version, Sum: slot.call.Clone(), // the next fold writes the slot's arrays
				Counts: append([]uint32(nil), slot.counts...), C: &traced})
		r.traceData(trace.Complete, c, "response resolved", trace.AckRecord{OK: true})
	}
	r.kickApply() // counts advanced: dependent buffered calls may unblock
	if onDone != nil {
		onDone(nil, nil)
	}
}

// propagate queues group g's slot write wr for every peer — an anchor at
// the slot's offset in the peer's region — and notes the coalescer's Mark
// behind it: while the Mark stays there, wr is every peer's pending tail,
// which is what lets nextDelta fold the next call into it.
func (r *Replica) propagate(g int, wr rdma.WR) {
	anchor := wr.Region == r.sumRegion
	for p := 0; p < r.n; p++ {
		if spec.ProcID(p) != r.id {
			if anchor {
				wr.Off = r.slotOffsetOn(spec.ProcID(p), g, r.id)
			}
			r.coal.Enqueue(rdma.NodeID(p), r.opts.Shard, wr)
		}
	}
	r.deltaW[g].mark = r.coal.Mark()
}

// slotOffset is where slot (g, p) starts in the replica's summary region.
func (r *Replica) slotOffset(g int, p spec.ProcID) int { return r.slotOffsetOn(r.id, g, p) }

// slotOffsetOn is where slot (g, p) starts in node's summary region: slots
// in group-major order, each its anchor area long, and the node's own ones
// SumSlotSize, their δ-record log behind the anchor area. A peer's copy of
// a slot holds only the anchor: its δ-records reach the node through the
// writer's δ-log (nodeLog), and a fetch reads the writer's own copy.
func (r *Replica) slotOffsetOn(node spec.ProcID, g int, p spec.ProcID) int {
	own := g // the node's own slots before (g, p)
	if node < p {
		own++
	}
	return (g*r.n+int(p))*r.anchorCap() + own*r.opts.DeltaLogBytes
}

// anchorCap is the slot prefix holding the full-state anchor; the
// remaining DeltaLogBytes tail is the δ-record log.
func (r *Replica) anchorCap() int { return r.opts.SumSlotSize - r.opts.DeltaLogBytes }

// nextDelta picks what one reducible call ships: a δ-record with its offsets
// in the log area of the issuer's own slot and in the node's δ-log, or nil —
// for the slot's first call, when the slot's log fills, or when the call does
// not pack — for a full-state re-anchor at the slot head, which also resets
// the slot's log cursor. Anchors are not counted in calls: the slot's log
// holds every δ-record since its last anchor, so a longer log saves the
// writer the anchors' bytes. The node's log fills on its own: a record that
// does not fit behind its cursor starts a new pass at offset 0
// (ring.LogWriter), and term tells that its write carries a zero length
// word behind rec.
//
// A δ-record is a run: while the open run's record is still the pending tail
// of every peer's batch (nothing enqueued on the coalescer and no flush since,
// which its Mark tells), c is folded into the run's call and the one record
// re-encoded at the run's offsets, where the coalescer writes it over the old
// encoding. A shorter re-encoding is padded with zeros to the longest one, so
// a peer's walk ends behind it on an empty length word instead of on the old
// encoding's tail. Anything else starts a run at the cursors. rec lives in
// the replica's scratch buffer and is good until the next call encodes over it.
func (r *Replica) nextDelta(g int, slot *sumSlot, c spec.Call) (rec []byte, at, nodeAt int, term bool) {
	dw := &r.deltaW[g]
	lw := r.nlog.w
	if dw.anchored {
		if dw.open && dw.mark == r.coal.Mark() {
			dw.call = r.cls.SumGroups[g].Summarize(dw.call, c)
			if rec := r.encodeRun(g, dw, slot, lw.Stamp(dw.nodeAt)); r.fits(dw, rec) {
				term = r.placeRun(dw, &rec)
				dw.sinceAnchor++
				return rec, dw.runAt, dw.nodeAt, term
			}
		}
		dw.open, dw.runAt, dw.nodeAt, dw.ext, dw.first = true, dw.logOff, lw.Pos().At, 0, slot.version
		dw.call.Method, dw.call.Proc, dw.call.Seq = c.Method, c.Proc, c.Seq
		dw.call.Args.I = append(dw.call.Args.I[:0], c.Args.I...)
		dw.call.Args.S = append(dw.call.Args.S[:0], c.Args.S...)
		was := lw.Stamp(dw.nodeAt)
		rec := r.encodeRun(g, dw, slot, was)
		if rec != nil {
			var stamp uint32
			if dw.nodeAt, stamp = lw.Reserve(len(rec)); stamp != was {
				rec = r.encodeRun(g, dw, slot, stamp)
			}
		}
		if r.fits(dw, rec) {
			term = r.placeRun(dw, &rec)
			dw.sinceAnchor++
			r.statDeltas++
			return rec, dw.runAt, dw.nodeAt, term
		}
	}
	dw.anchored, dw.open, dw.logOff, dw.sinceAnchor = true, false, 0, 0
	r.statAnchors++
	return nil, 0, 0, false
}

// encodeRun encodes dw's run, up to slot's version, tagged with group g's
// node-log tag in place of its Proc and stamped with pass, into the scratch
// buffer; nil when it does not pack.
func (r *Replica) encodeRun(g int, dw *deltaWriter, slot *sumSlot, pass uint32) []byte {
	call := dw.call
	call.Proc = spec.ProcID(r.cluster.tags[g])
	rec, err := codec.AppendDeltaRecord(r.recBuf[:0], codec.DeltaRecord{
		Kind:    codec.FrameDelta,
		Version: slot.version,
		Span:    slot.version - dw.first + 1,
		Counts:  slot.counts,
		C:       call,
		Pass:    pass,
	})
	r.recBuf = rec
	if err != nil {
		return nil
	}
	return rec
}

// fits reports whether rec packed and fits both logs at the run's offsets:
// the node's log may be shorter than the slot's, when another cluster on the
// fabric was built first with a shorter one.
func (r *Replica) fits(dw *deltaWriter, rec []byte) bool {
	return rec != nil && dw.runAt+len(rec) <= r.opts.DeltaLogBytes && dw.nodeAt+len(rec) <= r.nlog.size
}

// placeRun moves the cursors of the slot's log and the node's log behind the
// run's record *rec, pads it to the longest encoding it had and lands it in
// the node's log, reporting whether its write carries a zero length word
// (ring.LogWriter.Land).
func (r *Replica) placeRun(dw *deltaWriter, rec *[]byte) bool {
	n := len(*rec)
	dw.logOff = dw.runAt + n
	for len(*rec) < dw.ext {
		*rec = append(*rec, 0)
	}
	dw.ext = len(*rec)
	r.recBuf = *rec
	return r.nlog.w.Land(dw.nodeAt, *rec, n)
}

func groupIndexOf(methods []spec.MethodID, u spec.MethodID) int {
	for i, m := range methods {
		if m == u {
			return i
		}
	}
	panic("core: method not in its summarization group")
}

// scanSummaries runs one pass of the node's summary scan, which covers every
// replica on the node (nodeLog.scan).
func (r *Replica) scanSummaries() { r.nlog.scan() }

// scanBegin starts the replica's share of a scan pass. Only while an epoch
// floor waits for its drain proof does the pass note which sources' slots
// were unreadable (settleSlots, scanEnd).
func (r *Replica) scanBegin() {
	r.scanChanged = false
	r.scanBlocked = r.scanBlocked[:0]
	for p := range r.floors {
		if r.floors[p].Pending() != 0 {
			r.scanBlocked = append(r.scanBlocked, make([]bool, r.n)...)
			break
		}
	}
}

// scanAnchors adopts the anchors at the heads of peer p's slots in the local
// region when newer. An anchor an earlier scan validated is not validated
// again while no write has touched its bytes (rdma.Region.Moved, which every
// landing and adoptSlot's install stamp). A torn anchor leaves its slot
// unreadable this pass (settleSlots).
func (r *Replica) scanAnchors(p spec.ProcID) {
	reg := r.node.Region(r.sumRegion)
	region := reg.Bytes()
	for g, row := range r.sums {
		slot := row[p]
		slot.changed, slot.stuck, slot.gap = false, false, false
		off := r.slotOffset(g, p)
		var err error
		if slot.anchorGen == 0 || !r.unmoved(reg, off, slot.anchor.Total, slot.anchorGen) {
			var h codec.DeltaHeader
			if h, err = codec.PeekDeltaRecord(region[off : off+r.anchorCap()]); err == nil {
				r.statValidated++
				slot.anchor, slot.anchorGen = h, reg.Gen()
			}
		}
		switch a := slot.anchor; {
		case err == nil:
			slot.changed = a.Version > slot.version && r.adoptAnchor(g, p, slot, region[off:], a, nil, "anchor")
		case errors.Is(err, codec.ErrTorn):
			r.statTorn++
			slot.stuck = true
		}
	}
}

// settleSlots settles what the scan pass found for peer p's slots, behind
// p's walk. A slot left unreadable (a torn anchor, or a walk stuck on a torn
// record) without a change or a gap fetch counts the scan, and on the
// rdma.TornLooks-th such scan in a row fetches the writer's copy; a slot
// that changed starts counting afresh.
func (r *Replica) settleSlots(p spec.ProcID) {
	for g, row := range r.sums {
		slot := row[p]
		if slot.changed {
			r.scanChanged = true
			slot.tornStreak = 0
			continue
		}
		if !slot.stuck || slot.gap {
			continue
		}
		if len(r.scanBlocked) > 0 {
			r.scanBlocked[p] = true
		}
		if slot.tornStreak++; slot.tornStreak >= rdma.TornLooks {
			slot.tornStreak = 0
			r.fetchSlot(g, p, slot)
		}
	}
}

// foldRecord folds rec, a δ-record of peer p's group g that the node's walk
// read, onto the slot when its run starts right behind the slot's version,
// and reports whether the walk passes it. A record at or below the version
// is stale. One starting further ahead (δs were lost: a partition, a dropped
// write, a lapped walk) or straddling the version (a fetch landed mid-run) is
// a gap: the slot fetches the writer's own copy instead of folding onto the
// wrong base, and the walk waits at the record until the slot has caught up.
// A record of a writer whose epoch floor has risen above the anchor the slot
// folds onto (it left since) is not folded either: the slot fetches, and
// the walk passes it.
func (r *Replica) foldRecord(g int, p spec.ProcID, rec *codec.DeltaRecord) bool {
	r.statValidated++
	slot := r.sums[g][p]
	switch {
	case rec.Version <= slot.version:
	case !r.floors[p].Admits(slot.epoch):
		r.fetchSlot(g, p, slot)
	case rec.Version-rec.Span == slot.version:
		slot.call = r.cls.SumGroups[g].Summarize(slot.call, rec.C)
		r.installScan(g, p, slot, rec.Version, rec.Counts, "delta")
		r.foldViews(rec.C)
		slot.changed = true
	default:
		slot.gap = true
		r.fetchSlot(g, p, slot)
		return false
	}
	return true
}

// scanEnd ends the replica's share of a scan pass. Pending epoch floors
// (leave commits) are promoted once a full pass has read everything the
// departed source left behind: a floor raised any earlier could reject
// frames the source wrote — and acked — while still a member. The source's
// δ-records are read only once the node's walk of its log has reached the
// end of what landed: a walk that stopped short, at a gap or a torn record
// of any object's, holds this replica's records behind it too.
func (r *Replica) scanEnd() {
	for p, blocked := range r.scanBlocked {
		blocked = blocked || r.nlog.walks[p].short
		for _, row := range r.sums {
			blocked = blocked || row[p].fetching
		}
		if !blocked {
			r.floors[p].Drained()
		}
	}
	if r.scanChanged {
		r.assertIntegrity("summary scan")
		r.kickApply()
	}
}

// adoptAnchor replaces peer p's summary wholesale with the anchor at the
// front of b, validated as h, with the contiguous δ-records of log folded on
// from the anchor's version — when that is newer than the slot, unless the
// anchor is malformed or stamped below p's epoch floor. A scan passes no log;
// a read of p's own copy passes its log, and folding from the anchor is what
// makes a read that lands mid-run correct, where the slot's version may
// straddle the run. Only an anchor that passes every check swaps arrays with
// the slot: the slot takes the decoded summary, the scratch the old arrays.
func (r *Replica) adoptAnchor(g int, p spec.ProcID, slot *sumSlot, b []byte, h codec.DeltaHeader, log []byte, src string) bool {
	if h.Kind != codec.FrameAnchor {
		return false
	}
	rec := &r.anchorRec
	// Give the scratch the slot's room first, so the swap never leaves the
	// slot less to fold into than it had: a growing summary then reallocates
	// once per doubling on this side too, not at every anchor.
	rec.C.Args.I = reserve(rec.C.Args.I, cap(slot.call.Args.I))
	rec.C.Args.S = reserve(rec.C.Args.S, cap(slot.call.Args.S))
	if codec.DecodeDeltaBody(rec, b, h) != nil {
		return false
	}
	r.walkLog(log, rec.Version, func(d *codec.DeltaRecord) {
		d.C.Proc = p // the record's tag
		rec.C = r.cls.SumGroups[g].Summarize(rec.C, d.C)
		rec.Version, rec.Counts = d.Version, append(rec.Counts[:0], d.Counts...)
	})
	if rec.Version <= slot.version {
		return false
	}
	if !r.floors[p].Admits(rec.Epoch) {
		r.statStaleSlots++ // a write the configuration no longer accepts
		return false
	}
	slot.call, rec.C = rec.C, slot.call
	slot.epoch = rec.Epoch
	r.installScan(g, p, slot, rec.Version, rec.Counts, src)
	r.dirtyViews()
	return true
}

// reserve returns s emptied, in its own array when that holds n elements and
// in a new one of exactly n otherwise: no more, or the slot and the scratch
// would outgrow each other at every swap.
func reserve[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, 0, n)
	}
	return s[:0]
}

// installScan commits an adopted summary for peer p's slot, whose call the
// caller has already replaced or folded into: the version flips, the applied
// counts advance monotonically, and the adoption is traced for the
// conformance checker.
func (r *Replica) installScan(g int, p spec.ProcID, slot *sumSlot, ver uint32, counts []uint32, src string) {
	slot.version = ver
	for i, u := range r.cls.SumGroups[g].Methods {
		if i < len(counts) && counts[i] > r.applied.Get(p, u) {
			r.applied.Set(p, u, counts[i])
			r.statApplied++
		}
	}
	if r.tracing() {
		r.opts.Tracer.RecordData(int(r.id), trace.Adopt, "",
			fmt.Sprintf("adopted slot g%d/p%d v%d from %s", g, p, ver, src),
			trace.SlotRecord{Group: g, Src: p, Version: ver, Sum: slot.call.Clone(), // the next fold writes the slot's arrays
				Counts: append([]uint32(nil), counts...)})
	}
}

// walkLog walks a slot's δ-record log, read from its writer's own copy, for
// a summary at version ver (adoptAnchor, from the anchor's version). Every
// record is validated, but only one whose run starts at ver+1 is decoded —
// into the scratch record, which fold borrows — and folded, advancing ver;
// records at or below ver are stale leftovers or already folded, and are
// passed. The walk stops at the first record it cannot pass: incomplete,
// torn, garbage, or a gap (a run starting past ver+1 or straddling ver).
func (r *Replica) walkLog(log []byte, ver uint32, fold func(*codec.DeltaRecord)) {
	for at := 0; at < len(log); {
		h, err := codec.PeekDeltaRecord(log[at:])
		if err != nil {
			return
		}
		r.statValidated++
		switch {
		case h.Kind != codec.FrameDelta:
			return
		case h.Version <= ver:
		case h.First() == ver+1:
			rec := &r.deltaRec
			if codec.DecodeDeltaBody(rec, log[at:], h) != nil {
				return // CRC-intact garbage from the writer: unusable
			}
			fold(rec)
			ver = rec.Version
		default:
			return
		}
		at += h.Total
	}
}

// unmoved reports whether no write has touched [off, off+n) of the summary
// region reg since generation gen — always, under the stale-scan mutant.
func (r *Replica) unmoved(reg *rdma.Region, off, n int, gen uint64) bool {
	return r.mutateScan || !reg.Moved(off, n, gen)
}

// fetchSlot recovers a delta slot that cannot make forward progress (a
// version gap or a persistently torn record) with a one-sided read of the
// writer's own copy, whose anchor and log fold to its current full summary.
// At most one fetch per slot is outstanding.
func (r *Replica) fetchSlot(g int, p spec.ProcID, slot *sumSlot) {
	// Repair already targets suspects, so gap fetches skip them.
	if slot.fetching || r.suspected(rdma.NodeID(p)) {
		return
	}
	slot.fetching = true
	r.statGapFetch++
	r.readSlot(rdma.NodeID(p), g, p, func(bool) { slot.fetching = false })
}

// suspected reports whether this node's detector currently suspects peer
// (never, with failure handling disabled).
func (r *Replica) suspected(peer rdma.NodeID) bool {
	return r.hb != nil && r.node.Detector().Suspected(peer)
}

// --- irreducible conflict-free calls (rules FREE / FREE-APP) -------------

func (r *Replica) invokeFree(u spec.MethodID, args spec.Args, submitAt sim.Time, onDone func(any, error)) {
	c := r.newCall(u, args)
	if r.tracing() {
		r.traceData(trace.Issue, c, r.cls.Methods[u].Name+" (irreducible conflict-free)", trace.CallRecord{C: c, SubmitAt: submitAt})
	}
	if !r.permissible(c) {
		r.statRejected++
		r.trace(trace.Reject, c, "not locally permissible")
		if onDone != nil {
			onDone(nil, ErrImpermissible)
		}
		return
	}
	r.accepts.Push(freeCall{c: c, d: r.applied.Project(r.an.DependsOn[u]), onDone: onDone})
	r.node.CPU.Submit(r.cluster.Fab.Latency().ApplyCost, r.acceptFn)
}

// accept is an accepted irreducible conflict-free call's ApplyCost item: it
// pops the call, hands its record to the broadcaster's out-channel, applies it
// locally and answers. The call rides its broadcast message bare: the
// message's ring record validates it. Send refuses a call no message can carry
// before it takes effect anywhere; a call it takes is staged in its message's
// backup slot before its client is answered, and leaves with the calls
// accepted meanwhile, one message per round trip (broadcast.Broadcaster).
func (r *Replica) accept() {
	fc := r.accepts.Pop()
	c := fc.c
	entry := codec.AppendCall(r.recBuf[:0], c, fc.d)
	r.recBuf = entry
	var label string
	if r.tracing() {
		label = r.callLabel(c)
	}
	if err := r.bc.Send(entry, label); err != nil {
		if r.tracing() {
			r.traceData(trace.Complete, c, "response resolved: "+err.Error(), trace.AckRecord{})
		}
		if fc.onDone != nil {
			fc.onDone(nil, err)
		}
		return
	}
	r.live.apply(c)
	r.applied.Inc(r.id, c.Method)
	r.statApplied++
	r.syncSpec(c)
	r.assertIntegrity("free")
	if r.tracing() {
		r.traceData(trace.FreeSend, c, "applied locally, broadcast to F buffers", trace.CallRecord{C: c, D: fc.d})
		r.traceData(trace.Complete, c, "response resolved", trace.AckRecord{OK: true})
	}
	r.kickApply()
	if fc.onDone != nil {
		fc.onDone(nil, nil)
	}
}

// onFreeDelivery receives a broadcast batch of bare calls into the F buffer
// of its source and tries to apply. Calls are self-delimiting, so
// single-call and batched payloads share one loop. Each call is decoded into
// the replica's scratch record to validate it, and the first that does not
// decode or that the F buffer does not admit drops the rest of the payload.
// The payload is the receiver's, borrowed for the call: the F buffer copies
// each call's bytes.
func (r *Replica) onFreeDelivery(src rdma.NodeID, _ uint64, payload []byte) {
	for len(payload) > 0 {
		n, err := codec.DecodeCall(&r.callRec, payload)
		if err != nil || !r.admits(&r.callRec, spec.NoGroup, src, true) {
			break
		}
		r.fQueues[src].Push(payload[:n])
		payload = payload[n:]
	}
	r.noteQueueDepths()
	r.kickApply()
}

// --- conflicting calls (rules CONF / CONF-APP) ----------------------------

// confFlagRejected marks an entry the leader found impermissible: it is
// sequenced (so the origin gets its response) but applied nowhere.
const confFlagRejected = 1

func (r *Replica) invokeConf(u spec.MethodID, args spec.Args, submitAt sim.Time, onDone func(any, error)) {
	c := r.newCall(u, args)
	if r.tracing() {
		r.traceData(trace.Issue, c, fmt.Sprintf("%s (conflicting, group %d, leader p%d)",
			r.cls.Methods[u].Name, r.an.SyncGroupOf[u], r.groups[r.an.SyncGroupOf[u]].Leader()),
			trace.CallRecord{C: c, SubmitAt: submitAt})
	}
	// The flag byte stays clear; the leader's Transform decides. A call whose
	// entry would not fit a journal slot once the leader adds its dependency
	// record (packed as a one-byte empty vector here) is refused before
	// anything knows of it. The payload is encoded in recBuf, which mu.Submit
	// copies.
	payload := encodeConf(r.recBuf[:0], c, nil)
	r.recBuf = payload
	bound := r.cluster.Opts.Mu.MaxPayload()
	if n := len(payload) - 1 + codec.MaxDepVecBytes(r.n*len(r.an.DependsOn[u])); n > bound {
		err := fmt.Errorf("%w: %d-byte conflicting call entry, Mu entries carry %d", codec.ErrTooLarge, n, bound)
		if onDone != nil {
			onDone(nil, err)
		}
		return
	}
	if onDone != nil {
		r.pendingConf[c.Seq] = onDone
	}
	r.groups[r.an.SyncGroupOf[u]].Submit(payload)
}

// encodeConf appends an ordered group entry's payload for (c, d) to dst: a
// flag byte (clear) ahead of the bare call. The Mu entry, request and journal
// slot that carry it validate it.
func encodeConf(dst []byte, c spec.Call, d spec.DepVec) []byte {
	return codec.AppendCall(append(dst, 0), c, d)
}

// decodeConf is encodeConf's inverse: it returns the flag byte and the call's
// bytes, and decodes the call into dst, reusing dst's arrays
// (codec.DecodeCall): a fresh record in confLabel, one of the replica's
// scratch records everywhere else. The call must end where the payload does.
func decodeConf(dst *codec.DeltaRecord, payload []byte) (flags byte, call []byte, err error) {
	if len(payload) < 1 {
		return 0, nil, codec.ErrIncomplete
	}
	n, err := codec.DecodeCall(dst, payload[1:])
	if err == nil && 1+n != len(payload) {
		err = fmt.Errorf("%w: %d bytes after the call", codec.ErrCorrupt, len(payload)-1-n)
	}
	if err != nil {
		return 0, nil, err
	}
	return payload[0], payload[1:], nil
}

// admits reports whether e, a call decoded from a peer's write, may join a
// buffer of this replica's: the class admits it from the process that wrote
// it (the broadcast source, the Mu origin; spec.Class.AdmitsFrom); an F
// buffer (g is spec.NoGroup) takes one of the class's irreducible
// conflict-free methods, the L buffer of sync group g one of that group's
// methods; and its dependency record must be the method's projection over
// every process when ordered is set, and empty otherwise (a request at the
// leader's Transform, or an entry the leader rejected). The frame around a
// call says its bytes are the writer's; this says they are a call of this
// cluster's, so nothing downstream indexes past the class's methods, the
// applied map or the record.
func (r *Replica) admits(e *codec.DeltaRecord, g int, from rdma.NodeID, ordered bool) bool {
	if !r.cls.AdmitsFrom(e.C, spec.ProcID(from)) {
		return false
	}
	u := e.C.Method
	if g == spec.NoGroup && r.an.Category[u] != spec.CatIrreducibleFree || g != spec.NoGroup && r.an.SyncGroupOf[u] != g {
		return false
	}
	cells := 0
	if ordered {
		cells = r.n * len(r.an.DependsOn[u])
	}
	return len(e.D) == cells
}

// callKey2 identifies a (process, method) cell of the speculative
// applied-count overlay.
type callKey2 struct {
	p spec.ProcID
	u spec.MethodID
}

// leaderTransform runs at the ordering point (rule CONF): the leader
// checks permissibility against its *speculative* view — the authoritative
// state plus proposed-but-undecided calls — and attaches the projection of
// its (equally speculative) applied counts over the call's dependencies.
// The speculative view lets pipelined conflicting calls see each other
// (two withdrawals cannot both pass against the same balance) while
// keeping σ free of undecided effects: if this leader turns out to be
// deposed, its proposals never decide and the speculation is discarded.
//
// The call is decoded into the replica's scratch record and the entry's
// payload encoded in recBuf, which mu copies into the entry before anything
// else runs (the Transform contract), so ordering a call allocates nothing
// here but its dependency record; a traced call is cloned, since the next
// decode reuses the record's arrays. A request that does not decode, or that
// group g's L buffers would not admit from origin, is ordered as an empty
// entry, which every replica drops.
func (r *Replica) leaderTransform(g int, origin rdma.NodeID, payload []byte) []byte {
	if _, _, err := decodeConf(&r.callRec, payload); err != nil || !r.admits(&r.callRec, g, origin, false) {
		return r.recBuf[:0]
	}
	c := r.callRec.C
	if !r.specPermissible(c) {
		r.statRejected++
		r.trace(trace.Reject, c, "rejected at the ordering point")
		r.recBuf = append(r.recBuf[:0], payload...)
		r.recBuf[0] = confFlagRejected
		return r.recBuf
	}
	d := r.projectSpec(r.an.DependsOn[c.Method])
	r.specView().apply(c)
	r.specA[callKey2{c.Proc, c.Method}]++
	if r.tracing() {
		r.traceData(trace.Order, c, "sequenced at the leader (speculative)", trace.CallRecord{C: c.Clone(), D: d})
	}
	r.recBuf = encodeConf(r.recBuf[:0], c, d)
	return r.recBuf
}

// specView returns the speculative view, lazily forked from σ.
func (r *Replica) specView() *view {
	if r.spec == nil {
		r.spec = &view{r: r, base: r.live.base.Clone()}
	}
	return r.spec
}

// specPermissible checks P against the speculative state with summaries
// applied, in place, like permissible.
func (r *Replica) specPermissible(c spec.Call) bool {
	return r.cls.Vacuous(c) || r.cls.Allows(r.specView().state(), c)
}

// projectSpec projects the applied map plus the speculative overlay over
// the dependency methods.
func (r *Replica) projectSpec(deps []spec.MethodID) spec.DepVec {
	d := r.applied.Project(deps)
	if len(d) == 0 || len(r.specA) == 0 {
		return d
	}
	k := len(deps)
	for p := 0; p < r.n; p++ {
		for i, u := range deps {
			if extra := r.specA[callKey2{spec.ProcID(p), u}]; extra > 0 {
				d[p*k+i] += extra
			}
		}
	}
	return d
}

// onConfDelivery receives an ordered group entry into the L buffer of its
// group, or answers the origin's client when the leader rejected the call.
// The entry is decoded into the replica's scratch record to validate it, and
// dropped unless the L buffer admits it (a rejected entry carries no
// dependency record). The payload is mu's, borrowed for the call: the L
// buffer copies the call's bytes.
func (r *Replica) onConfDelivery(g int, origin rdma.NodeID, payload []byte) {
	flags, call, err := decodeConf(&r.callRec, payload)
	rejected := flags&confFlagRejected != 0
	if err != nil || !r.admits(&r.callRec, g, origin, !rejected) {
		return
	}
	if rejected {
		if c := r.callRec.C; c.Proc == r.id {
			r.complete(c.Seq, nil, ErrImpermissible)
		}
		return
	}
	r.lQueues[g].Push(call)
	r.noteQueueDepths()
	r.kickApply()
}

func (r *Replica) complete(seq uint64, v any, err error) {
	if cb, ok := r.pendingConf[seq]; ok {
		delete(r.pendingConf, seq)
		if r.tracing() {
			note := "response resolved"
			if err != nil {
				note = "response resolved: " + err.Error()
			}
			r.traceData(trace.Complete, spec.Call{Proc: r.id, Seq: seq}, note, trace.AckRecord{OK: err == nil})
		}
		cb(v, err)
	}
}

// --- the apply pump (rules FREE-APP / CONF-APP) ---------------------------

// kickApply starts the apply pump if any buffered call's dependencies are
// satisfied. The pump charges the apply cost per call on the CPU and
// processes buffers FIFO. Every event that can make a buffered call
// applicable kicks the pump, so nothing retries it on a timer: a kick that
// arrives while the node is suspended queues the pump on the paused CPU,
// which runs it on resume.
func (r *Replica) kickApply() {
	if r.applying || r.node.Crashed() {
		return
	}
	if !r.anyApplicable() {
		return
	}
	r.applying = true
	r.node.CPU.Submit(r.cluster.Fab.Latency().ApplyCost, r.applyStepFn)
}

func (r *Replica) applyStep() {
	r.applying = false
	if r.applyOne() {
		r.noteQueueDepths()
		r.kickApply()
	}
}

func (r *Replica) anyApplicable() bool {
	if r.mutateOrder {
		free, conf := r.QueueDepths()
		return free+conf > 0
	}
	for i := range r.fQueues {
		if r.headApplicable(&r.fQueues[i]) {
			return true
		}
	}
	for i := range r.lQueues {
		if r.headApplicable(&r.lQueues[i]) {
			return true
		}
	}
	return false
}

// headApplicable reports whether q's oldest call exists and has its
// dependency record satisfied by the applied map.
func (r *Replica) headApplicable(q *callBuffer) bool {
	if q.Len() == 0 {
		return false
	}
	e := q.Head()
	return r.applied.Satisfies(e.D, r.an.DependsOn[e.C.Method])
}

// applyOne applies one applicable buffer head — F buffers before L buffers,
// each queue FIFO — and reports whether it did any work. The call applied is
// the buffer's decoded record, borrowed: applyEntry and Apply read it, and
// the buffer's next decode overwrites it.
func (r *Replica) applyOne() bool {
	if r.mutateOrder {
		return r.applyOneMutated()
	}
	for src := range r.fQueues {
		if q := &r.fQueues[src]; r.headApplicable(q) {
			r.applyEntry(q.Pop(), "free-app")
			return true
		}
	}
	// The L buffers are served round-robin: scanning from group 0 every time
	// lets a node whose CPU is saturated starve the higher-numbered groups.
	for i := range r.lQueues {
		g := (r.lNext + i) % len(r.lQueues)
		if q := &r.lQueues[g]; r.headApplicable(q) {
			r.lNext = g + 1
			r.applyConf(q.Pop())
			return true
		}
	}
	return false
}

// applyConf applies a call taken from an L buffer and answers its client when
// the call is this replica's own.
func (r *Replica) applyConf(e *codec.DeltaRecord) {
	r.applyEntry(e, "conf-app")
	if e.C.Proc == r.id {
		r.complete(e.C.Seq, nil, nil)
	}
}

// applyOneMutated is the apply-order mutant (Cluster.MutateApplyOrder): it
// drains buffers newest-first and ignores the dependency-record gate —
// the apply-order bug the conformance harness must catch.
func (r *Replica) applyOneMutated() bool {
	for src := range r.fQueues {
		if q := &r.fQueues[src]; q.Len() > 0 {
			r.applyEntry(q.PopBack(), "free-app")
			return true
		}
	}
	for g := range r.lQueues {
		if q := &r.lQueues[g]; q.Len() > 0 {
			r.applyConf(q.PopBack())
			return true
		}
	}
	return false
}

// applyEntry applies e, a buffer's decoded record, which it borrows: the
// trace record takes a copy, since the buffer's next decode reuses e's
// arrays.
func (r *Replica) applyEntry(e *codec.DeltaRecord, context string) {
	c := e.C
	r.live.apply(c)
	r.applied.Inc(c.Proc, c.Method)
	r.statApplied++
	r.syncSpec(c)
	if r.opts.CheckIntegrity {
		r.assertIntegrity(context + " of " + c.Format(r.cls))
	}
	if r.tracing() {
		r.traceData(trace.Apply, c, context, trace.CallRecord{C: c.Clone(), D: e.D.Clone()})
	}
}

// syncSpec keeps the speculative view consistent as σ advances: a call this
// leader speculated is already in the speculative view (consume its overlay
// count); anything else must be mirrored into it.
func (r *Replica) syncSpec(c spec.Call) {
	if r.spec == nil {
		return
	}
	k := callKey2{c.Proc, c.Method}
	if r.specA[k] > 0 {
		r.specA[k]--
		if r.specA[k] == 0 {
			delete(r.specA, k)
		}
		return
	}
	r.spec.apply(c)
}

// --- failure handling ------------------------------------------------------

// onSuspect reacts to the failure detector: recover pending broadcasts from
// the suspect's backup, repair summary slots from the suspect's
// authoritative row, and run a leader change for any synchronization group
// the suspect led (the successor in ring order stands as candidate).
func (r *Replica) onSuspect(peer rdma.NodeID) {
	if r.tracing() {
		r.opts.Tracer.Record(int(r.id), trace.Suspect, "", fmt.Sprintf("suspects p%d", peer))
	}
	r.rx.RecoverFrom(peer)
	r.repairSummaries(peer)
	for _, in := range r.groups {
		if in.Leader() == peer && r.isSuccessor(peer) {
			in.StartElection()
		}
	}
}

// onRestore reacts to a suspected peer coming back: re-run the recovery
// sweep once more. During the suspicion window the peer's backup slots and
// summary row were moving targets — a recovery read may have raced a slot
// being cleared or a summary being rewritten — so one more idempotent pass
// after the peer is trusted again closes the window. Without it, a summary
// whose propagating write was lost to the outage is only repaired when the
// peer's *next* call happens to rewrite the slot.
func (r *Replica) onRestore(peer rdma.NodeID) {
	if r.tracing() {
		r.opts.Tracer.Record(int(r.id), trace.Suspect, "", fmt.Sprintf("restores p%d", peer))
	}
	r.rx.RecoverFrom(peer)
	r.repairSummaries(peer)
}

// isSuccessor reports whether this node is the first non-suspected node
// after peer in ring order — the deterministic candidate choice.
func (r *Replica) isSuccessor(peer rdma.NodeID) bool {
	for d := 1; d < r.n; d++ {
		next := rdma.NodeID((int(peer) + d) % r.n)
		if next == r.node.ID() {
			return true
		}
		if !r.suspected(next) {
			return false
		}
	}
	return false
}

// readSlot issues a one-sided read of (g, p)'s summary slot at peer, adopts
// the slot read when its anchor is CRC-validated (adoptSlot), and tells done
// whether that changed anything. A torn anchor is counted in torn_rejects and
// re-read (rdma.QP.ReadValid). A read error, or an anchor still torn on the
// rdma.TornLooks-th read (its writer died mid-write), adopts nothing; the
// periodic summary scan observes the healed slot later.
func (r *Replica) readSlot(peer rdma.NodeID, g int, p spec.ProcID, done func(adopted bool)) {
	var h codec.DeltaHeader
	var perr error
	r.node.QP(peer).ReadValid(r.sumRegion, r.slotOffsetOn(spec.ProcID(peer), g, p), r.opts.SumSlotSize,
		func(data []byte) bool {
			if h, perr = codec.PeekDeltaRecord(data); errors.Is(perr, codec.ErrTorn) {
				r.statTorn++
				return true
			}
			return false
		},
		func(data []byte, err error) { done(err == nil && perr == nil && r.adoptSlot(g, p, data, h)) })
}

// repairSummaries reads the suspect's own summary row remotely (its NIC
// still serves one-sided reads under the suspension failure model) and
// adopts any slot newer than the local copy — the summary analogue of the
// broadcast backup recovery.
func (r *Replica) repairSummaries(peer rdma.NodeID) {
	if !r.haveSums {
		return
	}
	for g := range r.sums {
		r.readSlot(peer, g, spec.ProcID(peer), func(adopted bool) {
			if adopted {
				r.statRecovered++
			}
		})
	}
}

// --- introspection -----------------------------------------------------

// CurrentState returns a snapshot of Apply(S)(σ) for tests and examples.
func (r *Replica) CurrentState() spec.State { return r.queryState().Clone() }

// QueueDepths reports buffered-but-unapplied calls (diagnostics).
func (r *Replica) QueueDepths() (free, conf int) {
	for i := range r.fQueues {
		free += r.fQueues[i].Len()
	}
	for i := range r.lQueues {
		conf += r.lQueues[i].Len()
	}
	return free, conf
}

// --- recency-aware queries (Hampa-style extension) ------------------------

// InvokeFresh evaluates a query with a recency guarantee for summarized
// effects: before evaluating, the replica refreshes every peer's summary
// slot with one-sided RDMA reads of the peer's own (authoritative) copy and
// adopts anything newer. Every reducible call that completed anywhere
// before InvokeFresh was issued is therefore visible to the query.
//
// This is the query-side recency mechanism of Hampa (Li et al., CAV 2020),
// which the paper cites as the recency-aware successor of the
// well-coordination line; it costs one read round-trip instead of the plain
// query's zero. Buffered (irreducible and conflicting) calls keep their
// usual propagation; for classes without summarization groups InvokeFresh
// degenerates to a plain query.
func (r *Replica) InvokeFresh(q spec.MethodID, args spec.Args, onDone func(result any, err error)) {
	r.submit(q, args, true, onDone)
}

// refresh is a fresh query's issue work: it reads every other member's
// summary slot from the member's own copy, adopts anything newer, and queues
// the query once the last read is in. A departed node is not read: it keeps
// running as an observer, and the anchors it writes after it left carry the
// cluster's current epoch, so its floor cannot tell them apart from the ones
// it wrote while a member.
func (r *Replica) refresh(cc clientCall) {
	remaining := 0
	for g := range r.sums {
		for p := 0; p < r.n; p++ {
			if spec.ProcID(p) == r.id || !r.cluster.members[p] {
				continue
			}
			remaining++
			r.readSlot(rdma.NodeID(p), g, spec.ProcID(p), func(bool) {
				if remaining--; remaining == 0 {
					r.queueQuery(cc)
				}
			})
		}
	}
	if remaining == 0 { // no other member
		r.queueQuery(cc)
	}
}

// adoptSlot adopts a slot read from p's own copy, whose anchor
// PeekDeltaRecord validated as h: its anchor and log, when they fold to a
// newer summary than the local copy's (adoptAnchor). It reports whether
// anything changed.
func (r *Replica) adoptSlot(g int, p spec.ProcID, data []byte, h codec.DeltaHeader) bool {
	if !r.adoptAnchor(g, p, r.sums[g][p], data, h, data[r.anchorCap():], "read") {
		return false
	}
	// Install only the anchor: the rest of the slot is the δ-record log, and
	// overwriting it with the bytes of a read issued one RTT ago would
	// clobber records that landed since.
	r.node.Region(r.sumRegion).Write(r.slotOffset(g, p), data[:h.Total])
	r.kickApply()
	return true
}
