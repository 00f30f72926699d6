package core

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"hamband/internal/codec"
	"hamband/internal/fifo"
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
	_, c, _, err := decodeConf(payload)
	if err != nil {
		return ""
	}
	return callID(c)
}

// tracing reports whether a tracer is attached; call sites that build
// notes or payloads guard on it so the disabled path stays allocation-free.
func (r *Replica) tracing() bool { return r.opts.Tracer != nil }

// callLabel renders a call's trace identity: the bare callID standalone,
// "shard:callID" inside a multi-object store — the same string tags the
// call's WR labels, so fabric verb events attribute to the right shard.
// Only called on tracing paths; the disabled path never builds it.
func (r *Replica) callLabel(c spec.Call) string {
	if r.opts.ShardTag == "" {
		return callID(c)
	}
	return r.opts.ShardTag + ":" + callID(c)
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
	if r.node.Suspended() || r.node.Crashed() {
		if onDone != nil {
			onDone(nil, ErrDown)
		}
		return
	}
	onDone = r.measureCall(u, onDone)
	// Invoke-entry time: the span layer derives the issue→dispatch stage
	// (CPU queueing + issue cost) from it. Captured unconditionally — it
	// rides the closure that exists anyway, costing no extra allocation.
	submitAt := r.cluster.Fab.Engine().Now()
	r.node.CPU.Exec(r.opts.IssueCost, func() {
		r.statIssued++
		switch r.an.Category[u] {
		case spec.CatQuery:
			r.node.CPU.Exec(r.opts.QueryCost, func() {
				v := r.cls.Methods[u].Eval(r.queryState(), args)
				if r.tracing() {
					r.opts.Tracer.RecordData(int(r.id), trace.Query, "", r.cls.Methods[u].Name,
						trace.QueryRecord{Method: u, Args: args, Result: v})
				}
				if onDone != nil {
					onDone(v, nil)
				}
			})
		case spec.CatReducible:
			r.invokeReduce(u, args, submitAt, onDone)
		case spec.CatIrreducibleFree:
			r.invokeFree(u, args, submitAt, onDone)
		case spec.CatConflicting:
			r.invokeConf(u, args, submitAt, onDone)
		default:
			if onDone != nil {
				onDone(nil, ErrNotUpdate)
			}
		}
	})
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
	dirty bool       // a slot was replaced wholesale: mat is rebuilt on the next read
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
// was never built or a slot was replaced since. For classes without
// summarization groups it is the stored state itself.
func (v *view) state() spec.State {
	if !v.r.haveSums {
		return v.base
	}
	if !v.maintained() {
		st := v.base.Clone()
		for _, row := range v.r.sums {
			for _, slot := range row {
				v.r.cls.ApplyCall(st, slot.call)
			}
		}
		v.mat, v.dirty = st, false
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

// vacuous reports that c's permissibility check cannot fail: the invariant is
// constant true, or the class declares c invariant-sufficient — permissible
// in every state satisfying the invariant, which σ and the speculative view
// do by integrity (Lemma 1). The declared relation is the one the analysis
// already rests on and spec.CheckRelations tests against Permissible, so the
// check's state clone, apply and invariant evaluation are skipped.
func (r *Replica) vacuous(c spec.Call) bool {
	suff := r.cls.Rel.InvariantSufficient
	return r.cls.TrivialInvariant || (suff != nil && suff(c))
}

// permissible checks P against the current (summary-applied) state.
func (r *Replica) permissible(c spec.Call) bool {
	return r.vacuous(c) || r.cls.Permissible(r.queryState(), c)
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
		r.mRejected.Inc()
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

	// The validated frame is self-delimiting (leading version, length,
	// payload, CRC, trailing version), so only the used bytes are framed
	// and travel; stale bytes beyond them are never read. For a counter
	// this shrinks the wire cost from the full slot (16 KB) to ~60 bytes.
	// It is encoded once, in place: the issuer's own slot is the
	// authoritative backup that peers repair from on failure, and the anchor
	// a gap fetch reads — it holds the current full frame even between
	// remote anchors.
	region := r.opts.Namespace + sumRegionBase
	off := r.slotOffset(g, r.id)
	own := r.node.Region(region).Bytes()[off:]
	frame, err := appendSumFrame(own[:0:r.anchorCap()], slot, r.cluster.epoch)
	if err != nil || len(frame) > r.anchorCap() {
		// The summary outgrew its slot: surface a hard configuration error.
		panic(fmt.Sprintf("core: summary slot overflow at p%d: %d-byte frame for a %d-byte anchor area (%v)",
			r.id, len(frame), r.anchorCap(), err))
	}
	// Then propagate to every other node with inline, unsignaled
	// one-sided writes (the payload fits the WQE). Summary and applied
	// count travel in one frame, so no remote node can observe the count
	// without the summary (the S-before-A ordering of rule REDUCE). The
	// writes are queued per peer — the coalescer copies what it is given, so
	// the slot's own bytes and the scratch record go in as they are — and
	// flushed as one chained doorbell, the adjacent δ-records of a burst as
	// one write; successive versions of a slot stay ordered on the QP. The
	// propagated frame is usually a small δ-record into the slot's log area;
	// every AnchorInterval calls (or when the log fills) the full frame is
	// re-anchored instead.
	var label string
	if r.tracing() {
		label = r.callLabel(c) // built only when tracing: keeps the hot path allocation-free
	}
	wr := rdma.WR{Region: region, Off: off, Data: frame, Label: label}
	if rec, at := r.nextDelta(g, slot, c); rec != nil {
		wr.Off, wr.Data = off+r.anchorCap()+at, rec
	}
	for p := 0; p < r.n; p++ {
		if spec.ProcID(p) == r.id {
			continue
		}
		r.coal.Enqueue(rdma.NodeID(p), r.opts.ShardTag, wr)
	}
	r.statApplied++
	r.mApplied.Inc()
	r.assertIntegrity("reduce")
	if r.tracing() {
		r.traceData(trace.Reduce, c, fmt.Sprintf("summary v%d remote-written to %d peers", slot.version, r.n-1),
			trace.SlotRecord{Group: g, Src: r.id, Version: slot.version, Sum: slot.call,
				Counts: append([]uint32(nil), slot.counts...), C: &c})
		r.traceData(trace.Complete, c, "response resolved", trace.AckRecord{OK: true})
	}
	r.kickApply() // counts advanced: dependent buffered calls may unblock
	if onDone != nil {
		onDone(nil, nil)
	}
}

func (r *Replica) slotOffset(g int, p spec.ProcID) int {
	return (g*r.n + int(p)) * r.opts.SumSlotSize
}

// anchorCap is the slot prefix holding the full-state anchor frame; the
// remaining DeltaLogBytes tail is the δ-record log.
func (r *Replica) anchorCap() int { return r.opts.SumSlotSize - r.opts.DeltaLogBytes }

// nextDelta picks what one reducible call ships: a δ-record and its offset
// in the slot's log area, or nil — every AnchorInterval calls, when the log
// fills, or when the call does not pack — for a full-state re-anchor at the
// slot head, which also resets the log cursor (peers skip the stale records
// left behind by version). rec lives in the replica's scratch buffer and is
// good until the next call encodes over it.
func (r *Replica) nextDelta(g int, slot *sumSlot, c spec.Call) (rec []byte, at int) {
	dw := &r.deltaW[g]
	rec, err := codec.AppendDeltaRecord(r.recBuf[:0], codec.DeltaRecord{
		Kind:    codec.FrameDelta,
		Version: slot.version,
		Counts:  slot.counts,
		C:       c,
	})
	r.recBuf = rec
	if err == nil && dw.sinceAnchor < r.opts.AnchorInterval &&
		dw.logOff+len(rec) <= r.opts.DeltaLogBytes {
		at = dw.logOff
		dw.logOff += len(rec)
		dw.sinceAnchor++
		r.statDeltas++
		r.mDeltas.Inc()
		return rec, at
	}
	dw.logOff, dw.sinceAnchor = 0, 0
	r.statAnchors++
	r.mAnchors.Inc()
	return nil, 0
}

func groupIndexOf(methods []spec.MethodID, u spec.MethodID) int {
	for i, m := range methods {
		if m == u {
			return i
		}
	}
	panic("core: method not in its summarization group")
}

// appendSumFrame appends slot s as one validated slot frame to dst, in a
// single pass through the append-style codec encoders. The frame's payload is
// the call record of the summary call with its applied counts, then the
// uvarint epoch, which stamps the frame with the configuration its writer
// believed current; adopters reject frames stamped before the writer's
// departure epoch (see the floors on Replica).
func appendSumFrame(dst []byte, s *sumSlot, epoch uint32) ([]byte, error) {
	b, err := codec.AppendDeltaRecord(codec.BeginSlot(dst, s.version),
		codec.DeltaRecord{Kind: codec.FrameFull, Counts: s.counts, C: s.call})
	if err != nil {
		return dst, err
	}
	return codec.FinishSlot(codec.AppendUvarint(b, uint64(epoch)), len(dst)), nil
}

func decodeSumSlot(b []byte) (counts []uint32, call spec.Call, epoch uint32, err error) {
	rec, n, err := codec.DecodeDeltaRecord(b)
	if err != nil {
		return nil, call, 0, err
	}
	e, m, err := codec.Uvarint(b[n:])
	if err != nil || rec.Kind != codec.FrameFull || n+m != len(b) || e > math.MaxUint32 {
		return nil, call, 0, codec.ErrCorrupt
	}
	return rec.Counts, rec.C, uint32(e), nil
}

// staleSlot reports (and counts) a slot frame from source p stamped before
// p's departure epoch: a write the configuration no longer accepts.
func (r *Replica) staleSlot(p spec.ProcID, epoch uint32) bool {
	if r.floors[p].Admits(epoch) {
		return false
	}
	r.statStaleSlots++
	r.mStaleSlots.Inc()
	return true
}

// scanSummaries polls the local summary region for slots remotely
// overwritten by peers and adopts newer versions: the decoded summary call
// replaces the cached one and the applied counts advance. Each slot is an
// anchor frame plus a δ-record log; the scan adopts a newer anchor and then
// folds contiguous δ-records on top.
func (r *Replica) scanSummaries() {
	if r.node.Suspended() || r.node.Crashed() {
		return
	}
	region := r.node.Region(r.opts.Namespace + sumRegionBase).Bytes()
	changed := false
	var blocked []bool // per source: a slot was unreadable this pass
	for p := range r.floors {
		if r.floors[p].Pending() != 0 {
			blocked = make([]bool, r.n)
			break
		}
	}
	for g, row := range r.sums {
		for p, slot := range row {
			if spec.ProcID(p) == r.id {
				continue // own slot is written locally
			}
			ch, stalled := r.scanSlot(g, spec.ProcID(p), slot, region)
			changed = changed || ch
			if blocked != nil && (stalled || slot.fetching) {
				blocked[p] = true
			}
		}
	}
	// Promote pending epoch floors (leave commits) once a full pass has read
	// everything the departed source left behind: a floor raised any earlier
	// could reject frames the source wrote — and acked — while still a
	// member.
	for p := range blocked {
		if !blocked[p] {
			r.floors[p].Drained()
		}
	}
	if changed {
		r.assertIntegrity("summary scan")
		r.kickApply()
	}
}

// adoptFrame replaces peer p's summary wholesale with the full-state frame
// (payload, ver) — found in the local region by a scan, or read from p's own
// copy — unless it is malformed or stamped below p's epoch floor.
func (r *Replica) adoptFrame(g int, p spec.ProcID, slot *sumSlot, payload []byte, ver uint32, src string) bool {
	counts, call, sepoch, err := decodeSumSlot(payload)
	if err != nil || r.staleSlot(p, sepoch) {
		return false
	}
	r.installScan(g, p, slot, ver, call, counts, src)
	r.dirtyViews()
	return true
}

// installScan commits an adopted summary (version, call, counts) for peer
// p's slot: the cached call flips, the applied counts advance monotonically,
// and the adoption is traced for the conformance checker.
func (r *Replica) installScan(g int, p spec.ProcID, slot *sumSlot, ver uint32, call spec.Call, counts []uint32, src string) {
	slot.version = ver
	slot.call = call
	for i, u := range r.cls.SumGroups[g].Methods {
		if i < len(counts) && counts[i] > r.applied.Get(p, u) {
			r.applied.Set(p, u, counts[i])
			r.statApplied++
			r.mApplied.Inc()
		}
	}
	if r.tracing() {
		r.opts.Tracer.RecordData(int(r.id), trace.Adopt, "",
			fmt.Sprintf("adopted slot g%d/p%d v%d from %s", g, p, ver, src),
			trace.SlotRecord{Group: g, Src: p, Version: ver, Sum: call,
				Counts: append([]uint32(nil), counts...)})
	}
}

// tornParkScans is how many consecutive scans a delta slot may sit on a
// torn frame with no forward progress before the reader stops waiting and
// fetches the writer's own full state: a torn landing heals within one
// fabric delay, so a persistent one means the writer died mid-write or the
// local copy is damaged beyond what retrying can fix.
const tornParkScans = 3

// scanSlot adopts one peer slot. The anchor
// frame at the slot head re-bases the state when newer; the δ-record log is
// then walked from the front: records at or below the current version are
// stale leftovers of earlier rounds (validated, then skipped undecoded), the
// record at version+1 is decoded and folds into the summary via the group's
// Summarize, and a version jumping further ahead is a gap — deltas were lost
// (partition, dropped write), so the reader schedules a one-sided fetch of
// the writer's authoritative full state instead of folding onto the wrong
// base. The second result reports the slot unreadable this pass (torn frame
// or log record).
func (r *Replica) scanSlot(g int, p spec.ProcID, slot *sumSlot, region []byte) (bool, bool) {
	off := r.slotOffset(g, p)
	changed := false
	stuck := false
	if payload, ver, err := codec.DecodeSlot(region[off : off+r.anchorCap()]); err == nil {
		changed = ver > slot.version && r.adoptFrame(g, p, slot, payload, ver, "anchor")
	} else if errors.Is(err, codec.ErrTorn) {
		r.statTorn++
		r.mTorn.Inc()
		stuck = true
	}
	log := region[off+r.anchorCap() : off+r.opts.SumSlotSize]
walk:
	for len(log) > 0 {
		// Validate every record (length, canary, CRC, kind, version) but
		// decode a body only for the one about to be folded: the walk
		// re-reads the whole log every scan, and all but one record of it
		// is stale.
		h, err := codec.PeekDeltaRecord(log)
		if err != nil {
			if errors.Is(err, codec.ErrTorn) {
				r.statTorn++
				r.mTorn.Inc()
				stuck = true
			}
			break // incomplete, torn or stale garbage: nothing beyond is usable
		}
		if h.Kind != codec.FrameDelta {
			break
		}
		switch {
		case h.Version <= slot.version:
			// Stale leftover of an earlier log round, or already folded.
		case h.Version == slot.version+1:
			rec, err := codec.DecodeDeltaBody(log, h)
			if err != nil {
				break walk // CRC-intact garbage from the writer: unusable
			}
			folded := r.cls.SumGroups[g].Summarize(slot.call, rec.C)
			r.installScan(g, p, slot, rec.Version, folded, rec.Counts, "delta")
			r.foldViews(rec.C)
			changed = true
		default:
			// Version gap: the missing δ-records will never reappear in
			// this log, so give up on folding and fetch the full state.
			r.fetchSlot(g, p, slot)
			stuck = false // the fetch is the recovery; don't double up
			break walk
		}
		log = log[h.Total:]
	}
	if changed {
		slot.tornStreak = 0
	} else if stuck {
		if slot.tornStreak++; slot.tornStreak >= tornParkScans {
			slot.tornStreak = 0
			r.fetchSlot(g, p, slot)
		}
	}
	return changed, stuck
}

// fetchSlot recovers a delta slot that cannot make forward progress (a
// version gap or a persistently torn frame) with a one-sided read of the
// writer's own copy, whose anchor area always holds the current full frame.
// At most one fetch per slot is outstanding.
func (r *Replica) fetchSlot(g int, p spec.ProcID, slot *sumSlot) {
	// Repair already targets suspects, so gap fetches skip them.
	if slot.fetching || r.suspected(rdma.NodeID(p)) {
		return
	}
	slot.fetching = true
	r.statGapFetch++
	r.mGapFetch.Inc()
	r.readSlotValidated(rdma.NodeID(p), g, p, func(data []byte) {
		slot.fetching = false
		if data != nil {
			r.adoptSlot(g, p, data)
		}
	})
}

// suspected reports whether this node's detector currently suspects peer
// (never, with failure handling disabled).
func (r *Replica) suspected(peer rdma.NodeID) bool { return r.fdom.Suspected(int(r.id), peer) }

// --- irreducible conflict-free calls (rules FREE / FREE-APP) -------------

func (r *Replica) invokeFree(u spec.MethodID, args spec.Args, submitAt sim.Time, onDone func(any, error)) {
	c := r.newCall(u, args)
	if r.tracing() {
		r.traceData(trace.Issue, c, r.cls.Methods[u].Name+" (irreducible conflict-free)", trace.CallRecord{C: c, SubmitAt: submitAt})
	}
	if !r.permissible(c) {
		r.statRejected++
		r.mRejected.Inc()
		r.trace(trace.Reject, c, "not locally permissible")
		if onDone != nil {
			onDone(nil, ErrImpermissible)
		}
		return
	}
	d := r.applied.Project(r.an.DependsOn[u])
	r.node.CPU.Exec(r.opts.ApplyCost, func() {
		// The packed varint δ-framing is the F path's one record format. A
		// call whose record no broadcast message can carry is refused before
		// it takes effect anywhere.
		entry, err := codec.AppendDeltaRecord(r.recBuf[:0], codec.DeltaRecord{Kind: codec.FrameFull, C: c, D: d})
		r.recBuf = entry
		if err == nil && len(entry) > r.cluster.freeBound {
			err = fmt.Errorf("%w: %d-byte call record, broadcast messages carry %d", codec.ErrTooLarge, len(entry), r.cluster.freeBound)
		}
		if err != nil {
			if r.tracing() {
				r.traceData(trace.Complete, c, "response resolved: "+err.Error(), trace.AckRecord{})
			}
			if onDone != nil {
				onDone(nil, err)
			}
			return
		}
		r.live.apply(c)
		r.applied.Inc(r.id, u)
		r.statApplied++
		r.mApplied.Inc()
		r.syncSpec(c)
		r.assertIntegrity("free")
		var label string
		if r.tracing() {
			r.traceData(trace.FreeSend, c, "applied locally, broadcast to F buffers", trace.CallRecord{C: c, D: d})
			label = r.callLabel(c)
		}
		r.enqueueFree(entry, label)
		if r.tracing() {
			r.traceData(trace.Complete, c, "response resolved", trace.AckRecord{OK: true})
		}
		r.kickApply()
		if onDone != nil {
			onDone(nil, nil)
		}
	})
}

// The F out-channel: one broadcast message per round trip. An accepted call's
// record joins the open batch, which leaves as ONE message — one sequence
// number, one backup slot, one ring record and one DeliverCost per peer —
// (a) when no message of this source is unacknowledged, (b) when the first
// completion of a message's writes leaves none unacknowledged, or (c) when the
// next record would not fit (Cluster.freeBound). No size, no delay, no timer,
// and the client's response waits for none of it. (a) and (b) flush from a
// zero-cost deferred CPU item (the ring.Sender.Send trick): an idle source
// sends at once, and calls already queued on the CPU share the message. First
// completion and not last, so that a slow or parked link never holds the batch
// back from the healthy peers; an error completion counts, and a message with
// no peer to write to is acknowledged as it launches. The hold costs no
// durability: every record is staged in the backup slot its message will take
// before its client is answered (broadcast.Broadcaster.Stage), so the peers of
// a source that fails on an open batch recover what it had answered. DESIGN.md
// §4, "The F out-channel", has the gates that were measured and declined.

// enqueueFree adds an accepted call's record (at most freeBound bytes) to the
// open batch and stages the batch. A non-empty batch always has a flush coming:
// the deferred item armed here or by freeAcked, or the completion that will
// arm it.
func (r *Replica) enqueueFree(entry []byte, label string) {
	if len(r.freeBatch)+len(entry) > r.cluster.freeBound {
		r.flushFree()
	}
	if len(r.freeBatch) == 0 && r.freeUnacked == 0 {
		r.node.CPU.Exec(0, r.freeIdleFn)
	}
	r.freeBatch = append(r.freeBatch, entry...)
	r.bc.Stage(r.freeBatch)
	if label != "" {
		r.freeLabels = append(r.freeLabels, label)
	}
	if r.mFreeHold != nil {
		r.freeSince = append(r.freeSince, r.cluster.Fab.Engine().Now())
	}
}

// freeAcked is the first write completion of one of this source's messages.
func (r *Replica) freeAcked() {
	if r.freeUnacked--; r.freeUnacked == 0 && len(r.freeBatch) > 0 {
		r.node.CPU.Exec(0, r.freeIdleFn)
	}
}

// freeIdle is the deferred flush. An overflow flush may have overtaken it, in
// which case the batch waits for that message's completion.
func (r *Replica) freeIdle() {
	if r.freeUnacked == 0 {
		r.flushFree()
	}
}

// flushFree broadcasts the open batch as one message; its trace label joins
// the batched calls' identities with commas (the span layer splits them back
// out). The broadcast copies the payload, so the batch's buffers are reused.
func (r *Replica) flushFree() {
	if len(r.freeBatch) == 0 {
		return
	}
	batch, label := r.freeBatch, strings.Join(r.freeLabels, ",")
	r.freeBatch = r.freeBatch[:0]
	clear(r.freeLabels)
	r.freeLabels = r.freeLabels[:0]
	if r.mFreeHold != nil {
		now := r.cluster.Fab.Engine().Now()
		for _, at := range r.freeSince {
			r.mFreeHold.Observe(sim.Duration(now - at))
		}
		r.mFreeBatch.Observe(sim.Duration(len(r.freeSince)))
		r.freeSince = r.freeSince[:0]
	}
	// The batch is already empty: with no peers freeAcked runs inside the call.
	r.freeUnacked++
	if err := r.bc.BroadcastLabeled(label, batch, r.freeAckedFn, nil); err != nil {
		panic(fmt.Sprintf("core: broadcast refused a %d-byte batch within the %d-byte bound: %v", len(batch), r.cluster.freeBound, err))
	}
}

// onFreeDelivery receives a broadcast batch of (c, D) pairs into the F
// buffer of its source and tries to apply. Records are self-delimiting, so
// single-entry and batched payloads share one decode loop. Anything that is
// not a FrameFull record drops the rest of the payload.
func (r *Replica) onFreeDelivery(src rdma.NodeID, _ uint64, payload []byte) {
	for len(payload) > 0 {
		rec, n, err := codec.DecodeDeltaRecord(payload)
		if err != nil || rec.Kind != codec.FrameFull {
			return
		}
		r.fQueues[src].Push(pendingEntry{c: rec.C, d: rec.D})
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
	// record does not encode is refused before anything knows of it.
	payload, err := r.encodeConf(c, nil)
	if err != nil {
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

// encodeConf builds an ordered group entry's payload for (c, d): a flag byte
// (clear) ahead of the call record, in one fresh buffer that is the caller's
// to give away — invokeConf's to mu.Submit, which keeps it uncopied, and
// leaderTransform's to the entry being sequenced.
func (r *Replica) encodeConf(c spec.Call, d spec.DepVec) ([]byte, error) {
	rec, err := codec.AppendDeltaRecord(r.recBuf[:0], codec.DeltaRecord{Kind: codec.FrameFull, C: c, D: d})
	r.recBuf = rec
	if err != nil {
		return nil, err
	}
	return append(make([]byte, 1, 1+len(rec)), rec...), nil
}

// decodeConf is encodeConf's inverse.
func decodeConf(payload []byte) (flags byte, c spec.Call, d spec.DepVec, err error) {
	if len(payload) < 1 {
		return 0, c, nil, codec.ErrIncomplete
	}
	rec, _, err := codec.DecodeDeltaRecord(payload[1:])
	if err == nil && rec.Kind != codec.FrameFull {
		err = codec.ErrCorrupt
	}
	return payload[0], rec.C, rec.D, err
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
func (r *Replica) leaderTransform(_ rdma.NodeID, payload []byte) []byte {
	_, c, _, err := decodeConf(payload)
	if err != nil {
		return payload
	}
	if !r.specPermissible(c) {
		r.statRejected++
		r.mRejected.Inc()
		r.trace(trace.Reject, c, "rejected at the ordering point")
		out := append([]byte(nil), payload...)
		out[0] = confFlagRejected
		return out
	}
	d := r.projectSpec(r.an.DependsOn[c.Method])
	r.specView().apply(c)
	r.specA[callKey2{c.Proc, c.Method}]++
	if r.tracing() {
		r.traceData(trace.Order, c, "sequenced at the leader (speculative)", trace.CallRecord{C: c, D: d})
	}
	out, err := r.encodeConf(c, d)
	if err != nil {
		return payload
	}
	return out
}

// specView returns the speculative view, lazily forked from σ.
func (r *Replica) specView() *view {
	if r.spec == nil {
		r.spec = &view{r: r, base: r.live.base.Clone()}
	}
	return r.spec
}

// specPermissible checks P against the speculative state with summaries
// applied.
func (r *Replica) specPermissible(c spec.Call) bool {
	return r.vacuous(c) || r.cls.Permissible(r.specView().state(), c)
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

// onConfDelivery receives an ordered group entry into the L buffer (or
// completes the pending request when this replica both issued and, as
// leader, already applied it).
func (r *Replica) onConfDelivery(g int, _ rdma.NodeID, payload []byte) {
	flags, c, d, err := decodeConf(payload)
	if err != nil {
		return
	}
	if flags&confFlagRejected != 0 {
		if c.Proc == r.id {
			r.complete(c.Seq, nil, ErrImpermissible)
		}
		return
	}
	r.lQueues[g].Push(pendingEntry{c: c, d: d})
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
// processes buffers FIFO.
func (r *Replica) kickApply() {
	if r.applying || r.node.Suspended() || r.node.Crashed() {
		return
	}
	if !r.anyApplicable() {
		return
	}
	r.applying = true
	r.node.CPU.Exec(r.opts.ApplyCost, r.applyStepFn)
}

func (r *Replica) applyStep() {
	r.applying = false
	if r.applyOne() {
		r.noteQueueDepths()
		r.kickApply()
	}
}

func (r *Replica) anyApplicable() bool {
	if r.opts.MutateApplyOrder {
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
func (r *Replica) headApplicable(q *fifo.Queue[pendingEntry]) bool {
	if q.Len() == 0 {
		return false
	}
	e := q.Head()
	return r.applied.Satisfies(e.d, r.an.DependsOn[e.c.Method])
}

// applyOne applies one applicable buffer head — F buffers before L buffers,
// each queue FIFO — and reports whether it did any work.
func (r *Replica) applyOne() bool {
	if r.opts.MutateApplyOrder {
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
func (r *Replica) applyConf(e pendingEntry) {
	r.applyEntry(e, "conf-app")
	if e.c.Proc == r.id {
		r.complete(e.c.Seq, nil, nil)
	}
}

// applyOneMutated is the Options.MutateApplyOrder negative control: it
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

func (r *Replica) applyEntry(e pendingEntry, context string) {
	r.live.apply(e.c)
	r.applied.Inc(e.c.Proc, e.c.Method)
	r.statApplied++
	r.mApplied.Inc()
	r.syncSpec(e.c)
	if r.opts.CheckIntegrity {
		r.assertIntegrity(context + " of " + e.c.Format(r.cls))
	}
	if r.tracing() {
		r.traceData(trace.Apply, e.c, context, trace.CallRecord{C: e.c, D: e.d})
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

// slotReadRetries bounds the re-reads a torn remote slot read earns. Each
// retry costs one more RTT, and a torn landing heals within one fabric
// delay, so a slot still torn after three re-reads belongs to a writer
// that died mid-write — its previous version remains in force.
const slotReadRetries = 3

// readSlotValidated issues a one-sided read of (g, p)'s summary slot at
// peer and delivers only a CRC-validated frame to done. A torn read is
// counted in torn_rejects and re-read, bounded by slotReadRetries; read
// errors and exhausted retries drop the read silently — the periodic
// summary scan observes the healed slot later.
func (r *Replica) readSlotValidated(peer rdma.NodeID, g int, p spec.ProcID, done func(data []byte)) {
	off := r.slotOffset(g, p)
	var attempt func(left int)
	attempt = func(left int) {
		r.node.QP(peer).Read(r.opts.Namespace+sumRegionBase, off, r.opts.SumSlotSize,
			func(data []byte, err error) {
				if err != nil {
					done(nil)
					return
				}
				if _, _, derr := codec.DecodeSlot(data); derr != nil {
					if errors.Is(derr, codec.ErrTorn) {
						r.statTorn++
						r.mTorn.Inc()
						if left > 0 {
							attempt(left - 1)
							return
						}
					}
					done(nil)
					return
				}
				done(data)
			})
	}
	attempt(slotReadRetries)
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
		g := g
		r.readSlotValidated(peer, g, spec.ProcID(peer), func(data []byte) {
			if data == nil {
				return
			}
			if r.adoptSlot(g, spec.ProcID(peer), data) {
				r.statRecovered++
			}
		})
	}
}

// --- introspection -----------------------------------------------------

// CurrentState returns a snapshot of Apply(S)(σ) for tests and examples.
func (r *Replica) CurrentState() spec.State { return r.queryState().Clone() }

// InjectFree feeds an irreducible conflict-free broadcast payload into this
// replica's F buffers as if it had been delivered from src. It exists for
// the conformance harness's cross-wiring mutation control (a delivery
// rerouted into the wrong shard's apply loop, which the per-shard checks
// must catch); production deliveries always arrive through the receiver.
func (r *Replica) InjectFree(src rdma.NodeID, payload []byte) {
	r.onFreeDelivery(src, 0, payload)
}

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
	if r.node.Suspended() || r.node.Crashed() {
		if onDone != nil {
			onDone(nil, ErrDown)
		}
		return
	}
	if r.an.Category[q] != spec.CatQuery {
		if onDone != nil {
			onDone(nil, ErrNotUpdate)
		}
		return
	}
	if !r.haveSums {
		r.Invoke(q, args, onDone)
		return
	}
	r.node.CPU.Exec(r.opts.IssueCost, func() {
		remaining := 0
		finish := func() {
			remaining--
			if remaining > 0 {
				return
			}
			r.node.CPU.Exec(r.opts.QueryCost, func() {
				v := r.cls.Methods[q].Eval(r.queryState(), args)
				if r.tracing() {
					r.opts.Tracer.RecordData(int(r.id), trace.Query, "", r.cls.Methods[q].Name,
						trace.QueryRecord{Method: q, Args: args, Result: v, Fresh: true})
				}
				if onDone != nil {
					onDone(v, nil)
				}
			})
		}
		for g := range r.sums {
			for p := 0; p < r.n; p++ {
				if spec.ProcID(p) == r.id {
					continue
				}
				g, p := g, p
				remaining++
				r.readSlotValidated(rdma.NodeID(p), g, spec.ProcID(p), func(data []byte) {
					if data != nil {
						r.adoptSlot(g, spec.ProcID(p), data)
					}
					finish()
				})
			}
		}
		if remaining == 0 { // single-node cluster
			remaining = 1
			finish()
		}
	})
}

// adoptSlot installs a freshly read remote slot if it is newer than the
// local copy, returning whether anything changed.
func (r *Replica) adoptSlot(g int, p spec.ProcID, data []byte) bool {
	payload, ver, err := codec.DecodeSlot(data)
	if err != nil {
		return false
	}
	slot := r.sums[g][p]
	if ver <= slot.version || !r.adoptFrame(g, p, slot, payload, ver, "read") {
		return false
	}
	// Install only the frame's used prefix: the rest of the slot is the
	// δ-record log, and overwriting it with the bytes of
	// a read issued one RTT ago would clobber records that landed since.
	copy(r.node.Region(r.opts.Namespace + sumRegionBase).Bytes()[r.slotOffset(g, p):],
		data[:codec.SlotOverhead+len(payload)])
	r.kickApply()
	return true
}
