package main

import (
	"fmt"
	"runtime"
	"time"

	"hamband/internal/broadcast"
	"hamband/internal/codec"
	"hamband/internal/crdt"
	"hamband/internal/mu"
	"hamband/internal/rdma"
	"hamband/internal/ring"
	"hamband/internal/schema"
	"hamband/internal/sim"
	"hamband/internal/spec"
)

const (
	// batch is how many calls a micro loop makes between clock reads.
	batch = 2048
	// vlatCalls is how many serial messages a virtual latency averages.
	vlatCalls = 256
)

// measure times run over repeated batches until budget has passed and
// returns host nanoseconds and heap allocations per call. run reports how
// many calls it made; prep, when non-nil, runs untimed before each batch but
// counts towards the budget, which bounds the loop's total time.
func measure(budget time.Duration, prep func(), run func() int) (ns, allocs float64) {
	var m0, m1 runtime.MemStats
	var calls int
	var spent time.Duration
	var mallocs uint64
	for begin := time.Now(); calls == 0 || time.Since(begin) < budget; {
		if prep != nil {
			prep()
		}
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		calls += run()
		spent += time.Since(t0)
		runtime.ReadMemStats(&m1)
		mallocs += m1.Mallocs - m0.Mallocs
	}
	return float64(spent.Nanoseconds()) / float64(calls), float64(mallocs) / float64(calls)
}

// loop adapts a single call to measure's batch form.
func loop(fn func()) func() int {
	return func() int {
		for i := 0; i < batch; i++ {
			fn()
		}
		return batch
	}
}

// sink keeps results alive so the compiler cannot drop the measured calls.
var sink any

// microMetrics runs the class (c) timing loops: each layer's public
// functions called directly, budget of host time per loop. They do not
// depend on the workload.
func microMetrics(budget time.Duration) (map[string]float64, error) {
	out := map[string]float64{}
	for _, layer := range []func(time.Duration, map[string]float64) error{
		microSim, microRDMA, microCodec, microRing, microBroadcast, microMu, microCRDT, microStore,
	} {
		if err := layer(budget, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}

func microSim(budget time.Duration, out map[string]float64) error {
	eng := sim.NewEngine(1)
	noop := func() {}
	out["sim.event_ns"], out["sim.event_allocs"] = measure(budget, nil, loop(func() {
		eng.After(1, noop)
		eng.Run()
	}))
	cpu := sim.NewCPU(eng)
	out["sim.cpu_submit_ns"], _ = measure(budget, nil, loop(func() {
		cpu.Submit(10, noop)
		eng.Run()
	}))
	return nil
}

func microRDMA(budget time.Duration, out map[string]float64) error {
	eng := sim.NewEngine(1)
	fab := rdma.NewFabric(eng, nodes, rdma.DefaultLatency())
	fab.Node(1).Register("m", 4096).AllowAllWrites()
	qp := fab.Node(0).QP(1)
	buf := make([]byte, 64)
	var verbErr error
	done := func(err error) {
		if err != nil {
			verbErr = err
		}
	}

	start := eng.Now()
	qp.Write("m", 0, buf, func(err error) {
		done(err)
		out["rdma.write_vlat_us"] = sim.Duration(eng.Now() - start).Micros()
	})
	eng.Run()

	out["rdma.write_ns"], out["rdma.write_allocs"] = measure(budget, nil, loop(func() {
		qp.Write("m", 0, buf, done)
		eng.Run()
	}))
	chain := []rdma.WR{{Region: "m", Off: 0, Data: buf}, {Region: "m", Off: 64, Data: buf},
		{Region: "m", Off: 128, Data: buf}, {Region: "m", Off: 192, Data: buf}}
	ns, allocs := measure(budget, nil, loop(func() {
		qp.PostChain(chain, done)
		eng.Run()
	}))
	out["rdma.chain4_ns_per_wr"], out["rdma.chain4_allocs_per_wr"] = ns/4, allocs/4
	out["rdma.read_ns"], _ = measure(budget, nil, loop(func() {
		qp.Read("m", 0, 64, func(_ []byte, err error) { done(err) })
		eng.Run()
	}))
	out["rdma.cas_ns"], _ = measure(budget, nil, loop(func() {
		qp.CAS("m", 256, 0, 0, func(_ uint64, err error) { done(err) })
		eng.Run()
	}))
	co := rdma.NewCoalescer(fab.Node(0))
	ns, _ = measure(budget, nil, loop(func() {
		for _, wr := range chain {
			co.Enqueue(1, "s", wr)
		}
		eng.Run()
	}))
	out["rdma.coalesce_ns_per_wr"] = ns / 4
	if verbErr != nil {
		return fmt.Errorf("micro rdma: %w", verbErr)
	}
	return nil
}

func microCodec(budget time.Duration, out map[string]float64) error {
	c := spec.Call{Method: crdt.ORSetAdd, Args: spec.ArgsI(17, crdt.Tag(2, 99)), Proc: 2, Seq: 99}
	deps := spec.DepVec{3, 1, 4}
	entry, err := codec.EncodeEntry(c, deps)
	if err != nil {
		return fmt.Errorf("micro codec: %w", err)
	}
	var encAllocs, decAllocs float64
	out["codec.entry_encode_ns"], encAllocs = measure(budget, nil, loop(func() { sink, _ = codec.EncodeEntry(c, deps) }))
	out["codec.entry_decode_ns"], decAllocs = measure(budget, nil, loop(func() { _, sink, _, _ = codec.DecodeEntry(entry) }))
	out["codec.entry_allocs"] = encAllocs + decAllocs

	const slotSize = 1024
	payload := make([]byte, 64)
	slot, err := codec.EncodeSlot(payload, 7, slotSize)
	if err != nil {
		return fmt.Errorf("micro codec: %w", err)
	}
	out["codec.slot_encode_ns"], _ = measure(budget, nil, loop(func() { sink, _ = codec.EncodeSlot(payload, 7, slotSize) }))
	out["codec.slot_decode_ns"], _ = measure(budget, nil, loop(func() { sink, _, _ = codec.DecodeSlot(slot) }))

	rec := codec.DeltaRecord{Kind: codec.FrameDelta, Version: 7, Counts: []uint32{12},
		C: spec.Call{Method: crdt.GSetAdd, Args: spec.ArgsI(5, 77, 300), Proc: 1, Seq: 12}}
	delta, err := codec.EncodeDeltaRecord(rec)
	if err != nil {
		return fmt.Errorf("micro codec: %w", err)
	}
	out["codec.delta_encode_ns"], _ = measure(budget, nil, loop(func() { sink, _ = codec.EncodeDeltaRecord(rec) }))
	out["codec.delta_decode_ns"], _ = measure(budget, nil, loop(func() { sink, _, _ = codec.DecodeDeltaRecord(delta) }))

	kib4 := make([]byte, 4096)
	ns, _ := measure(budget, nil, loop(func() { sink = codec.Checksum(kib4) }))
	out["codec.checksum_ns_per_kib"] = ns / 4
	return nil
}

// microRing times the writer and the reader of one ring apart: each batch
// appends 64 B records until the ring is full, lands them in the region
// untimed, then polls them all with the CRC check on.
func microRing(budget time.Duration, out map[string]float64) error {
	const capacity = 1 << 16
	region := make([]byte, ring.RegionSize(capacity))
	w := ring.NewWriter(capacity)
	rd := ring.NewReader(region)
	record, err := codec.EncodeRaw(make([]byte, 64-codec.RawOverhead))
	if err != nil {
		return fmt.Errorf("micro ring: %w", err)
	}
	var pending []ring.Write
	var ringErr error
	appendAll := func() int {
		n := 0
		for {
			ws, ok := w.Append(record)
			if !ok {
				return n
			}
			pending = append(pending, ws...)
			n++
		}
	}
	land := func() {
		for _, wr := range pending {
			copy(region[wr.Off:], wr.Data)
		}
		pending = pending[:0]
	}
	pollAll := func() int {
		n := 0
		for {
			_, ok, err := rd.Poll()
			if err != nil {
				ringErr = err
			}
			if !ok {
				w.NoteHead(rd.Head())
				return n
			}
			n++
		}
	}
	drain := func() { land(); pollAll() }
	out["ring.append_ns"], out["ring.append_allocs"] = measure(budget, drain, appendAll)
	drain()
	out["ring.poll_ns"], out["ring.poll_allocs"] = measure(budget, func() { appendAll(); land() }, pollAll)
	if ringErr != nil {
		return fmt.Errorf("micro ring: %w", ringErr)
	}
	return nil
}

// microBroadcast times one 64 B message from Broadcast to the third
// receiver's handler, one at a time.
func microBroadcast(budget time.Duration, out map[string]float64) error {
	eng := sim.NewEngine(1)
	fab := rdma.NewFabric(eng, nodes, rdma.DefaultLatency())
	cfg := broadcast.DefaultConfig()
	broadcast.Setup(fab, cfg)
	b := broadcast.NewBroadcaster(fab, fab.Node(0), cfg)
	got := 0
	for p := 1; p < nodes; p++ {
		rx := broadcast.NewReceiver(fab, fab.Node(rdma.NodeID(p)), cfg, func(rdma.NodeID, uint64, []byte) {
			if got++; got == nodes-1 {
				eng.Stop()
			}
		})
		defer rx.Stop()
	}
	payload := make([]byte, 64)
	var sendErr error
	send := func() {
		got = 0
		if err := b.Broadcast(payload, nil); err != nil {
			sendErr = err
		}
		eng.Run()
	}
	// Virtual latency is the mean over a fixed number of messages, so that
	// it repeats whatever the host's speed.
	start := eng.Now()
	for i := 0; i < vlatCalls; i++ {
		send()
	}
	out["broadcast.msg_vlat_us"] = sim.Duration(eng.Now()-start).Micros() / vlatCalls
	out["broadcast.msg_ns"], out["broadcast.msg_allocs"] = measure(budget, nil, func() int {
		for i := 0; i < batch/8; i++ {
			send()
		}
		return batch / 8
	})
	if sendErr != nil {
		return fmt.Errorf("micro broadcast: %w", sendErr)
	}
	return nil
}

// microMu times one 64 B payload from a follower's Submit to its delivery
// on all four nodes, one at a time.
func microMu(budget time.Duration, out map[string]float64) error {
	eng := sim.NewEngine(1)
	fab := rdma.NewFabric(eng, nodes, rdma.DefaultLatency())
	cfg := mu.DefaultConfig()
	mu.Setup(fab, "micro", cfg, 0)
	got := 0
	var group []*mu.Instance
	for p := 0; p < nodes; p++ {
		in := mu.NewInstance(fab, fab.Node(rdma.NodeID(p)), "micro", cfg, 0)
		in.Deliver = func(uint64, rdma.NodeID, []byte) {
			if got++; got == nodes {
				eng.Stop()
			}
		}
		defer in.Stop()
		group = append(group, in)
	}
	payload := make([]byte, 64)
	commit := func() {
		got = 0
		group[1].Submit(payload)
		eng.Run()
	}
	start := eng.Now()
	for i := 0; i < vlatCalls; i++ {
		commit()
	}
	out["mu.commit_vlat_us"] = sim.Duration(eng.Now()-start).Micros() / vlatCalls
	out["mu.commit_ns"], out["mu.commit_allocs"] = measure(budget, nil, func() int {
		for i := 0; i < batch/8; i++ {
			commit()
		}
		return batch / 8
	})
	return nil
}

func microCRDT(budget time.Duration, out map[string]float64) error {
	counter := crdt.NewCounter()
	cs := counter.NewState()
	add := spec.Call{Method: crdt.CounterAdd, Args: spec.ArgsI(3)}
	out["crdt.counter_apply_ns"], _ = measure(budget, nil, loop(func() { counter.ApplyCall(cs, add) }))

	gset := crdt.NewGSet()
	gs := gset.NewState()
	all := make([]int64, keySpace)
	for i := range all {
		all[i] = int64(i)
	}
	full := spec.Call{Method: crdt.GSetAdd, Args: spec.Args{I: all}}
	gset.ApplyCall(gs, full)
	two := spec.Call{Method: crdt.GSetAdd, Args: spec.ArgsI(5, 300)}
	out["crdt.gset_apply_ns"], _ = measure(budget, nil, loop(func() { gset.ApplyCall(gs, two) }))
	summarize := gset.SumGroups[0].Summarize
	out["crdt.gset_summarize_ns"], _ = measure(budget, nil, func() int {
		for i := 0; i < batch/64; i++ {
			sink = summarize(full, two)
		}
		return batch / 64
	})

	// An OR-set grows with every add, so each batch starts from a fresh
	// 512-element state.
	orset := crdt.NewORSet()
	var os spec.State
	var tag uint64
	fill := func() {
		os = orset.NewState()
		for e := int64(0); e < keySpace; e++ {
			tag++
			orset.ApplyCall(os, spec.Call{Method: crdt.ORSetAdd, Args: spec.ArgsI(e, crdt.Tag(0, tag))})
		}
	}
	out["crdt.orset_apply_ns"], _ = measure(budget, fill, loop(func() {
		tag++
		orset.ApplyCall(os, spec.Call{Method: crdt.ORSetAdd, Args: spec.ArgsI(int64(tag%keySpace), crdt.Tag(0, tag))})
	}))
	fill()
	out["crdt.orset_clone_ns"], _ = measure(budget, nil, func() int {
		for i := 0; i < batch/64; i++ {
			sink = os.Clone()
		}
		return batch / 64
	})

	cw := schema.NewCourseware()
	ws := cw.NewState()
	for e := int64(0); e < 256; e++ {
		cw.ApplyCall(ws, spec.Call{Method: schema.RefAddLeft, Args: spec.ArgsI(e)})
		cw.ApplyCall(ws, spec.Call{Method: schema.RefAddRight, Args: spec.ArgsI(e)})
	}
	enroll := spec.Call{Method: schema.RefLink, Args: spec.ArgsI(17, 200)}
	ok := true
	out["schema.courseware_permissible_ns"], _ = measure(budget, nil, loop(func() { ok = cw.Permissible(ws, enroll) && ok }))
	if !ok {
		return fmt.Errorf("micro schema: enroll of a registered student in an existing course was refused")
	}
	return nil
}

func microStore(budget time.Duration, out map[string]float64) error {
	w, _ := workloadByName("store-zipf")
	var sys *system
	var err error
	stop := func() {
		if sys != nil {
			sys.stop()
		}
	}
	out["store.open_ns_per_shard"], _ = measure(budget, stop, func() int {
		sys, err = w.build(1, 0)
		return w.shards
	})
	stop()
	if err != nil {
		return fmt.Errorf("micro store: %w", err)
	}

	// Routing cost is Store.Invoke minus Shard.Invoke on the same shard.
	// Only the submitting call is timed; the engine works the queue off
	// between batches. One shard keeps that drain short.
	w.shards = 1
	if sys, err = w.build(1, 0); err != nil {
		return fmt.Errorf("micro store: %w", err)
	}
	defer sys.stop()
	key := sys.keys[0]
	shard := sys.store.Shard(key)
	args := spec.ArgsI(1)
	queued := 0
	var callErr error
	done := func(_ any, err error) {
		queued--
		if err != nil {
			callErr = err
		}
	}
	drain := func() {
		for queued > 0 {
			sys.eng.RunFor(100 * sim.Microsecond)
		}
	}
	// The two variants alternate batch by batch and each reports its median
	// batch, so heap growth and collector pauses fall on neither.
	var viaStore, viaShard []float64
	timed := func(invoke func()) float64 {
		drain()
		t0 := time.Now()
		for i := 0; i < batch; i++ {
			queued++
			invoke()
		}
		return float64(time.Since(t0).Nanoseconds()) / batch
	}
	for begin := time.Now(); len(viaStore) == 0 || time.Since(begin) < 2*budget; {
		viaStore = append(viaStore, timed(func() { sys.store.Invoke(key, 0, crdt.CounterAdd, args, done) }))
		viaShard = append(viaShard, timed(func() { shard.Invoke(0, crdt.CounterAdd, args, done) }))
	}
	drain()
	out["store.invoke_route_ns"] = median(viaStore) - median(viaShard)
	if callErr != nil {
		return fmt.Errorf("micro store: %w", callErr)
	}
	return nil
}
