package main

import (
	"errors"
	"fmt"
	"runtime"
	runtimemetrics "runtime/metrics"
	"slices"
	"syscall"
	"time"

	"hamband/internal/core"
	"hamband/internal/metrics"
	"hamband/internal/rdma"
	"hamband/internal/sim"
	"hamband/internal/spec"
	"hamband/internal/trace"
)

const (
	// probePeriod bounds the makespan measurement error: the barrier is
	// tested this often once every call has completed.
	probePeriod = 2 * sim.Microsecond
	// deadline is the virtual-time limit for reaching the replication
	// barrier; a rep that misses it fails its check.
	deadline = 120 * sim.Second
	// settle is run after the barrier, outside the timed interval, before
	// replica states are compared.
	settle = 100 * sim.Microsecond
)

// rep is the outcome of one run of a workload at a fixed size and seed.
type rep struct {
	ops       int
	issued    int // calls handed to Invoke/Query
	completed int // callbacks recorded, permissibility rejections included
	rejected  int // core.ErrImpermissible outcomes (correct, not failures)
	lost      int // in flight on the suspended node at the fault; never acknowledged
	errored   int // callbacks carrying any other error
	refired   int // callbacks that fired a second time
	checkErr  error

	// Virtual clock.
	makespan   sim.Duration   // first issue → replication barrier
	lat        []sim.Duration // every completed call, ascending
	gap        sim.Duration   // fault → first accepted conflicting call due after it
	detect     sim.Duration   // fault → first suspicion (traced reps only)
	backlogEnd int            // open loop: calls outstanding when the last arrival was issued

	// Host clock, all over the interval first issue → barrier except setup.
	setup      time.Duration
	wall       time.Duration
	cpu        time.Duration
	gcCPU      time.Duration
	mallocs    uint64
	allocBytes uint64
	heapSys    uint64

	// Counters the layers keep anyway (class a).
	events      uint64
	fab         rdma.Stats
	coal        rdma.CoalesceStats
	applied     uint64
	coreRejects uint64
	deltas      uint64
	anchors     uint64
	gapFetches  uint64
	torn        uint64
	arenaUsed   int

	// Traced reps only.
	tracer *trace.Tracer
	reg    *metrics.Registry
	host   *hostTrace
}

// attempted excludes the fault's victims, which are never acknowledged.
func (r *rep) attempted() int { return r.issued - r.lost }

// failed counts calls that errored, never completed or fired twice; a rep
// whose post-run check fails counts every call as failed.
func (r *rep) failed() int {
	if r.checkErr != nil {
		return r.attempted()
	}
	return r.errored + r.refired + (r.attempted() - r.completed)
}

// percentile returns the exact q-quantile of the response times.
func (r *rep) percentile(q float64) sim.Duration {
	if len(r.lat) == 0 {
		return 0
	}
	return r.lat[int(q*float64(len(r.lat)-1))]
}

// driver issues one rep's calls and watches for the replication barrier.
type driver struct {
	w   workload
	sys *system
	gen *generator
	res *rep

	outstanding [nodes]int
	dead        [nodes]bool
	accepted    [][nodes][]uint32 // per shard and origin: accepted updates by method
	faultAt     sim.Time
	arrivals    int
	arriveFn    func()
	engineSpan  int
	done        bool
}

// runRep builds the workload's system (timed as set-up), drives ops calls
// through it until every accepted update is applied on every live replica,
// and checks the outcome. traced attaches the tracer, the metrics registry
// and the driver's own host spans.
func runRep(w workload, ops int, seed int64, traced bool) (*rep, error) {
	res := &rep{ops: ops, lat: make([]sim.Duration, 0, ops)}
	traceLimit := 0
	if traced {
		traceLimit = 64 * ops
		res.host = newHostTrace()
	}
	t0 := time.Now()
	sys, err := w.build(seed, traceLimit)
	res.setup = time.Since(t0)
	if err != nil {
		return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	defer sys.stop()
	d := &driver{w: w, sys: sys, res: res,
		gen:      newGenerator(w, sys.an.Class, seed+1),
		accepted: make([][nodes][]uint32, len(sys.clusters))}
	for s := range d.accepted {
		for p := range d.accepted[s] {
			d.accepted[s][p] = make([]uint32, len(sys.an.Class.Methods))
		}
	}
	d.arriveFn = d.arrive
	if traced {
		res.tracer, res.reg = sys.tracer, sys.reg
		res.host.add("setup", 0, t0, res.setup, -1)
		defer res.host.end()
	}

	eng := sys.eng
	if w.open {
		eng.At(0, d.arriveFn)
		eng.At(sim.Time(ops/3)*sim.Time(arrivalGap), d.fault)
	} else {
		eng.At(0, func() {
			for p := 0; p < nodes; p++ {
				for s := 0; s < depth; s++ {
					d.issue(spec.ProcID(p))
				}
			}
		})
	}
	probe := eng.NewTicker(probePeriod, d.probe)

	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0, gc0 := cpuTime(), gcCPUTime()
	t1 := time.Now()
	if traced {
		d.engineSpan = res.host.add("engine", 0, t1, 0, -1)
	}
	eng.Run()
	res.wall = time.Since(t1)
	res.cpu, res.gcCPU = cpuTime()-cpu0, gcCPUTime()-gc0
	runtime.ReadMemStats(&m1)
	if traced {
		res.host.spans[d.engineSpan].Dur = res.wall
	}
	probe.Cancel()
	res.mallocs, res.allocBytes, res.heapSys = m1.Mallocs-m0.Mallocs, m1.TotalAlloc-m0.TotalAlloc, m1.HeapSys

	if d.done {
		res.makespan = sim.Duration(eng.Now())
	}
	slices.Sort(res.lat)
	d.readCounters()
	eng.RunFor(settle)
	res.checkErr = d.check()
	return res, nil
}

// issue submits the next generated call at origin. In the closed loop each
// completion issues the origin's next call; the open loop's calls come from
// arrive. Response time runs from now, which in the open loop is the
// arrival's due time: a discrete-event generator never runs late.
func (d *driver) issue(origin spec.ProcID) {
	c := d.gen.next(origin)
	due := d.sys.eng.Now()
	idx := d.res.issued
	d.res.issued++
	d.outstanding[origin]++
	fired := false
	done := func(_ any, err error) {
		if fired {
			d.res.refired++
			return
		}
		fired = true
		if d.dead[origin] {
			return // a victim of the fault, already counted as lost
		}
		d.outstanding[origin]--
		d.record(origin, c, err, due)
		if !d.w.open && d.res.issued < d.res.ops {
			d.issue(origin)
		}
	}
	if d.res.host == nil {
		d.sys.invoke(origin, c, done)
		return
	}
	t0 := time.Now()
	d.sys.invoke(origin, c, done)
	d.res.host.add("submit", d.engineSpan, t0, time.Since(t0), idx)
}

func (d *driver) record(origin spec.ProcID, c call, err error, due sim.Time) {
	now := d.sys.eng.Now()
	r := d.res
	r.completed++
	r.lat = append(r.lat, sim.Duration(now-due))
	switch {
	case err == nil:
		if !c.query {
			d.accepted[c.shard][origin][c.method]++
		}
		if d.faultAt > 0 && r.gap == 0 && due > d.faultAt && d.sys.an.Category[c.method] == spec.CatConflicting {
			r.gap = sim.Duration(now - d.faultAt)
		}
	case errors.Is(err, core.ErrImpermissible):
		r.rejected++
	default:
		r.errored++
	}
}

// arrive issues the open loop's next arrival at its node, or at the next
// live node once its own is suspended, and schedules the one after.
func (d *driver) arrive() {
	p := d.arrivals % nodes
	d.arrivals++
	for d.dead[p] {
		p = (p + 1) % nodes
	}
	d.issue(spec.ProcID(p))
	if d.arrivals < d.res.ops {
		d.sys.eng.At(sim.Time(d.arrivals)*sim.Time(arrivalGap), d.arriveFn)
		return
	}
	for p, n := range d.outstanding {
		if !d.dead[p] {
			d.res.backlogEnd += n
		}
	}
}

// fault suspends the process and the heartbeat thread of the node that
// leads sync group 0; its NIC keeps serving one-sided accesses.
func (d *driver) fault() {
	c := d.sys.clusters[0]
	leader := c.Leader(0, 0)
	r := c.Replica(leader)
	r.Beater().Suspend()
	r.Node().Suspend()
	d.dead[leader] = true
	d.res.lost = d.outstanding[leader]
	d.faultAt = d.sys.eng.Now()
	if d.res.host == nil {
		return
	}
	// Traced reps watch for the first suspicion on a finer clock than the
	// detectors' own 25 µs checks.
	var watch *sim.Ticker
	watch = d.sys.eng.NewTicker(sim.Microsecond, func() {
		for p, q := range c.Replicas {
			if d.dead[p] {
				continue
			}
			for _, s := range q.Suspects() {
				if s == int(leader) {
					d.res.detect = sim.Duration(d.sys.eng.Now() - d.faultAt)
					watch.Cancel()
					return
				}
			}
		}
	})
}

// probe stops the engine at the replication barrier or the deadline.
func (d *driver) probe() {
	if d.res.host != nil {
		t0 := time.Now()
		defer func() { d.res.host.add("probe", d.engineSpan, t0, time.Since(t0), -1) }()
	}
	if !d.done && d.res.issued == d.res.ops && d.idle() && d.replicated() {
		d.done = true
	}
	if d.done || d.sys.eng.Now() >= sim.Time(deadline) {
		d.sys.eng.Stop()
	}
}

func (d *driver) idle() bool {
	for p, n := range d.outstanding {
		if !d.dead[p] && n > 0 {
			return false
		}
	}
	return true
}

// replicated is the paper's completion condition: every accepted update is
// applied on every live replica.
func (d *driver) replicated() bool {
	for s, c := range d.sys.clusters {
		for p, r := range c.Replicas {
			if d.dead[p] {
				continue
			}
			applied := r.Applied()
			for src := range d.accepted[s] {
				for u, want := range d.accepted[s][src] {
					if applied.Get(spec.ProcID(src), spec.MethodID(u)) < want {
						return false
					}
				}
			}
		}
	}
	return true
}

func (d *driver) readCounters() {
	r, s := d.res, d.sys
	r.events = s.eng.Executed()
	r.fab = s.fab.Stats()
	for _, c := range s.clusters {
		for _, q := range c.Replicas {
			_, applied, rejected, _ := q.Stats()
			deltas, anchors, gaps := q.DeltaStats()
			r.applied += applied
			r.coreRejects += rejected
			r.deltas += deltas
			r.anchors += anchors
			r.gapFetches += gaps
			r.torn += q.TornRejects()
		}
	}
	if s.store != nil {
		for n := 0; n < nodes; n++ {
			cs := s.store.Coalescer(n).Stats()
			r.coal.Flushes += cs.Flushes
			r.coal.Chains += cs.Chains
			r.coal.CrossChains += cs.CrossChains
			r.coal.CrossWRs += cs.CrossWRs
		}
		r.arenaUsed, _ = s.store.Budget(0)
	}
}

// check is the post-run correctness test of one rep.
func (d *driver) check() error {
	r := d.res
	switch {
	case !d.done:
		return fmt.Errorf("replication barrier not reached by virtual %v (issued %d, completed %d)", deadline, r.issued, r.completed)
	case r.issued != r.ops:
		return fmt.Errorf("issued %d of %d calls", r.issued, r.ops)
	case r.completed+r.lost != r.issued:
		return fmt.Errorf("completed %d + lost %d != issued %d", r.completed, r.lost, r.issued)
	case r.refired > 0:
		return fmt.Errorf("%d callbacks fired twice", r.refired)
	}
	for s, c := range d.sys.clusters {
		var ref spec.State
		refAt := -1
		for p, q := range c.Replicas {
			if d.dead[p] {
				continue
			}
			st := q.CurrentState()
			if ref == nil {
				ref, refAt = st, p
			} else if !ref.Equal(st) {
				return fmt.Errorf("shard %d: replicas %d and %d diverge after the barrier", s, refAt, p)
			}
		}
	}
	return nil
}

// cpuTime is the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// gcCPUTime is the runtime's estimate of CPU time spent in the collector.
func gcCPUTime() time.Duration {
	s := []runtimemetrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	runtimemetrics.Read(s)
	if s[0].Value.Kind() != runtimemetrics.KindFloat64 {
		return 0
	}
	return time.Duration(s[0].Value.Float64() * float64(time.Second))
}
