package bench

import (
	"fmt"
	"io"
	"math/rand"
	"sort"

	"hamband/internal/metrics"
	"hamband/internal/sim"
	"hamband/internal/spec"
)

// Fault schedules the paper's failure injection: at time At, node Node's
// heartbeat thread and process suspend (its NIC keeps serving one-sided
// accesses). The driver redirects the failed node's remaining requests to
// the next available node.
type Fault struct {
	At   sim.Time
	Node spec.ProcID
}

// MethodStat aggregates response times for one method.
type MethodStat struct {
	Count int
	Total sim.Duration
	Max   sim.Duration
}

// Mean returns the method's mean response time.
func (m MethodStat) Mean() sim.Duration {
	if m.Count == 0 {
		return 0
	}
	return m.Total / sim.Duration(m.Count)
}

// Result reports one benchmark run.
type Result struct {
	System      string
	Class       string
	Nodes       int
	UpdateRatio float64

	Completed int // calls that finished (including rejections)
	Updates   int
	Queries   int
	Rejected  int // permissibility rejections
	Lost      int // in-flight calls lost to failures

	Makespan sim.Duration // start → all updates replicated on live nodes
	MeanRT   sim.Duration
	UpdateRT sim.Duration
	QueryRT  sim.Duration
	ByMethod map[string]MethodStat
	TimedOut bool // replication barrier not reached before the deadline

	// Metrics holds the run's registry when the system was built with
	// BuildWithMetrics; nil for uninstrumented runs.
	Metrics *metrics.Registry

	// rtSamples is a uniform reservoir of response times for percentiles.
	rtSamples []sim.Duration
	rtSeen    int
}

// WriteMetricsReport writes the registry's percentile table (p50/p95/p99
// per histogram, then counters and gauges). It writes nothing for an
// uninstrumented run.
func (r *Result) WriteMetricsReport(w io.Writer) {
	if !r.Metrics.Enabled() {
		return
	}
	r.Metrics.WriteTable(w)
}

// reservoirSize bounds percentile memory.
const reservoirSize = 4096

// Percentile returns the response-time percentile p in [0,100] from the
// sampling reservoir (exact when fewer than reservoirSize calls completed).
func (r *Result) Percentile(p float64) sim.Duration { return percentile(r.rtSamples, p) }

// percentile returns the p-th percentile, p in [0,100], of samples (0 of none).
func percentile(samples []sim.Duration, p float64) sim.Duration {
	if len(samples) == 0 {
		return 0
	}
	sorted := append([]sim.Duration(nil), samples...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	return sorted[int(p/100*float64(len(sorted)-1))]
}

// Throughput returns operations per virtual microsecond, the paper's
// throughput metric.
func (r *Result) Throughput() float64 {
	if r.Makespan <= 0 {
		return 0
	}
	return float64(r.Completed) / r.Makespan.Micros()
}

// String summarizes the result on one line.
func (r *Result) String() string {
	return fmt.Sprintf("%s/%s n=%d u=%.0f%%: %.2f ops/µs, mean RT %v (ops=%d rej=%d lost=%d)",
		r.System, r.Class, r.Nodes, r.UpdateRatio*100, r.Throughput(), r.MeanRT,
		r.Completed, r.Rejected, r.Lost)
}

// driver runs a closed-loop workload against a system.
type driver struct {
	eng *sim.Engine
	sys System
	wl  Workload
	gen *generator

	remaining int
	inflight  int
	accepted  [][]uint32 // per (invoking node, method): successful updates
	dead      []bool

	res      *Result
	rtTotal  sim.Duration
	updTotal sim.Duration
	qryTotal sim.Duration
	resRng   *rand.Rand // reservoir sampling
	done     bool
	deadline sim.Time
}

// Deadline bounds a run in virtual time; a run that cannot reach the
// replication barrier reports TimedOut.
const Deadline = 120 * sim.Second

// Run executes the workload on sys over eng, applying faults, and returns
// the measured result. It owns the engine until completion.
func Run(eng *sim.Engine, sys System, wl Workload, faults ...Fault) *Result {
	d := &driver{
		eng:       eng,
		sys:       sys,
		wl:        wl,
		gen:       newGenerator(wl),
		remaining: wl.Ops,
		dead:      make([]bool, wl.Nodes),
		deadline:  eng.Now() + sim.Time(Deadline),
		res: &Result{
			System:      sys.Name(),
			Class:       wl.An.Class.Name,
			Nodes:       wl.Nodes,
			UpdateRatio: wl.UpdateRatio,
			ByMethod:    make(map[string]MethodStat),
		},
	}
	d.resRng = rand.New(rand.NewSource(wl.Seed + 97))
	for i := 0; i < wl.Nodes; i++ {
		d.accepted = append(d.accepted, make([]uint32, len(wl.An.Class.Methods)))
	}
	for _, f := range faults {
		f := f
		eng.At(f.At, func() { d.applyFault(f.Node) })
	}
	eng.At(eng.Now(), func() {
		for p := 0; p < wl.Nodes; p++ {
			for s := 0; s < wl.Concurrency; s++ {
				d.issue(spec.ProcID(p))
			}
		}
	})
	// A fine-grained completion probe bounds the makespan measurement
	// error; the engine stops as soon as the replication barrier holds.
	probe := eng.NewTicker(2*sim.Microsecond, func() {
		d.checkDone()
		if d.done || eng.Now() >= d.deadline {
			eng.Stop()
		}
	})
	eng.Run()
	probe.Cancel()
	if !d.done {
		d.res.TimedOut = true
		d.res.Makespan = sim.Duration(eng.Now())
	}
	d.finalize()
	return d.res
}

// issue starts one request at p (redirected to the next available node when
// p is down) and re-issues on completion — the closed loop.
func (d *driver) issue(p spec.ProcID) {
	if d.remaining <= 0 {
		return
	}
	p = d.redirect(p)
	if p < 0 {
		return // every node failed
	}
	d.remaining--
	d.inflight++
	u, args, isUpdate := d.gen.next(p)
	start := d.eng.Now()
	origin := p
	landed := false
	d.sys.Invoke(p, u, args, func(_ any, err error) {
		if landed {
			return
		}
		landed = true
		if d.dead[origin] {
			// Completion from a failed node (raced the fault): the
			// fault handler already accounted for this slot.
			return
		}
		d.inflight--
		d.record(origin, u, isUpdate, err, sim.Duration(d.eng.Now()-start))
		d.issue(origin)
	})
}

// redirect returns the first available node at or after p in ring order.
func (d *driver) redirect(p spec.ProcID) spec.ProcID {
	for i := 0; i < d.wl.Nodes; i++ {
		q := spec.ProcID((int(p) + i) % d.wl.Nodes)
		if !d.dead[q] && !d.sys.Down(q) {
			return q
		}
	}
	return -1
}

func (d *driver) record(p spec.ProcID, u spec.MethodID, isUpdate bool, err error, rt sim.Duration) {
	d.res.Completed++
	d.rtTotal += rt
	d.res.rtSeen++
	if len(d.res.rtSamples) < reservoirSize {
		d.res.rtSamples = append(d.res.rtSamples, rt)
	} else if k := d.resRng.Intn(d.res.rtSeen); k < reservoirSize {
		d.res.rtSamples[k] = rt
	}
	name := d.wl.An.Class.Methods[u].Name
	st := d.res.ByMethod[name]
	st.Count++
	st.Total += rt
	if rt > st.Max {
		st.Max = rt
	}
	d.res.ByMethod[name] = st
	if isUpdate {
		d.res.Updates++
		d.updTotal += rt
		if err == nil {
			d.accepted[p][u]++
		} else {
			d.res.Rejected++
		}
	} else {
		d.res.Queries++
		d.qryTotal += rt
	}
}

// applyFault fails a node: its in-flight slots are lost and respawned on
// the next available node ("all the requests of the failed node are
// redirected to the next available node").
func (d *driver) applyFault(node spec.ProcID) {
	if d.dead[node] {
		return
	}
	d.dead[node] = true
	d.sys.Fail(node)
	// Respawn this node's pipeline elsewhere. We cannot know exactly how
	// many of its slots were in flight versus between requests, so respawn
	// the full pipeline depth; quota accounting stays exact because issue()
	// decrements remaining per call.
	lost := min(d.wl.Concurrency, d.inflight)
	d.inflight -= lost
	d.res.Lost += lost
	for s := 0; s < d.wl.Concurrency; s++ {
		d.issue(node) // redirects internally
	}
}

// checkDone tests the paper's completion condition: every issued update is
// applied at every live node.
func (d *driver) checkDone() {
	if d.done || d.remaining > 0 || d.inflight > 0 {
		return
	}
	for p := 0; p < d.wl.Nodes; p++ {
		if d.dead[p] || d.sys.Down(spec.ProcID(p)) {
			continue
		}
		applied := d.sys.Applied(spec.ProcID(p))
		for src := 0; src < d.wl.Nodes; src++ {
			for u, want := range d.accepted[src] {
				if applied.Get(spec.ProcID(src), spec.MethodID(u)) < want {
					return
				}
			}
		}
	}
	d.done = true
	d.res.Makespan = sim.Duration(d.eng.Now())
}

func (d *driver) finalize() {
	if d.res.Completed > 0 {
		d.res.MeanRT = d.rtTotal / sim.Duration(d.res.Completed)
	}
	if d.res.Updates > 0 {
		d.res.UpdateRT = d.updTotal / sim.Duration(d.res.Updates)
	}
	if d.res.Queries > 0 {
		d.res.QueryRT = d.qryTotal / sim.Duration(d.res.Queries)
	}
}
