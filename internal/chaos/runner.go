package chaos

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"

	"hamband/internal/core"
	"hamband/internal/crdt"
	"hamband/internal/health"
	"hamband/internal/heartbeat"
	"hamband/internal/metrics"
	"hamband/internal/rdma"
	"hamband/internal/sim"
	"hamband/internal/spec"
	"hamband/internal/store"
	"hamband/internal/trace"
)

// Options tunes the nemesis runner. The zero value is a complete, sensible
// configuration.
type Options struct {
	IssuePeriod   sim.Duration // workload batch period (default 50 µs)
	BatchSize     int          // updates per batch (default 4)
	ProbePeriod   sim.Duration // integrity probe period (default 100 µs)
	DrainDeadline sim.Duration // post-heal quiescence budget (default 50 ms)

	// EnableMetrics attaches a metrics registry to the run; the registry
	// is returned on the verdict for inspection (chaos.* counters plus the
	// full rdma/core instrumentation).
	EnableMetrics bool

	// TraceLimit, when positive, attaches a lifecycle tracer holding up to
	// that many events; the tracer is returned on the verdict so the
	// conformance harness can replay the history. Tracing costs no virtual
	// time, so trace hashes are unchanged by it.
	TraceLimit int

	// FlightWindow, when positive, attaches a flight-recorder tracer
	// instead: a ring retaining only the newest FlightWindow events, so the
	// moments leading up to a failure survive arbitrarily long runs at a
	// fixed memory bound. Takes precedence over TraceLimit. Like TraceLimit
	// it costs no virtual time, so trace hashes are unchanged.
	FlightWindow int

	// QueryMix, when positive, issues one random query every QueryMix
	// workload batches, alternating plain and recency-aware (InvokeFresh)
	// evaluation. The conformance harness uses it so traces carry query
	// results to explain; query errors during faults are not violations.
	QueryMix int
}

func (o Options) withDefaults() Options {
	if o.IssuePeriod <= 0 {
		o.IssuePeriod = 50 * sim.Microsecond
	}
	if o.BatchSize <= 0 {
		o.BatchSize = 4
	}
	if o.ProbePeriod <= 0 {
		o.ProbePeriod = 100 * sim.Microsecond
	}
	if o.DrainDeadline <= 0 {
		o.DrainDeadline = 50 * sim.Millisecond
	}
	return o
}

// Violation is one probe failure, anchored at the virtual time it was
// detected.
type Violation struct {
	At     sim.Time `json:"at"`
	Probe  string   `json:"probe"` // quiescence | convergence | integrity | lost-update | duplicate | invoke-error
	Detail string   `json:"detail"`
}

func (v Violation) String() string {
	return fmt.Sprintf("[%v] %s: %s", sim.Duration(v.At), v.Probe, v.Detail)
}

// maxViolations bounds the report; a broken run can violate on every probe
// tick and the first few entries carry all the signal.
const maxViolations = 32

// Verdict is the outcome of running one plan.
type Verdict struct {
	Plan       Plan
	Passed     bool
	Violations []Violation
	Drained    bool // reached quiescence within the drain budget

	Issued   int // update calls issued
	Acked    int // calls acknowledged to the client
	Rejected int // calls rejected as impermissible (not failures)

	Makespan  sim.Duration // virtual time from start to verdict
	TraceHash uint64       // FNV-1a over the virtual-time trace; equal seeds ⇒ equal hashes

	Metrics *metrics.Registry // non-nil when Options.EnableMetrics
	Trace   *trace.Tracer     // non-nil when Options.TraceLimit or FlightWindow > 0
	Correct []bool            // per node: eligible for end-state probes (never crashed, not still down)

	// Reconfigs counts the membership changes that committed (join/leave
	// events that won their epoch claim, plus the heal-time rejoins); on a
	// healthy run FinalEpoch equals it. Both are zero on plans without
	// reconfiguration events.
	Reconfigs  int
	FinalEpoch uint32

	// ShardAcked is the per-shard acked-update count on ShardMix runs
	// (nil otherwise). A healthy sharded run acks on every shard.
	ShardAcked []int

	// Anomalies holds every watchdog firing in detection order; Unexpected
	// the subset whose rule no injected fault predicts. Each unexpected
	// firing is also a "watchdog" violation, so a miscalibrated rule (or a
	// cluster misbehaving without a nemesis cause) fails the run.
	Anomalies  []health.Firing `json:"anomalies,omitempty"`
	Unexpected []health.Firing `json:"unexpected,omitempty"`

	// FlightDump is the flight recorder's window captured at the first
	// watchdog firing (nil without FlightWindow or without firings): the
	// moments leading up to the anomaly, frozen before further traffic
	// rotates them out of the ring.
	FlightDump []trace.Event `json:"-"`
}

// Summary renders a one-line verdict for exploration logs.
func (v *Verdict) Summary() string {
	verdict := "PASS"
	if !v.Passed {
		verdict = fmt.Sprintf("FAIL(%d)", len(v.Violations))
	}
	return fmt.Sprintf("class=%-9s seed=%-6d events=%-2d issued=%-4d acked=%-4d makespan=%-10v hash=%016x %s",
		v.Plan.Class, v.Plan.Seed, len(v.Plan.Events), v.Issued, v.Acked, v.Makespan, v.TraceHash, verdict)
}

// shard is one replicated object of a run — the unit the paper's guarantees
// and therefore every probe are stated over — with the bookkeeping the
// probes keep per object.
type shard struct {
	idx     int
	key     string // "" on a plain plan; "s00", "s01", … on a ShardMix plan
	cluster *core.Cluster
	acked   [][]uint32 // acked[p][u]: acknowledged updates by origin and method
	pending []int      // in-flight calls by origin
}

// runner holds the live state of one plan execution. A plain plan is the
// one-shard case: apart from the health collector and Stop, Run's
// construction step is the only code that knows whether the shards sit
// behind a store.
type runner struct {
	plan   Plan
	opts   Options
	cls    *spec.Class
	an     *spec.Analysis
	eng    *sim.Engine
	fab    *rdma.Fabric
	st     *store.Store // owns the shards' clusters on a ShardMix plan, nil otherwise
	shards []*shard
	rng    *rand.Rand // workload randomness, independent of the engine's

	down    []bool // suspended by the plan (includes leaderkill victims)
	crashed []bool
	leaving []bool // leave event fired (or committed): not a workload origin
	left    []bool // leave committed: rejoined by healAll

	sessions []*session // client sessions (Plan.Sessions), nil otherwise

	batches int // issue ticks seen (drives the query mix)
	v       *Verdict
	wd      *health.Watchdog

	cEvents, cCalls, cViolations *metrics.Counter
}

// Run executes one fault plan and returns its verdict. The run is fully
// deterministic in the plan: equal plans produce equal verdicts and equal
// trace hashes.
func Run(p Plan, opts Options) (*Verdict, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	opts = opts.withDefaults()

	cls := classRegistry[p.Class]()
	an := spec.MustAnalyze(cls)
	eng := sim.NewEngine(p.Seed)
	fab := rdma.NewFabric(eng, p.Nodes, rdma.DefaultLatency())

	copts := core.DefaultOptions()
	// Tight detector timings: plans play out over a few milliseconds, so
	// suspicion must fire within tens of microseconds of a failure. The
	// raised trust threshold avoids restore churn on flapping schedules.
	copts.Heartbeat = heartbeat.Config{
		BeatPeriod:     5 * sim.Microsecond,
		CheckPeriod:    10 * sim.Microsecond,
		Threshold:      3,
		TrustThreshold: 2,
	}
	// Integrity is probed (and reported) rather than asserted: a violation
	// must become a verdict, not a panic.
	copts.CheckIntegrity = false
	copts.DisableFailureHandling = p.DisableRecovery
	copts.MutateApplyOrder = p.MutateApplyOrder
	if p.AnchorInterval > 0 {
		copts.AnchorInterval = p.AnchorInterval
	}

	r := &runner{
		plan: p, opts: opts, cls: cls, an: an, eng: eng, fab: fab,
		rng:     rand.New(rand.NewSource(p.Seed ^ 0x5DEECE66D)),
		down:    make([]bool, p.Nodes),
		crashed: make([]bool, p.Nodes),
		leaving: make([]bool, p.Nodes),
		left:    make([]bool, p.Nodes),
		v:       &Verdict{Plan: p},
	}
	if opts.EnableMetrics {
		reg := metrics.New(eng)
		copts.Metrics = reg
		fab.EnableMetrics(reg)
		r.v.Metrics = reg
		r.cEvents = reg.Counter("chaos.events")
		r.cCalls = reg.Counter("chaos.calls")
		r.cViolations = reg.Counter("chaos.violations")
	}
	if opts.FlightWindow > 0 {
		r.v.Trace = trace.NewFlightRecorder(eng, opts.FlightWindow)
	} else if opts.TraceLimit > 0 {
		r.v.Trace = trace.New(eng, opts.TraceLimit)
	}

	addShard := func(key string, c *core.Cluster) {
		sh := &shard{idx: len(r.shards), key: key, cluster: c, pending: make([]int, p.Nodes)}
		for i := 0; i < p.Nodes; i++ {
			sh.acked = append(sh.acked, make([]uint32, len(cls.Methods)))
		}
		r.shards = append(r.shards, sh)
	}
	if p.ShardMix < 2 {
		copts.Tracer = r.v.Trace
		addShard("", core.NewCluster(fab, an, copts))
	} else {
		sopts := store.DefaultOptions()
		sopts.Core = copts
		sopts.Tracer = r.v.Trace
		sopts.CrossWire = p.CrossWireShards
		// Exact admission: the budget is sized to the plan's shard count, so a
		// footprint-accounting regression surfaces here as an Open error.
		sopts.MemoryBudget = p.ShardMix * store.Footprint(an, p.Nodes, copts)
		r.st = store.New(fab, sopts)
		for i := 0; i < p.ShardMix; i++ {
			key := fmt.Sprintf("s%02d", i)
			sh, err := r.st.Open(key, an, store.ShardOptions{})
			if err != nil {
				return nil, fmt.Errorf("chaos: opening shard %s: %w", key, err)
			}
			addShard(key, sh.Cluster)
		}
	}
	// The watchdog observes health snapshots on the probe cadence. Both
	// collection and evaluation are read-only and cost no virtual time, so
	// trace hashes are identical with and without it; its firings are
	// cross-checked against the fault plan at the end of the run. Store
	// snapshots additionally feed the hot-shard and budget-low rules.
	r.wd = health.NewWatchdog(health.Config{
		Metrics: copts.Metrics,
		Tracer:  r.v.Trace,
		OnFirstFiring: func(health.Firing) {
			if r.v.Trace != nil {
				r.v.FlightDump = r.v.Trace.Events()
			}
		},
	})
	r.run()
	return r.v, nil
}

func (r *runner) run() {
	// Schedule the nemesis events.
	for _, e := range r.plan.Events {
		e := e
		r.eng.At(e.At, func() { r.apply(e) })
	}

	// Workload: batches of random updates from random live origins.
	issueTick := r.eng.NewTicker(r.opts.IssuePeriod, r.issueBatch)

	// Client sessions, one op per session per tick (Plan.Sessions).
	var sessTick *sim.Ticker
	if r.plan.Sessions > 0 {
		r.startSessions()
		sessTick = r.eng.NewTicker(2*r.opts.IssuePeriod, r.stepSessions)
	}

	// Integrity probe: the invariant must hold at every queried point on
	// every live replica. The watchdog rides the same cadence — its
	// consecutive-observation thresholds are denominated in probe periods.
	probeTick := r.eng.NewTicker(r.opts.ProbePeriod, func() {
		r.probeIntegrity(false)
		if r.st != nil {
			r.wd.Observe(health.CollectStore(r.eng.Now(), r.st))
		} else {
			r.wd.Observe(health.Collect(r.eng.Now(), r.shards[0].cluster))
		}
	})

	// Run the schedule out: workload end or last event, whichever is later.
	horizon := sim.Time(sim.Duration(r.plan.Ops/r.opts.BatchSize+2) * r.opts.IssuePeriod)
	for _, e := range r.plan.Events {
		if e.At >= horizon {
			horizon = e.At + 1
		}
	}
	r.eng.RunUntil(horizon)
	issueTick.Cancel()
	if sessTick != nil {
		sessTick.Cancel()
	}

	// Heal the world, then drive to quiescence.
	if !r.plan.NoFinalHeal {
		r.healAll()
	}
	r.v.Drained = r.drain()
	probeTick.Cancel()

	// Final probes, per shard: one that drained must have converged and hold
	// exactly-once; the ones that did not make one quiescence violation
	// naming them, so an isolation failure reads directly off the verdict.
	var stalled []string
	var settled []*shard
	inFlight, unreplicated := 0, false
	for _, sh := range r.shards {
		if r.quiescent(sh) {
			settled = append(settled, sh)
			continue
		}
		stalled = append(stalled, sh.key)
		inFlight += r.pendingCorrect(sh)
		unreplicated = unreplicated || !r.replicated(sh)
	}
	if len(stalled) > 0 {
		which := ""
		if len(r.shards) > 1 {
			which = fmt.Sprintf("shards [%s] ", strings.Join(stalled, " "))
		}
		r.violate("quiescence", fmt.Sprintf("%snot quiescent after %v drain: %d calls in flight from correct origins, replication incomplete=%v",
			which, r.opts.DrainDeadline, inFlight, unreplicated))
	}
	for _, sh := range settled {
		r.probeConvergence(sh)
		r.probeExactlyOnce(sh)
	}
	r.probeIntegrity(true)
	classifyFirings(r.v, r.wd, r.violate)

	r.v.Makespan = sim.Duration(r.eng.Now())
	r.v.FinalEpoch = uint32(r.shards[0].cluster.Epoch())
	r.v.Passed = len(r.v.Violations) == 0
	r.v.Correct = make([]bool, r.plan.Nodes)
	for n := 0; n < r.plan.Nodes; n++ {
		r.v.Correct[n] = r.correct(n)
	}
	// Seal the trace hash with the end-of-run facts so verdict-affecting
	// divergence always shows up in it.
	r.fold(int64(r.eng.Now()), int64(r.v.Issued), int64(r.v.Acked), int64(len(r.v.Violations)))
	if len(r.shards) > 1 {
		for _, sh := range r.shards {
			total := 0
			for _, row := range sh.acked {
				for _, c := range row {
					total += int(c)
				}
			}
			r.v.ShardAcked = append(r.v.ShardAcked, total)
			r.fold(int64(total))
		}
	}
	if r.st != nil {
		r.st.Stop()
	} else {
		r.shards[0].cluster.Stop()
	}
}

// apply executes one nemesis event at its scheduled time. Events are
// forgiving — resuming a live node or healing an intact link is a no-op —
// so shrinking can drop any single event and still leave a runnable plan.
func (r *runner) apply(e Event) {
	r.cEvents.Inc()
	switch e.Kind {
	case KindSuspend:
		r.suspend(e.Node)
	case KindResume:
		r.resume(e.Node)
	case KindCrash:
		if !r.crashed[e.Node] {
			r.crashed[e.Node] = true
			r.fab.Node(rdma.NodeID(e.Node)).Crash()
		}
	case KindPartition:
		r.fab.Partition(rdma.NodeID(e.A), rdma.NodeID(e.B))
	case KindHeal:
		r.fab.Heal(rdma.NodeID(e.A), rdma.NodeID(e.B))
	case KindDelay:
		r.fab.SetDelay(rdma.NodeID(e.A), rdma.NodeID(e.B), e.Extra, e.Jitter)
	case KindTorn:
		tear := e.Extra
		if tear <= 0 {
			tear = DefaultTear
		}
		r.fab.SetTorn(rdma.NodeID(e.A), rdma.NodeID(e.B), tear, e.Jitter)
	case KindTornHeal:
		r.fab.SetTorn(rdma.NodeID(e.A), rdma.NodeID(e.B), 0, 0)
	case KindLeaderKill:
		r.leaderKill(e.Group)
	case KindLeave:
		r.reconfig(e.Node, false)
	case KindJoin:
		r.reconfig(e.Node, true)
	}
	r.fold(int64(r.eng.Now()), int64(kindIndex(e.Kind)), int64(e.Node), int64(e.A), int64(e.B))
}

// suspend stops node n's process — every shard it hosts at once. Any
// shard's replica hands out the node's heartbeat thread: behind a store the
// replicas of a node share the failure domain's one beater.
func (r *runner) suspend(n int) {
	if r.down[n] || r.crashed[n] {
		return
	}
	r.down[n] = true
	if b := r.shards[0].cluster.Replica(spec.ProcID(n)).Beater(); b != nil {
		b.Suspend()
	}
	r.fab.Node(rdma.NodeID(n)).Suspend()
}

func (r *runner) resume(n int) {
	if !r.down[n] || r.crashed[n] {
		return
	}
	r.down[n] = false
	if b := r.shards[0].cluster.Replica(spec.ProcID(n)).Beater(); b != nil {
		b.Resume()
	}
	r.fab.Node(rdma.NodeID(n)).Resume()
}

// leaderKill suspends the current leader of one synchronization group, as
// seen by the lowest-id live replica: g counts groups across shards, shard
// g mod shards first, so on a ShardMix plan the fault is aimed at exactly
// one shard's consensus — the probe for cross-shard stall isolation.
// Classes without conflicting methods have no leaders; the kill then falls
// on the lowest-id live node so the event still perturbs something.
func (r *runner) leaderKill(g int) {
	live := r.issuable()
	if len(live) == 0 {
		return
	}
	victim := live[0]
	if groups := len(r.an.SyncGroups); groups > 0 {
		sh := r.shards[g%len(r.shards)]
		victim = int(sh.cluster.Leader(spec.ProcID(live[0]), (g/len(r.shards))%groups))
	}
	r.suspend(victim)
}

// reconfigSettle is how long the runner stops issuing at a leave target
// before driving the membership change: in-flight calls at the target
// drain (and their remote writes land) before its write permission is
// revoked, so no acknowledged call can be silently dropped by the epoch
// gate.
const reconfigSettle = 2 * 50 * sim.Microsecond

// reconfig drives one membership change from a plan event. Reconfiguration
// is asynchronous (membership-view agreement, then the epoch claim); the
// commit folds into the trace hash when it resolves. Failures are
// forgiving like every other nemesis event — a join of a member or a claim
// lost to a concurrent change is a no-op, so shrinking can drop events and
// still leave a runnable plan — but they fold distinctly, so schedules
// that diverge on the outcome diverge in hash. Validate rejects leave and
// join on ShardMix plans (the store has no store-level membership change),
// so the one shard of a plain plan is the whole configuration.
func (r *runner) reconfig(n int, join bool) {
	cluster := r.shards[0].cluster
	if join {
		cluster.Join(n, func(err error) {
			if err == nil {
				r.left[n], r.leaving[n] = false, false
				r.v.Reconfigs++
			}
			r.fold(int64(r.eng.Now()), 20, int64(n), reconfigCode(err))
		})
		return
	}
	r.leaving[n] = true // stop issuing here before the permissions go
	r.eng.After(reconfigSettle, func() {
		cluster.Leave(n, func(err error) {
			if err == nil {
				r.left[n] = true
				r.v.Reconfigs++
			} else {
				r.leaving[n] = r.left[n]
			}
			r.fold(int64(r.eng.Now()), 21, int64(n), reconfigCode(err))
		})
	})
}

func reconfigCode(err error) int64 {
	switch {
	case err == nil:
		return 0
	case errors.Is(err, core.ErrEpochConflict):
		return 1
	case errors.Is(err, core.ErrNoAgreement):
		return 2
	case errors.Is(err, core.ErrAlreadyMember), errors.Is(err, core.ErrNotMember):
		return 3
	case errors.Is(err, core.ErrNoInitiator):
		return 4
	}
	return 5
}

// healAll lifts every remaining fault: suspended nodes resume, all link
// faults clear (releasing parked traffic), and departed nodes rejoin the
// configuration — they kept receiving as observers, so the join is a
// permission grant plus a summary-row refresh. Crashed nodes stay dead.
func (r *runner) healAll() {
	for i := 0; i < r.plan.Nodes; i++ {
		r.resume(i)
	}
	r.fab.HealAll()
	for i := 0; i < r.plan.Nodes; i++ {
		if r.left[i] {
			r.reconfig(i, true)
		}
	}
	r.fold(int64(r.eng.Now()), -1) // mark the heal in the trace
}

// issueBatch issues up to BatchSize updates on random shards from random
// live origins.
func (r *runner) issueBatch() {
	if r.v.Issued >= r.plan.Ops {
		return
	}
	r.batches++
	if r.opts.QueryMix > 0 && r.batches%r.opts.QueryMix == 0 {
		r.issueQuery()
	}
	ups := r.cls.UpdateMethods()
	for i := 0; i < r.opts.BatchSize && r.v.Issued < r.plan.Ops; i++ {
		live := r.issuable()
		if len(live) == 0 {
			return
		}
		sh := r.pickShard()
		origin := spec.ProcID(live[r.rng.Intn(len(live))])
		u := ups[r.rng.Intn(len(ups))]
		call := r.cls.Gen.Call(r.rng, u)
		fixTags(&call, origin, uint64(r.v.Issued)+1)
		r.invoke(sh, origin, u, call.Args, nil)
	}
}

// pickShard draws the target of one workload operation. A plain plan draws
// nothing: rand.Intn(1) would still consume a value and shift its schedule.
func (r *runner) pickShard() *shard {
	if len(r.shards) == 1 {
		return r.shards[0]
	}
	return r.shards[r.rng.Intn(len(r.shards))]
}

// foldDone folds one call or query completion into the trace hash; the
// shard index takes part only where there is more than one.
func (r *runner) foldDone(sh *shard, origin spec.ProcID, m spec.MethodID, code int64) {
	if len(r.shards) > 1 {
		r.fold(int64(r.eng.Now()), int64(sh.idx), int64(origin), int64(m), code)
		return
	}
	r.fold(int64(r.eng.Now()), int64(origin), int64(m), code)
}

// invoke issues one update, maintaining the probe bookkeeping. onAck, when
// non-nil, runs after the bookkeeping when the call resolves (the session
// clients hook it to stamp their evidence at ack time).
func (r *runner) invoke(sh *shard, origin spec.ProcID, u spec.MethodID, args spec.Args, onAck func(error)) {
	r.v.Issued++
	r.cCalls.Inc()
	sh.pending[origin]++
	sh.cluster.Replica(origin).Invoke(u, args, func(_ any, err error) {
		sh.pending[origin]--
		code := int64(0)
		switch {
		case err == nil:
			sh.acked[origin][u]++
			r.v.Acked++
		case errors.Is(err, core.ErrImpermissible):
			r.v.Rejected++
			code = 1
		case errors.Is(err, core.ErrDown):
			code = 2
		default:
			code = 3
			r.violate("invoke-error", fmt.Sprintf("%sp%d %s: %v", sh.where(), origin, r.cls.Methods[u].Name, err))
		}
		r.foldDone(sh, origin, u, code)
		if onAck != nil {
			onAck(err)
		}
	})
}

// issueQuery evaluates one random query on a random shard at a random live
// origin. Results land in the trace (for the conformance checker to
// explain), not in the verdict: a query failing with ErrDown mid-fault is
// expected behavior.
func (r *runner) issueQuery() {
	qs := r.cls.QueryMethods()
	if len(qs) == 0 {
		return
	}
	live := r.issuable()
	if len(live) == 0 {
		return
	}
	sh := r.pickShard()
	origin := spec.ProcID(live[r.rng.Intn(len(live))])
	q := qs[r.rng.Intn(len(qs))]
	call := r.cls.Gen.Call(r.rng, q)
	fresh := r.rng.Intn(2) == 0
	done := func(_ any, err error) {
		code := int64(0)
		if err != nil {
			code = 1
		}
		r.foldDone(sh, origin, q, 16+code)
	}
	if fresh {
		sh.cluster.Replica(origin).InvokeFresh(q, call.Args, done)
	} else {
		sh.cluster.Replica(origin).Invoke(q, call.Args, done)
	}
}

// usable reports whether node n may originate workload or serve a session:
// up, and in (or not yet leaving) the configuration — a departed node acks
// writes locally that no member will ever accept.
func (r *runner) usable(n int) bool { return r.correct(n) && !r.leaving[n] }

// issuable lists the usable nodes, ascending.
func (r *runner) issuable() []int {
	var live []int
	for n := 0; n < r.plan.Nodes; n++ {
		if r.usable(n) {
			live = append(live, n)
		}
	}
	return live
}

// fixTags rewrites tag-bearing arguments to be globally unique, as the
// class generators expect the driver to do.
func fixTags(call *spec.Call, p spec.ProcID, salt uint64) {
	switch {
	case call.Method == crdt.ORSetAdd && len(call.Args.I) >= 2:
		call.Args.I[1] = crdt.Tag(p, salt)
	case call.Method == crdt.CartAdd && len(call.Args.I) >= 3:
		call.Args.I[2] = crdt.Tag(p, salt)
	}
}

// correct reports whether node n should satisfy the end-state probes: it
// never crashed and is not (still) suspended.
func (r *runner) correct(n int) bool { return !r.down[n] && !r.crashed[n] }

// where prefixes a violation detail with the shard it is about, on runs
// that have more than one.
func (sh *shard) where() string {
	if sh.key == "" {
		return ""
	}
	return sh.key + ": "
}

// pendingCorrect counts the shard's in-flight calls whose origin is
// correct; calls stranded on a dead origin can never complete and are
// exempt.
func (r *runner) pendingCorrect(sh *shard) int {
	total := 0
	for n, c := range sh.pending {
		if r.correct(n) {
			total += c
		}
	}
	return total
}

// eachAcked visits, for every correct replica n of the shard and every
// correct origin p, how many of p's acknowledged calls of each update
// method n has applied, until visit returns false.
func (r *runner) eachAcked(sh *shard, visit func(n, p int, u spec.MethodID, applied, acked uint32) bool) {
	for n := 0; n < r.plan.Nodes; n++ {
		if !r.correct(n) {
			continue
		}
		applied := sh.cluster.Replica(spec.ProcID(n)).Applied()
		for p := 0; p < r.plan.Nodes; p++ {
			if !r.correct(p) {
				continue
			}
			for u, want := range sh.acked[p] {
				if !visit(n, p, spec.MethodID(u), applied.Get(spec.ProcID(p), spec.MethodID(u)), want) {
					return
				}
			}
		}
	}
}

// replicated reports whether every correct replica of the shard has applied
// at least every acknowledged update from every correct origin.
func (r *runner) replicated(sh *shard) bool {
	ok := true
	r.eachAcked(sh, func(_, _ int, _ spec.MethodID, applied, acked uint32) bool {
		ok = applied >= acked
		return ok
	})
	return ok
}

// quiescent reports whether the shard has no in-flight calls from correct
// origins and is fully replicated.
func (r *runner) quiescent(sh *shard) bool {
	return r.pendingCorrect(sh) == 0 && r.replicated(sh)
}

// drain runs the simulation until every shard is quiescent or the drain
// budget expires.
func (r *runner) drain() bool {
	deadline := r.eng.Now() + sim.Time(r.opts.DrainDeadline)
	for r.eng.Now() < deadline {
		r.eng.RunFor(200 * sim.Microsecond)
		drained := true
		for _, sh := range r.shards {
			drained = drained && r.quiescent(sh)
		}
		if drained {
			return true
		}
	}
	return false
}

// probeConvergence checks all correct replicas of the shard reached
// identical states.
func (r *runner) probeConvergence(sh *shard) {
	ref := -1
	var refState spec.State
	for n := 0; n < r.plan.Nodes; n++ {
		if !r.correct(n) {
			continue
		}
		st := sh.cluster.Replica(spec.ProcID(n)).CurrentState()
		if refState == nil {
			ref, refState = n, st
			continue
		}
		if !refState.Equal(st) {
			r.violate("convergence", fmt.Sprintf("%sreplicas p%d and p%d hold different states after heal+drain", sh.where(), ref, n))
		}
	}
}

// probeExactlyOnce checks the applied-call counts: every acknowledged
// update from a correct origin is applied exactly once at every correct
// replica — fewer is a lost update, more is a duplicate delivery.
func (r *runner) probeExactlyOnce(sh *shard) {
	r.eachAcked(sh, func(n, p int, u spec.MethodID, got, want uint32) bool {
		switch {
		case got < want:
			r.violate("lost-update", fmt.Sprintf("%sp%d applied %d of %d acked %s calls from p%d",
				sh.where(), n, got, want, r.cls.Methods[u].Name, p))
		case got > want:
			r.violate("duplicate", fmt.Sprintf("%sp%d applied %d %s calls from p%d but only %d were acked",
				sh.where(), n, got, r.cls.Methods[u].Name, p, want))
		}
		return true
	})
}

// probeIntegrity checks the class invariant on every live replica's
// current state, shard by shard. Transient violations during the run are
// real violations: integrity must hold at every queried point (§3,
// integrity).
func (r *runner) probeIntegrity(final bool) {
	if r.cls.TrivialInvariant || r.cls.Invariant == nil {
		return
	}
	for _, sh := range r.shards {
		for n := 0; n < r.plan.Nodes; n++ {
			if !r.correct(n) || r.cls.Invariant(sh.cluster.Replica(spec.ProcID(n)).CurrentState()) {
				continue
			}
			when := "during run"
			if final {
				when = "after heal+drain"
			}
			r.violate("integrity", fmt.Sprintf("%sinvariant violated at p%d (%s)", sh.where(), n, when))
			break // one report per shard per probe tick is enough
		}
	}
}

func (r *runner) violate(probe, detail string) {
	r.cViolations.Inc()
	if len(r.v.Violations) >= maxViolations {
		return
	}
	r.v.Violations = append(r.v.Violations, Violation{At: r.eng.Now(), Probe: probe, Detail: detail})
}

// --- trace hashing ---------------------------------------------------------

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

// fold mixes vals into the verdict's FNV-1a trace hash. Every nemesis
// action and call completion folds (with its virtual timestamp), so two
// runs with the same hash took the same schedule through the same trace.
func (r *runner) fold(vals ...int64) { r.v.fold(vals...) }

func (v *Verdict) fold(vals ...int64) {
	h := v.TraceHash
	if h == 0 {
		h = fnvOffset
	}
	for _, v := range vals {
		u := uint64(v)
		for i := 0; i < 8; i++ {
			h ^= u & 0xff
			h *= fnvPrime
			u >>= 8
		}
	}
	v.TraceHash = h
}

func kindIndex(k Kind) int {
	switch k {
	case KindSuspend:
		return 1
	case KindResume:
		return 2
	case KindCrash:
		return 3
	case KindPartition:
		return 4
	case KindHeal:
		return 5
	case KindDelay:
		return 6
	case KindLeaderKill:
		return 7
	case KindTorn:
		return 8
	case KindTornHeal:
		return 9
	case KindLeave:
		return 10
	case KindJoin:
		return 11
	}
	return 0
}

// FormatViolations renders a verdict's violations, one per line.
func FormatViolations(v *Verdict) string {
	var b strings.Builder
	for _, viol := range v.Violations {
		fmt.Fprintf(&b, "  %s\n", viol)
	}
	return b.String()
}
