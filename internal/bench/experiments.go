package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"hamband/internal/core"
	"hamband/internal/crdt"
	"hamband/internal/metrics"
	"hamband/internal/rdma"
	"hamband/internal/schema"
	"hamband/internal/sim"
	"hamband/internal/spec"
	"hamband/internal/trace"
)

// Config parameterizes an experiment run. Ops plays the role of the
// paper's 4 M operations per experiment; the default keeps full-suite runs
// to seconds of wall-clock while preserving the figures' shapes.
type Config struct {
	Ops  int
	Seed int64
	Out  io.Writer
	// JSON, when non-nil, receives the experiment's points as one Snapshot
	// of keyed points and named metrics (snapshot, latency, wire, shard,
	// health) or, for metrics, the registry snapshot; ChromeTrace receives
	// the metrics experiment's call lifecycles.
	JSON        io.Writer
	ChromeTrace io.Writer
}

// DefaultOps is the per-point operation count.
const DefaultOps = 20000

// run is the one place a benchmark point is assembled: engine → analysis →
// Build → workload (depth calls outstanding per node; 0: DefaultConcurrency)
// → Run. It returns the system too, for experiments that read its fabric's
// verb stats or CPU occupancy.
func (cfg Config) run(kind SystemKind, cls *spec.Class, nodes, ops int, ratio float64, depth int, v Variant, faults ...Fault) (*Result, System) {
	eng := sim.NewEngine(cfg.Seed)
	an := spec.MustAnalyze(cls)
	sys, err := Build(kind, eng, nodes, an, v)
	if err != nil {
		panic(fmt.Sprintf("bench: %v", err))
	}
	wl := NewWorkload(an, nodes, ops, ratio, cfg.Seed+1)
	if depth > 0 {
		wl.Concurrency = depth
	}
	return Run(eng, sys, wl, faults...), sys
}

// point runs one (system, class, nodes, ratio) benchmark point at the
// default deployment.
func (cfg Config) point(kind SystemKind, cls *spec.Class, nodes, ops int, ratio float64, faults ...Fault) *Result {
	r, _ := cfg.run(kind, cls, nodes, ops, ratio, 0, Variant{}, faults...)
	return r
}

// rtPoint measures unloaded response time: a closed loop of depth one, so
// queueing does not dominate (under saturation, response time is just
// Little's law: depth/throughput). The paper measures latency the same way
// — at load levels below saturation.
func (cfg Config) rtPoint(kind SystemKind, cls *spec.Class, nodes int, ratio float64, faults ...Fault) *Result {
	r, _ := cfg.run(kind, cls, nodes, cfg.rtOps(), ratio, 1, Variant{}, faults...)
	return r
}

// rtOps is the length of an rtPoint run.
func (cfg Config) rtOps() int { return min(cfg.Ops, 2000) }

// faultAt places a figure's fault by its run's length alone, perOp per
// operation. A fault a fixed share into the fault-free run's makespan moved
// with every change that sped up the fault-free run, and the faulty runs'
// numbers with it.
func faultAt(ops int, perOp sim.Duration) sim.Time { return sim.Time(sim.Duration(ops) * perOp) }

// The per-operation fault times, each about a quarter into its fault-free
// run at the default point (seed 42): Figure 12's loaded runs (20 000
// operations in 1.11–1.49 ms), its unloaded response-time runs (2 000 in
// 112–226 µs), and Figure 13's courseware runs (1 000 in 158 µs).
const (
	fig12FaultPerOp   = 15 * sim.Nanosecond
	fig12RTFaultPerOp = 20 * sim.Nanosecond
	fig13FaultPerOp   = 40 * sim.Nanosecond
)

// export writes v as indented JSON to cfg.JSON, when set.
func (cfg Config) export(what string, v any) {
	if cfg.JSON == nil {
		return
	}
	enc := json.NewEncoder(cfg.JSON)
	enc.SetIndent("", "  ")
	if err := enc.Encode(v); err != nil {
		cfg.printf("%s: JSON export failed: %v\n", what, err)
	}
}

func (cfg Config) printf(format string, args ...any) {
	fmt.Fprintf(cfg.Out, format, args...)
}

func fmtRT(d sim.Duration) string { return fmt.Sprintf("%.2fµs", d.Micros()) }

// ratioOrDash formats a/b, or "-" when b is zero.
func ratioOrDash(a, b float64) string {
	if b == 0 {
		return "-"
	}
	return fmt.Sprintf("%.1f×", a/b)
}

// Fig8 regenerates Figure 8: the effect of summarization and remote writes
// for reducible methods. Part (a) sweeps node counts and update ratios and
// reports throughput for Hamband, MSG and Mu; part (b) reports mean
// response time on four nodes.
func (cfg Config) Fig8() {
	classes := []func() *spec.Class{crdt.NewCounter, crdt.NewLWW, crdt.NewGSet}
	ratios := []float64{0.25, 0.15, 0.05}
	cfg.printf("Figure 8(a) — throughput (ops/µs), reducible methods\n")
	cfg.printf("%-9s %5s %6s %9s %8s %8s %7s %7s\n",
		"class", "upd%", "nodes", "Hamband", "MSG", "Mu", "H/MSG", "H/Mu")
	for _, mk := range classes {
		for _, ratio := range ratios {
			for nodes := 3; nodes <= 7; nodes++ {
				h := cfg.point(Hamband, mk(), nodes, cfg.Ops, ratio)
				m := cfg.point(MSG, mk(), nodes, cfg.Ops, ratio)
				u := cfg.point(MuSMR, mk(), nodes, cfg.Ops, ratio)
				cfg.printf("%-9s %5.0f %6d %9.2f %8.2f %8.2f %7s %7s\n",
					h.Class, ratio*100, nodes,
					h.Throughput(), m.Throughput(), u.Throughput(),
					ratioOrDash(h.Throughput(), m.Throughput()),
					ratioOrDash(h.Throughput(), u.Throughput()))
			}
		}
	}
	cfg.printf("\nFigure 8(b) — mean response time (unloaded), 4 nodes\n")
	cfg.printf("%-9s %5s %10s %10s %10s %9s %10s\n",
		"class", "upd%", "Hamband", "MSG", "Mu", "MSG/H", "H p99")
	for _, mk := range classes {
		for _, ratio := range ratios {
			h := cfg.rtPoint(Hamband, mk(), 4, ratio)
			m := cfg.rtPoint(MSG, mk(), 4, ratio)
			u := cfg.rtPoint(MuSMR, mk(), 4, ratio)
			cfg.printf("%-9s %5.0f %10s %10s %10s %9s %10s\n",
				h.Class, ratio*100, fmtRT(h.MeanRT), fmtRT(m.MeanRT), fmtRT(u.MeanRT),
				ratioOrDash(m.MeanRT.Micros(), h.MeanRT.Micros()), fmtRT(h.Percentile(99)))
		}
	}
	cfg.printf("\n")
}

// Fig9 regenerates Figure 9: the effect of remote buffering for
// irreducible conflict-free methods (OR-set, buffered G-set, shopping
// cart).
func (cfg Config) Fig9() {
	classes := []func() *spec.Class{crdt.NewORSet, crdt.NewGSetBuffered, crdt.NewCart}
	ratios := []float64{0.25, 0.15, 0.05}
	cfg.printf("Figure 9(a) — throughput (ops/µs), irreducible conflict-free methods\n")
	cfg.printf("%-14s %5s %6s %9s %8s %8s %7s %7s\n",
		"class", "upd%", "nodes", "Hamband", "MSG", "Mu", "H/MSG", "H/Mu")
	for _, mk := range classes {
		for _, ratio := range ratios {
			for nodes := 3; nodes <= 7; nodes++ {
				h := cfg.point(Hamband, mk(), nodes, cfg.Ops, ratio)
				m := cfg.point(MSG, mk(), nodes, cfg.Ops, ratio)
				u := cfg.point(MuSMR, mk(), nodes, cfg.Ops, ratio)
				cfg.printf("%-14s %5.0f %6d %9.2f %8.2f %8.2f %7s %7s\n",
					h.Class, ratio*100, nodes,
					h.Throughput(), m.Throughput(), u.Throughput(),
					ratioOrDash(h.Throughput(), m.Throughput()),
					ratioOrDash(h.Throughput(), u.Throughput()))
			}
		}
	}
	cfg.printf("\nFigure 9(b) — mean response time (unloaded), 4 nodes\n")
	cfg.printf("%-14s %5s %10s %10s %10s %9s %10s\n",
		"class", "upd%", "Hamband", "MSG", "Mu", "MSG/H", "H p99")
	for _, mk := range classes {
		for _, ratio := range ratios {
			h := cfg.rtPoint(Hamband, mk(), 4, ratio)
			m := cfg.rtPoint(MSG, mk(), 4, ratio)
			u := cfg.rtPoint(MuSMR, mk(), 4, ratio)
			cfg.printf("%-14s %5.0f %10s %10s %10s %9s %10s\n",
				h.Class, ratio*100, fmtRT(h.MeanRT), fmtRT(m.MeanRT), fmtRT(u.MeanRT),
				ratioOrDash(m.MeanRT.Micros(), h.MeanRT.Micros()), fmtRT(h.Percentile(99)))
		}
	}
	cfg.printf("\n")
}

// Fig10 regenerates Figure 10: the effect of separate synchronization
// groups on the movie schema (two leaders vs Mu's single leader), sweeping
// the operation count (the paper's 2/4/8 M updates) on four nodes with an
// all-update workload.
func (cfg Config) Fig10() {
	cfg.printf("Figure 10 — synchronization groups, movie schema, 4 nodes, all updates\n")
	cfg.printf("%-8s %9s %8s %7s %12s %12s\n", "ops", "Hamband", "Mu", "H/Mu", "RT Hamband", "RT Mu")
	hrt := cfg.rtPoint(Hamband, schema.NewMovie(), 4, 1.0)
	urt := cfg.rtPoint(MuSMR, schema.NewMovie(), 4, 1.0)
	for _, mult := range []int{1, 2, 4} {
		ops := cfg.Ops * mult / 2
		h := cfg.point(Hamband, schema.NewMovie(), 4, ops, 1.0)
		u := cfg.point(MuSMR, schema.NewMovie(), 4, ops, 1.0)
		cfg.printf("%-8d %9.2f %8.2f %7s %12s %12s\n",
			ops, h.Throughput(), u.Throughput(),
			ratioOrDash(h.Throughput(), u.Throughput()),
			fmtRT(hrt.MeanRT), fmtRT(urt.MeanRT))
	}
	cfg.printf("\n")
}

// Fig11 regenerates Figure 11: the project-management schema mixing all
// three method categories; throughput for 50/25/10%% update ratios and
// per-method response times.
func (cfg Config) Fig11() {
	cfg.printf("Figure 11(a) — project management, 4 nodes: throughput (ops/µs)\n")
	cfg.printf("%5s %9s %8s %7s\n", "upd%", "Hamband", "Mu", "H/Mu")
	for _, ratio := range []float64{0.5, 0.25, 0.10} {
		h := cfg.point(Hamband, schema.NewProjectManagement(), 4, cfg.Ops, ratio)
		u := cfg.point(MuSMR, schema.NewProjectManagement(), 4, cfg.Ops, ratio)
		cfg.printf("%5.0f %9.2f %8.2f %7s\n", ratio*100,
			h.Throughput(), u.Throughput(), ratioOrDash(h.Throughput(), u.Throughput()))
	}
	cfg.printf("\nFigure 11(b) — response time per method (unloaded, 50%% updates)\n")
	h := cfg.rtPoint(Hamband, schema.NewProjectManagement(), 4, 0.5)
	printByMethod(cfg, h)
	cfg.printf("\n")
}

// Fig12 regenerates Figure 12: the effect of a (follower) failure on the
// conflict-free Counter and OR-set use-cases.
func (cfg Config) Fig12() {
	cfg.printf("Figure 12 — failure effect on conflict-free use-cases, 4 nodes\n")
	cfg.printf("%-9s %5s %9s %9s %7s %10s %10s %8s\n",
		"class", "upd%", "T normal", "T failed", "ΔT", "RT normal", "RT failed", "ΔRT")
	for _, mk := range []func() *spec.Class{crdt.NewCounter, crdt.NewORSet} {
		for _, ratio := range []float64{0.25, 0.15, 0.05} {
			normal := cfg.point(Hamband, mk(), 4, cfg.Ops, ratio)
			failed := cfg.point(Hamband, mk(), 4, cfg.Ops, ratio,
				Fault{At: faultAt(cfg.Ops, fig12FaultPerOp), Node: 3})
			nrt := cfg.rtPoint(Hamband, mk(), 4, ratio)
			frt := cfg.rtPoint(Hamband, mk(), 4, ratio,
				Fault{At: faultAt(cfg.rtOps(), fig12RTFaultPerOp), Node: 3})
			cfg.printf("%-9s %5.0f %9.2f %9.2f %6.0f%% %10s %10s %7.0f%%\n",
				normal.Class, ratio*100,
				normal.Throughput(), failed.Throughput(),
				100*(failed.Throughput()-normal.Throughput())/normal.Throughput(),
				fmtRT(nrt.MeanRT), fmtRT(frt.MeanRT),
				100*(frt.MeanRT-nrt.MeanRT).Micros()/nrt.MeanRT.Micros())
		}
	}
	cfg.printf("\n")
}

// fig13Point is one scenario of Figure 13 with the fabric bytes its run
// wrote per completed op.
type fig13Point struct {
	scenario   string // normal, follower or leader
	res        *Result
	bytesPerOp float64
}

// fig13Points runs Figure 13's three scenarios on the courseware schema — no
// failure, the follower p3 failing, and the synchronization group's leader p0
// failing (p3 leads nothing), each fault fig13FaultPerOp per operation into
// the run (faultAt).
//
// The run length is scaled so that the leader-change outage (~115 µs of
// virtual time — cf. Mu's sub-millisecond failover) occupies a fraction of
// the measurement window comparable to the paper's: with the full 4 M-op
// analogue the failover amortizes to noise and the figure's effect
// disappears.
func (cfg Config) fig13Points() []fig13Point {
	ops := max(cfg.Ops/20, 1000)
	run := func(scenario string, faults ...Fault) fig13Point {
		r, sys := cfg.run(Hamband, schema.NewCourseware(), 4, ops, 0.5, 0, Variant{}, faults...)
		return fig13Point{scenario, r, wireBytesPerOp(r, sys)}
	}
	failAt := faultAt(ops, fig13FaultPerOp)
	return []fig13Point{run("normal"), run("follower", Fault{At: failAt, Node: 3}), run("leader", Fault{At: failAt, Node: 0})}
}

// Fig13 regenerates Figure 13: the effect of follower and leader failure
// on the courseware schema, with per-method response times.
func (cfg Config) Fig13() {
	cfg.printf("Figure 13(a) — courseware under failures, 4 nodes, 50%% updates: throughput (ops/µs)\n")
	points := cfg.fig13Points()
	normal, follower, leader := points[0].res, points[1].res, points[2].res
	cfg.printf("%-16s %9s %7s\n", "scenario", "ops/µs", "Δ")
	cfg.printf("%-16s %9.2f %7s\n", "normal", normal.Throughput(), "-")
	cfg.printf("%-16s %9.2f %6.0f%%\n", "follower fails", follower.Throughput(),
		100*(follower.Throughput()-normal.Throughput())/normal.Throughput())
	cfg.printf("%-16s %9.2f %6.0f%%\n", "leader fails", leader.Throughput(),
		100*(leader.Throughput()-normal.Throughput())/normal.Throughput())

	cfg.printf("\nFigure 13(b) — response time per method\n")
	cfg.printf("%-18s %12s %12s %12s\n", "method", "normal", "follower", "leader")
	for _, name := range methodNames(normal) {
		cfg.printf("%-18s %12s %12s %12s\n", name,
			fmtRT(normal.ByMethod[name].Mean()),
			fmtRT(follower.ByMethod[name].Mean()),
			fmtRT(leader.ByMethod[name].Mean()))
	}
	cfg.printf("\n")
}

// Ablations runs the design-choice studies DESIGN.md calls out: the value
// of summarization (reducible vs buffered G-set), of per-group leaders
// (movie with two leaders vs one), and of the closed-loop depth.
func (cfg Config) Ablations() {
	cfg.printf("Ablation — summarization: G-set reducible vs buffered (Hamband, 25%% updates)\n")
	cfg.printf("%6s %12s %12s %8s\n", "nodes", "summarized", "buffered", "gain")
	for nodes := 3; nodes <= 7; nodes += 2 {
		red := cfg.point(Hamband, crdt.NewGSet(), nodes, cfg.Ops, 0.25)
		buf := cfg.point(Hamband, crdt.NewGSetBuffered(), nodes, cfg.Ops, 0.25)
		cfg.printf("%6d %12.2f %12.2f %8s\n", nodes,
			red.Throughput(), buf.Throughput(),
			ratioOrDash(red.Throughput(), buf.Throughput()))
	}

	cfg.printf("\nAblation — synchronization groups: movie with two leaders vs one\n")
	two := cfg.point(Hamband, schema.NewMovie(), 4, cfg.Ops, 1.0)
	one, _ := cfg.run(Hamband, schema.NewMovie(), 4, cfg.Ops, 1.0, 0, Variant{Edit: func(_ *rdma.Fabric, o *core.Options) {
		o.Leaders = []spec.ProcID{0, 0} // both groups on one node
	}})
	cfg.printf("two leaders: %.2f ops/µs   single leader: %.2f ops/µs   gain: %s\n",
		two.Throughput(), one.Throughput(),
		ratioOrDash(two.Throughput(), one.Throughput()))

	cfg.printf("\nAblation — dependency gating: worksOn waits for its dependencies\n")
	cfg.printf("(slower summary scans delay addEmployee visibility; worksOn — which\n")
	cfg.printf("depends on it — waits at the buffer head, and FIFO order makes its\n")
	cfg.printf("group peers queue behind it; cf. Figure 11(b))\n")
	cfg.printf("%10s %12s %12s %12s\n", "scan", "addProject", "worksOn", "addEmployee")
	for _, scan := range []sim.Duration{2 * sim.Microsecond, 50 * sim.Microsecond, 200 * sim.Microsecond} {
		lat := rdma.DefaultLatency()
		lat.ScanPeriod = scan
		res, _ := cfg.run(Hamband, schema.NewProjectManagement(), 4, 2000, 0.5, 1, Variant{Latency: &lat})
		cfg.printf("%10v %12s %12s %12s\n", scan,
			fmtRT(res.ByMethod["addProject"].Mean()),
			fmtRT(res.ByMethod["worksOn"].Mean()),
			fmtRT(res.ByMethod["addEmployee"].Mean()))
	}

	cfg.printf("\nAblation — closed-loop depth (counter, 4 nodes, 25%% updates)\n")
	cfg.printf("%6s %9s %10s\n", "depth", "ops/µs", "mean RT")
	for _, depth := range []int{1, 4, 8, 16, 32} {
		res, _ := cfg.run(Hamband, crdt.NewCounter(), 4, cfg.Ops, 0.25, depth, Variant{})
		cfg.printf("%6d %9.2f %10s\n", depth, res.Throughput(), fmtRT(res.MeanRT))
	}
	cfg.printf("\n")
}

// printByMethod prints a per-method response-time table.
func printByMethod(cfg Config, r *Result) {
	cfg.printf("%-18s %8s %12s %12s\n", "method", "calls", "mean RT", "max RT")
	for _, name := range methodNames(r) {
		st := r.ByMethod[name]
		cfg.printf("%-18s %8d %12s %12s\n", name, st.Count, fmtRT(st.Mean()), fmtRT(st.Max))
	}
}

func methodNames(r *Result) []string {
	names := make([]string, 0, len(r.ByMethod))
	for name := range r.ByMethod {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// All runs every experiment in figure order.
func (cfg Config) All() {
	cfg.Fig8()
	cfg.Fig9()
	cfg.Fig10()
	cfg.Fig11()
	cfg.Fig12()
	cfg.Fig13()
	cfg.Ablations()
}

// Costs measures the empirical coordination cost per method category: one
// single-category workload per row, reporting the RDMA verbs and bytes the
// whole cluster spent per call. It quantifies §3.3's claims — a reducible
// call is (N−1) one-sided writes, an irreducible conflict-free call adds
// the reliable-broadcast backup machinery, and a conflicting call pays the
// consensus round — plus the MSG baseline's message count for contrast.
func (cfg Config) Costs() {
	cfg.printf("Coordination cost per call by category (4 nodes, updates only)\n")
	cfg.printf("%-28s %10s %10s %12s %11s\n", "workload", "writes/op", "reads/op", "bytes/op", "crc ns/op")
	type row struct {
		name string
		cls  *spec.Class
	}
	rows := []row{
		{"reducible (counter)", crdt.NewCounter()},
		{"irreducible free (orset)", crdt.NewORSet()},
		{"conflicting (movie)", schema.NewMovie()},
	}
	ops := max(cfg.Ops/4, 500)
	for _, rw := range rows {
		res, sys := cfg.run(Hamband, rw.cls, 4, ops, 1.0, 0, Variant{})
		fab := sys.(*hambandSystem).c.Fab
		st := fab.Stats()
		n := float64(res.Completed - res.Rejected)
		if n == 0 {
			continue
		}
		// Reader-side CRC32-C validation of the bytes each call ships,
		// priced by the cost model (hardware-assisted checksum throughput).
		crc := fab.Latency().CRCCost(int(float64(st.BytesWritten) / n))
		cfg.printf("%-28s %10.2f %10.2f %12.1f %11d\n", rw.name,
			float64(st.Writes)/n, float64(st.Reads)/n, float64(st.BytesWritten)/n, int64(crc))
	}
	// Contrast: the MSG baseline's per-op message count.
	res, sys := cfg.run(MSG, crdt.NewCounter(), 4, ops, 1.0, 0, Variant{})
	cfg.printf("%-28s %10s %10s %12s  (%.2f messages/op)\n",
		"MSG baseline (counter)", "-", "-", "-", float64(sys.(*msgSystem).c.Net.Stats().Sent)/float64(res.Completed))
	cfg.printf("\n")
}

// Trace prints the full lifecycle of a few representative calls — one per
// method category — recorded by the runtime tracer on a small account
// workload with a mid-run leader failure. It shows, with virtual
// timestamps, how a reducible deposit becomes one remote write, how a
// conflicting withdraw travels through the leader, and what suspicion and
// recovery look like.
func (cfg Config) Trace() {
	eng := sim.NewEngine(cfg.Seed)
	var tr *trace.Tracer
	sys, _ := Build(Hamband, eng, 3, spec.MustAnalyze(crdt.NewAccount()), Variant{Edit: func(_ *rdma.Fabric, o *core.Options) {
		tr = trace.New(eng, 1<<16)
		o.Tracer = tr
	}})

	eng.At(0, func() {
		sys.Invoke(1, crdt.AccountDeposit, spec.ArgsI(100), nil)
	})
	eng.At(sim.Time(500*sim.Microsecond), func() {
		sys.Invoke(2, crdt.AccountWithdraw, spec.ArgsI(30), nil)
	})
	// Fail the withdraw-group leader; the next withdraw needs fail-over.
	eng.At(sim.Time(1*sim.Millisecond), func() { sys.Fail(0) })
	eng.At(sim.Time(1100*sim.Microsecond), func() {
		sys.Invoke(1, crdt.AccountWithdraw, spec.ArgsI(10), nil)
	})
	eng.RunUntil(sim.Time(50 * sim.Millisecond))

	cfg.printf("Call lifecycles (account, 3 nodes; leader p0 fails at t=1ms)\n\n")
	tr.Format(cfg.Out, "p1#1", "p2#1", "p1#2")
	cfg.printf("\nfailure handling events:\n")
	for _, e := range tr.ByKind(trace.Suspect) {
		cfg.printf("  t=%-10v n%d %s\n", sim.Duration(e.At), e.Node, e.Note)
	}
	cfg.printf("\n")
}

// Metrics runs one fully instrumented Hamband workload — the bank map
// mixes all three update-method categories — and prints
// the registry's percentile report: p50/p95/p99 latency per call category,
// per-QP verb counters and bytes, and the protocol health counters
// (broadcast retries, commit latency, suspicions). The JSON export is the
// registry snapshot (see writeMergedMetrics); ChromeTrace, when set, receives
// a Chrome trace-event file of the first calls' lifecycles.
func (cfg Config) Metrics() {
	ops := max(cfg.Ops/4, 500)
	var reg *metrics.Registry
	var tr *trace.Tracer
	res, _ := cfg.run(Hamband, crdt.NewBankMap(), 4, ops, 0.5, 0, Variant{Edit: func(fab *rdma.Fabric, o *core.Options) {
		reg = metrics.New(fab.Engine())
		o.Metrics = reg
		if cfg.ChromeTrace != nil {
			tr = trace.New(fab.Engine(), 1<<16)
			o.Tracer = tr
		}
	}})

	cfg.printf("Metrics report — %s\n\n", res)
	reg.WriteTable(cfg.Out)
	if cfg.JSON != nil {
		cfg.writeMergedMetrics(reg)
	}
	if cfg.ChromeTrace != nil {
		if err := tr.WriteChromeTrace(cfg.ChromeTrace); err != nil {
			cfg.printf("metrics: chrome trace export failed: %v\n", err)
		}
	}
	cfg.printf("\n")
}

// Overview prints one row per bundled data type: its method-category mix
// and its Hamband throughput and unloaded response time at four nodes —
// the summary table for the whole use-case suite.
func (cfg Config) Overview() {
	cfg.printf("Use-case overview — Hamband, 4 nodes, 25%% updates\n")
	cfg.printf("%-16s %12s %6s %10s %12s\n", "class", "categories", "ops/µs", "mean RT", "p99 RT")
	for _, cls := range schema.Bundled() {
		an := spec.MustAnalyze(cls)
		var red, free, conf int
		for _, u := range cls.UpdateMethods() {
			switch an.Category[u] {
			case spec.CatReducible:
				red++
			case spec.CatIrreducibleFree:
				free++
			case spec.CatConflicting:
				conf++
			}
		}
		mix := fmt.Sprintf("%dR/%dF/%dC", red, free, conf)
		th := cfg.point(Hamband, cls, 4, cfg.Ops/2, 0.25)
		rt := cfg.rtPoint(Hamband, cls, 4, 0.25)
		cfg.printf("%-16s %12s %6.2f %10s %12s\n",
			cls.Name, mix, th.Throughput(), fmtRT(rt.MeanRT), fmtRT(rt.Percentile(99)))
	}
	cfg.printf("\n")
}
