package bench

import (
	"encoding/json"
	"fmt"
	"io"

	"hamband/internal/core"
	"hamband/internal/crdt"
	"hamband/internal/metrics"
	"hamband/internal/rdma"
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
	// of keyed points and named metrics (every figure of the table, all and
	// snapshot, latency, health) or, for metrics, the registry snapshot;
	// ChromeTrace receives the metrics experiment's call lifecycles.
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

// rtOps is the length of an unloaded response-time run: a closed loop of
// depth one, so queueing does not dominate (under saturation, response time
// is just Little's law: depth/throughput). The paper measures latency the
// same way — at load levels below saturation.
func (cfg Config) rtOps() int { return min(cfg.Ops, 2000) }

// faultAt places a figure's fault by its run's length alone, perOp per
// operation. A fault a fixed share into the fault-free run's makespan moved
// with every change that sped up the fault-free run, and the faulty runs'
// numbers with it.
func faultAt(ops int, perOp sim.Duration) sim.Time { return sim.Time(sim.Duration(ops) * perOp) }

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

// All runs every figure of the table and prints each in order; its export
// is the snapshot.
func (cfg Config) All() {
	s := cfg.Snapshot()
	for i := range paper {
		paper[i].render(cfg.Out, s)
	}
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
// a Chrome trace-event file of the first calls' lifecycles. The run ends
// with two idle CheckPeriods, so the report shows the heartbeat reads: while
// calls flow, the peers' records stand in for them (rdma.Node.Heard).
func (cfg Config) Metrics() {
	ops := max(cfg.Ops/4, 500)
	var reg *metrics.Registry
	var tr *trace.Tracer
	var fab *rdma.Fabric
	res, _ := cfg.run(Hamband, crdt.NewBankMap(), 4, ops, 0.5, 0, Variant{Edit: func(f *rdma.Fabric, o *core.Options) {
		fab = f
		reg = metrics.New(fab.Engine())
		o.Metrics = reg
		if cfg.ChromeTrace != nil {
			tr = trace.New(fab.Engine(), 1<<16)
			o.Tracer = tr
		}
	}})
	fab.Engine().RunFor(2 * fab.Latency().CheckPeriod)

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
