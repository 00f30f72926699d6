package bench

import (
	"hamband/internal/core"
	"hamband/internal/crdt"
	"hamband/internal/metrics"
	"hamband/internal/rdma"
	"hamband/internal/span"
	"hamband/internal/trace"
)

// Latency runs one fully traced Hamband workload (the bank map mixes all
// three update-method categories) and prints the causal-span latency
// attribution: per-stage p50/p95/p99 per category, and for the conflicting
// calls per origin role (issued at the leader that ordered them, or at a
// follower), plus a tail report decomposing the p95/p99 slowest calls by
// stage. Its JSON export is the
// report as a benchmark snapshot, so two latency exports diff with
// `-exp benchstat`. Deterministic for a fixed seed.
func (cfg Config) Latency() {
	const (
		nodes = 4
		ratio = 0.5
	)
	ops := max(cfg.Ops/4, 500)
	var reg *metrics.Registry
	var tr *trace.Tracer
	res, _ := cfg.run(Hamband, crdt.NewBankMap(), nodes, ops, ratio, 0, Variant{Edit: func(fab *rdma.Fabric, o *core.Options) {
		reg = metrics.New(fab.Engine())
		tr = trace.New(fab.Engine(), 1<<20)
		o.Metrics, o.Tracer = reg, tr
	}})

	spans := span.Build(tr.Events())
	rep := span.Analyze(spans, reg)

	cfg.printf("Latency attribution — %s\n", res)
	if tr.Dropped() > 0 {
		cfg.printf("(warning: %d trace events dropped; stage attribution is partial)\n", tr.Dropped())
	}
	cfg.printf("\n")
	rep.WriteTable(cfg.Out)
	cfg.export("latency", latencySnapshot(cfg, ops, nodes, ratio, rep))
}

// latencySnapshot flattens a span report into snapshot points: one per
// (category, stage) keyed as experiment "latency/<category>" and class
// "<stage>", plus a "total" class per category; the conflicting calls by
// origin role are the categories "conflicting/leader" and
// "conflicting/follower". Each carries the calls it observed and their
// response times.
func latencySnapshot(cfg Config, ops, nodes int, ratio float64, rep *span.Report) Snapshot {
	s := Snapshot{Schema: snapshotSchema, Ops: ops, Seed: cfg.Seed}
	for _, cr := range rep.All() {
		exp := "latency/" + cr.Category
		for _, st := range cr.Stages {
			s.add(exp, Hamband.String(), st.Name, nodes, ratio, map[string]float64{
				"calls":      float64(st.Count),
				"mean_rt_us": st.Mean.Micros(),
				"p50_us":     st.P50.Micros(),
				"p95_us":     st.P95.Micros(),
				"p99_us":     st.P99.Micros(),
			})
		}
		s.add(exp, Hamband.String(), "total", nodes, ratio, map[string]float64{
			"calls":  float64(cr.Completed),
			"p50_us": cr.TotalP50.Micros(),
			"p95_us": cr.TotalP95.Micros(),
			"p99_us": cr.TotalP99.Micros(),
		})
	}
	return s
}
