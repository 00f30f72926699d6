package bench

import (
	"io"

	"hamband/internal/core"
	"hamband/internal/crdt"
	"hamband/internal/metrics"
	"hamband/internal/rdma"
	"hamband/internal/span"
	"hamband/internal/trace"
)

// Latency runs one fully traced Hamband workload (the bank map mixes all
// three update-method categories) and prints the causal-span latency
// attribution: per-stage p50/p95/p99 per category, plus a tail report
// decomposing the p95/p99 slowest calls by stage. When jsonOut is non-nil
// the report is also written there as a benchmark snapshot (schema shared
// with `-exp snapshot`), so two latency snapshots diff with
// `-exp benchstat`. Deterministic for a fixed seed.
func (cfg Config) Latency(jsonOut io.Writer) {
	const (
		nodes = 4
		ratio = 0.5
	)
	ops := cfg.Ops / 4
	if ops < 500 {
		ops = 500
	}
	var reg *metrics.Registry
	var tr *trace.Tracer
	res, _ := cfg.run(Hamband, crdt.NewBankMap(), nodes, ops, ratio, variant{mut: func(fab *rdma.Fabric, o *core.Options) {
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

	if jsonOut != nil {
		if err := latencySnapshot(cfg, ops, nodes, ratio, rep).WriteJSON(jsonOut); err != nil {
			cfg.printf("latency: JSON export failed: %v\n", err)
		}
	}
}

// latencySnapshot flattens a span report into the benchmark-snapshot
// schema: one point per (category, stage) keyed as experiment
// "latency/<category>" and class "<stage>", plus a "total" class per
// category. OpsPerUs carries the stage's observation count (there is no
// per-stage throughput), so count regressions also show up in benchstat.
func latencySnapshot(cfg Config, ops, nodes int, ratio float64, rep *span.Report) Snapshot {
	s := Snapshot{Schema: 1, Ops: ops, Seed: cfg.Seed}
	for _, cr := range rep.Categories {
		exp := "latency/" + cr.Category
		for _, st := range cr.Stages {
			s.Points = append(s.Points, SnapPoint{
				Experiment:  exp,
				System:      "hamband",
				Class:       st.Name,
				Nodes:       nodes,
				UpdateRatio: ratio,
				OpsPerUs:    float64(st.Count),
				MeanRTUs:    st.Mean.Micros(),
				P50Us:       st.P50.Micros(),
				P95Us:       st.P95.Micros(),
				P99Us:       st.P99.Micros(),
			})
		}
		s.Points = append(s.Points, SnapPoint{
			Experiment:  exp,
			System:      "hamband",
			Class:       "total",
			Nodes:       nodes,
			UpdateRatio: ratio,
			OpsPerUs:    float64(cr.Completed),
			P50Us:       cr.TotalP50.Micros(),
			P95Us:       cr.TotalP95.Micros(),
			P99Us:       cr.TotalP99.Micros(),
		})
	}
	return s
}
