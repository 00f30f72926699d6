package bench

import (
	"hamband/internal/chaos"
	"hamband/internal/metrics"
	"hamband/internal/sim"
)

// writeMergedMetrics exports the workload registry's snapshot, with the
// counter families that only exist on a nemesis run's registry — chaos.*
// and health.* — merged in from a small sidecar fault run. The merge keeps
// the `-exp metrics` export complete: every counter name the tree can emit
// appears in it, which TestMetricsExportCompleteness pins. Sidecar names
// never overwrite workload values; they fill gaps only.
func (cfg Config) writeMergedMetrics(reg *metrics.Registry) {
	s := reg.Snapshot()
	side, err := sidecarChaosSnapshot(cfg.Seed)
	if err != nil {
		cfg.printf("metrics: JSON export failed: sidecar chaos run: %v\n", err)
		return
	}
	for name, v := range side.Counters {
		if _, ok := s.Counters[name]; !ok {
			s.Counters[name] = v
		}
	}
	cfg.export("metrics", s)
}

// sidecarChaosSnapshot runs one tiny instrumented fault plan and returns
// its registry snapshot — the source for the chaos.* and health.* counter
// names the plain workload never registers.
func sidecarChaosSnapshot(seed int64) (metrics.Snapshot, error) {
	v, err := chaos.Run(chaos.Plan{
		Class: "counter", Nodes: 3, Ops: 40, Seed: seed,
		Events: []chaos.Event{
			{At: sim.Time(100 * sim.Microsecond), Kind: chaos.KindSuspend, Node: 2},
			{At: sim.Time(300 * sim.Microsecond), Kind: chaos.KindResume, Node: 2},
		},
	}, chaos.Options{EnableMetrics: true})
	if err != nil {
		return metrics.Snapshot{}, err
	}
	return v.Metrics.Snapshot(), nil
}
