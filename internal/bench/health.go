package bench

import (
	"fmt"

	"hamband/internal/chaos"
	"hamband/internal/health"
	"hamband/internal/sim"
)

// healthPlan is the fixed-seed fault schedule the health experiment drives:
// a 5-node bankmap cluster suffering a long suspension, a leader kill, and
// a full isolation of one node, each healed before the drain. Every fault
// lasts long enough to cross the watchdog's consecutive-observation
// thresholds at the experiment's tightened 25µs probe cadence.
func healthPlan(seed int64, ops int) chaos.Plan {
	at := func(us int64) sim.Time { return sim.Time(sim.Duration(us) * sim.Microsecond) }
	p := chaos.Plan{
		Class: "bankmap", Nodes: 5, Ops: ops, Seed: seed,
		Events: []chaos.Event{
			{At: at(300), Kind: chaos.KindSuspend, Node: 1},
			{At: at(1600), Kind: chaos.KindResume, Node: 1},
			{At: at(2000), Kind: chaos.KindLeaderKill, Group: 0},
		},
	}
	// Isolate node 2 from every peer for ~1.6ms: long enough for its
	// applied watermark to fall past the 64-call lag floor.
	for _, peer := range []int{0, 1, 3, 4} {
		p.Events = append(p.Events,
			chaos.Event{At: at(2400), Kind: chaos.KindPartition, A: 2, B: peer},
			chaos.Event{At: at(4000), Kind: chaos.KindHeal, A: 2, B: peer})
	}
	return p
}

// Health runs the anomaly-watchdog experiment: one fixed-seed fault plan
// with every firing classified against the injected faults (plus a
// per-fault coverage table), then a fault-free control that must stay
// silent. Returns the number of problems found — unexpected firings, an
// unobserved fault run, a noisy control, or a failed verdict — so the CI
// lane can gate on zero. Its JSON export holds the firing counts, for
// `-exp benchstat` diffing.
func (cfg Config) Health() int {
	ops := cfg.Ops
	if ops > 600 {
		ops = 600 // the plan's faults are placed inside a ~5ms horizon
	}
	opts := chaos.Options{
		EnableMetrics: true,
		FlightWindow:  512,
		ProbePeriod:   25 * sim.Microsecond,
	}

	plan := healthPlan(cfg.Seed, ops)
	v, err := chaos.Run(plan, opts)
	if err != nil {
		cfg.printf("health: run failed: %v\n", err)
		return 1
	}

	problems := 0
	cfg.printf("Anomaly watchdog — class=%s nodes=%d ops=%d seed=%d probe=%v\n",
		plan.Class, plan.Nodes, plan.Ops, plan.Seed, opts.ProbePeriod)
	cfg.printf("verdict: %s\n\n", v.Summary())

	cfg.printf("%-12s %-14s %-5s %-10s %s\n", "time", "rule", "node", "class", "detail")
	expected := 0
	unexp := map[string]bool{}
	for _, f := range v.Unexpected {
		unexp[firingKey(f)] = true
	}
	for _, f := range v.Anomalies {
		class := "expected"
		if unexp[firingKey(f)] {
			class = "UNEXPECTED"
		} else {
			expected++
		}
		node := "-"
		if f.Node >= 0 {
			node = fmt.Sprintf("n%d", f.Node)
		}
		cfg.printf("%-12v %-14s %-5s %-10s %s\n", sim.Duration(f.At), f.Rule, node, class, f.Detail)
	}
	if len(v.Anomalies) == 0 {
		cfg.printf("(no firings)\n")
	}
	cfg.printf("\n")

	cfg.printf("fault coverage:\n")
	for _, cov := range chaos.CoverFaults(v) {
		status := "UNOBSERVED"
		if cov.Covered {
			status = "covered by " + string(cov.Firing.Rule)
		}
		cfg.printf("  %-10s at %-10v -> %s\n", cov.Event.Kind, sim.Duration(cov.Event.At), status)
	}
	cfg.printf("\n")

	if !v.Passed {
		cfg.printf("PROBLEM: fault run failed its verdict\n")
		problems++
	}
	if len(v.Unexpected) > 0 {
		cfg.printf("PROBLEM: %d unexpected firings\n", len(v.Unexpected))
		problems += len(v.Unexpected)
	}
	if expected == 0 {
		cfg.printf("PROBLEM: injected faults produced no expected firings\n")
		problems++
	}

	// Control: the same workload with no faults must not wake the watchdog.
	control, err := chaos.Run(chaos.Plan{Class: "bankmap", Nodes: 5, Ops: ops, Seed: cfg.Seed}, opts)
	if err != nil {
		cfg.printf("health: control run failed: %v\n", err)
		return problems + 1
	}
	if n := len(control.Anomalies); n > 0 {
		cfg.printf("PROBLEM: fault-free control produced %d firings, first: %+v\n", n, control.Anomalies[0])
		problems += n
	} else {
		cfg.printf("control (no faults): zero firings\n")
	}
	if problems == 0 {
		cfg.printf("health: OK — %d expected firings, full fault coverage checked, control silent\n", expected)
	}
	cfg.export("health", healthSnapshot(cfg, plan, v, control))
	return problems
}

func firingKey(f health.Firing) string {
	return fmt.Sprintf("%d|%s|%s|%d", f.Node, f.Rule, f.Shard, f.At)
}

// healthSnapshot flattens the experiment into snapshot points of watchdog
// firings: one per rule on the fault run, one "unexpected" point, and one
// "control" point that must stay at zero.
func healthSnapshot(cfg Config, plan chaos.Plan, v, control *chaos.Verdict) Snapshot {
	s := Snapshot{Schema: snapshotSchema, Ops: plan.Ops, Seed: cfg.Seed}
	byRule := map[health.Rule]int{}
	for _, f := range v.Anomalies {
		byRule[f.Rule]++
	}
	add := func(class string, count int) {
		s.add("health", "watchdog", class, plan.Nodes, 0, map[string]float64{"firings": float64(count)})
	}
	for _, r := range health.Rules {
		add(string(r), byRule[r])
	}
	add("unexpected", len(v.Unexpected))
	add("control", len(control.Anomalies))
	return s
}
