package chaos

import (
	"fmt"

	"hamband/internal/health"
	"hamband/internal/sim"
)

// Fault-plan ↔ watchdog cross-check. Every chaos run carries an anomaly
// watchdog observing health snapshots on the probe cadence; at the end of
// the run each firing is classified against the injected faults. A firing
// whose rule no fault in the plan predicts is itself a violation: either
// the watchdog is miscalibrated (false positive) or the cluster misbehaved
// in a way the nemesis did not ask for. Either way the corpus should fail.

// expectedRules maps a fault plan to the set of watchdog rules its injected
// faults can legitimately trigger. The mapping is deliberately generous per
// fault kind — a suspended node lags, loses leaders, stalls epoch floors —
// because the cross-check's job is catching firings with *no* plausible
// cause, not second-guessing which symptom a fault happened to produce.
func expectedRules(p Plan) map[health.Rule]bool {
	exp := make(map[health.Rule]bool)
	for _, e := range p.Events {
		for _, r := range kindRules(e.Kind) {
			exp[r] = true
		}
	}
	return exp
}

// kindRules returns the watchdog rules one fault kind can trigger. Healing
// kinds (resume, heal, tornheal) predict nothing on their own; budget-low
// is never expected — no chaos fault exhausts an arena, so a budget firing
// always means real misbehavior.
func kindRules(k Kind) []health.Rule {
	switch k {
	case KindSuspend, KindCrash, KindLeaderKill:
		// A stopped process falls behind, abandons its groups, leaves its
		// inbound rings un-drained (parking floors), and — once suspected —
		// stops absorbing its share of a sharded workload.
		return []health.Rule{
			health.RuleWatermarkLag, health.RuleLeaderless,
			health.RuleFloorStalled, health.RuleReaderParked, health.RuleHotShard,
		}
	case KindPartition, KindDelay:
		// Severed or slowed links delay replication and heartbeats: lag,
		// suspected leaders, floors waiting on drains that never come.
		return []health.Rule{
			health.RuleWatermarkLag, health.RuleLeaderless,
			health.RuleFloorStalled, health.RuleHotShard,
		}
	case KindTorn:
		// Torn writes quarantine readers (a CRC park, lifted once the torn
		// record validates) and stall the victim's apply stream.
		return []health.Rule{
			health.RuleReaderParked, health.RuleWatermarkLag, health.RuleHotShard,
		}
	case KindLeave, KindJoin:
		// Reconfiguration revokes epochs (parking floors until the drain
		// proof lands) and re-elects groups under the new membership.
		return []health.Rule{
			health.RuleFloorStalled, health.RuleLeaderless,
			health.RuleWatermarkLag, health.RuleHotShard,
		}
	}
	return nil
}

// classifyFirings splits the watchdog's firings into expected (predicted by
// some injected fault) and unexpected, recording both on the verdict and
// raising one "watchdog" violation per unexpected firing.
func classifyFirings(v *Verdict, wd *health.Watchdog, violate func(probe, detail string)) {
	exp := expectedRules(v.Plan)
	v.Anomalies = wd.Firings()
	for _, f := range v.Anomalies {
		if exp[f.Rule] {
			continue
		}
		v.Unexpected = append(v.Unexpected, f)
		violate("watchdog", firingDetail(f))
	}
}

func firingDetail(f health.Firing) string {
	where := ""
	if f.Shard != "" {
		where = " shard " + f.Shard
	}
	return fmt.Sprintf("unexpected %s firing at %v on n%d%s: %s",
		f.Rule, sim.Duration(f.At), f.Node, where, f.Detail)
}

// FaultCoverage reports, per fault event in the plan, whether some firing
// of a rule that fault predicts occurred at or after the fault's injection
// time. The health experiment uses it to show each injected fault was
// observed — a coverage table, not a pass/fail gate, since a brief fault
// can legitimately stay under every threshold.
type FaultCoverage struct {
	Event   Event          `json:"event"`
	Covered bool           `json:"covered"`
	Rules   []health.Rule  `json:"rules"` // rules this fault predicts
	Firing  *health.Firing `json:"firing,omitempty"`
}

// CoverFaults computes the coverage table for a verdict's anomalies.
func CoverFaults(v *Verdict) []FaultCoverage {
	var out []FaultCoverage
	for _, e := range v.Plan.Events {
		rules := kindRules(e.Kind)
		if len(rules) == 0 {
			continue // healing events predict nothing
		}
		cov := FaultCoverage{Event: e, Rules: rules}
		for i := range v.Anomalies {
			f := &v.Anomalies[i]
			if f.At < e.At {
				continue
			}
			for _, r := range rules {
				if f.Rule == r {
					cov.Covered = true
					cov.Firing = f
					break
				}
			}
			if cov.Covered {
				break
			}
		}
		out = append(out, cov)
	}
	return out
}
