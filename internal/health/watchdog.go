package health

import (
	"fmt"

	"hamband/internal/metrics"
	"hamband/internal/sim"
	"hamband/internal/trace"
)

// Rule names one anomaly detector the watchdog evaluates per snapshot.
type Rule string

// The six watchdog rules. Units of Value/Threshold per rule: observations
// (probe periods) for reader-parked, floor-stalled and leaderless; applied
// calls for watermark-lag; percent for hot-shard and budget-low.
const (
	// RuleReaderParked fires when an inbound ring reader has been parked
	// (CRC quarantine, lifted on the poll the record validates) for
	// parkedPolls consecutive observations.
	RuleReaderParked Rule = "reader-parked"

	// RuleFloorStalled fires when a per-source epoch floor has sat parked
	// for floorStallPolls consecutive observations: a ring floor
	// (FloorAfterDrain issued, drain never observed) or a summary-slot floor
	// (raised after drain, no clean scan pass yet), each under its own key —
	// the source drained long ago or something keeps the promotion from
	// ever happening.
	RuleFloorStalled Rule = "floor-stalled"

	// RuleLeaderless fires when a node observes one of its groups without
	// an effective leader — electing, recovering, or led by a peer the
	// node's own detector suspects — for leaderlessPolls observations.
	RuleLeaderless Rule = "leaderless"

	// RuleHotShard fires when one shard holds more than hotShardPct
	// percent of all issued ops (with at least HotShardMinOps total).
	RuleHotShard Rule = "hot-shard"

	// RuleBudgetLow fires when a node's arena headroom *falls* below
	// budgetHeadroomPct percent of its size after having been above it: a
	// store that pre-commits its whole budget at admission (the chaos
	// runner's exact sizing) sits at 0% headroom as its healthy steady
	// state and never trips the rule.
	RuleBudgetLow Rule = "budget-low"

	// RuleWatermarkLag fires when a node's applied watermark sits at least
	// lagFloor calls behind the cluster maximum, has not shrunk for
	// lagPolls consecutive observations, and has grown on net over that
	// window — the signature of a replica no longer keeping up rather than
	// ordinary in-flight jitter. (Non-decreasing rather than strictly
	// increasing per observation: a probe cadence finer than the issue
	// cadence legitimately sees flat windows mid-decline.)
	RuleWatermarkLag Rule = "watermark-lag"
)

// Rules lists every watchdog rule, in evaluation order.
var Rules = []Rule{
	RuleReaderParked, RuleFloorStalled, RuleLeaderless,
	RuleHotShard, RuleBudgetLow, RuleWatermarkLag,
}

// The rules' thresholds, suited to the chaos runner's 100µs probe period.
const (
	parkedPolls     = 2 // reader-parked: consecutive observations
	floorStallPolls = 5 // floor-stalled: consecutive observations
	leaderlessPolls = 3 // leaderless: consecutive observations

	lagPolls = 4  // watermark-lag: consecutive growth observations
	lagFloor = 64 // watermark-lag: minimum lag in applied calls

	hotShardPct       = 80 // hot-shard: percent of total ops
	budgetHeadroomPct = 10 // budget-low: percent of arena size
)

// Config parameterizes the watchdog. The zero value gets defaults.
type Config struct {
	HotShardMinOps int // hot-shard: minimum total ops before the rule arms (default 500)

	// Tracer, when non-nil, receives one trace.Health event per firing.
	Tracer *trace.Tracer

	// Metrics, when non-nil, counts firings under "health.firings".
	Metrics *metrics.Registry

	// OnFirstFiring, when non-nil, runs once — at the watchdog's first
	// firing ever — before the firing is recorded. The chaos runner hooks
	// the flight-recorder dump here.
	OnFirstFiring func(Firing)
}

func (c Config) withDefaults() Config {
	if c.HotShardMinOps <= 0 {
		c.HotShardMinOps = 500
	}
	return c
}

// Firing is one anomaly detection: a rule crossing its threshold for a
// node (and shard, in sharded runs).
type Firing struct {
	At        sim.Time `json:"at"`
	Rule      Rule     `json:"rule"`
	Node      int      `json:"node"`
	Shard     string   `json:"shard,omitempty"`
	Detail    string   `json:"detail"`
	Value     int64    `json:"value"`
	Threshold int64    `json:"threshold"`
}

// Watchdog evaluates the anomaly rules over a stream of snapshots. Purely
// computational: Observe schedules nothing and charges no virtual time, so
// attaching a watchdog never perturbs the observed system. Episode
// semantics: each (rule, node, shard, source/group) condition fires once
// when it crosses its threshold and re-arms only after the condition
// clears.
type Watchdog struct {
	cfg      Config
	firings  []Firing
	streak   map[string]int    // consecutive observations per condition key
	active   map[string]bool   // episodes already fired, awaiting clear
	armed    map[string]bool   // budget-low: headroom once observed healthy
	lastLag  map[string]uint64 // watermark-lag: last observed lag per node key
	lagBase  map[string]uint64 // watermark-lag: lag at the current streak's start
	lagGrow  map[string]int    // watermark-lag: consecutive non-shrinking count
	mFirings *metrics.Counter
}

// NewWatchdog returns a watchdog with cfg (zero fields defaulted).
func NewWatchdog(cfg Config) *Watchdog {
	cfg = cfg.withDefaults()
	return &Watchdog{
		cfg:      cfg,
		streak:   make(map[string]int),
		active:   make(map[string]bool),
		armed:    make(map[string]bool),
		lastLag:  make(map[string]uint64),
		lagBase:  make(map[string]uint64),
		lagGrow:  make(map[string]int),
		mFirings: cfg.Metrics.Counter("health.firings"),
	}
}

// Firings returns every firing so far, in detection order.
func (w *Watchdog) Firings() []Firing { return append([]Firing(nil), w.firings...) }

// Observe evaluates every rule against one snapshot. Call it at a fixed
// cadence (the chaos runner uses its probe ticker); the consecutive-
// observation thresholds are denominated in that cadence.
func (w *Watchdog) Observe(s *Snapshot) {
	for i := range s.Nodes {
		w.observeNode(s.At, "", &s.Nodes[i])
	}
	for i := range s.Shards {
		sh := &s.Shards[i]
		for j := range sh.Nodes {
			w.observeNode(s.At, sh.Key, &sh.Nodes[j])
		}
	}
	w.observeLag(s)
	w.observeHotShard(s)
	w.observeBudget(s)
}

// observeNode evaluates the per-node rules: reader-parked, floor-stalled,
// leaderless.
func (w *Watchdog) observeNode(at sim.Time, shard string, n *NodeHealth) {
	for _, r := range n.Rings {
		key := fmt.Sprintf("parked/%s/n%d/src%d", shard, n.Node, r.Src)
		w.track(key, r.Parked, parkedPolls, func(obs int) Firing {
			return Firing{
				At: at, Rule: RuleReaderParked, Node: n.Node, Shard: shard,
				Value: int64(obs), Threshold: int64(parkedPolls),
				Detail: fmt.Sprintf("ring from src %d parked for %d observations: %s", r.Src, obs, r.ParkedWhy),
			}
		})

		key = fmt.Sprintf("floor/%s/n%d/src%d", shard, n.Node, r.Src)
		w.track(key, r.HasPending, floorStallPolls, func(obs int) Firing {
			return Firing{
				At: at, Rule: RuleFloorStalled, Node: n.Node, Shard: shard,
				Value: int64(obs), Threshold: int64(floorStallPolls),
				Detail: fmt.Sprintf("epoch floor %d for src %d parked %d observations without a drain", r.PendingMin, r.Src, obs),
			}
		})
	}
	for src, f := range n.Floors {
		key := fmt.Sprintf("slotfloor/%s/n%d/src%d", shard, n.Node, src)
		w.track(key, f.Pending() != 0, floorStallPolls, func(obs int) Firing {
			return Firing{
				At: at, Rule: RuleFloorStalled, Node: n.Node, Shard: shard,
				Value: int64(obs), Threshold: int64(floorStallPolls),
				Detail: fmt.Sprintf("slot epoch floor %d for src %d parked %d observations without a clean scan", f.Pending(), src, obs),
			}
		})
	}
	for _, g := range n.Groups {
		g := g
		key := fmt.Sprintf("leader/%s/n%d/g%d", shard, n.Node, g.Group)
		unhealthy := g.Electing || g.Recovering || g.LeaderSuspect
		w.track(key, unhealthy, leaderlessPolls, func(obs int) Firing {
			why := "electing"
			switch {
			case g.Recovering:
				why = "recovering"
			case g.LeaderSuspect:
				why = fmt.Sprintf("leader n%d suspected", g.Leader)
			}
			return Firing{
				At: at, Rule: RuleLeaderless, Node: n.Node, Shard: shard,
				Value: int64(obs), Threshold: int64(leaderlessPolls),
				Detail: fmt.Sprintf("group %d without an effective leader for %d observations (%s)", g.Group, obs, why),
			}
		})
	}
}

// observeLag evaluates watermark-lag per scope: the whole cluster for
// single-object snapshots, each shard separately for sharded ones.
func (w *Watchdog) observeLag(s *Snapshot) {
	if len(s.Shards) == 0 {
		w.lagScope(s.At, "", s.Nodes)
		return
	}
	for i := range s.Shards {
		w.lagScope(s.At, s.Shards[i].Key, s.Shards[i].Nodes)
	}
}

func (w *Watchdog) lagScope(at sim.Time, shard string, nodes []NodeHealth) {
	if len(nodes) == 0 {
		return
	}
	var max uint64
	for i := range nodes {
		if a := nodes[i].Applied; a > max {
			max = a
		}
	}
	for i := range nodes {
		n := &nodes[i]
		key := fmt.Sprintf("lag/%s/n%d", shard, n.Node)
		fkey := "lagfire/" + key
		lag := max - n.Applied
		last := w.lastLag[key]
		w.lastLag[key] = lag
		if lag < lagFloor || lag < last {
			// Below the floor or shrinking: the replica is keeping up (or
			// catching up), so the streak, its baseline, and any fired
			// episode all reset.
			w.lagGrow[key] = 0
			w.lagBase[key] = lag
			w.clear(fkey)
			continue
		}
		if w.lagGrow[key] == 0 {
			w.lagBase[key] = lag
		}
		w.lagGrow[key]++
		if w.lagGrow[key] >= lagPolls && lag > w.lagBase[key] && !w.active[fkey] {
			w.active[fkey] = true
			w.fire(Firing{
				At: at, Rule: RuleWatermarkLag, Node: n.Node, Shard: shard,
				Value: int64(lag), Threshold: int64(lagFloor),
				Detail: fmt.Sprintf("applied watermark %d behind cluster max and growing across %d observations", lag, w.lagGrow[key]),
			})
		}
	}
}

// observeHotShard evaluates the issued-op share of every shard.
func (w *Watchdog) observeHotShard(s *Snapshot) {
	if len(s.Shards) < 2 {
		return
	}
	var total uint64
	for i := range s.Shards {
		total += s.Shards[i].Ops
	}
	if total < uint64(w.cfg.HotShardMinOps) {
		return
	}
	for i := range s.Shards {
		sh := &s.Shards[i]
		share := int(sh.Ops * 100 / total)
		key := "hot/" + sh.Key
		if share <= hotShardPct {
			w.clear(key)
			continue
		}
		if w.active[key] {
			continue
		}
		w.active[key] = true
		w.fire(Firing{
			At: s.At, Rule: RuleHotShard, Node: -1, Shard: sh.Key,
			Value: int64(share), Threshold: int64(hotShardPct),
			Detail: fmt.Sprintf("shard %q holds %d%% of %d issued ops", sh.Key, share, total),
		})
	}
}

// observeBudget evaluates arena headroom per node. Baseline-aware: the
// rule arms only once a node's headroom has been observed at or above the
// threshold, so arenas fully committed from their first snapshot (exact
// admission) are steady-state, not anomalies.
func (w *Watchdog) observeBudget(s *Snapshot) {
	for _, a := range s.Arenas {
		if a.Size == 0 {
			continue
		}
		headroom := a.Available * 100 / a.Size
		key := fmt.Sprintf("budget/n%d", a.Node)
		if headroom >= budgetHeadroomPct {
			w.armed[key] = true
			w.clear(key)
			continue
		}
		if !w.armed[key] {
			continue
		}
		if w.active[key] {
			continue
		}
		w.active[key] = true
		w.fire(Firing{
			At: s.At, Rule: RuleBudgetLow, Node: a.Node,
			Value: int64(headroom), Threshold: int64(budgetHeadroomPct),
			Detail: fmt.Sprintf("arena headroom %d%% (%d of %d bytes free, largest extent %d)", headroom, a.Available, a.Size, a.Largest),
		})
	}
}

// track advances one boolean condition's consecutive-observation streak,
// firing build(streak) when the streak reaches limit for the first time in
// an episode and re-arming when the condition clears.
func (w *Watchdog) track(key string, cond bool, limit int, build func(obs int) Firing) {
	if !cond {
		w.streak[key] = 0
		w.clear(key)
		return
	}
	w.streak[key]++
	if w.streak[key] < limit || w.active[key] {
		return
	}
	w.active[key] = true
	w.fire(build(w.streak[key]))
}

// clear re-arms an episode whose condition no longer holds.
func (w *Watchdog) clear(key string) {
	if w.active[key] {
		delete(w.active, key)
	}
}

// fire records one firing: the first-firing hook (flight-recorder dump),
// the metrics counter, the structured trace event, and the firing list.
func (w *Watchdog) fire(f Firing) {
	if len(w.firings) == 0 && w.cfg.OnFirstFiring != nil {
		w.cfg.OnFirstFiring(f)
	}
	w.firings = append(w.firings, f)
	w.mFirings.Inc()
	node := f.Node
	if node < 0 {
		node = 0
	}
	w.cfg.Tracer.RecordData(node, trace.Health, "", f.Detail, trace.HealthEvent{
		Rule: string(f.Rule), Node: f.Node, Shard: f.Shard,
		Value: f.Value, Threshold: f.Threshold,
	})
}
