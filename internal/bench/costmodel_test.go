package bench

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"hamband/internal/crdt"
	"hamband/internal/rdma"
	"hamband/internal/schema"
	"hamband/internal/sim"
	"hamband/internal/spec"
)

// TestEveryCostFieldMovesTheClock: every field of the cost model is charged
// somewhere a benchmark point reaches, so every arm of a sensitivity sweep
// over the model moves the clock. Each row runs a small point once on
// DefaultLatency and once with one field's value doubled (a rate, *PerNS,
// halved) and wants the virtual clock to read differently: the makespan, or
// the mean response time where a small price hides inside the makespan's
// 2 µs completion probe. A layer that kept a price or period of its own
// instead of reading the model's leaves its row flat. The test walks the
// struct, so a field added to the model without a row fails it.
func TestEveryCostFieldMovesTheClock(t *testing.T) {
	type point struct {
		name   string
		kind   SystemKind
		cls    func() *spec.Class
		ratio  float64
		ops    int
		faults []Fault
	}
	var (
		counter = point{"Hamband/counter", Hamband, crdt.NewCounter, 0.25, 2000, nil}
		orset   = point{"Hamband/orset", Hamband, crdt.NewORSet, 0.25, 2000, nil}
		movie   = point{"Hamband/movie", Hamband, schema.NewMovie, 1.0, 2000, nil}
		mu      = point{"Mu/counter", MuSMR, crdt.NewCounter, 0.25, 2000, nil}
		mu50    = point{"Mu/counter, 50 % updates", MuSMR, crdt.NewCounter, 0.5, 2000, nil}
		msg     = point{"MSG/counter", MSG, crdt.NewCounter, 0.25, 2000, nil}
		// Figure 13's leader fault: p0, which leads the courseware's group,
		// fails a quarter into the run, and the others elect a new leader.
		leader = point{"Hamband/courseware, leader fault", Hamband, schema.NewCourseware, 0.5, 1000,
			[]Fault{{At: faultAt(1000, fig13FaultPerOp), Node: 0}}}
		// The same fault in a run twice as long.
		leader2k = point{"Hamband/courseware, leader fault, 2000 ops", Hamband, schema.NewCourseware, 0.5, 2000,
			[]Fault{{At: faultAt(2000, fig13FaultPerOp), Node: 0}}}
	)
	// Each field's points, or why no point reaches it.
	rows := map[string]struct {
		points []point
		why    string
	}{
		"PostCost": {points: []point{counter}},
		// The counter point's summary writes post unsignaled: its only
		// completions were the detectors' heartbeat reads, which its
		// δ-records now stand in for (rdma.Node.Heard). The OR-set's
		// broadcast writes complete, are polled for, and ack their rings.
		"PollCost":    {points: []point{orset}},
		"WireLatency": {points: []point{counter}},
		"AckLatency":  {points: []point{orset}},
		"BytesPerNS":  {points: []point{orset}},
		"CASExtra":    {why: "the only CAS is a reconfiguration's epoch claim, which no point runs"},
		"FailTimeout": {why: "charged only for a verb on a crashed target"},

		"CRCBytesPerNS":   {points: []point{orset}},
		"ChainedPostCost": {points: []point{counter}}, // a summary flush chains its WRs to a peer
		// ×2 moves neither the OR-set nor the movie point. The Mu baseline's
		// rounds straddle 220 B at 50 % updates; at 25 % they stay under it
		// (199 B at most at seed 42) since its leader hands a completion's
		// decisions on as one delivery and so decides rounds sooner.
		"InlineThreshold": {points: []point{mu50}},
		// The OR-set's broadcast writes inline only on an idle node, and its
		// busy nodes post them by DMA; a Mu round inlines whatever fits.
		"InlineCost":      {points: []point{movie}},
		"InlineDMASaving": {points: []point{movie}},

		"SweepPeriod": {points: []point{orset, movie, mu}},
		"SweepCost":   {points: []point{orset, movie, mu}},
		"DeliverCost": {points: []point{orset, movie, mu}},
		"ScanPeriod":  {points: []point{counter}},

		// It moves detection only when the first check after the fault
		// comes one to two BeatPeriods after the last record of p0's a peer
		// consumed: doubled, the window takes that check for word from p0,
		// and detection comes a CheckPeriod later. At 1 000 ops (fault at
		// 40 µs) p0's last records land within one BeatPeriod of the 51.75
		// µs check, which skips its read either way; at 2 000 ops the 101.75
		// µs check comes 10–20 µs after them, and detection moves 151.75 →
		// 176.75 µs.
		"BeatPeriod": {points: []point{leader2k}},
		// A fault-free point's peers are heard from between checks and not
		// read; the fault is detected some checks after it.
		"CheckPeriod":  {points: []point{leader}},
		"SuspectAfter": {points: []point{leader}},
		"TrustAfter":   {why: "charged only when a suspected node comes back, and no point resumes one"},
		// In a fault-free run no follower falls behind. Under the leader
		// fault it paces the new leader's probes of the suspended old
		// leader's log ring, each refused (resetRing). At 1 000 ops the
		// second probe, at 233 µs, delays no call and the run ends on the
		// same 2 µs probe either way; at 2 000 ops one lands among the calls.
		"CatchUpAfter": {points: []point{leader2k}},

		"IssueCost": {points: []point{counter, msg}},
		"ApplyCost": {points: []point{orset, msg}}, // a reducible call's adoption is not priced
		"QueryCost": {points: []point{counter, msg}},
	}

	cfg := Config{Seed: 42}
	// clock reads a point's makespan and mean response time.
	type reading struct{ makespan, meanRT sim.Duration }
	clock := func(p point, lat rdma.LatencyModel) reading {
		r, _ := cfg.run(p.kind, p.cls(), 4, p.ops, p.ratio, 0, Variant{Latency: &lat}, p.faults...)
		if r.TimedOut {
			t.Fatalf("%s timed out", p.name)
		}
		return reading{r.Makespan, r.MeanRT}
	}
	base := map[string]reading{}
	seen := map[string]bool{}
	for _, f := range reflect.VisibleFields(reflect.TypeOf(rdma.LatencyModel{})) {
		if f.Anonymous {
			continue // sim.CallCosts: its fields are walked one by one
		}
		seen[f.Name] = true
		row, ok := rows[f.Name]
		if !ok {
			t.Errorf("LatencyModel.%s has no row: name a point it moves, or why none does", f.Name)
			continue
		}
		if row.why != "" {
			continue
		}
		lat := rdma.DefaultLatency()
		v := reflect.ValueOf(&lat).Elem().FieldByIndex(f.Index)
		if strings.HasSuffix(f.Name, "PerNS") {
			v.SetInt(v.Int() / 2)
		} else {
			v.SetInt(v.Int() * 2)
		}
		for _, p := range row.points {
			old, ok := base[p.name]
			if !ok {
				old = clock(p, rdma.DefaultLatency())
				base[p.name] = old
			}
			if got := clock(p, lat); got == old {
				t.Errorf("%s ×2 leaves %s's clock at makespan %v, mean RT %v", f.Name, p.name, got.makespan, got.meanRT)
			}
		}
	}
	for name := range rows {
		if !seen[name] {
			t.Errorf("row %s names no field of LatencyModel", name)
		}
	}
}

// TestExperimentEntryPointsSmoke runs the experiments no other test runs at
// a small scale, and the overview, costs, wire and shard figures as hambench
// reaches them, by name: each prints its header (the snapshot prints
// nothing), each JSON export reads back as a Snapshot with points whose
// every metric metricDefs defines, and the health run passes. A figure's
// export holds its points and its claims' misses points.
func TestExperimentEntryPointsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test is not short")
	}
	cases := []struct {
		name, header string
		run          func(Config)
		exports      bool
	}{
		{"costs", "Coordination cost per call", func(cfg Config) { cfg.Figure("costs") }, true},
		{"trace", "Call lifecycles", Config.Trace, false},
		{"overview", "Use-case overview", func(cfg Config) { cfg.Figure("overview") }, true},
		{"latency", "Latency attribution", Config.Latency, true},
		{"wire", "Wire efficiency", func(cfg Config) { cfg.Figure("wire") }, true},
		{"snapshot", "", func(cfg Config) { cfg.Snapshot() }, true},
		{"shard", "Sharded store", func(cfg Config) { cfg.Figure("shard") }, true},
		{"health", "Anomaly watchdog", func(cfg Config) {
			if n := cfg.Health(); n != 0 {
				t.Errorf("health returned %d", n)
			}
		}, true},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var out, js bytes.Buffer
			c.run(Config{Ops: 1000, Seed: 42, Out: &out, JSON: &js})
			if !strings.HasPrefix(out.String(), c.header) {
				t.Fatalf("output does not open with %q:\n%s", c.header, out.String())
			}
			if !c.exports {
				if js.Len() != 0 {
					t.Fatalf("%s wrote %d bytes of JSON it is not said to export", c.name, js.Len())
				}
				return
			}
			s, err := ReadSnapshot(&js)
			if err != nil {
				t.Fatalf("export: %v", err)
			}
			if len(s.Points) == 0 {
				t.Fatal("export holds no points")
			}
			f := figureNamed(c.name)
			for _, p := range s.Points {
				if len(p.Metrics) == 0 {
					t.Fatalf("point %s carries no metrics", p.key())
				}
				if f != nil && p.Experiment != f.name && !strings.HasPrefix(p.Experiment, f.name+"/") {
					t.Fatalf("the %s export holds point %s of another figure", c.name, p.key())
				}
				for name := range p.Metrics {
					if _, ok := metricDefs[name]; !ok {
						t.Fatalf("point %s carries undefined metric %q", p.key(), name)
					}
				}
			}
		})
	}
}

// TestSnapshotIsDeterministic: two snapshots at one (ops, seed) marshal to
// the same bytes, and so do their exports. The committed BENCH_PR<n>.json
// files and CI's benchstat lane, which regenerates one and diffs it against
// the committed one, rest on it.
func TestSnapshotIsDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("two snapshots are not short")
	}
	var runs [2][]byte
	var exports [2]bytes.Buffer
	for i := range runs {
		s := Config{Ops: 1000, Seed: 7, JSON: &exports[i]}.Snapshot()
		b, err := json.Marshal(s)
		if err != nil {
			t.Fatal(err)
		}
		runs[i] = b
	}
	if !bytes.Equal(runs[0], runs[1]) {
		t.Fatalf("two snapshots at seed 7 differ:\n%s\n%s", runs[0], runs[1])
	}
	if exports[0].Len() == 0 || !bytes.Equal(exports[0].Bytes(), exports[1].Bytes()) {
		t.Fatalf("two snapshot exports at seed 7 differ (%d and %d bytes)", exports[0].Len(), exports[1].Len())
	}
}
