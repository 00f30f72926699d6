package bench

import (
	"fmt"
	"io"
	"maps"
	"slices"
	"sort"
	"strings"

	"hamband/internal/core"
	"hamband/internal/crdt"
	"hamband/internal/rdma"
	"hamband/internal/schema"
	"hamband/internal/sim"
	"hamband/internal/span"
	"hamband/internal/spec"
	"hamband/internal/trace"
)

// A figure is one figure of the paper's evaluation, or one study beyond it
// (the use-case overview, the ablations, the coordination costs, the wire
// and the sharded store), written once: its panels and the claims about
// them. hambench's figure modes, the snapshot, the testing.B benchmarks and
// EXPERIMENTS.md's generated tables all read the table below. Its headline
// runs (see headline) also record baseline, the metrics the committed
// baseline gated there before the figures were a table.
type figure struct {
	name     string // the -exp selector and its points' experiment prefix
	panels   []panel
	claims   []claim
	baseline []string
}

// A panel runs each class × update ratio × node count × op scale × variant ×
// fault scenario × system once. Its table plots its metrics per run and,
// under its methods heading, each method's mean response time.
type panel struct {
	title, methods, suffix string // headings ("": no such table); experiment suffix
	depth                  int    // closed-loop depth; 1 measures unloaded response time
	mix                    bool   // label each class with its method-category mix
	plots                  []string
	systems                []SystemKind
	classes                []func() *spec.Class
	ratios                 []float64
	nodes                  []int
	scales                 []float64        // op count multiples; nil: {1}
	variants               []variant        // nil: the default deployment
	faults                 []scenario       // nil: one fault-free run
	ops                    func(Config) int // nil: Config.Ops, or rtOps at depth 1
	shards                 int              // > 0: each class as that many shards of a store, class "<name>-x<shards>"
}

// A variant is a deployment a panel compares with others: a Variant, for
// the depth sweep a closed-loop depth (0: the panel's) and, for a store, its
// key distribution (0 uniform, above 1 Zipf with that exponent).
type variant struct {
	name  string
	v     Variant
	depth int
	skew  float64
}

// A scenario suspends node at faultAt(ops, perOp); perOp 0 is no fault.
// With instants > 1 its point is the median of that many runs, the fault
// instants spread evenly over one CheckPeriod from faultAt: where the
// detector's check falls against the fault moves a run's numbers by more
// than their bounds.
type scenario struct {
	name     string
	node     spec.ProcID
	perOp    sim.Duration
	instants int
}

// A claim is one of the paper's claims as a predicate over a panel's points
// (its per-method points, with methods), its threshold written once. Each
// point pick selects is divided by its comparand vs(c), and a ratio outside
// [lo, hi] (hi 0: no bound) is a miss. Without vs, the largest value pick
// selects is checked, once. Its misses point is <figure>/claim/<id>; col
// names its ratio. A claim whose paper string states a magnitude writes it
// as a number too: at, or the band at–to. Its misses point then carries
// paper_ratio, the measured value (the mean ratio; without vs, the largest
// value) over at, or over the band's nearer end (1 inside it).
type claim struct {
	id, col, what, paper string
	at, to               float64
	pan                  int
	methods              bool
	pick                 func(cell) bool
	vs                   func(cell) cell
	lo, hi               float64
}

var (
	paperRatios  = []float64{0.25, 0.15, 0.05}
	threeSystems = []SystemKind{Hamband, MSG, MuSMR}
	vsMu         = []SystemKind{Hamband, MuSMR}
	hamband      = []SystemKind{Hamband}
	four         = []int{4}
	throughput   = []string{"ops_per_us"}
	meanRT       = []string{"mean_rt_us"}
	tails        = []string{"mean_rt_us", "p50_us", "p95_us", "p99_us"}
	oneLeader    = variant{name: "one-leader", v: Variant{Edit: func(_ *rdma.Fabric, o *core.Options) {
		o.Leaders = []spec.ProcID{0, 0} // both groups on one node
	}}}
	depths = []variant{{name: "depth-1", depth: 1}, {name: "depth-4", depth: 4}, {name: "depth-8", depth: 8}, {name: "depth-16", depth: 16}, {name: "depth-32", depth: 32}}
	posts  = []variant{{name: "inline"}, latencyVariant("dma", func(l *rdma.LatencyModel) { l.InlineThreshold, l.InlineCost = 0, 0 })}
	// traced attaches a tracer, for the wire stage's share; timing is as without.
	traced = variant{v: Variant{Edit: func(fab *rdma.Fabric, o *core.Options) { o.Tracer = trace.New(fab.Engine(), 1<<20) }}}
	verbs  = []string{"writes_per_op", "reads_per_op", "doorbells_per_op", "bytes_per_op"}
)

func quarter(cfg Config) int { return max(cfg.Ops/4, 500) }

// latencyVariant is the default cost model, edited.
func latencyVariant(name string, edit func(*rdma.LatencyModel)) variant {
	lat := rdma.DefaultLatency()
	edit(&lat)
	return variant{name: name, v: Variant{Latency: &lat}}
}

// scans are the dependency-gating ablation's summary-scan periods.
func scans(periods ...sim.Duration) (vs []variant) {
	for _, d := range periods {
		vs = append(vs, latencyVariant(fmt.Sprintf("scan-%dus", d/sim.Microsecond), func(l *rdma.LatencyModel) { l.ScanPeriod = d }))
	}
	return vs
}

// skews are the sharded store's key distributions.
func skews(ss ...float64) (vs []variant) {
	for _, s := range ss {
		name := "uniform"
		if s > 0 {
			name = fmt.Sprintf("zipf%.1f", s)
		}
		vs = append(vs, variant{name: name, skew: s})
	}
	return vs
}

// storePanel is the sharded store at n counter shards: throughput, verbs and
// response times by key distribution, four calls outstanding per node.
func storePanel(n int) panel {
	return panel{title: fmt.Sprintf("Sharded store — keyed counter workload over %d shards, Hamband, 4 nodes, updates only, depth 4", n),
		shards: n, depth: 4, plots: slices.Concat(throughput, []string{"writes_per_op", "doorbells_per_op"}, tails),
		systems: hamband, classes: classes(crdt.NewCounter), ratios: []float64{1}, nodes: four, variants: skews(0, 1.1, 1.5, 2.5)}
}

// bundled lists a constructor per bundled class, for the use-case overview.
func bundled() (mks []func() *spec.Class) {
	for i := range schema.Bundled() {
		mks = append(mks, func() *spec.Class { return schema.Bundled()[i] })
	}
	return mks
}

func isSys(k SystemKind) func(cell) bool                    { return func(c cell) bool { return c.sys == k } }
func toSys(k SystemKind) func(cell) cell                    { return func(c cell) cell { c.sys = k; return c } }
func isScen(name string) func(cell) bool                    { return func(c cell) bool { return c.scen.name == name } }
func toScen(name string) func(cell) cell                    { return func(c cell) cell { c.scen.name = name; return c } }
func toVar(v variant) func(cell) cell                       { return func(c cell) cell { c.vari = v; return c } }
func classes(mk ...func() *spec.Class) []func() *spec.Class { return mk }

// sweep is the shape of Figures 8 and 9: throughput over classes × update
// ratios × 3–7 nodes on all three systems, then unloaded response time.
func sweep(name, what string, cls []func() *spec.Class, claims ...claim) figure {
	n := "Figure " + strings.TrimPrefix(name, "fig")
	return figure{name: name, baseline: tails, claims: claims, panels: []panel{
		{title: n + "(a) — throughput (ops/µs), " + what, plots: throughput, systems: threeSystems, classes: cls, ratios: paperRatios, nodes: []int{3, 4, 5, 6, 7}},
		{title: n + "(b) — mean response time (µs, unloaded), 4 nodes", suffix: "/rt", depth: 1, plots: meanRT, systems: threeSystems, classes: cls, ratios: paperRatios, nodes: four},
	}}
}

// The per-operation fault times, each about a quarter into its fault-free
// run at the default point (seed 42): Figure 12's loaded runs (20 000
// operations in 1.11–1.49 ms), its unloaded response-time runs (2 000 in
// 112–226 µs), and Figure 13's courseware runs (1 000 in 158 µs).
const (
	fig12FaultPerOp   = 15 * sim.Nanosecond
	fig12RTFaultPerOp = 20 * sim.Nanosecond
	fig13FaultPerOp   = 40 * sim.Nanosecond
)

// paper is the figure table. Its figure names, panel suffixes, scenario
// names, methods and claim ids make up the points' experiments, so renaming
// one renames points of the committed baseline.
var paper = []figure{
	sweep("fig8", "reducible methods", classes(crdt.NewCounter, crdt.NewLWW, crdt.NewGSet),
		claim{id: "grows-with-nodes", col: "7/3 nodes", what: "Hamband grows with node count", paper: "grows", lo: 1,
			pick: func(c cell) bool { return c.sys == Hamband && c.nodes == 7 }, vs: func(c cell) cell { c.nodes = 3; return c }},
		claim{id: "grows-as-updates-fall", col: "5%/25%", what: "Hamband grows as updates fall", paper: "grows", lo: 1,
			pick: func(c cell) bool { return c.sys == Hamband && c.ratio == 0.05 }, vs: func(c cell) cell { c.ratio = 0.25; return c }},
		claim{id: "peak", what: "Hamband's peak throughput (ops/µs)", paper: "up to 25", at: 25, pick: isSys(Hamband), lo: 25},
		claim{id: "vs-msg", col: "H/MSG", what: "Hamband above MSG", paper: "18.4× on average", at: 18.4, pick: isSys(Hamband), vs: toSys(MSG), lo: 1},
		claim{id: "vs-mu", col: "H/Mu", what: "Hamband above Mu", paper: "4.1× on average", at: 4.1, pick: isSys(Hamband), vs: toSys(MuSMR), lo: 1},
		claim{id: "rt-vs-msg", pan: 1, col: "MSG/H", what: "Hamband's RT below MSG's", paper: "21× lower", at: 21, pick: isSys(MSG), vs: toSys(Hamband), lo: 1},
		claim{id: "rt-vs-mu", pan: 1, col: "H/Mu", what: "Hamband's RT at most Mu's", paper: "≈ Mu", at: 1, pick: isSys(Hamband), vs: toSys(MuSMR), hi: 1}),
	sweep("fig9", "irreducible conflict-free methods", classes(crdt.NewORSet, crdt.NewGSetBuffered, crdt.NewCart),
		claim{id: "peak", what: "Hamband's peak throughput (ops/µs)", paper: "up to 23", at: 23, pick: isSys(Hamband), lo: 23},
		claim{id: "vs-msg", col: "H/MSG", what: "Hamband above MSG", paper: "17× on average", at: 17, pick: isSys(Hamband), vs: toSys(MSG), lo: 1},
		claim{id: "vs-mu", col: "H/Mu", what: "Hamband above Mu", paper: "3× on average", at: 3, pick: isSys(Hamband), vs: toSys(MuSMR), lo: 1},
		claim{id: "rt-vs-msg", pan: 1, col: "MSG/H", what: "Hamband's RT below MSG's", paper: "24.3× lower", at: 24.3, pick: isSys(MSG), vs: toSys(Hamband), lo: 1}),
	{name: "fig10", baseline: tails, panels: []panel{
		{title: "Figure 10(a) — throughput (ops/µs), movie schema, 4 nodes, all updates", plots: throughput,
			systems: vsMu, classes: classes(schema.NewMovie), ratios: []float64{1}, nodes: four, scales: []float64{0.5, 1, 2}},
		{title: "Figure 10(b) — mean response time (µs, unloaded)", suffix: "/rt", depth: 1, plots: meanRT,
			systems: vsMu, classes: classes(schema.NewMovie), ratios: []float64{1}, nodes: four},
	}, claims: []claim{
		{id: "vs-mu", col: "H/Mu", what: "two leaders above one", paper: "1.4×–1.8× (2× at most)", at: 1.4, to: 1.8, pick: isSys(Hamband), vs: toSys(MuSMR), lo: 1},
		{id: "flat-in-ops", col: "ops/middle", what: "throughput flat in the op count", paper: "invariant", at: 1, lo: 0.95, hi: 1.05,
			pick: func(c cell) bool { return c.scale != 1 }, vs: func(c cell) cell { c.scale = 1; return c }},
		{id: "rt-vs-mu", pan: 1, col: "H/Mu", what: "response times alike", paper: "difference negligible", at: 1, pick: isSys(Hamband), vs: toSys(MuSMR), lo: 0.9, hi: 1.1},
	}},
	{name: "fig11", panels: []panel{
		{title: "Figure 11(a) — throughput (ops/µs), project management, 4 nodes", plots: throughput,
			systems: vsMu, classes: classes(schema.NewProjectManagement), ratios: []float64{0.5, 0.25, 0.10}, nodes: four},
		{methods: "Figure 11(b) — mean response time per method (µs, unloaded), 50 % updates", suffix: "/rt", depth: 1,
			systems: hamband, classes: classes(schema.NewProjectManagement), ratios: []float64{0.5}, nodes: four},
	}, claims: []claim{
		{id: "vs-mu", col: "H/Mu", what: "Hamband above Mu", paper: "up to 1.21×", at: 1.21, pick: isSys(Hamband), vs: toSys(MuSMR), lo: 1},
	}},
	{name: "fig12", panels: []panel{
		{title: "Figure 12(a) — throughput (ops/µs), follower p3 failing, 4 nodes", plots: throughput,
			systems: hamband, classes: classes(crdt.NewCounter, crdt.NewORSet), ratios: paperRatios, nodes: four,
			faults: []scenario{{name: "normal"}, {"follower", 3, fig12FaultPerOp, 1}}},
		{title: "Figure 12(b) — mean response time (µs, unloaded), follower p3 failing", suffix: "/rt", depth: 1, plots: meanRT,
			systems: hamband, classes: classes(crdt.NewCounter, crdt.NewORSet), ratios: paperRatios, nodes: four,
			faults: []scenario{{name: "normal"}, {"follower", 3, fig12RTFaultPerOp, 1}}},
	}, claims: []claim{
		{id: "throughput", col: "failed/normal", what: "throughput keeps the three survivors' share", paper: "−5 %", at: 0.95, pick: isScen("follower"), vs: toScen("normal"), lo: 0.75},
		{id: "rt", pan: 1, col: "failed/normal", what: "response time rises by at most half", paper: "+15 % / +5 %", at: 1.05, to: 1.15, pick: isScen("follower"), vs: toScen("normal"), hi: 1.5},
	}},
	{name: "fig13", baseline: append(slices.Clip(tails), "bytes_per_op"), panels: []panel{
		{title: "Figure 13(a) — throughput (ops/µs), courseware, 4 nodes, 50 % updates, ops/20 (at least 1 000); a failure's point is the median over 8 fault instants spread over one CheckPeriod", plots: throughput,
			methods: "Figure 13(b) — mean response time per method (µs), medians as in (a)",
			systems: hamband, classes: classes(schema.NewCourseware), ratios: []float64{0.5}, nodes: four,
			faults: []scenario{{name: "normal"}, {"follower", 3, fig13FaultPerOp, 8}, {"leader", 0, fig13FaultPerOp, 8}},
			ops:    func(cfg Config) int { return max(cfg.Ops/20, 1000) }},
	}, claims: []claim{
		{id: "follower", col: "follower/normal", what: "a follower failing keeps the survivors' share", paper: "−6 %", at: 0.94, pick: isScen("follower"), vs: toScen("normal"), lo: 0.75},
		// The paper's −53 % and −6 % are each against the fault-free run: a
		// leader's failure over a follower's is 0.47 ÷ 0.94.
		{id: "leader", col: "leader/follower", what: "a leader failing costs more than a follower", paper: "−53 %", at: 0.5, pick: isScen("leader"), vs: toScen("follower"), hi: 1},
		{id: "free-rt", methods: true, col: "leader/normal", what: "conflict-free registerStudent barely slows on leader failure", paper: "unchanged", at: 1, hi: 1.5,
			pick: func(c cell) bool { return c.scen.name == "leader" && c.method == "registerStudent" }, vs: toScen("normal")},
		{id: "conflicting-rt", methods: true, col: "leader/normal", what: "conflicting addCourse, deleteCourse, enroll slow down", paper: "≈ 2×", at: 2, lo: 1.5,
			pick: func(c cell) bool {
				return c.scen.name == "leader" && slices.Contains([]string{"addCourse", "deleteCourse", "enroll"}, c.method)
			}, vs: toScen("normal")},
	}},
	{name: "overview", panels: []panel{
		{title: "Use-case overview — throughput (ops/µs), Hamband, 4 nodes, 25 % updates, ops/2", mix: true, plots: throughput,
			systems: hamband, classes: bundled(), ratios: []float64{0.25}, nodes: four, ops: func(cfg Config) int { return cfg.Ops / 2 }},
		{title: "Use-case overview — response time (µs, unloaded)", suffix: "/rt", depth: 1, plots: []string{"mean_rt_us", "p99_us"},
			systems: hamband, classes: bundled(), ratios: []float64{0.25}, nodes: four},
	}},
	{name: "ablations", panels: []panel{
		{title: "Ablation — summarization: G-set summarized (gset) vs buffered (gset-buffered), throughput (ops/µs), Hamband, 25 % updates",
			suffix: "/summarization", plots: throughput, systems: hamband, classes: classes(crdt.NewGSet, crdt.NewGSetBuffered), ratios: []float64{0.25}, nodes: []int{3, 5, 7}},
		{title: "Ablation — synchronization groups: movie with two leaders vs one, throughput (ops/µs), Hamband, 4 nodes, all updates",
			suffix: "/groups", plots: throughput, systems: hamband, classes: classes(schema.NewMovie), ratios: []float64{1}, nodes: four,
			variants: []variant{{name: "two-leaders"}, oneLeader}},
		{methods: "Ablation — dependency gating: project management's mean response time per method (µs, unloaded) by summary-scan period, Hamband, 4 nodes, 50 % updates",
			suffix: "/gating", depth: 1, systems: hamband, classes: classes(schema.NewProjectManagement), ratios: []float64{0.5}, nodes: four,
			variants: scans(2*sim.Microsecond, 50*sim.Microsecond, 200*sim.Microsecond)},
		{title: "Ablation — closed-loop depth: counter, Hamband, 4 nodes, 25 % updates", suffix: "/depth", plots: []string{"ops_per_us", "mean_rt_us"},
			systems: hamband, classes: classes(crdt.NewCounter), ratios: []float64{0.25}, nodes: four, variants: depths},
		{title: "Ablation — inline against DMA posts: counter and orset, Hamband, 4 nodes, 25 % updates", suffix: "/inline", plots: []string{"ops_per_us", "p99_us"},
			systems: hamband, classes: classes(crdt.NewCounter, crdt.NewORSet), ratios: []float64{0.25}, nodes: four, variants: posts},
		{title: "Ablation — inline against DMA posts: movie, Hamband, 4 nodes, all updates", suffix: "/inline", plots: []string{"ops_per_us", "p99_us"},
			systems: hamband, classes: classes(schema.NewMovie), ratios: []float64{1}, nodes: four, variants: posts},
	}, claims: []claim{
		{id: "summarization", col: "gset/buffered", what: "a summarized G-set above a buffered one", paper: "summaries pay", lo: 1,
			pick: func(c cell) bool { return c.class == "gset" }, vs: func(c cell) cell { c.class = "gset-buffered"; return c }},
		{id: "groups", pan: 1, col: "two/one", what: "two leaders above one", paper: "a leader per group pays", lo: 1,
			pick: func(c cell) bool { return c.vari.name == "two-leaders" }, vs: toVar(oneLeader)},
		{id: "depth", pan: 3, col: "d/1", what: "throughput at depth d at least depth 1's", paper: "load lifts throughput", lo: 1,
			pick: func(c cell) bool { return c.vari.depth > 1 }, vs: toVar(depths[0])},
	}},
	{name: "costs", panels: []panel{
		{title: "Coordination cost per call — verbs, doorbells and bytes the cluster spent per call, Hamband, 4 nodes, updates only, ops/4 (at least 500)",
			mix: true, plots: verbs, systems: hamband, classes: classes(crdt.NewCounter, crdt.NewORSet, schema.NewMovie), ratios: []float64{1}, nodes: four, ops: quarter},
		{title: "Coordination cost per call — messages the MSG baseline sent per call", suffix: "/msg", plots: []string{"msgs_per_op"},
			systems: []SystemKind{MSG}, classes: classes(crdt.NewCounter, crdt.NewORSet), ratios: []float64{1}, nodes: four, ops: quarter},
	}, claims: []claim{
		{id: "reducible-writes", what: "a reducible counter call's writes", paper: "at most N−1 = 3 (§3.3)", hi: 3,
			pick: func(c cell) bool { return c.class == "counter" }},
	}},
	{name: "wire", panels: []panel{
		{title: "Wire efficiency — δ-mutation broadcast and δ-group summaries: bytes per call, throughput, the wire stage's share of span-attributed latency and response times, Hamband, 4 nodes, updates only, ops/4 (at least 500)",
			suffix: "/delta", plots: slices.Concat([]string{"bytes_per_op", "ops_per_us", "wire_share"}, tails), systems: hamband,
			classes: classes(crdt.NewCounter, crdt.NewPNCounter, crdt.NewLWW, crdt.NewGSet, crdt.NewLWWMap, crdt.NewTwoPSet, crdt.NewORSet, crdt.NewCart),
			ratios:  []float64{1}, nodes: four, variants: []variant{traced}, ops: quarter},
	}},
	{name: "shard", panels: []panel{storePanel(4), storePanel(8), storePanel(16)}},
}

// A cell is one point of a panel: a run, or one method of a run.
type cell struct {
	fig          *figure
	pan          int
	sys          SystemKind
	mk           func() *spec.Class
	class        string
	ratio, scale float64
	nodes        int
	method       string
	vari         variant
	scen         scenario
}

// cells lists panel pan's runs, or with methods their methods, in run order;
// a row of its table is len(systems) × len(faults) consecutive cells.
func (f *figure) cells(pan int, methods bool) (cs []cell) {
	p := &f.panels[pan]
	scales, variants, faults := p.scales, p.variants, p.faults
	if scales == nil {
		scales = []float64{1}
	}
	if variants == nil {
		variants = []variant{{}}
	}
	if faults == nil {
		faults = []scenario{{}}
	}
	for _, mk := range p.classes {
		cls := mk()
		class := cls.Name
		if p.shards > 0 {
			class = fmt.Sprintf("%s-x%d", class, p.shards)
		}
		names := []string{""}
		if methods {
			names = nil
			for _, m := range cls.Methods {
				names = append(names, m.Name)
			}
			sort.Strings(names)
		}
		for _, ratio := range p.ratios {
			for _, nodes := range p.nodes {
				for _, scale := range scales {
					for _, m := range names {
						for _, v := range variants {
							for _, sc := range faults {
								for _, sys := range p.systems {
									cs = append(cs, cell{f, pan, sys, mk, class, ratio, scale, nodes, m, v, sc})
								}
							}
						}
					}
				}
			}
		}
	}
	return cs
}

func (c cell) panel() *panel { return &c.fig.panels[c.pan] }

// exp is c's experiment: the figure's name, then the panel's suffix, op
// scale, variant, fault scenario and method, which the point key lacks.
func (c cell) exp() string {
	e := c.fig.name + c.panel().suffix
	if c.scale != 1 {
		e += fmt.Sprintf("/ops%gx", c.scale)
	}
	for _, s := range []string{c.vari.name, c.scen.name, c.method} {
		if s != "" {
			e += "/" + s
		}
	}
	return e
}

// metrics are the metrics c's table plots: the panel's, or a method's mean
// response time.
func (c cell) metrics() []string {
	if c.method != "" {
		return meanRT
	}
	return c.panel().plots
}

// value looks c's metric up in vals, a snapshot's metrics by key.
func (c cell) value(vals map[string]map[string]float64, metric string) (float64, bool) {
	v, ok := vals[SnapPoint{c.exp(), c.sys.String(), c.class, c.nodes, c.ratio, nil}.key()][metric]
	return v, ok
}

func (c cell) ops(cfg Config) int {
	n := cfg.Ops
	if p := c.panel(); p.ops != nil {
		n = p.ops(cfg)
	} else if p.depth == 1 {
		n = cfg.rtOps()
	}
	return int(float64(n) * c.scale)
}

// runCell runs c under its variant, failing its scenario's node perOp per
// operation in, and then instant i/instants of one CheckPeriod later.
func (cfg Config) runCell(c cell, i int) (*Result, System) {
	ops, depth := c.ops(cfg), c.panel().depth
	if c.vari.depth > 0 {
		depth = c.vari.depth
	}
	if n := c.panel().shards; n > 0 {
		r, sys := cfg.runStore(c.mk(), n, 0, c.nodes, ops, c.ratio, depth, c.vari.skew)
		return r, sys
	}
	var faults []Fault
	if c.scen.perOp > 0 {
		lat := rdma.DefaultLatency()
		if c.vari.v.Latency != nil {
			lat = *c.vari.v.Latency
		}
		at := faultAt(ops, c.scen.perOp) + sim.Time(sim.Duration(i)*lat.CheckPeriod/sim.Duration(max(c.scen.instants, 1)))
		faults = []Fault{{At: at, Node: c.scen.node}}
	}
	return cfg.run(c.sys, c.mk(), c.nodes, ops, c.ratio, depth, c.vari.v, faults...)
}

// headline reports whether c is a headline run: its figure's first panel at
// the first class and update ratio on four nodes and the full op count.
func (c cell) headline() bool {
	p := &c.fig.panels[0]
	return c.pan == 0 && c.method == "" && c.class == p.classes[0]().Name && c.ratio == p.ratios[0] && c.nodes == 4 && c.scale == 1
}

// runFigure runs f and adds to s the points its tables plot.
func (cfg Config) runFigure(f *figure, s *Snapshot) {
	for pan, p := range f.panels {
		for _, c := range f.cells(pan, false) {
			m, rts := cfg.runPoint(c)
			if p.methods != "" {
				var names []string
				for name := range rts {
					names = append(names, name)
				}
				sort.Strings(names)
				for _, name := range names {
					s.add(c.exp()+"/"+name, c.sys.String(), c.class, c.nodes, c.ratio, map[string]float64{"mean_rt_us": rts[name]})
				}
			}
			if p.plots == nil {
				continue
			}
			keep := p.plots
			if c.headline() {
				keep = slices.Concat(keep, f.baseline)
			}
			maps.DeleteFunc(m, func(name string, _ float64) bool { return !slices.Contains(keep, name) })
			s.add(c.exp(), c.sys.String(), c.class, c.nodes, c.ratio, m)
		}
	}
}

// runPoint runs c at each of its scenario's fault instants and returns what
// the runs measured and each method's mean response time, every value the
// median over the runs.
func (cfg Config) runPoint(c cell) (m, rts map[string]float64) {
	var ms, rtss []map[string]float64
	for i := range max(c.scen.instants, 1) {
		r, sys := cfg.runCell(c, i)
		rt := make(map[string]float64, len(r.ByMethod))
		for name, st := range r.ByMethod {
			rt[name] = st.Mean().Micros()
		}
		ms, rtss = append(ms, measured(r, sys)), append(rtss, rt)
	}
	return medians(ms), medians(rtss)
}

// medians returns, for each key of runs[0], the median of its values over
// runs: the middle one, or the mean of the middle two.
func medians(runs []map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(runs[0]))
	for k := range runs[0] {
		var xs []float64
		for _, r := range runs {
			xs = append(xs, r[k])
		}
		slices.Sort(xs)
		out[k] = (xs[(len(xs)-1)/2] + xs[len(xs)/2]) / 2
	}
	return out
}

// measured returns what a run of sys measured: the driver's throughput and
// response times and, per completed unrejected call, the writes, reads,
// doorbells (writes less those that rode an earlier WR's doorbell) and bytes
// written of its fabric or, for the MSG baseline, the messages it sent; with
// a tracer attached, the wire stage's share of the calls' span-attributed
// latency.
func measured(r *Result, sys System) map[string]float64 {
	m := map[string]float64{
		"ops_per_us": r.Throughput(),
		"mean_rt_us": r.MeanRT.Micros(),
		"p50_us":     r.Percentile(50).Micros(),
		"p95_us":     r.Percentile(95).Micros(),
		"p99_us":     r.Percentile(99).Micros(),
	}
	n := float64(max(r.Completed-r.Rejected, 1))
	var fab *rdma.Fabric
	switch s := sys.(type) {
	case *msgSystem:
		m["msgs_per_op"] = float64(s.c.Net.Stats().Sent) / n
		return m
	case *storeSystem:
		fab = s.st.Fabric()
	case *hambandSystem:
		fab = s.c.Fab
		if tr := s.c.Opts.Tracer; tr != nil {
			m["wire_share"] = wireShare(tr)
		}
	}
	st := fab.Stats()
	m["writes_per_op"] = float64(st.Writes) / n
	m["reads_per_op"] = float64(st.Reads) / n
	m["doorbells_per_op"] = float64(st.Writes-st.ChainedWRs) / n
	m["bytes_per_op"] = float64(st.BytesWritten) / n
	return m
}

// wireShare is the wire stage's share of the span-attributed latency of the
// unrejected calls tr recorded.
func wireShare(tr *trace.Tracer) float64 {
	var wire, total sim.Duration
	for _, s := range span.Build(tr.Events()) {
		if s.Rejected {
			continue
		}
		for _, st := range s.Stages {
			total += st.Duration()
			if st.Name == "wire" {
				wire += st.Duration()
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(wire) / float64(total)
}

// ratio is c's first plotted metric over its comparand's (or its value,
// without vs), if pick selects c and vals holds both.
func (cl *claim) ratio(c cell, vals map[string]map[string]float64) (float64, bool) {
	m := c.metrics()[0]
	x, ok := c.value(vals, m)
	if !ok || !cl.pick(c) {
		return 0, false
	}
	if cl.vs == nil {
		return x, true
	}
	y, ok := cl.vs(c).value(vals, m)
	return x / y, ok
}

func (cl *claim) miss(r float64) bool { return r < cl.lo || cl.hi != 0 && r > cl.hi }

// check returns the ratios cl finds on f's points in vals, how many checks
// it makes and how many of them miss.
func (cl *claim) check(f *figure, vals map[string]map[string]float64) (ratios []float64, of, misses int) {
	for _, c := range f.cells(cl.pan, cl.methods) {
		if r, ok := cl.ratio(c, vals); ok {
			ratios = append(ratios, r)
		}
	}
	checked := ratios
	if cl.vs == nil && len(ratios) > 0 {
		checked = []float64{slices.Max(ratios)}
	}
	for _, r := range checked {
		if cl.miss(r) {
			misses++
		}
	}
	return ratios, len(checked), misses
}

// paperRatio returns cl's measured value over the paper's, if cl states one
// and ratios, what check found, is not empty.
func (cl *claim) paperRatio(ratios []float64) (float64, bool) {
	if cl.at == 0 || len(ratios) == 0 {
		return 0, false
	}
	m := slices.Max(ratios)
	if cl.vs != nil {
		m = mean(ratios)
	}
	return m / min(max(m, cl.at), max(cl.at, cl.to)), true
}

func mean(xs []float64) float64 {
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func (s Snapshot) values() map[string]map[string]float64 {
	vals := make(map[string]map[string]float64, len(s.Points))
	for _, p := range s.Points {
		vals[p.key()] = p.Metrics
	}
	return vals
}

// claimPoints returns a misses point for each claim of the figure table
// that s's points check.
func claimPoints(s Snapshot) (pts []SnapPoint) {
	vals := s.values()
	for i := range paper {
		for _, cl := range paper[i].claims {
			ratios, of, misses := cl.check(&paper[i], vals)
			if of == 0 {
				continue
			}
			m := map[string]float64{"misses": float64(misses)}
			if r, ok := cl.paperRatio(ratios); ok {
				m["paper_ratio"] = r
			}
			pts = append(pts, SnapPoint{paper[i].name + "/claim/" + cl.id, Hamband.String(), "", 0, 0, m})
		}
	}
	return pts
}

func fmtRatio(r float64) string { return fmt.Sprintf("%.2f×", r) }

// render writes f's tables from s's points as Markdown: each panel's values
// and the ratios its claims check (✗ a miss), then the claims' verdicts.
func (f *figure) render(w io.Writer, s Snapshot) {
	vals := s.values()
	for pan, p := range f.panels {
		for i, title := range []string{p.title, p.methods} {
			if title != "" {
				f.renderTable(w, vals, s.Ops, pan, i == 1, title)
			}
		}
	}
	if len(f.claims) == 0 {
		return
	}
	head, src := strings.ToUpper(f.name[:1])+f.name[1:]+" — DESIGN.md's claims", "DESIGN.md"
	if n, ok := strings.CutPrefix(f.name, "fig"); ok {
		head, src = "Figure "+n+" — the paper's claims", "paper"
	}
	fmt.Fprintf(w, "%s\n\n| claim | %s | measured | ÷ %s | misses | |\n|---|---|---|---|---|---|\n", head, src, src)
	for _, cl := range f.claims {
		ratios, of, misses := cl.check(f, vals)
		pred, measured, toPaper, verdict := cl.col, "-", "-", "-"
		switch {
		case of == 0:
		case cl.vs == nil:
			pred, measured = "max", fmt.Sprintf("%.2f", slices.Max(ratios))
		case len(ratios) == 1:
			measured = fmtRatio(ratios[0])
		default:
			measured = fmt.Sprintf("%s–%s, mean %s", fmtRatio(slices.Min(ratios)), fmtRatio(slices.Max(ratios)), fmtRatio(mean(ratios)))
		}
		if r, ok := cl.paperRatio(ratios); ok {
			toPaper = fmt.Sprintf("%.3f", r)
		}
		switch {
		case cl.hi == 0:
			pred = fmt.Sprintf("%s ≥ %g", pred, cl.lo)
		case cl.lo == 0:
			pred = fmt.Sprintf("%s ≤ %g", pred, cl.hi)
		default:
			pred = fmt.Sprintf("%g ≤ %s ≤ %g", cl.lo, pred, cl.hi)
		}
		if of > 0 {
			verdict = "✓"
			if misses > 0 {
				verdict = "✗"
			}
		}
		fmt.Fprintf(w, "| %s (%s) | %s | %s | %s | %d of %d | %s |\n", cl.what, pred, cl.paper, measured, toPaper, misses, of, verdict)
	}
	fmt.Fprintln(w)
}

// renderTable writes one table of panel pan: a row per class, update ratio,
// node count, op count, method and variant the panel varies, a column per
// fault scenario, system and plotted metric, then one per ratio its claims
// check.
func (f *figure) renderTable(w io.Writer, vals map[string]map[string]float64, ops, pan int, methods bool, title string) {
	p, cs := &f.panels[pan], f.cells(pan, methods)
	width := len(p.systems) * max(len(p.faults), 1)
	label := func(c cell) (head, row []string) {
		mix := ""
		if p.mix {
			mix = categoryMix(c.mk())
		}
		for _, d := range []struct {
			show bool
			h, v string
		}{
			{len(p.classes) > 1, "class", c.class},
			{p.mix, "categories", mix},
			{len(p.ratios) > 1, "upd%", fmt.Sprintf("%.0f", 100*c.ratio)},
			{len(p.nodes) > 1, "nodes", fmt.Sprint(c.nodes)},
			{len(p.scales) > 1, "ops", fmt.Sprint(c.ops(Config{Ops: ops}))},
			{methods, "method", c.method},
			{len(p.variants) > 1, "variant", c.vari.name},
		} {
			if d.show {
				head, row = append(head, d.h), append(row, d.v)
			}
		}
		return head, row
	}
	var claims []claim
	var cols []string
	for _, cl := range f.claims {
		if cl.pan == pan && cl.methods == methods && cl.vs != nil {
			claims = append(claims, cl)
			if !slices.Contains(cols, cl.col) {
				cols = append(cols, cl.col)
			}
		}
	}
	head, _ := label(cs[0])
	metrics := cs[0].metrics()
	for _, c := range cs[:width] {
		col := c.scen.name + " fails"
		switch {
		case len(p.faults) < 2:
			col = c.sys.String()
		case c.scen.perOp == 0:
			col = c.scen.name
		}
		for _, m := range metrics {
			switch {
			case len(metrics) == 1:
				head = append(head, col)
			case width == 1:
				head = append(head, m)
			default:
				head = append(head, col+" "+m)
			}
		}
	}
	head = append(head, cols...)
	fmt.Fprintf(w, "%s\n\n| %s |\n|%s\n", title, strings.Join(head, " | "), strings.Repeat("---|", len(head)))
	for at := 0; at < len(cs); at += width {
		row := cs[at : at+width]
		_, text := label(row[0])
		for _, c := range row {
			for _, m := range metrics {
				if v, ok := c.value(vals, m); ok {
					text = append(text, fmt.Sprintf("%.2f", v))
				} else {
					text = append(text, "-")
				}
			}
		}
		for _, col := range cols {
			t := ""
			for _, cl := range claims {
				for _, c := range row {
					if r, ok := cl.ratio(c, vals); ok && cl.col == col {
						t = fmtRatio(r)
						if cl.miss(r) {
							t += " ✗"
						}
					}
				}
			}
			text = append(text, t)
		}
		fmt.Fprintf(w, "| %s |\n", strings.Join(text, " | "))
	}
	fmt.Fprintln(w)
}

// categoryMix counts cls's update methods by category: R reducible, F
// irreducible conflict-free, C conflicting.
func categoryMix(cls *spec.Class) string {
	an := spec.MustAnalyze(cls)
	n := map[spec.Category]int{}
	for _, u := range cls.UpdateMethods() {
		n[an.Category[u]]++
	}
	return fmt.Sprintf("%dR/%dF/%dC", n[spec.CatReducible], n[spec.CatIrreducibleFree], n[spec.CatConflicting])
}

func figureNamed(name string) *figure {
	for i := range paper {
		if paper[i].name == name {
			return &paper[i]
		}
	}
	return nil
}

// Figure runs the figure of the table called name, prints its tables and
// its claims checked against them, and exports its points as a snapshot when
// cfg.JSON is set. It reports whether the table has that figure.
func (cfg Config) Figure(name string) bool {
	f := figureNamed(name)
	if f != nil {
		f.render(cfg.Out, cfg.measure(*f))
	}
	return f != nil
}

// Headline returns the headline runs of the figure called name — its first
// panel at the first class and update ratio on four nodes, one per fault
// scenario and system — with their labels, for the testing.B benchmarks.
func Headline(name string) (labels []string, runs []func(Config) *Result) {
	f := figureNamed(name)
	for _, c := range f.cells(0, false) {
		if c.headline() {
			labels = append(labels, strings.Join(strings.Fields(c.class+" "+c.scen.name+" "+c.sys.String()), "/"))
			runs = append(runs, func(cfg Config) *Result { r, _ := cfg.runCell(c, 0); return r })
		}
	}
	return labels, runs
}
