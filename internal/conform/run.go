package conform

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"hamband/internal/chaos"
	"hamband/internal/spec"
)

// DefaultTraceLimit sizes the tracer Run attaches: large enough that
// corpus-scale workloads never drop events (a dropped event makes the
// history unexplainable and is reported as a trace violation).
const DefaultTraceLimit = 1 << 19

// Result pairs one run's chaos verdict with its conformance report. On a
// ShardMix plan every shard's history is checked on its own, as if it were
// a standalone cluster: Shards holds those reports by shard key and Report
// is their sum (mergeShards).
type Result struct {
	Verdict *chaos.Verdict
	Report  *Report
	Shards  map[string]*Report // nil unless the plan is sharded
}

// Conforms reports whether the run's history is explainable by the
// abstract semantics. It is independent of the chaos probes' own verdict:
// a run can conform and still fail quiescence (and vice versa a probe can
// pass while the history is unexplainable).
func (r *Result) Conforms() bool { return r.Report.OK() }

// String renders the run's report, followed on a sharded plan by one line
// per shard.
func (r *Result) String() string {
	var b strings.Builder
	b.WriteString(r.Report.String())
	for _, k := range shardKeys(r.Shards) {
		sr := r.Shards[k]
		fmt.Fprintf(&b, "\n  shard %s: %d events, %d calls, %d queries, %d violations",
			k, sr.Events, sr.Calls, sr.Queries, len(sr.Violations))
	}
	return b.String()
}

// Run executes one fault plan with tracing enabled and checks the
// resulting history against the abstract semantics, per shard when the
// plan has more than one. Runs are deterministic in the plan: equal plans
// produce equal trace hashes and equal reports. The plan's mutation knobs
// are the harness's own controls: a sound checker must come back
// non-conforming under MutateApplyOrder, MutateStaleReads and
// CrossWireShards.
func Run(p chaos.Plan, opts chaos.Options) (*Result, error) {
	if opts.TraceLimit <= 0 {
		opts.TraceLimit = DefaultTraceLimit
	}
	if opts.QueryMix <= 0 {
		opts.QueryMix = 2 // one query every other batch: check 5 needs material
	}
	v, err := chaos.Run(p, opts)
	if err != nil {
		return nil, err
	}
	cls, err := chaos.Class(p.Class)
	if err != nil {
		return nil, err
	}
	an, events := spec.MustAnalyze(cls), v.Trace.Events()
	copts := Options{Nodes: p.Nodes, Quiescent: v.Drained, Correct: v.Correct}
	res := &Result{Verdict: v}
	if p.ShardMix < 2 {
		res.Report = Check(an, events, copts)
	} else {
		res.Shards = CheckSharded(an, events, copts)
		res.Report = mergeShards(res.Shards)
	}
	rep := res.Report
	if p.Sessions > 0 {
		rep.Violations = append(rep.Violations, CheckSessions(events)...)
	}
	if d := v.Trace.Dropped(); d > 0 {
		rep.Violations = append([]Violation{{
			Check: "trace", Node: -1,
			Detail: fmt.Sprintf("%d events dropped beyond the %d-event trace limit; history incomplete", d, opts.TraceLimit),
		}}, rep.Violations...)
	}
	return res, nil
}

// Shrink minimizes a non-conforming plan: drop fault events one at a time
// (greedy, reusing the chaos shrinker), then find the smallest workload
// that still fails, then drop events once more. Workloads are prefix-stable
// — the first k calls of an Ops=n plan are exactly the Ops=k plan — so the
// ops stage scans upward from 1 and takes the first failing prefix, which
// sidesteps the local minima a greedy decrement gets stuck in (a schedule
// can fail at 6 ops, conform at 20, and fail again at 40).
func Shrink(p chaos.Plan, opts chaos.Options) chaos.Plan {
	fails := func(q chaos.Plan) bool {
		res, err := Run(q, opts)
		return err == nil && !res.Conforms()
	}
	if !fails(p) {
		return p
	}
	p = chaos.Shrink(p, fails)
	for ops := 1; ops < p.Ops; ops++ {
		q := p
		q.Ops = ops
		if fails(q) {
			p = q
			break
		}
	}
	return chaos.Shrink(p, fails)
}

// ExploreOptions tunes a conformance exploration sweep.
type ExploreOptions struct {
	Seed    int64    // base seed; run i uses Seed+i
	Seeds   int      // runs to perform (default 12)
	Classes []string // classes to rotate through (default counter, orset, bankmap)
	Nodes   int      // cluster size (default 4)
	Ops     int      // workload updates per run (default 80)
	DumpDir string   // where shrunk counterexamples land (default ".")
	Options chaos.Options
}

func (o ExploreOptions) withDefaults() ExploreOptions {
	if o.Seeds <= 0 {
		o.Seeds = 12
	}
	if len(o.Classes) == 0 {
		o.Classes = []string{"counter", "orset", "bankmap"}
	}
	if o.Nodes <= 0 {
		o.Nodes = 4
	}
	if o.Ops <= 0 {
		o.Ops = 80
	}
	if o.DumpDir == "" {
		o.DumpDir = "."
	}
	return o
}

// Explore sweeps seeded random workloads through the conformance checker,
// rotating classes and alternating fault-free plans with generated fault
// plans. Every non-conforming history is shrunk to a minimal plan and
// dumped as a replayable JSON counterexample. It returns the number of
// non-conforming runs and the dumped file names.
func Explore(w io.Writer, o ExploreOptions) (failures int, dumped []string) {
	o = o.withDefaults()
	for i := 0; i < o.Seeds; i++ {
		class := o.Classes[i%len(o.Classes)]
		seed := o.Seed + int64(i)
		var p chaos.Plan
		if i%2 == 1 {
			p = chaos.Generate(class, o.Nodes, o.Ops, seed)
		} else {
			p = chaos.Plan{Class: class, Nodes: o.Nodes, Ops: o.Ops, Seed: seed}
		}
		res, err := Run(p, o.Options)
		if err != nil {
			fmt.Fprintf(w, "conform: %v\n", err)
			failures++
			continue
		}
		fmt.Fprintf(w, "%s %s\n", res.Verdict.Summary(), verdictWord(res))
		if res.Conforms() {
			continue
		}
		failures++
		fmt.Fprintf(w, "%s\n", res)
		min := Shrink(p, o.Options)
		if name, err := DumpPlan(o.DumpDir, min); err == nil {
			dumped = append(dumped, name)
			fmt.Fprintf(w, "  shrunk to %d ops / %d events -> %s\n", min.Ops, len(min.Events), name)
			if tname, terr := chaos.DumpFlightWindow(name, min, o.Options); terr == nil {
				dumped = append(dumped, tname)
				fmt.Fprintf(w, "  flight-recorder window: %s\n", tname)
			} else {
				fmt.Fprintf(w, "  (could not dump flight window: %v)\n", terr)
			}
		} else {
			fmt.Fprintf(w, "  shrunk to %d ops / %d events (dump failed: %v)\n", min.Ops, len(min.Events), err)
		}
	}
	return failures, dumped
}

func verdictWord(res *Result) string {
	if res.Conforms() {
		return "CONFORMS"
	}
	return fmt.Sprintf("NONCONFORMING(%d)", len(res.Report.Violations))
}

// DumpPlan writes a non-conforming plan as a replayable JSON artifact and
// returns its path.
func DumpPlan(dir string, p chaos.Plan) (string, error) {
	name := filepath.Join(dir, fmt.Sprintf("conform-fail-%s-seed%d.json", p.Class, p.Seed))
	f, err := os.Create(name)
	if err != nil {
		return "", err
	}
	defer f.Close()
	if err := p.WriteJSON(f); err != nil {
		return "", err
	}
	return name, nil
}
