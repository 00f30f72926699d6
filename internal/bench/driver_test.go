package bench

import (
	"bytes"
	"strings"
	"testing"

	"hamband/internal/crdt"
	"hamband/internal/metrics"
	"hamband/internal/schema"
	"hamband/internal/sim"
	"hamband/internal/spec"
)

func runOne(t *testing.T, kind SystemKind, cls *spec.Class, nodes, ops int, ratio float64, faults ...Fault) *Result {
	t.Helper()
	eng := sim.NewEngine(99)
	an := spec.MustAnalyze(cls)
	sys, err := Build(kind, eng, nodes, an)
	if err != nil {
		t.Fatal(err)
	}
	wl := NewWorkload(an, nodes, ops, ratio, 7)
	res := Run(eng, sys, wl, faults...)
	if res.TimedOut {
		t.Fatalf("%s/%s timed out (completed %d/%d)", res.System, res.Class, res.Completed, ops)
	}
	return res
}

func TestDriverCompletesAllSystems(t *testing.T) {
	for _, kind := range []SystemKind{Hamband, MSG, MuSMR} {
		res := runOne(t, kind, crdt.NewCounter(), 3, 400, 0.25)
		if res.Completed != 400 {
			t.Fatalf("%s completed %d/400", res.System, res.Completed)
		}
		if res.Throughput() <= 0 || res.MeanRT <= 0 {
			t.Fatalf("%s: degenerate metrics %+v", res.System, res)
		}
	}
}

// TestDriverMetricsReport is the observability acceptance check: an
// instrumented run's report contains p50/p95/p99 call latency per category
// and per-QP verb counters.
func TestDriverMetricsReport(t *testing.T) {
	eng := sim.NewEngine(99)
	// The bank map mixes all three update categories (open is reducible,
	// deposit irreducible conflict-free, withdraw conflicting).
	an := spec.MustAnalyze(crdt.NewBankMap())
	reg := metrics.New(eng)
	sys, err := BuildWithMetrics(Hamband, eng, 3, an, reg)
	if err != nil {
		t.Fatal(err)
	}
	wl := NewWorkload(an, 3, 600, 0.5, 7)
	res := Run(eng, sys, wl)
	if res.TimedOut {
		t.Fatal("instrumented run timed out")
	}
	res.Metrics = reg

	var buf bytes.Buffer
	res.WriteMetricsReport(&buf)
	out := buf.String()
	for _, want := range []string{
		"p50", "p95", "p99",
		"core.call.reduce", "core.call.free", "core.call.conf", "core.call.query",
		"rdma.qp.0-1.writes", "rdma.qp.0-1.write_latency", "rdma.qp.1-0.bytes_written",
		"core.queue.free_depth",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("metrics report missing %q:\n%s", want, out)
		}
	}
	// The report must carry real measurements, not just headings: the
	// project-management workload exercises every category.
	snap := reg.Snapshot()
	for _, h := range []string{"core.call.reduce", "core.call.free", "core.call.conf", "core.call.query"} {
		hs, ok := snap.Histograms[h]
		if !ok || hs.Count == 0 {
			t.Fatalf("histogram %s recorded no observations", h)
		}
		if hs.P50NS <= 0 || hs.P99NS < hs.P50NS {
			t.Fatalf("histogram %s has degenerate quantiles: %+v", h, hs)
		}
	}
	if snap.Counters["rdma.qp.0-1.writes"] == 0 {
		t.Fatal("per-QP write counter recorded nothing")
	}

	// An uninstrumented Result writes nothing.
	var empty bytes.Buffer
	(&Result{}).WriteMetricsReport(&empty)
	if empty.Len() != 0 {
		t.Fatalf("uninstrumented report not empty: %q", empty.String())
	}
}

func TestHambandBeatsBaselinesOnReducible(t *testing.T) {
	// The headline shape of Figure 8: Hamband > Mu > MSG in throughput on
	// a reducible workload.
	ham := runOne(t, Hamband, crdt.NewCounter(), 4, 2000, 0.25)
	msg := runOne(t, MSG, crdt.NewCounter(), 4, 2000, 0.25)
	mu := runOne(t, MuSMR, crdt.NewCounter(), 4, 2000, 0.25)
	t.Logf("hamband=%.2f mu=%.2f msg=%.2f ops/µs", ham.Throughput(), mu.Throughput(), msg.Throughput())
	if ham.Throughput() <= mu.Throughput() {
		t.Errorf("Hamband (%.2f) should out-throughput Mu (%.2f)", ham.Throughput(), mu.Throughput())
	}
	if mu.Throughput() <= msg.Throughput() {
		t.Errorf("Mu (%.2f) should out-throughput MSG (%.2f)", mu.Throughput(), msg.Throughput())
	}
	if ham.Throughput() < 5*msg.Throughput() {
		t.Errorf("Hamband/MSG ratio %.1f×, expected a large (>5×) gap",
			ham.Throughput()/msg.Throughput())
	}
	if msg.MeanRT < 5*ham.MeanRT {
		t.Errorf("MSG RT %v vs Hamband %v: expected a large gap", msg.MeanRT, ham.MeanRT)
	}
}

func TestDriverWithSchemas(t *testing.T) {
	for _, cls := range []*spec.Class{schema.NewProjectManagement(), schema.NewMovie()} {
		for _, kind := range []SystemKind{Hamband, MuSMR} {
			res := runOne(t, kind, cls, 4, 300, 0.5)
			if res.Completed != 300 {
				t.Fatalf("%s/%s completed %d/300", res.System, res.Class, res.Completed)
			}
		}
	}
}

func TestDriverFaultInjection(t *testing.T) {
	res := runOne(t, Hamband, crdt.NewCounter(), 4, 800, 0.25,
		Fault{At: sim.Time(200 * sim.Microsecond), Node: 3})
	if res.Completed+res.Lost < 800 {
		t.Fatalf("ops unaccounted: completed %d + lost %d < 800", res.Completed, res.Lost)
	}
	if res.Lost == 0 {
		t.Log("no in-flight calls lost (fault landed between requests)")
	}
}

// TestDriverFaultOnOpenBatch fails a saturated OR-set node for good at
// sixteen instants a quarter microsecond apart. At fourteen of them the node
// holds an open F batch: calls it has answered and not yet broadcast. It stays
// down, so the run ends only if the survivors recover every one of them from
// its backup region — the driver's barrier wants each answered update, a dead
// source's included, at every live node.
func TestDriverFaultOnOpenBatch(t *testing.T) {
	for at := 100 * sim.Microsecond; at < 104*sim.Microsecond; at += 250 * sim.Nanosecond {
		res := runOne(t, Hamband, crdt.NewORSet(), 4, 4000, 0.25, Fault{At: sim.Time(at), Node: 3})
		if res.Completed+res.Lost < 4000 {
			t.Fatalf("fault at %v: ops unaccounted: completed %d + lost %d < 4000", at, res.Completed, res.Lost)
		}
	}
}

func TestMSGRefusesConflicting(t *testing.T) {
	eng := sim.NewEngine(1)
	if _, err := Build(MSG, eng, 3, spec.MustAnalyze(crdt.NewAccount())); err == nil {
		t.Fatal("MSG baseline accepted a conflicting class")
	}
}

func TestWorkloadGeneratorSchemaPermissibility(t *testing.T) {
	// Most schema calls should be accepted once entities accumulate.
	res := runOne(t, Hamband, schema.NewCourseware(), 3, 600, 0.8)
	if res.Rejected > res.Updates/2 {
		t.Fatalf("too many rejections: %d of %d updates", res.Rejected, res.Updates)
	}
}

func TestPercentiles(t *testing.T) {
	res := runOne(t, Hamband, crdt.NewCounter(), 3, 500, 0.25)
	p50 := res.Percentile(50)
	p99 := res.Percentile(99)
	if p50 <= 0 || p99 < p50 {
		t.Fatalf("p50=%v p99=%v: percentiles inconsistent", p50, p99)
	}
	if res.Percentile(0) > p50 || p99 > res.Percentile(100) {
		t.Fatal("percentile ordering violated")
	}
	var empty Result
	if empty.Percentile(50) != 0 {
		t.Fatal("empty result percentile should be 0")
	}
}

// TestDeterministicResults pins the repository's reproducibility claim:
// identical (seed, workload) yields bit-identical metrics across runs, for
// every system.
func TestDeterministicResults(t *testing.T) {
	for _, kind := range []SystemKind{Hamband, MSG, MuSMR} {
		cls := crdt.NewAccount
		if kind == MSG {
			cls = crdt.NewCounter // MSG cannot host conflicting methods
		}
		a := runOne(t, kind, cls(), 3, 600, 0.4)
		b := runOne(t, kind, cls(), 3, 600, 0.4)
		if a.Makespan != b.Makespan || a.MeanRT != b.MeanRT ||
			a.Completed != b.Completed || a.Rejected != b.Rejected {
			t.Fatalf("%s: runs diverged: %+v vs %+v", kind, a, b)
		}
	}
}

// TestFaultedRunsDeterministic extends reproducibility to failure
// injection and leader changes.
func TestFaultedRunsDeterministic(t *testing.T) {
	f := Fault{At: sim.Time(150 * sim.Microsecond), Node: 0}
	a := runOne(t, Hamband, schema.NewCourseware(), 4, 800, 0.5, f)
	b := runOne(t, Hamband, schema.NewCourseware(), 4, 800, 0.5, f)
	if a.Makespan != b.Makespan || a.Completed != b.Completed || a.Lost != b.Lost {
		t.Fatalf("faulted runs diverged: %+v vs %+v", a, b)
	}
}
