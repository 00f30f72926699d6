package bench

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestAllExperimentsSmoke runs every figure driver at a tiny scale: it
// guards the experiment code itself (table construction, fault plumbing,
// the rt/throughput split) against regressions. Full-scale numbers come
// from cmd/hambench.
func TestAllExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test is not short")
	}
	var buf bytes.Buffer
	cfg := Config{Ops: 400, Seed: 3, Out: &buf}
	cfg.Fig10()
	cfg.Fig11()
	cfg.Fig12()
	cfg.Fig13()
	out := buf.String()
	for _, want := range []string{
		"Figure 10", "Figure 11(a)", "Figure 11(b)", "Figure 12",
		"Figure 13(a)", "Figure 13(b)",
		"worksOn", "registerStudent", "leader fails",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

// TestMetricsExperiment exercises the instrumented experiment end to end:
// the percentile table on Out, the JSON snapshot, and the Chrome trace.
func TestMetricsExperiment(t *testing.T) {
	var out, jsonBuf, chromeBuf bytes.Buffer
	cfg := Config{Ops: 400, Seed: 3, Out: &out}
	cfg.Metrics(&jsonBuf, &chromeBuf)

	for _, want := range []string{"p50", "p95", "p99", "core.call.reduce", "core.call.conf", "rdma.qp.0-1.writes"} {
		if !strings.Contains(out.String(), want) {
			t.Fatalf("report missing %q:\n%s", want, out.String())
		}
	}
	var snap map[string]any
	if err := json.Unmarshal(jsonBuf.Bytes(), &snap); err != nil {
		t.Fatalf("metrics JSON invalid: %v", err)
	}
	if _, ok := snap["counters"]; !ok {
		t.Fatalf("metrics JSON missing counters: %s", jsonBuf.String())
	}
	var tr map[string]any
	if err := json.Unmarshal(chromeBuf.Bytes(), &tr); err != nil {
		t.Fatalf("chrome trace JSON invalid: %v", err)
	}
	events, ok := tr["traceEvents"].([]any)
	if !ok || len(events) == 0 {
		t.Fatal("chrome trace has no events")
	}
}

// TestFig8And9Smoke runs the larger sweeps on a reduced grid by shrinking
// the op count; they cover the three-system comparison code paths.
func TestFig8And9Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test is not short")
	}
	var buf bytes.Buffer
	cfg := Config{Ops: 150, Seed: 3, Out: &buf}
	cfg.Fig8()
	cfg.Fig9()
	out := buf.String()
	for _, want := range []string{"Figure 8(a)", "Figure 8(b)", "Figure 9(a)", "Figure 9(b)", "counter", "orset"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q", want)
		}
	}
}

func TestAblationsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test is not short")
	}
	var buf bytes.Buffer
	cfg := Config{Ops: 300, Seed: 3, Out: &buf}
	cfg.Ablations()
	out := buf.String()
	for _, want := range []string{"summarization", "two leaders", "dependency gating", "closed-loop depth"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
}

func TestSystemKindString(t *testing.T) {
	if Hamband.String() != "Hamband" || MSG.String() != "MSG" || MuSMR.String() != "Mu" {
		t.Fatal("system names wrong")
	}
	if SystemKind(99).String() == "" {
		t.Fatal("unknown kind should still format")
	}
}

func TestResultString(t *testing.T) {
	r := &Result{System: "Hamband", Class: "counter", Nodes: 4, Completed: 100, Makespan: 100_000}
	if !strings.Contains(r.String(), "Hamband/counter") {
		t.Fatalf("Result.String() = %q", r.String())
	}
	if r.Throughput() != 1.0 {
		t.Fatalf("throughput = %v, want 1.0", r.Throughput())
	}
	var zero Result
	if zero.Throughput() != 0 {
		t.Fatal("zero makespan should yield zero throughput")
	}
}

func TestMethodStatMean(t *testing.T) {
	var m MethodStat
	if m.Mean() != 0 {
		t.Fatal("empty stat mean should be 0")
	}
	m.Count, m.Total = 4, 400
	if m.Mean() != 100 {
		t.Fatalf("mean = %v, want 100", m.Mean())
	}
}

// TestReconfigExperiment runs the membership-change experiment end to end:
// both epoch transitions must commit, the windowed trace must show the
// commits, and both transitions must regain their target rate.
func TestReconfigExperiment(t *testing.T) {
	var buf bytes.Buffer
	cfg := Config{Seed: 3, Out: &buf}
	cfg.Reconfig()
	out := buf.String()
	for _, want := range []string{
		"<- leave committed", "<- join committed",
		"steady state:", "final epoch 2",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "did not regain") {
		t.Fatalf("a transition never recovered:\n%s", out)
	}
}

// TestRegressionCheckGatesEveryPoint: the CI gate covers whatever experiment a
// point belongs to (it used to look at fig8 alone), ignores unmatched points
// and tolerates drops within the bound.
func TestRegressionCheckGatesEveryPoint(t *testing.T) {
	pt := func(exp, class string, ops float64) SnapPoint {
		return SnapPoint{Experiment: exp, System: "Hamband", Class: class, Nodes: 4, UpdateRatio: 1, OpsPerUs: ops}
	}
	old := Snapshot{Schema: 1, Points: []SnapPoint{
		pt("fig8", "counter", 16), pt("fig10", "movie", 3), pt("shard/uniform", "counter", 10), pt("wire/delta", "gset", 22),
	}}
	cur := Snapshot{Schema: 1, Points: []SnapPoint{
		pt("fig8", "counter", 15.5), pt("fig10", "movie", 2.5), pt("shard/uniform", "counter", 9), pt("doorbell/chain", "orset", 1),
	}}
	bad := RegressionCheck(old, cur, 5)
	if len(bad) != 2 || !strings.Contains(bad[0], "fig10") || !strings.Contains(bad[1], "shard/uniform") {
		t.Fatalf("regressions reported: %q, want the fig10 and shard/uniform points", bad)
	}
}

// TestRegressionCheckGatesTails: the same threshold gates a matched point's
// p99 rising. A tail deliberately slowed by a tenth fails at unchanged
// throughput; one inside the bound, a faster one, and a point whose baseline
// recorded no tail (the shard points up to BENCH_PR21.json) pass.
func TestRegressionCheckGatesTails(t *testing.T) {
	pt := func(exp string, p99 float64) SnapPoint {
		return SnapPoint{Experiment: exp, System: "Hamband", Class: "movie", Nodes: 4, UpdateRatio: 1, OpsPerUs: 3.12, P99Us: p99}
	}
	old := Snapshot{Schema: 1, Points: []SnapPoint{pt("fig10", 15.7), pt("doorbell/baseline", 15.7), pt("wire/delta", 15.7), pt("shard/uniform", 0)}}
	cur := Snapshot{Schema: 1, Points: []SnapPoint{pt("fig10", 17.3), pt("doorbell/baseline", 16.4), pt("wire/delta", 9), pt("shard/uniform", 3.2)}}
	bad := RegressionCheck(old, cur, 5)
	if len(bad) != 1 || !strings.Contains(bad[0], "fig10") || !strings.Contains(bad[0], "p99 15.70 -> 17.30") {
		t.Fatalf("regressions reported: %q, want the fig10 tail alone", bad)
	}
}
