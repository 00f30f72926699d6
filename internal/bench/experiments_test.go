package bench

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestAllExperimentsSmoke runs every figure of the table — the paper's, the
// use-case overview, the ablations, the costs, the wire and the sharded
// store — at a tiny scale: it guards the
// table's runner and renderer (the cross product, variants, fault plumbing,
// the throughput/response-time split, the per-method tables and the claims)
// against regressions. Full-scale numbers come from cmd/hambench.
func TestAllExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test is not short")
	}
	var buf bytes.Buffer
	cfg := Config{Ops: 150, Seed: 3, Out: &buf}
	for _, f := range paper {
		if !cfg.Figure(f.name) {
			t.Fatalf("%s is not in the figure table", f.name)
		}
	}
	out := buf.String()
	for _, want := range []string{
		"Figure 8(a)", "Figure 8(b)", "Figure 9(a)", "Figure 9(b)", "counter", "orset",
		"Figure 10", "Figure 11(a)", "Figure 11(b)", "Figure 12",
		"Figure 13(a)", "Figure 13(b)", "Figure 13 — the paper's claims",
		"worksOn", "registerStudent", "leader fails",
		"Use-case overview", "| tournament | 1R/0F/3C |", "p99_us",
		"summarization", "| gset | 3 |", "two leaders", "| one-leader |",
		"dependency gating", "| worksOn | scan-200us |", "closed-loop depth", "| depth-32 |",
		"inline", "| dma |", "Ablations — DESIGN.md's claims",
		"Coordination cost per call", "| movie | 0R/0F/4C |", "Costs — DESIGN.md's claims",
		"Wire efficiency", "| cart |", "wire_share", "Sharded store", "over 16 shards", "| zipf2.5 |",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	if cfg.Figure("fig8a") {
		t.Fatal("fig8a ran: the table has no such figure")
	}
}

// TestFig8And9Smoke runs the two larger sweeps on their own, through the
// figure table by name; they cover the three-system comparison code paths.
func TestFig8And9Smoke(t *testing.T) {
	if testing.Short() {
		t.Skip("experiment smoke test is not short")
	}
	var buf bytes.Buffer
	cfg := Config{Ops: 150, Seed: 3, Out: &buf}
	for _, name := range []string{"fig8", "fig9"} {
		if !cfg.Figure(name) {
			t.Fatalf("%s is not in the figure table", name)
		}
	}
	out := buf.String()
	for _, want := range []string{"Figure 8(a)", "Figure 8(b)", "Figure 9(a)", "Figure 9(b)", "counter", "orset"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q", want)
		}
	}
}

// TestMetricsExperiment exercises the instrumented experiment end to end:
// the percentile table on Out, the JSON snapshot, and the Chrome trace.
func TestMetricsExperiment(t *testing.T) {
	var out, jsonBuf, chromeBuf bytes.Buffer
	cfg := Config{Ops: 400, Seed: 3, Out: &out, JSON: &jsonBuf, ChromeTrace: &chromeBuf}
	cfg.Metrics()

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
