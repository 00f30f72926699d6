package main

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"hamband/internal/span"
)

// Clocks. Virtual is simulated nanoseconds on sim.Engine and repeats for a
// seed; host is what the simulator costs on this machine and is noisy.
const (
	virtual = "virtual"
	host    = "host"
)

// metricDef names one metric the benchmark prints. Bound is the share of
// the baseline by which an end-to-end metric may worsen; per-layer metrics
// have none.
type metricDef struct {
	Name   string
	Unit   string
	Clock  string
	Better string
	Bound  float64
}

// endToEnd lists what a user of the system sees, in print order. The first
// eight are BENCHMARK.json's end_to_end. The last three lead its per_layer,
// measured on the untraced rep: wall_ns_per_op because the shared sandbox
// slows memory-bound code by a quarter to a half for minutes at a time, so
// runs of one commit spread wider than any bound that contract allows (see
// README, "Host time on the sandbox"); failover_gap_us and failed_op_ratio
// because they are zero on fault-free runs, which it does not allow either.
var endToEnd = []metricDef{
	{"vthroughput", "ops/us_virtual", virtual, "higher", 0.02},
	{"vlat_p50", "us_virtual", virtual, "lower", 0.10},
	{"vlat_p99", "us_virtual", virtual, "lower", 0.08},
	{"wire_bytes_per_op", "B/op", virtual, "lower", 0.03},
	{"doorbells_per_op", "1/op", virtual, "lower", 0.02},
	{"allocs_per_op", "1/op", host, "lower", 0.25},
	{"alloc_bytes_per_op", "B/op", host, "lower", 0.05},
	{"setup_s", "s", host, "lower", 0.25},
	{"wall_ns_per_op", "ns/op", host, "lower", 0.25},
	{"failover_gap_us", "us_virtual", virtual, "lower", 0.05},
	{"failed_op_ratio", "ratio", virtual, "lower", 0},
}

// manifestEndToEnd is how many leading endToEnd entries BENCHMARK.json
// lists as end_to_end.
const manifestEndToEnd = 8

// perLayer lists the single-layer metrics in print order. The three
// sources are (a) counters the layers keep anyway, read from an untraced
// rep; (b) the traced rep's registry, spans and host spans; (c) the micro
// loops in micro.go.
var perLayer = func() []metricDef {
	out := append([]metricDef(nil), endToEnd[manifestEndToEnd:]...)
	add := func(clock, unit, better string, names ...string) {
		for _, n := range names {
			out = append(out, metricDef{Name: n, Unit: unit, Clock: clock, Better: better})
		}
	}
	// sim
	add(virtual, "1/op", "lower", "sim.events_per_op")
	add(host, "ns", "lower", "sim.event_ns", "sim.cpu_submit_ns")
	add(host, "allocs/call", "lower", "sim.event_allocs")
	// rdma
	add(virtual, "1/op", "lower", "rdma.writes_per_op", "rdma.reads_per_op", "rdma.cas_per_op")
	add(virtual, "B", "lower", "rdma.bytes_per_write")
	add(virtual, "ratio", "higher", "rdma.chained_wr_share", "rdma.inline_share", "rdma.unsignaled_share", "rdma.coalesce_cross_share")
	add(virtual, "count", "lower", "rdma.failed_verbs")
	add(host, "ns", "lower", "rdma.write_ns", "rdma.chain4_ns_per_wr", "rdma.read_ns", "rdma.cas_ns", "rdma.coalesce_ns_per_wr")
	add(host, "allocs/call", "lower", "rdma.write_allocs", "rdma.chain4_allocs_per_wr")
	add(virtual, "us_virtual", "lower", "rdma.write_vlat_us")
	// codec
	add(host, "ns", "lower", "codec.entry_encode_ns", "codec.entry_decode_ns", "codec.slot_encode_ns", "codec.slot_decode_ns",
		"codec.delta_encode_ns", "codec.delta_decode_ns", "codec.checksum_ns_per_kib")
	add(host, "allocs/call", "lower", "codec.entry_allocs")
	// ring
	add(host, "ns", "lower", "ring.append_ns", "ring.poll_ns")
	add(host, "allocs/call", "lower", "ring.append_allocs", "ring.poll_allocs")
	// broadcast
	add(virtual, "1/op", "lower", "broadcast.delivered_per_op", "broadcast.head_reads_per_op")
	add(virtual, "count", "lower", "broadcast.ring_full_retries", "broadcast.torn_rejects")
	add(host, "ns", "lower", "broadcast.msg_ns")
	add(host, "allocs/call", "lower", "broadcast.msg_allocs")
	add(virtual, "us_virtual", "lower", "broadcast.msg_vlat_us")
	// mu
	add(virtual, "us_virtual", "lower", "mu.commit_p50_us", "mu.commit_p99_us")
	add(virtual, "count", "lower", "mu.elections", "mu.leader_changes")
	add(host, "ns", "lower", "mu.commit_ns")
	add(host, "allocs/call", "lower", "mu.commit_allocs")
	add(virtual, "us_virtual", "lower", "mu.commit_vlat_us")
	// heartbeat
	add(virtual, "count", "lower", "heartbeat.suspicions", "heartbeat.restores")
	add(virtual, "us_virtual", "lower", "heartbeat.detect_vlat_us")
	// crdt, schema
	add(host, "ns", "lower", "crdt.counter_apply_ns", "crdt.gset_apply_ns", "crdt.gset_summarize_ns",
		"crdt.orset_apply_ns", "crdt.orset_clone_ns", "schema.courseware_permissible_ns")
	// core
	add(virtual, "1/op", "lower", "core.applied_per_op", "core.delta_records_per_op")
	add(virtual, "ratio", "lower", "core.rejected_share")
	add(virtual, "count", "lower", "core.anchor_writes", "core.gap_fetches", "core.torn_rejects")
	add(virtual, "us_virtual", "lower", "core.call_p99_us.reduce", "core.call_p99_us.free", "core.call_p99_us.conf", "core.call_p99_us.query")
	add(host, "ns", "lower", "core.submit_ns")
	add(host, "ratio", "lower", "core.submit_share")
	// span: mean stage shares of each category's summed stage time, then
	// the p99 cohort's shares of its client-observed latency.
	for _, cat := range span.Categories[:3] {
		for _, st := range spanStages[cat] {
			add(virtual, "ratio", "lower", "span."+cat+"."+st+"_share")
		}
	}
	add(virtual, "ratio", "lower", spanTails...)
	// store
	add(virtual, "B", "lower", "store.arena_used_bytes")
	add(host, "ns", "lower", "store.open_ns_per_shard", "store.invoke_route_ns")
	// driver and host
	add(host, "ratio", "lower", "driver.engine_share", "driver.probe_share")
	add(virtual, "count", "lower", "driver.backlog_end", "driver.lost_at_fault", "driver.samples", "driver.virtual_variants")
	add(host, "ns/op", "lower", "host.cpu_ns_per_op")
	add(host, "ratio", "lower", "host.gc_cpu_share", "trace.overhead_ratio")
	add(host, "MiB", "lower", "host.heap_sys_mb")
	return out
}()

// spanTails names the p99-cohort shares kept: the stage each category's
// slowest calls are expected to sit in.
var spanTails = []string{"span.conflicting.deliver_p99_share", "span.conflicting.order_p99_share",
	"span.reducible.adopt_p99_share", "span.conflict-free.wire_p99_share"}

// spanStages is span's stage order per category.
var spanStages = map[string][]string{
	span.CatReducible:    {"queue", "summarize", "complete", "doorbell", "wire", "adopt"},
	span.CatConflictFree: {"queue", "local-apply", "complete", "doorbell", "wire", "ack", "remote-apply"},
	span.CatConflicting:  {"queue", "order", "commit", "deliver", "remote-apply"},
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// endToEndOf returns one rep's end-to-end values except setup_s, which is
// sampled more often than reps run.
func endToEndOf(r *rep) map[string]float64 {
	ops := float64(r.completed)
	return map[string]float64{
		"vthroughput":        ratio(ops, r.makespan.Micros()),
		"vlat_p50":           r.percentile(0.50).Micros(),
		"vlat_p99":           r.percentile(0.99).Micros(),
		"wire_bytes_per_op":  ratio(float64(r.fab.BytesWritten), ops),
		"doorbells_per_op":   ratio(float64(r.fab.Writes+r.fab.Reads+r.fab.CASes-r.fab.ChainedWRs), ops),
		"wall_ns_per_op":     ratio(float64(r.wall.Nanoseconds()), ops),
		"allocs_per_op":      ratio(float64(r.mallocs), ops),
		"alloc_bytes_per_op": ratio(float64(r.allocBytes), ops),
		"failover_gap_us":    r.gap.Micros(),
		"failed_op_ratio":    ratio(float64(r.failed()), float64(r.attempted())),
	}
}

// counterMetrics returns the class (a) per-layer metrics of one untraced rep.
func counterMetrics(r *rep) map[string]float64 {
	ops, writes := float64(r.completed), float64(r.fab.Writes)
	e := endToEndOf(r)
	return map[string]float64{
		"wall_ns_per_op":            e["wall_ns_per_op"],
		"failover_gap_us":           e["failover_gap_us"],
		"failed_op_ratio":           e["failed_op_ratio"],
		"sim.events_per_op":         ratio(float64(r.events), ops),
		"rdma.writes_per_op":        ratio(writes, ops),
		"rdma.reads_per_op":         ratio(float64(r.fab.Reads), ops),
		"rdma.cas_per_op":           ratio(float64(r.fab.CASes), ops),
		"rdma.bytes_per_write":      ratio(float64(r.fab.BytesWritten), writes),
		"rdma.chained_wr_share":     ratio(float64(r.fab.ChainedWRs), writes),
		"rdma.inline_share":         ratio(float64(r.fab.InlineWrites), writes),
		"rdma.unsignaled_share":     ratio(float64(r.fab.Unsignaled), writes),
		"rdma.coalesce_cross_share": ratio(float64(r.coal.CrossWRs), writes),
		"rdma.failed_verbs":         float64(r.fab.Failed),
		"core.applied_per_op":       ratio(float64(r.applied), ops),
		"core.delta_records_per_op": ratio(float64(r.deltas), ops),
		"core.rejected_share":       ratio(float64(r.rejected), ops),
		"core.anchor_writes":        float64(r.anchors),
		"core.gap_fetches":          float64(r.gapFetches),
		"core.torn_rejects":         float64(r.torn),
		"store.arena_used_bytes":    float64(r.arenaUsed),
		"driver.backlog_end":        float64(r.backlogEnd),
		"driver.lost_at_fault":      float64(r.lost),
		"driver.samples":            float64(len(r.lat)),
		"host.cpu_ns_per_op":        ratio(float64(r.cpu.Nanoseconds()), ops),
		"host.gc_cpu_share":         ratio(float64(r.gcCPU), float64(r.cpu)),
		"host.heap_sys_mb":          float64(r.heapSys) / (1 << 20),
	}
}

// tracedMetrics returns the class (b) per-layer metrics: the traced rep's
// registry, its causal spans and the driver's host spans, plus the price of
// tracing against the untraced rep of the same size.
func tracedMetrics(untraced, traced *rep) (map[string]float64, error) {
	tr, reg := traced.tracer, traced.reg
	if n := tr.Dropped(); n > 0 {
		return nil, fmt.Errorf("tracer dropped %d events; raise the limit", n)
	}
	report := span.Analyze(span.Build(tr.Events()), reg)
	snap := reg.Snapshot()
	ops := float64(traced.completed)
	us := func(ns int64) float64 { return float64(ns) / 1e3 }
	out := map[string]float64{
		"broadcast.delivered_per_op":  ratio(float64(snap.Counters["broadcast.delivered"]), ops),
		"broadcast.head_reads_per_op": ratio(float64(snap.Counters["broadcast.head_reads"]), ops),
		"broadcast.ring_full_retries": float64(snap.Counters["broadcast.ring_full_retries"]),
		"broadcast.torn_rejects":      float64(snap.Counters["broadcast.torn_rejects"]),
		"mu.commit_p50_us":            us(snap.Histograms["mu.commit_latency"].P50NS),
		"mu.commit_p99_us":            us(snap.Histograms["mu.commit_latency"].P99NS),
		"mu.elections":                float64(snap.Counters["mu.elections"]),
		"mu.leader_changes":           float64(snap.Counters["mu.leader_changes"]),
		"heartbeat.suspicions":        float64(snap.Counters["heartbeat.suspicions"]),
		"heartbeat.restores":          float64(snap.Counters["heartbeat.restores"]),
		"heartbeat.detect_vlat_us":    traced.detect.Micros(),
		"core.call_p99_us.reduce":     us(snap.Histograms["core.call.reduce"].P99NS),
		"core.call_p99_us.free":       us(snap.Histograms["core.call.free"].P99NS),
		"core.call_p99_us.conf":       us(snap.Histograms["core.call.conf"].P99NS),
		"core.call_p99_us.query":      us(snap.Histograms["core.call.query"].P99NS),
		"trace.overhead_ratio":        ratio(float64(traced.wall), float64(untraced.wall)),
	}

	submit, calls := traced.host.total("submit")
	probe, _ := traced.host.total("probe")
	wall := float64(traced.wall)
	out["core.submit_ns"] = ratio(float64(submit.Nanoseconds()), float64(calls))
	out["core.submit_share"] = ratio(float64(submit), wall)
	out["driver.probe_share"] = ratio(float64(probe), wall)
	out["driver.engine_share"] = ratio(wall-float64(submit)-float64(probe), wall)

	for _, cat := range span.Categories[:3] {
		for _, st := range spanStages[cat] {
			out["span."+cat+"."+st+"_share"] = 0
		}
	}
	for _, name := range spanTails {
		out[name] = 0
	}
	for _, cr := range report.Categories {
		var sum float64
		for _, st := range cr.Stages {
			sum += float64(st.Mean) * float64(st.Count)
		}
		for _, st := range cr.Stages {
			if name := "span." + cr.Category + "." + st.Name + "_share"; has(out, name) {
				out[name] = ratio(float64(st.Mean)*float64(st.Count), sum)
			}
		}
		for _, tc := range cr.Tails {
			if tc.Quantile != 0.99 {
				continue
			}
			for _, st := range tc.Stages {
				if name := "span." + cr.Category + "." + st.Name + "_p99_share"; has(out, name) {
					out[name] = st.Share
				}
			}
		}
	}
	return out, nil
}

func has(m map[string]float64, k string) bool { _, ok := m[k]; return ok }

// fingerprint renders a rep's virtual outcome; two reps of one seed must
// agree on it to the last digit.
func fingerprint(r *rep) string {
	e := endToEndOf(r)
	var b strings.Builder
	for _, m := range endToEnd {
		if m.Clock == virtual {
			fmt.Fprintf(&b, "%s=%v ", m.Name, e[m.Name])
		}
	}
	fmt.Fprintf(&b, "events=%d fab=%+v applied=%d rejected=%d", r.events, r.fab, r.applied, r.rejected)
	return b.String()
}

// variants counts the distinct virtual outcomes among reps; 1 means the
// simulation repeated exactly.
func variants(reps []*rep) int {
	seen := map[string]bool{}
	for _, r := range reps {
		seen[fingerprint(r)] = true
	}
	return len(seen)
}

// checkCatalogue verifies that got holds exactly the metrics defs names,
// each with a finite value.
func checkCatalogue(defs []metricDef, got map[string]float64) error {
	for _, m := range defs {
		v, ok := got[m.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", m.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", m.Name, v)
		}
	}
	known := map[string]bool{}
	for _, m := range defs {
		known[m.Name] = true
	}
	for name := range got {
		if !known[name] {
			return fmt.Errorf("metric %s is not in the catalogue", name)
		}
	}
	return nil
}
