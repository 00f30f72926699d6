package bench

import (
	"encoding/json"
	"fmt"
	"io"

	"hamband/internal/crdt"
	"hamband/internal/schema"
	"hamband/internal/spec"
)

// SnapPoint is one benchmark measurement in a committed snapshot. Times are
// virtual microseconds; a given (ops, seed) pair reproduces a snapshot
// bit-for-bit, so diffs between snapshots are real model changes, not noise.
type SnapPoint struct {
	Experiment  string  `json:"experiment"`
	System      string  `json:"system"`
	Class       string  `json:"class"`
	Nodes       int     `json:"nodes"`
	UpdateRatio float64 `json:"update_ratio"`
	OpsPerUs    float64 `json:"ops_per_us"`
	MeanRTUs    float64 `json:"mean_rt_us"`
	P50Us       float64 `json:"p50_us"`
	P95Us       float64 `json:"p95_us"`
	P99Us       float64 `json:"p99_us"`
	// BytesPerOp records the fabric bytes shipped per completed op; only
	// the wire-efficiency points set it (zero elsewhere, omitted in JSON).
	BytesPerOp float64 `json:"bytes_per_op,omitempty"`
}

// Snapshot is the canonical benchmark record written to BENCH_PR<n>.json at
// the repo root; `make benchstat` compares two of them.
type Snapshot struct {
	Schema int         `json:"schema"`
	Ops    int         `json:"ops"`
	Seed   int64       `json:"seed"`
	Points []SnapPoint `json:"points"`
}

// resultPoint is a driver result in the snapshot schema; bytesPerOp is zero
// (omitted) for experiments that do not measure wire bytes.
func resultPoint(exp, system string, nodes int, ratio float64, r *Result, bytesPerOp float64) SnapPoint {
	return SnapPoint{
		Experiment:  exp,
		System:      system,
		Class:       r.Class,
		Nodes:       nodes,
		UpdateRatio: ratio,
		OpsPerUs:    r.Throughput(),
		MeanRTUs:    r.MeanRT.Micros(),
		P50Us:       r.Percentile(50).Micros(),
		P95Us:       r.Percentile(95).Micros(),
		P99Us:       r.Percentile(99).Micros(),
		BytesPerOp:  bytesPerOp,
	}
}

// key identifies a point for cross-snapshot matching.
func (p SnapPoint) key() string {
	return fmt.Sprintf("%s|%s|%s|%d|%g", p.Experiment, p.System, p.Class, p.Nodes, p.UpdateRatio)
}

// Snapshot runs the canonical benchmark set: one representative point per
// headline figure (all three systems where the class supports them) plus
// the doorbell ablation's baseline and full variants over the three
// replication paths.
func (cfg Config) Snapshot() Snapshot {
	s := Snapshot{Schema: 1, Ops: cfg.Ops, Seed: cfg.Seed}
	add := func(exp string, sysName string, nodes int, ratio float64, r *Result) {
		s.Points = append(s.Points, resultPoint(exp, sysName, nodes, ratio, r, 0))
	}
	figures := []struct {
		exp     string
		cls     func() *spec.Class
		ratio   float64
		systems []SystemKind
	}{
		{"fig8", crdt.NewCounter, 0.25, []SystemKind{Hamband, MSG, MuSMR}},
		{"fig9", crdt.NewORSet, 0.25, []SystemKind{Hamband, MSG, MuSMR}},
		{"fig10", schema.NewMovie, 1.0, []SystemKind{Hamband, MuSMR}},
	}
	for _, f := range figures {
		for _, kind := range f.systems {
			r := cfg.point(kind, f.cls(), 4, cfg.Ops, f.ratio)
			add(f.exp, kind.String(), 4, f.ratio, r)
		}
	}
	doorbell := []struct {
		cls   func() *spec.Class
		ratio float64
	}{
		{crdt.NewCounter, 0.25},
		{crdt.NewORSet, 0.25},
		{schema.NewMovie, 1.0},
	}
	for _, v := range doorbellVariants() {
		if v.name != "baseline" && v.name != "chain+inline" {
			continue
		}
		for _, d := range doorbell {
			r, _, _ := cfg.doorbellPoint(d.cls(), 4, d.ratio, v.latency())
			add("doorbell/"+v.name, Hamband.String(), 4, d.ratio, r)
		}
	}
	for _, skew := range []float64{0, 1.5} {
		r := cfg.shardPoint(16, 0, 4, cfg.Ops, skew)
		name := "shard/uniform"
		if skew > 0 {
			name = fmt.Sprintf("shard/zipf%.1f", skew)
		}
		s.Points = append(s.Points, SnapPoint{
			Experiment:  name,
			System:      Hamband.String(),
			Class:       "counter-x16",
			Nodes:       4,
			UpdateRatio: 1.0,
			OpsPerUs:    r.OpsPerUs,
			MeanRTUs:    r.MeanRTUs,
			P50Us:       r.P50Us,
			P95Us:       r.P95Us,
			P99Us:       r.P99Us,
		})
	}
	wireOps := cfg.Ops / 4
	if wireOps < 500 {
		wireOps = 500
	}
	for _, mk := range []func() *spec.Class{crdt.NewCounter, crdt.NewGSet, crdt.NewLWWMap} {
		r, bytes, _ := cfg.wirePoint(mk(), 4, wireOps)
		s.Points = append(s.Points, resultPoint("wire/delta", Hamband.String(), 4, 1.0, r, bytes))
	}
	return s
}

// RegressionCheck compares every current point against the baseline and
// returns one message per point whose throughput dropped, or whose p99 rose,
// by more than maxPct percent. Points missing from either side are ignored —
// only like-for-like pairs can regress — and so is the tail of a point whose
// baseline recorded none.
func RegressionCheck(old, cur Snapshot, maxPct float64) []string {
	idx := make(map[string]SnapPoint, len(old.Points))
	for _, p := range old.Points {
		idx[p.key()] = p
	}
	var bad []string
	for _, np := range cur.Points {
		op, ok := idx[np.key()]
		if !ok || op.OpsPerUs == 0 {
			continue
		}
		if d := pctDelta(op.OpsPerUs, np.OpsPerUs); d < -maxPct {
			bad = append(bad, fmt.Sprintf("%s %s %s: throughput %.2f -> %.2f ops/µs (%.1f%%)",
				np.Experiment, np.System, np.Class, op.OpsPerUs, np.OpsPerUs, d))
		}
		if d := pctDelta(op.P99Us, np.P99Us); op.P99Us > 0 && d > maxPct {
			bad = append(bad, fmt.Sprintf("%s %s %s: p99 %.2f -> %.2f µs (+%.1f%%)",
				np.Experiment, np.System, np.Class, op.P99Us, np.P99Us, d))
		}
	}
	return bad
}

// WriteJSON writes the snapshot as indented JSON.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// ReadSnapshot parses a snapshot written by WriteJSON. Arbitrary JSON
// objects decode into a zero Snapshot without error, so the schema field
// doubles as a file-type check.
func ReadSnapshot(r io.Reader) (Snapshot, error) {
	var s Snapshot
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return s, err
	}
	if s.Schema == 0 {
		return s, fmt.Errorf("not a benchmark snapshot (no schema field)")
	}
	return s, nil
}

// CompareSnapshots prints a benchstat-style table of throughput and p99
// deltas for every point present in both snapshots, and notes points only
// one side has.
func CompareSnapshots(w io.Writer, old, cur Snapshot) {
	idx := make(map[string]SnapPoint, len(old.Points))
	for _, p := range old.Points {
		idx[p.key()] = p
	}
	fmt.Fprintf(w, "%-22s %-8s %-10s %9s %9s %8s %9s %9s %8s\n",
		"experiment", "system", "class", "old op/µs", "new op/µs", "Δthr", "old p99", "new p99", "Δp99")
	matched := make(map[string]bool)
	for _, np := range cur.Points {
		op, ok := idx[np.key()]
		if !ok {
			fmt.Fprintf(w, "%-22s %-8s %-10s %9s %9.2f %8s (new point)\n",
				np.Experiment, np.System, np.Class, "-", np.OpsPerUs, "-")
			continue
		}
		matched[np.key()] = true
		fmt.Fprintf(w, "%-22s %-8s %-10s %9.2f %9.2f %7.1f%% %8.2fµs %8.2fµs %7.1f%%\n",
			np.Experiment, np.System, np.Class,
			op.OpsPerUs, np.OpsPerUs, pctDelta(op.OpsPerUs, np.OpsPerUs),
			op.P99Us, np.P99Us, pctDelta(op.P99Us, np.P99Us))
	}
	for _, op := range old.Points {
		if !matched[op.key()] {
			fmt.Fprintf(w, "%-22s %-8s %-10s %9.2f %9s (dropped point)\n",
				op.Experiment, op.System, op.Class, op.OpsPerUs, "-")
		}
	}
}

func pctDelta(old, cur float64) float64 {
	if old == 0 {
		return 0
	}
	return 100 * (cur - old) / old
}
