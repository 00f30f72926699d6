package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// snapshotSchema is the version of the Snapshot layout; ReadSnapshot
// accepts no other.
const snapshotSchema = 2

// SnapPoint is one benchmark measurement in a snapshot: a key (experiment,
// system, class, nodes, update ratio) and the metrics measured there, by
// their names in metricDefs. A metric that was not measured is absent. Times
// are virtual microseconds; a given (ops, seed) pair reproduces a snapshot
// bit-for-bit, so diffs between snapshots are real model changes, not noise.
type SnapPoint struct {
	Experiment  string             `json:"experiment"`
	System      string             `json:"system"`
	Class       string             `json:"class"`
	Nodes       int                `json:"nodes"`
	UpdateRatio float64            `json:"update_ratio"`
	Metrics     map[string]float64 `json:"metrics"`
}

// Snapshot is the canonical benchmark record written to BENCH_PR<n>.json at
// the repo root; `-exp benchstat` compares two of them.
type Snapshot struct {
	Schema int         `json:"schema"`
	Ops    int         `json:"ops"`
	Seed   int64       `json:"seed"`
	Points []SnapPoint `json:"points"`
}

// metricDef says what one metric measures and how a compare gates it: the
// metric fails when it is worse than its baseline by more than Bound times
// the baseline; one whose Bound is ungated is recorded, not gated.
type metricDef struct {
	Unit   string
	Clock  string // "virtual" (simulated, repeats for a seed), "host" or "count"
	Better string // "higher" or "lower"
	Bound  float64
}

const ungated = -1

type metricTable map[string]metricDef

// metricDefs defines every metric a point may carry. Throughput, the p99
// and bytes per op are gated at their bounds (-exp benchstat); the other
// response times, the per-call verb and message counts and the wire stage's
// latency share are recorded for reading. A watchdog firing more than its
// baseline is a calibration change, so firings are gated at zero; so are a
// paper claim's misses, the points of its figure that fail its predicate.
// A claim's measured value over the paper's is recorded for reading.
var metricDefs = metricTable{
	"ops_per_us":       {"ops/µs", "virtual", "higher", 0.05},
	"mean_rt_us":       {"µs", "virtual", "lower", ungated},
	"p50_us":           {"µs", "virtual", "lower", ungated},
	"p95_us":           {"µs", "virtual", "lower", ungated},
	"p99_us":           {"µs", "virtual", "lower", 0.05},
	"bytes_per_op":     {"B/op", "virtual", "lower", 0.05},
	"writes_per_op":    {"writes/op", "virtual", "lower", ungated},
	"reads_per_op":     {"reads/op", "virtual", "lower", ungated},
	"doorbells_per_op": {"doorbells/op", "virtual", "lower", ungated},
	"msgs_per_op":      {"messages/op", "virtual", "lower", ungated},
	"wire_share":       {"share", "virtual", "lower", ungated},
	"calls":            {"calls", "count", "higher", ungated},
	"firings":          {"firings", "count", "lower", 0},
	"misses":           {"points", "count", "lower", 0},
	"paper_ratio":      {"ratio", "virtual", "higher", ungated},
}

// regressed reports whether cur is worse than old by more than the bound.
func (d metricDef) regressed(old, cur float64) bool {
	if d.Bound == ungated {
		return false
	}
	worse := cur - old
	if d.Better == "higher" {
		worse = -worse
	}
	return worse > d.Bound*old
}

// add appends a point keyed by its arguments with the given metrics.
func (s *Snapshot) add(exp, system, class string, nodes int, ratio float64, metrics map[string]float64) {
	s.Points = append(s.Points, SnapPoint{exp, system, class, nodes, ratio, metrics})
}

// key identifies a point for cross-snapshot matching.
func (p SnapPoint) key() string {
	return fmt.Sprintf("%s|%s|%s|%d|%g", p.Experiment, p.System, p.Class, p.Nodes, p.UpdateRatio)
}

// Snapshot runs the canonical benchmark set, every figure of the table, and
// returns and exports it.
func (cfg Config) Snapshot() Snapshot { return cfg.measure(paper...) }

// measure runs figs and returns their points, then a misses point per claim
// they check, exported to cfg.JSON when set. It panics if two points share a
// key, which no compare could tell apart.
func (cfg Config) measure(figs ...figure) Snapshot {
	s := Snapshot{Schema: snapshotSchema, Ops: cfg.Ops, Seed: cfg.Seed}
	for i := range figs {
		cfg.runFigure(&figs[i], &s)
	}
	s.Points = append(s.Points, claimPoints(s)...)
	if err := s.uniqueKeys(); err != nil {
		panic(fmt.Sprintf("bench: %v", err))
	}
	cfg.export("snapshot", s)
	return s
}

// uniqueKeys fails on the first key two of s's points share: Compare
// matches points by key, so it would gate the first and report the second
// as new.
func (s Snapshot) uniqueKeys() error {
	seen := make(map[string]bool, len(s.Points))
	for _, p := range s.Points {
		if seen[p.key()] {
			return fmt.Errorf("two points with key %s", p.key())
		}
		seen[p.key()] = true
	}
	return nil
}

// ReadSnapshot parses a snapshot an experiment exported. It rejects any
// other schema, which also turns away JSON that is no snapshot at all, any
// metric metricDefs does not define and two points with one key.
func ReadSnapshot(r io.Reader) (Snapshot, error) {
	var s Snapshot
	if err := json.NewDecoder(r).Decode(&s); err != nil {
		return s, err
	}
	if s.Schema != snapshotSchema {
		return s, fmt.Errorf("not a schema-%d benchmark snapshot (schema %d)", snapshotSchema, s.Schema)
	}
	for _, p := range s.Points {
		for name := range p.Metrics {
			if _, ok := metricDefs[name]; !ok {
				return s, fmt.Errorf("point %s: undefined metric %q", p.key(), name)
			}
		}
	}
	return s, s.uniqueKeys()
}

// Compare prints one row per metric of every point the two snapshots share,
// matched by key and metric name, and notes points and metrics only one side
// has. It returns one message per metric that regressed past its bound; a
// point or metric missing from either side cannot regress.
func Compare(w io.Writer, old, cur Snapshot) []string {
	return metricDefs.compare(w, old, cur)
}

func (t metricTable) compare(w io.Writer, old, cur Snapshot) []string {
	idx := make(map[string]SnapPoint, len(old.Points))
	for _, p := range old.Points {
		idx[p.key()] = p
	}
	fmt.Fprintf(w, "%-40s %-12s %12s %12s %8s %6s\n", "point", "metric", "old", "new", "Δ", "bound")
	var bad []string
	for _, np := range cur.Points {
		k := np.key()
		op, ok := idx[k]
		if !ok {
			fmt.Fprintf(w, "%-40s (new point)\n", k)
			continue
		}
		delete(idx, k)
		names := make([]string, 0, len(op.Metrics)+len(np.Metrics))
		for name := range op.Metrics {
			names = append(names, name)
		}
		for name := range np.Metrics {
			if _, ok := op.Metrics[name]; !ok {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		for _, name := range names {
			ov, inOld := op.Metrics[name]
			nv, inNew := np.Metrics[name]
			d := t[name]
			switch {
			case !inOld:
				fmt.Fprintf(w, "%-40s %-12s %12s %12.6g (new metric)\n", k, name, "-", nv)
			case !inNew:
				fmt.Fprintf(w, "%-40s %-12s %12.6g %12s (dropped metric)\n", k, name, ov, "-")
			default:
				bound, verdict := "-", ""
				if d.Bound != ungated {
					bound = fmt.Sprintf("%g%%", 100*d.Bound)
				}
				if d.regressed(ov, nv) {
					verdict = " REGRESSION"
					bad = append(bad, fmt.Sprintf("%s %s: %g -> %g %s (%+.1f%%, bound %s)", k, name, ov, nv, d.Unit, pctDelta(ov, nv), bound))
				}
				fmt.Fprintf(w, "%-40s %-12s %12.6g %12.6g %7.1f%% %6s%s\n", k, name, ov, nv, pctDelta(ov, nv), bound, verdict)
			}
		}
	}
	for _, op := range old.Points {
		if _, dropped := idx[op.key()]; dropped {
			fmt.Fprintf(w, "%-40s (dropped point)\n", op.key())
		}
	}
	return bad
}

func pctDelta(old, cur float64) float64 {
	if old == cur {
		return 0
	}
	return 100 * (cur - old) / old
}
