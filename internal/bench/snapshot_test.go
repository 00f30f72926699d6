package bench

import (
	"bytes"
	"fmt"
	"io"
	"maps"
	"os"
	"regexp"
	"strings"
	"testing"

	"hamband/internal/chaos"
	"hamband/internal/health"
)

// pt is a point at the canonical key shape carrying metrics m.
func pt(exp, class string, m map[string]float64) SnapPoint {
	return SnapPoint{Experiment: exp, System: "Hamband", Class: class, Nodes: 4, UpdateRatio: 1, Metrics: m}
}

func snap(points ...SnapPoint) Snapshot {
	return Snapshot{Schema: snapshotSchema, Points: points}
}

// TestCompareGatesEveryPoint: the CI gate covers whatever experiment a
// point belongs to (it used to look at fig8 alone), ignores unmatched points
// and tolerates drops within the bound.
func TestCompareGatesEveryPoint(t *testing.T) {
	thr := func(exp, class string, ops float64) SnapPoint {
		return pt(exp, class, map[string]float64{"ops_per_us": ops})
	}
	old := snap(thr("fig8", "counter", 16), thr("fig10", "movie", 3), thr("shard/uniform", "counter", 10), thr("wire/delta", "gset", 22))
	cur := snap(thr("fig8", "counter", 15.5), thr("fig10", "movie", 2.5), thr("shard/uniform", "counter", 9), thr("doorbell/chain", "orset", 1))
	bad := Compare(io.Discard, old, cur)
	if len(bad) != 2 || !strings.Contains(bad[0], "fig10") || !strings.Contains(bad[1], "shard/uniform") {
		t.Fatalf("regressions reported: %q, want the fig10 and shard/uniform points", bad)
	}
}

// TestCompareGatesTails: p99_us is gated at its own 5 %. A tail deliberately
// slowed by a tenth fails at unchanged throughput; one inside the bound, a
// faster one, and a point whose baseline recorded no tail (the shard points
// up to BENCH_PR21.json) pass.
func TestCompareGatesTails(t *testing.T) {
	tail := func(exp string, p99 float64) SnapPoint {
		m := map[string]float64{"ops_per_us": 3.12}
		if p99 > 0 {
			m["p99_us"] = p99
		}
		return pt(exp, "movie", m)
	}
	old := snap(tail("fig10", 15.7), tail("doorbell/baseline", 15.7), tail("wire/delta", 15.7), tail("shard/uniform", 0))
	cur := snap(tail("fig10", 17.3), tail("doorbell/baseline", 16.4), tail("wire/delta", 9), tail("shard/uniform", 3.2))
	bad := Compare(io.Discard, old, cur)
	if len(bad) != 1 || !strings.Contains(bad[0], "fig10") || !strings.Contains(bad[0], "p99_us: 15.7 -> 17.3") {
		t.Fatalf("regressions reported: %q, want the fig10 tail alone", bad)
	}
}

// TestCompareGatesBytes: bytes_per_op is gated at its own 5 %. Six per cent
// more bytes fails, four per cent passes, and so do fewer bytes and a point
// whose baseline recorded none.
func TestCompareGatesBytes(t *testing.T) {
	wire := func(exp string, bytes float64) SnapPoint {
		m := map[string]float64{"ops_per_us": 22.5, "p99_us": 1.9}
		if bytes > 0 {
			m["bytes_per_op"] = bytes
		}
		return pt(exp, "gset", m)
	}
	old := snap(wire("wire/delta", 100), wire("fig13/normal", 100), wire("fig13/leader", 100), wire("fig8", 0))
	cur := snap(wire("wire/delta", 106), wire("fig13/normal", 104), wire("fig13/leader", 60), wire("fig8", 50))
	bad := Compare(io.Discard, old, cur)
	if len(bad) != 1 || !strings.Contains(bad[0], "wire/delta") || !strings.Contains(bad[0], "bytes_per_op: 100 -> 106") {
		t.Fatalf("regressions reported: %q, want the wire/delta bytes alone", bad)
	}
}

// TestCompareRows: what the compare prints and gates when the two sides do
// not hold the same points and metrics, and that each metric is gated at the
// bound its definition gives, not at one shared threshold.
func TestCompareRows(t *testing.T) {
	const a, b = "fig8|Hamband|counter|4|1", "fig9|Hamband|orset|4|1"
	dummy := metricTable{"dummy": {"1", "virtual", "lower", 0.01}}
	cases := []struct {
		name     string
		table    metricTable
		old, cur Snapshot
		bad      int
		rows     []string // regexps, each matching one printed line
	}{
		{"new and dropped point", metricDefs,
			snap(pt("fig8", "counter", map[string]float64{"ops_per_us": 16})),
			snap(pt("fig9", "orset", map[string]float64{"ops_per_us": 1})),
			0, []string{b + ` +\(new point\)`, a + ` +\(dropped point\)`}},
		{"metric on one side only", metricDefs,
			snap(pt("fig8", "counter", map[string]float64{"ops_per_us": 16, "p99_us": 3})),
			snap(pt("fig8", "counter", map[string]float64{"ops_per_us": 16, "bytes_per_op": 50})),
			0, []string{a + ` +bytes_per_op +- +50 \(new metric\)`, a + ` +p99_us +3 +- \(dropped metric\)`, a + ` +ops_per_us +16 +16 +0\.0% +5%$`}},
		{"mean_rt_us is recorded, not gated", metricDefs,
			snap(pt("fig8", "counter", map[string]float64{"mean_rt_us": 2})),
			snap(pt("fig8", "counter", map[string]float64{"mean_rt_us": 3})),
			0, []string{a + ` +mean_rt_us +2 +3 +50\.0% +-$`}},
		{"dummy metric 2% worse, bound 1%", dummy,
			snap(pt("fig8", "counter", map[string]float64{"dummy": 100})),
			snap(pt("fig8", "counter", map[string]float64{"dummy": 102})),
			1, []string{a + ` +dummy +100 +102 +2\.0% +1% REGRESSION$`}},
		{"dummy metric 0.5% worse, bound 1%", dummy,
			snap(pt("fig8", "counter", map[string]float64{"dummy": 100})),
			snap(pt("fig8", "counter", map[string]float64{"dummy": 100.5})),
			0, []string{a + ` +dummy +100 +100\.5 +0\.5% +1%$`}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var out bytes.Buffer
			bad := c.table.compare(&out, c.old, c.cur)
			if len(bad) != c.bad {
				t.Errorf("regressions reported: %q, want %d", bad, c.bad)
			}
			for _, row := range c.rows {
				if !regexp.MustCompile(`(?m)^` + row).MatchString(out.String()) {
					t.Errorf("no row matches %q:\n%s", row, out.String())
				}
			}
		})
	}
}

// TestHealthExportsGateFirings: a health export whose unexpected or control
// firings rise from zero fails the compare against one where they are zero.
// Counts are firings, not a throughput, so the rise is not read as a gain.
func TestHealthExportsGateFirings(t *testing.T) {
	plan := healthPlan(1, 600)
	quiet := &chaos.Verdict{}
	fired := &chaos.Verdict{Anomalies: []health.Firing{{Rule: health.Rules[0]}}}
	base := healthSnapshot(Config{}, plan, quiet, quiet)
	if bad := Compare(io.Discard, base, base); len(bad) != 0 {
		t.Fatalf("an export regressed against itself: %q", bad)
	}
	for _, c := range []struct {
		class      string
		v, control *chaos.Verdict
	}{
		{"unexpected", &chaos.Verdict{Unexpected: fired.Anomalies}, quiet},
		{"control", quiet, fired},
	} {
		bad := Compare(io.Discard, base, healthSnapshot(Config{}, plan, c.v, c.control))
		if len(bad) != 1 || !strings.Contains(bad[0], "health|watchdog|"+c.class+"|") || !strings.Contains(bad[0], "firings: 0 -> 1") {
			t.Errorf("%s 0 -> 1: regressions reported %q, want that point's firings alone", c.class, bad)
		}
	}
}

// TestReadSnapshotSchema: the committed baseline reads back with its 19
// points; a schema-1 file and an undefined metric are refused.
func TestReadSnapshotSchema(t *testing.T) {
	read := func(path string) (Snapshot, error) {
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		return ReadSnapshot(f)
	}
	if s, err := read("../../BENCH_PR51.json"); err != nil || len(s.Points) != 19 {
		t.Fatalf("BENCH_PR51.json: %d points, %v; want 19", len(s.Points), err)
	}
	if _, err := read("../../BENCH_PR50.json"); err == nil {
		t.Fatal("a schema-1 snapshot was read")
	}
	_, err := ReadSnapshot(strings.NewReader(`{"schema": 2, "points": [{"experiment": "fig8", "metrics": {"ops_per_sec": 1}}]}`))
	if err == nil || !strings.Contains(err.Error(), `"ops_per_sec"`) {
		t.Fatalf("undefined metric: err = %v", err)
	}
}

// TestReadSnapshotRejectsDuplicateKeys: Compare matches points by key, so
// of two points with one key it would gate the first and print the second
// as a new point, never gated. ReadSnapshot refuses such a snapshot; the
// same points keyed apart, and every committed snapshot of this schema from
// BENCH_PR61.json on, read back.
func TestReadSnapshotRejectsDuplicateKeys(t *testing.T) {
	const point = `{"experiment": "fig8", "system": "Hamband", "class": "counter", "nodes": %d, "update_ratio": 0.25, "metrics": {"ops_per_us": 16.72}}`
	read := func(nodes ...any) error {
		pts := strings.TrimSuffix(strings.Repeat(point+",", len(nodes)), ",")
		_, err := ReadSnapshot(strings.NewReader(`{"schema": 2, "points": [` + fmt.Sprintf(pts, nodes...) + `]}`))
		return err
	}
	if err := read(4, 4); err == nil || !strings.Contains(err.Error(), "fig8|Hamband|counter|4|0.25") {
		t.Fatalf("two points with one key: err = %v", err)
	}
	if err := read(4, 5); err != nil {
		t.Fatalf("two points keyed apart: %v", err)
	}
	for _, name := range []string{"BENCH_PR61.json", "BENCH_PR62.json", "BENCH_PR63.json", "BENCH_PR64.json", "BENCH_PR65.json"} {
		readSnapshotFile(t, "../../"+name)
	}
}

// TestFigureExportsMatchSnapshot: the points `-exp costs`, `-exp wire` and
// `-exp shard` export — each figure's runs and its claims' misses points —
// are the snapshot's points of that figure, key for key and value for value,
// so `-exp benchstat` pairs a figure's export with the committed baseline.
func TestFigureExportsMatchSnapshot(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the whole snapshot")
	}
	cfg := Config{Ops: 1000, Seed: 42, Out: io.Discard}
	whole := cfg.Snapshot().values()
	for _, name := range []string{"costs", "wire", "shard"} {
		var js bytes.Buffer
		cfg.JSON = &js
		cfg.Figure(name)
		s, err := ReadSnapshot(&js)
		if err != nil {
			t.Fatal(err)
		}
		of := 0
		for key, m := range whole {
			if strings.HasPrefix(key, name+"|") || strings.HasPrefix(key, name+"/") {
				of++
				if got, ok := s.values()[key]; !ok || !maps.Equal(got, m) {
					t.Errorf("the snapshot's %s point %s reads %v, the %s export %v", name, key, m, name, got)
				}
			}
		}
		if of == 0 || len(s.Points) != of {
			t.Errorf("the %s export holds %d points, the snapshot %d of that figure", name, len(s.Points), of)
		}
	}
}
