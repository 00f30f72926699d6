package bench

import (
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite EXPERIMENTS.md's generated figure tables from the committed baseline")

// The committed baseline, and the document whose figure tables render it.
const (
	baselineSnapshot = "../../BENCH_PR73.json"
	experimentsDoc   = "../../EXPERIMENTS.md"
)

func readSnapshotFile(t *testing.T, path string) Snapshot {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	s, err := ReadSnapshot(f)
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return s
}

// renderExperiments returns doc with each figure's block, between its
// "<!-- begin NAME -->" and "<!-- end NAME -->" lines, replaced by the
// figure's render of s.
func renderExperiments(doc string, s Snapshot) (string, error) {
	for i := range paper {
		f := &paper[i]
		begin, end := "<!-- begin "+f.name+" -->\n", "<!-- end "+f.name+" -->"
		a, b := strings.Index(doc, begin), strings.Index(doc, end)
		if a < 0 || b < a {
			return "", fmt.Errorf("no %s block between %q and %q", f.name, begin, end)
		}
		var out strings.Builder
		f.render(&out, s)
		doc = doc[:a+len(begin)] + out.String() + doc[b:]
	}
	return doc, nil
}

// TestExperimentsTables: EXPERIMENTS.md's Figure 8–13, overview, ablation,
// costs, wire and shard tables are the render of the committed baseline, so
// a number typed into them by hand, or a baseline re-recorded without them,
// fails.
// Regenerate with go test ./internal/bench -run ExperimentsTables -update.
func TestExperimentsTables(t *testing.T) {
	s := readSnapshotFile(t, baselineSnapshot)
	doc, err := os.ReadFile(experimentsDoc)
	if err != nil {
		t.Fatal(err)
	}
	want, err := renderExperiments(string(doc), s)
	if err != nil {
		t.Fatal(err)
	}
	if *update {
		if err := os.WriteFile(experimentsDoc, []byte(want), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	if string(doc) != want {
		t.Fatalf("EXPERIMENTS.md's figure tables are not the render of %s; regenerate with -update", baselineSnapshot)
	}

	// The controls: one hand-edited cell of a Fig. 9, overview, ablation,
	// costs, wire or shard table, or of a claims table's ÷ paper column, is
	// caught.
	for _, c := range []struct{ block, cell, edit string }{
		{"fig8", "mean 1.23× | 0.299 |", "mean 1.23× | 0.300 |"},
		{"fig9", "| 12.33 |", "| 12.34 |"},
		{"overview", "| 15.11 |", "| 15.12 |"},
		{"ablations", "| 14.01 |", "| 14.02 |"},
		{"costs", "| 47.66 |", "| 47.67 |"},
		{"wire", "| 9.95 |", "| 9.96 |"},
		{"shard", "| 18.73 |", "| 18.74 |"},
	} {
		at, end, cellAt := strings.Index(want, "<!-- begin "+c.block+" -->"), strings.Index(want, "<!-- end "+c.block+" -->"), -1
		if 0 <= at && at < end {
			cellAt = strings.Index(want[at:end], c.cell)
		}
		if cellAt < 0 {
			t.Fatalf("no %q cell in the %s block", c.cell, c.block)
		}
		cellAt += at
		edited := want[:cellAt] + c.edit + want[cellAt+len(c.cell):]
		if regen, err := renderExperiments(edited, s); err != nil || regen == edited {
			t.Fatalf("a hand-edited %s cell went unnoticed (%v)", c.block, err)
		}
	}
}

// TestClaimMissesGate is the seeded-miss control of the claims' misses
// metric: in a copy of the baseline, one more Fig. 9 Hamband point pushed
// below its Mu point raises the "3× Mu" claim's misses by one, and Compare
// reports that, and only that, as a regression (the point's own throughput
// moves by less than its bound).
func TestClaimMissesGate(t *testing.T) {
	old := readSnapshotFile(t, baselineSnapshot)
	f, vals := figureNamed("fig9"), old.values()
	var muClaim claim
	for _, cl := range f.claims {
		if cl.id == "vs-mu" {
			muClaim = cl
		}
	}
	var seeded string
	var seededOps float64 // 0.99 × the point's Mu throughput
	for _, c := range f.cells(0, false) {
		if r, ok := muClaim.ratio(c, vals); ok && !muClaim.miss(r) && r < 1.03 {
			seeded = SnapPoint{c.exp(), c.sys.String(), c.class, c.nodes, c.ratio, nil}.key()
			seededOps = 0.99 * vals[seeded]["ops_per_us"] / r
			break
		}
	}
	if seeded == "" {
		t.Fatal("no Fig. 9 point where Hamband leads Mu by less than 3 %")
	}
	cur := Snapshot{Schema: old.Schema, Ops: old.Ops, Seed: old.Seed}
	for _, p := range old.Points {
		if !strings.Contains(p.Experiment, "/claim/") {
			p.Metrics = maps.Clone(p.Metrics)
			if p.key() == seeded {
				p.Metrics["ops_per_us"] = seededOps
			}
			cur.Points = append(cur.Points, p)
		}
	}
	cur.Points = append(cur.Points, claimPoints(cur)...)
	const key = "fig9/claim/vs-mu|Hamband||0|0"
	before, after := old.values()[key]["misses"], cur.values()[key]["misses"]
	if after != before+1 {
		t.Fatalf("seeding %s moved the Mu claim's misses %g -> %g, want one more", seeded, before, after)
	}
	bad := Compare(io.Discard, old, cur)
	want := fmt.Sprintf("misses: %g -> %g", before, after)
	if len(bad) != 1 || !strings.Contains(bad[0], "fig9/claim/vs-mu") || !strings.Contains(bad[0], want) {
		t.Fatalf("regressions reported: %q, want the Mu claim's %s alone", bad, want)
	}
}

// TestRatioColumnsShowMisses: Fig. 9's orset point at 5 % updates on four
// nodes, where Hamband (16.29 ops/µs) trails Mu (16.53) by 1.5 %, renders
// its ratio at two decimals, 0.99× marked ✗ (one decimal printed 1.0×), and
// counts as a miss of the Mu claim, whose ÷ paper cell reads 0.99 ÷ 3.
func TestRatioColumnsShowMisses(t *testing.T) {
	point := func(sys string, ops float64) SnapPoint {
		return SnapPoint{"fig9", sys, "orset", 4, 0.05, map[string]float64{"ops_per_us": ops}}
	}
	s := Snapshot{Ops: DefaultOps, Points: []SnapPoint{point("Hamband", 16.29), point("Mu", 16.53)}}
	var out strings.Builder
	f := figureNamed("fig9")
	f.render(&out, s)
	if !strings.Contains(out.String(), "| orset | 5 | 4 | 16.29 | - | 16.53 |  | 0.99× ✗ |") {
		t.Errorf("the point's row does not show 0.99× ✗:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "| 0.99× | 0.328 | 1 of 1 | ✗ |") {
		t.Errorf("the Mu claim does not count the miss:\n%s", out.String())
	}
}
