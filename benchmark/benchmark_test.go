package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

// smallOps keeps the all-workload tests inside the tier-1 budget.
const smallOps = 400

func TestCatalogueNamesAreUnique(t *testing.T) {
	seen := map[string]bool{}
	for _, m := range append(append([]metricDef(nil), endToEnd[:manifestEndToEnd]...), perLayer...) {
		if seen[m.Name] {
			t.Errorf("metric %s is listed twice", m.Name)
		}
		seen[m.Name] = true
	}
}

// Every workload emits each named metric exactly once with a finite value:
// measureEndToEnd and measurePerLayer refuse anything else (checkCatalogue),
// and no call may fail.
func TestEveryWorkloadEmitsEveryMetric(t *testing.T) {
	micro, err := microMetrics(time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		wr := workloadResult{Name: w.name, Correct: true}
		if err := measureEndToEnd(w, smallOps, 42, time.Millisecond, &wr); err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if err := measurePerLayer(w, smallOps, 42, micro, t.TempDir(), &wr); err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if !wr.Correct || wr.Failed != 0 {
			t.Errorf("%s: correct=%v failed=%d notes=%v", w.name, wr.Correct, wr.Failed, wr.Notes)
		}
		if len(wr.EndToEnd) != len(endToEnd) || len(wr.PerLayer) != len(perLayer) {
			t.Errorf("%s: %d end-to-end and %d per-layer metrics, want %d and %d",
				w.name, len(wr.EndToEnd), len(wr.PerLayer), len(endToEnd), len(perLayer))
		}
		for _, m := range endToEnd[:manifestEndToEnd] {
			if wr.EndToEnd[m.Name].Value <= 0 {
				t.Errorf("%s: %s = %v, want > 0", w.name, m.Name, wr.EndToEnd[m.Name].Value)
			}
		}
		faulty := w.open
		if got := wr.PerLayer["mu.elections"].Value; (got == 1) != faulty {
			t.Errorf("%s: mu.elections = %v", w.name, got)
		}
		if got := wr.EndToEnd["failover_gap_us"].Value; (got > 0) != faulty {
			t.Errorf("%s: failover_gap_us = %v", w.name, got)
		}
		if !faulty {
			for _, name := range []string{"heartbeat.suspicions", "core.gap_fetches", "core.torn_rejects"} {
				if got := wr.PerLayer[name].Value; got != 0 {
					t.Errorf("%s: %s = %v on a fault-free workload", w.name, name, got)
				}
			}
			// The tracer is read-only: the traced rep repeats the untraced one.
			if got := wr.PerLayer["driver.virtual_variants"].Value; got != 1 {
				t.Errorf("%s: traced and untraced reps differ on the virtual clock", w.name)
			}
		}
	}
}

// The same seed repeats the virtual clock to the last digit; another seed
// does not. failover-courseware is left out of the first half: an election
// sends its vote requests in map order (mu.Instance.StartElection ranges
// over voteOut), so the seed's runs fall into a few distinct outcomes. The
// benchmark reports that as driver.virtual_variants instead of hiding it.
func TestSeedFixesVirtualClock(t *testing.T) {
	for _, w := range workloads {
		run := func(seed int64) string {
			r, err := runRep(w, smallOps, seed, false)
			if err != nil {
				t.Fatalf("%s: %v", w.name, err)
			}
			if r.checkErr != nil {
				t.Fatalf("%s: %v", w.name, r.checkErr)
			}
			return fingerprint(r)
		}
		a, b, c := run(42), run(42), run(43)
		if a != b && !w.open {
			t.Errorf("%s: seed 42 gave two virtual outcomes:\n%s\n%s", w.name, a, b)
		}
		if a == c {
			t.Errorf("%s: seeds 42 and 43 gave the same virtual outcome", w.name)
		}
	}
}

// The three figure workloads reproduce BENCH_PR8.json's Hamband points at
// its size and seed, which ties this ruler to the old trajectory.
func TestFigurePointsMatchPR8(t *testing.T) {
	for name, want := range map[string]float64{"reduce-counter": 14.35, "buffer-orset": 9.07, "conflict-movie": 2.12} {
		w, _ := workloadByName(name)
		r, err := runRep(w, 20000, 42, false)
		if err != nil {
			t.Fatal(err)
		}
		got := endToEndOf(r)["vthroughput"]
		if math.Abs(got-want)/want > 0.03 {
			t.Errorf("%s: %.3f ops/us, BENCH_PR8 has %.2f", name, got, want)
		}
	}
}

func TestFailedCheckFailsEveryCall(t *testing.T) {
	r := &rep{issued: 100, completed: 98, lost: 2}
	if r.failed() != 0 {
		t.Errorf("failed = %d with every attempted call completed", r.failed())
	}
	r.checkErr = errors.New("replicas diverge")
	if r.failed() != 98 {
		t.Errorf("failed = %d after a failed check, want all 98 attempted", r.failed())
	}
}

func TestCompareVerdicts(t *testing.T) {
	set := func(wall []float64, thr float64) results {
		return results{Workloads: []workloadResult{{Name: "w", EndToEnd: map[string]measured{
			"wall_ns_per_op":  {Value: median(wall), Reps: wall},
			"vthroughput":     {Value: thr, Reps: []float64{thr, thr, thr}},
			"failed_op_ratio": {},
		}}}}
	}
	base := set([]float64{100, 101, 99, 100}, 10)
	for _, tc := range []struct {
		name string
		b    results
		want string
		code int
	}{
		{"same", base, "ok", 0},
		{"slower", set([]float64{140, 141, 139, 140}, 10), "regressed", 1},
		{"noisy", set([]float64{50, 120, 100, 160, 40}, 10), "unresolved", 0},
		{"virtual moved", set([]float64{100, 101, 99, 100}, 10.05), "not byte-identical", 0},
	} {
		var out bytes.Buffer
		if code := compareResults(base, tc.b, &out); code != tc.code {
			t.Errorf("%s: exit %d, want %d\n%s", tc.name, code, tc.code, out.String())
		}
		if !strings.Contains(out.String(), tc.want) {
			t.Errorf("%s: no %q in\n%s", tc.name, tc.want, out.String())
		}
	}
}

// BENCHMARK.json at the repository root names what this program prints.
func TestManifestMatchesCatalogue(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name, Unit, Better string
		Bound              float64
	}
	var manifest struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metric `json:"end_to_end"`
		PerLayer  []metric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &manifest); err != nil {
		t.Fatal(err)
	}
	if len(manifest.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the manifest, %d in the program", len(manifest.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if got := manifest.Workloads[i]; got.Name != w.name || got.Why != w.why {
			t.Errorf("workload %d: manifest has %q, program %q", i, got.Name, w.name)
		}
	}
	same := func(kind string, got []metric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in the manifest, %d in the program", kind, len(got), len(want))
		}
		for i, m := range want {
			if g := got[i]; g.Name != m.Name || g.Unit != m.Unit || g.Better != m.Better || (kind == "end_to_end" && g.Bound != m.Bound) {
				t.Errorf("%s %d: manifest has %+v, program %+v", kind, i, g, m)
			}
		}
	}
	same("end_to_end", manifest.EndToEnd, endToEnd[:manifestEndToEnd])
	same("per_layer", manifest.PerLayer, perLayer)
}
