package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strconv"
)

// setupSlack is the absolute change in setup_s that never counts as a
// regression: its bound is the larger of 25 % and 5 ms.
const setupSlack = 0.005

func readResults(path string) (results, error) {
	var r results
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// spread is the run-to-run width of one set's own reps as a share of their
// median: the interquartile range from four reps on, the full range below.
func spread(reps []float64) float64 {
	if len(reps) < 2 {
		return 0
	}
	s := append([]float64(nil), reps...)
	sort.Float64s(s)
	lo, hi := s[0], s[len(s)-1]
	if len(s) >= 4 {
		lo, hi = s[len(s)/4], s[(3*len(s))/4]
	}
	return ratio(hi-lo, math.Abs(median(s)))
}

// exact renders a value with every digit, for the byte-identity test.
func exact(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

// compareFiles prints one row per (workload, end-to-end metric) of two
// result files, then every virtual per-layer metric that is not
// byte-identical. It returns 1 when any row regressed.
func compareFiles(pathA, pathB string, stdout, stderr io.Writer) int {
	a, errA := readResults(pathA)
	b, errB := readResults(pathB)
	if err := errors.Join(errA, errB); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	return compareResults(a, b, stdout)
}

func compareResults(a, b results, out io.Writer) int {
	byName := map[string]workloadResult{}
	for _, wr := range b.Workloads {
		byName[wr.Name] = wr
	}
	regressed := 0
	fmt.Fprintf(out, "%-20s %-24s %14s %14s %9s %7s  %s\n", "workload", "metric", "A", "B", "worse", "bound", "verdict")
	for _, wa := range a.Workloads {
		wb, ok := byName[wa.Name]
		if !ok {
			continue
		}
		for _, m := range endToEnd {
			va, okA := wa.EndToEnd[m.Name]
			vb, okB := wb.EndToEnd[m.Name]
			if !okA || !okB {
				continue
			}
			// worse is the change in the bad direction as a share of A.
			diff := vb.Value - va.Value
			if m.Better == "higher" {
				diff = -diff
			}
			worse := ratio(diff, math.Abs(va.Value))
			verdict := "ok"
			switch {
			case m.Bound > 0 && math.Max(spread(va.Reps), spread(vb.Reps)) > m.Bound:
				verdict = "unresolved"
			case m.Name == "setup_s" && diff <= setupSlack:
			case diff > 0 && (worse > m.Bound || va.Value == 0):
				verdict = "regressed"
				regressed++
			}
			if m.Clock == virtual && exact(va.Value) != exact(vb.Value) {
				verdict += "  virtual value not byte-identical"
			}
			fmt.Fprintf(out, "%-20s %-24s %14.6g %14.6g %+8.2f%% %6.1f%%  %s\n",
				wa.Name, m.Name, va.Value, vb.Value, 100*worse, 100*m.Bound, verdict)
		}
		for _, m := range perLayer {
			va, okA := wa.PerLayer[m.Name]
			vb, okB := wb.PerLayer[m.Name]
			if okA && okB && m.Clock == virtual && exact(va.Value) != exact(vb.Value) {
				fmt.Fprintf(out, "%-20s %-24s %14.6g %14.6g  per-layer virtual value not byte-identical\n",
					wa.Name, m.Name, va.Value, vb.Value)
			}
		}
	}
	if regressed > 0 {
		fmt.Fprintf(out, "%d regressed\n", regressed)
		return 1
	}
	return 0
}
