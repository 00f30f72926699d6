package main

import (
	"slices"
	"strings"
	"testing"
)

// TestJudgeClaimRule pins the rule every host-time claim rests on: at least
// nine tenths of the pairs won, a tie counting for neither side, and a median
// better than the ref's by more than the ref's interquartile range; and the
// rule a regression is rejected on: a median worse than the ref's by more
// than the metric's bound. This ref spreads 31 % of its median, so below a
// bound of 0.31 a reading that is neither is unresolved. A virtual metric is
// read for byte-identity only.
func TestJudgeClaimRule(t *testing.T) {
	// ref's quartiles are 12.25 / 14.5 / 16.75: an interquartile range of 4.5.
	ref := []float64{10, 11, 12, 13, 14, 15, 16, 17, 18, 19}
	shift := func(d float64) []float64 {
		out := make([]float64, len(ref))
		for i, r := range ref {
			out[i] = r + d
		}
		return out
	}
	with := func(xs []float64, i int, x float64) []float64 {
		out := append([]float64(nil), xs...)
		out[i] = x
		return out
	}
	for _, tc := range []struct {
		name      string
		direction string
		bound     float64
		change    []float64
		texts     int
		wins      int
		reading   string
	}{
		{"every pair won, far beyond the spread", "lower", 0.05, shift(-9), 0, 10, "gain: "},
		{"nine of ten won", "lower", 0.05, with(shift(-9), 3, 99), 0, 9, "gain: "},
		{"nine won and a tie", "lower", 0.05, with(shift(-9), 3, ref[3]), 0, 9, "gain: "},
		{"eight won and two ties", "lower", 0.05, with(with(shift(-9), 3, ref[3]), 4, ref[4]), 0, 8, "unresolved: "},
		{"eight of ten won", "lower", 0.05, with(with(shift(-9), 3, 99), 4, 99), 0, 8, "unresolved: "},
		{"every pair won, inside the spread", "lower", 0.05, shift(-1), 0, 10, "unresolved: "},
		{"a spread inside the bound", "lower", 0.35, shift(-1), 0, 10, "no claim: "},
		{"median gap equal to the spread", "lower", 0.05, shift(-4.5), 0, 10, "unresolved: "},
		{"median gap just past the spread", "lower", 0.05, shift(-4.6), 0, 10, "gain: "},
		{"higher is better", "higher", 0.05, shift(9), 0, 10, "gain: "},
		{"the wrong direction", "lower", 0.05, shift(9), 0, 0, "regression: "},
		{"worse past the bound", "lower", 0.05, shift(1), 0, 0, "regression: "},
		{"worse within the bound", "lower", 0.05, shift(0.5), 0, 0, "unresolved: "},
		{"lower past the bound, higher is better", "higher", 0.05, shift(-1), 0, 0, "regression: "},
		{"a wider bound forgives it", "lower", 0.1, shift(1), 0, 0, "unresolved: "},
		{"a bound wider than the spread forgives it", "lower", 0.35, shift(1), 0, 0, "no claim: "},
		{"virtual, identical", "lower", 0.05, ref, 1, 0, "virtual: byte-identical"},
		{"virtual, moved", "lower", 0.05, shift(-9), 2, 10, "virtual: NOT byte-identical (2 distinct values)"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			v := judge(metricSpec{Better: tc.direction, Bound: tc.bound}, ref, tc.change, tc.texts)
			if v.wins != tc.wins {
				t.Errorf("wins = %d, want %d", v.wins, tc.wins)
			}
			if !strings.HasPrefix(v.reading, tc.reading) {
				t.Errorf("reading %q, want it to start %q", v.reading, tc.reading)
			}
			if v.ref != [3]float64{12.25, 14.5, 16.75} {
				t.Errorf("ref quartiles %v", v.ref)
			}
		})
	}
}

// TestJudgeFewPairsAndWideSpread: fewer than ten pairs claim no gain however
// one-sided they are, and a ref spreading past the bound leaves a reading
// unresolved unless every change run beat every ref run.
func TestJudgeFewPairsAndWideSpread(t *testing.T) {
	for _, tc := range []struct {
		name        string
		direction   string
		ref, change []float64
		reading     string
	}{
		{"one pair won by half", "lower", []float64{10}, []float64{5}, "no claim: 0.5× the ref median; a gain needs 10 pairs"},
		{"nine pairs, every one won", "lower", []float64{10, 10, 10, 10, 10, 10, 10, 10, 10}, []float64{5, 5, 5, 5, 5, 5, 5, 5, 5}, "no claim: "},
		// A ref spreading 4/14 of its median, past the 0.05 bound.
		{"wide ref, runs overlapping", "lower", []float64{10, 14, 18}, []float64{9, 13, 17}, "unresolved: "},
		{"wide ref, every change run better", "lower", []float64{10, 14, 18}, []float64{9, 9.5, 9.9}, "no claim: "},
		{"wide ref, every change run worse", "lower", []float64{10, 14, 18}, []float64{19, 20, 21}, "regression: "},
		{"wide ref, higher is better, every change run better", "higher", []float64{10, 14, 18}, []float64{19, 20, 21}, "no claim: "},
	} {
		v := judge(metricSpec{Better: tc.direction, Bound: 0.05}, tc.ref, tc.change, 0)
		if !strings.HasPrefix(v.reading, tc.reading) {
			t.Errorf("%s: reading %q, want it to start %q", tc.name, v.reading, tc.reading)
		}
	}
}

// TestParseWorkloads: -workload names one workload, a comma-separated list in
// the order given, or all, BENCHMARK.json's workloads in its order; an
// unknown, empty or repeated name is refused.
func TestParseWorkloads(t *testing.T) {
	known := []string{"reduce-counter", "buffer-orset", "conflict-movie"}
	for _, tc := range []struct {
		arg  string
		want []string
		err  string
	}{
		{"buffer-orset", []string{"buffer-orset"}, ""},
		{"conflict-movie,reduce-counter", []string{"conflict-movie", "reduce-counter"}, ""},
		{" buffer-orset , conflict-movie ", []string{"buffer-orset", "conflict-movie"}, ""},
		{"all", known, ""},
		{"nope", nil, `unknown workload "nope"`},
		{"buffer-orset,all", nil, `unknown workload "all"`},
		{"buffer-orset,", nil, "empty workload name"},
		{"buffer-orset,buffer-orset", nil, "named twice"},
	} {
		got, err := parseWorkloads(tc.arg, known)
		switch {
		case tc.err != "" && (err == nil || !strings.Contains(err.Error(), tc.err)):
			t.Errorf("%q: error %v, want one containing %q", tc.arg, err, tc.err)
		case tc.err == "" && (err != nil || !slices.Equal(got, tc.want)):
			t.Errorf("%q: %v, %v; want %v", tc.arg, got, err, tc.want)
		}
	}
}

// TestIdentityVerdict: a workload reads byte-identical only when it had
// virtual metrics and every one of them did.
func TestIdentityVerdict(t *testing.T) {
	for _, tc := range []struct {
		n         int
		identical bool
		want      string
	}{
		{5, true, "virtual byte-identical (5 metrics)"},
		{5, false, "virtual NOT byte-identical"},
		{0, true, "no virtual metric"},
	} {
		if got := identityVerdict(tc.n, tc.identical); got != tc.want {
			t.Errorf("identityVerdict(%d, %v) = %q, want %q", tc.n, tc.identical, got, tc.want)
		}
	}
}
