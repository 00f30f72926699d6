package span

import (
	"fmt"
	"io"
	"math"
	"slices"
	"sort"

	"hamband/internal/metrics"
	"hamband/internal/sim"
)

// StageStats summarizes one stage's latency distribution across all spans
// of a category, extracted from its metrics histogram.
type StageStats struct {
	Name  string
	Count uint64
	Mean  sim.Duration
	P50   sim.Duration
	P95   sim.Duration
	P99   sim.Duration
}

// StageShare is one stage's contribution to a tail cohort: its mean
// duration within the cohort and that mean's share of the cohort's mean
// total latency.
type StageShare struct {
	Name  string
	Mean  sim.Duration
	Share float64
}

// TailCohort decomposes the slowest calls of a category: the spans whose
// total latency is at or above the given quantile, attributed stage by
// stage.
type TailCohort struct {
	Quantile  float64
	Count     int
	MeanTotal sim.Duration
	Stages    []StageShare
}

// CategoryReport is the per-category latency attribution.
type CategoryReport struct {
	Category  string
	Count     int
	Completed int
	Stages    []StageStats
	TotalP50  sim.Duration
	TotalP95  sim.Duration
	TotalP99  sim.Duration
	Tails     []TailCohort
}

// Report is the full latency-attribution report across categories, and the
// conflicting category split by origin role: Roles' categories read
// "conflicting/leader" and "conflicting/follower" (Span.Role).
type Report struct {
	Categories []*CategoryReport
	Roles      []*CategoryReport
}

// stageOrder fixes the report's stage ordering per category (superset of
// the stages build can emit, in protocol order).
var stageOrder = map[string][]string{
	CatReducible:    {"queue", "summarize", "complete", "doorbell", "wire", "adopt"},
	CatConflictFree: {"queue", "local-apply", "complete", "doorbell", "wire", "ack", "remote-apply"},
	CatConflicting:  {"queue", "order", "commit", "deliver", "remote-apply"},
	CatUnknown:      {"queue", "complete"},
}

// Analyze builds the latency-attribution report: per-stage histograms (fed
// through reg, so they also appear in the registry's own exports) with
// p50/p95/p99 extraction, plus tail cohorts decomposing the p95 and p99
// slowest calls of each category by stage. reg may be nil; histograms are
// then anonymous but the report is identical.
func Analyze(spans []*Span, reg *metrics.Registry) *Report {
	byCat := make(map[string][]*Span)
	for _, s := range spans {
		if s.Rejected {
			continue // rejected calls never ran the pipeline
		}
		byCat[s.Category] = append(byCat[s.Category], s)
	}
	rep := &Report{}
	for _, cat := range Categories {
		ss := byCat[cat]
		if len(ss) == 0 {
			continue
		}
		rep.Categories = append(rep.Categories, analyzeCategory(cat, cat, ss, reg))
	}
	// The role reports feed no registry: its span.* histograms stay the
	// categories'.
	for _, role := range Roles {
		var ss []*Span
		for _, s := range byCat[CatConflicting] {
			if s.Role == role {
				ss = append(ss, s)
			}
		}
		if len(ss) > 0 {
			rep.Roles = append(rep.Roles, analyzeCategory(CatConflicting+"/"+role, CatConflicting, ss, nil))
		}
	}
	return rep
}

// analyzeCategory reports spans, all of category cat, under name.
func analyzeCategory(name, cat string, spans []*Span, reg *metrics.Registry) *CategoryReport {
	cr := &CategoryReport{Category: name, Count: len(spans)}
	hist := func(stage string) *metrics.Histogram {
		if reg.Enabled() {
			return reg.Histogram("span."+name+"."+stage, nil)
		}
		return metrics.NewHistogram(nil)
	}
	stageHs := make(map[string]*metrics.Histogram)
	for _, name := range stageOrder[cat] {
		stageHs[name] = hist(name)
	}
	totalH := hist("total")
	var completed []*Span
	for _, s := range spans {
		for _, st := range s.Stages {
			if h, ok := stageHs[st.Name]; ok {
				h.Observe(st.Duration())
			}
		}
		if s.Completed() {
			completed = append(completed, s)
			totalH.Observe(s.Total())
		}
	}
	cr.Completed = len(completed)
	for _, name := range stageOrder[cat] {
		h := stageHs[name]
		if h.Count() == 0 {
			continue
		}
		cr.Stages = append(cr.Stages, StageStats{
			Name:  name,
			Count: h.Count(),
			Mean:  h.Mean(),
			P50:   h.Quantile(0.50),
			P95:   h.Quantile(0.95),
			P99:   h.Quantile(0.99),
		})
	}
	cr.TotalP50 = totalH.Quantile(0.50)
	cr.TotalP95 = totalH.Quantile(0.95)
	cr.TotalP99 = totalH.Quantile(0.99)

	// Tail attribution works on the exact retained spans, not the bucketed
	// histograms: sort by total latency and decompose the slowest cohorts.
	sort.SliceStable(completed, func(i, j int) bool { return completed[i].Total() < completed[j].Total() })
	for _, q := range []float64{0.95, 0.99} {
		if tc := tailCohort(cat, completed, q); tc != nil {
			cr.Tails = append(cr.Tails, *tc)
		}
	}
	return cr
}

// tailCohort decomposes the spans at or above the q-quantile of total
// latency (spans must be sorted ascending by Total). Only critical-path
// stages count: the cohort is selected by client-observed latency, so the
// decomposition covers exactly that latency and the shares sum to one;
// post-completion replication tails are excluded.
func tailCohort(cat string, spans []*Span, q float64) *TailCohort {
	if len(spans) == 0 {
		return nil
	}
	n := int(math.Round(q * float64(len(spans))))
	if n < 0 {
		n = 0
	}
	if n >= len(spans) {
		n = len(spans) - 1
	}
	cohort := spans[n:]
	tc := &TailCohort{Quantile: q, Count: len(cohort)}
	var total sim.Duration
	stageSum := make(map[string]sim.Duration)
	for _, s := range cohort {
		total += s.Total()
		for _, st := range s.CriticalPath() {
			stageSum[st.Name] += st.Duration()
		}
	}
	tc.MeanTotal = total / sim.Duration(len(cohort))
	for _, name := range stageOrder[cat] {
		sum, ok := stageSum[name]
		if !ok {
			continue
		}
		mean := sum / sim.Duration(len(cohort))
		share := 0.0
		if tc.MeanTotal > 0 {
			share = float64(mean) / float64(tc.MeanTotal)
		}
		tc.Stages = append(tc.Stages, StageShare{Name: name, Mean: mean, Share: share})
	}
	return tc
}

// All returns the category reports, then the role reports.
func (rep *Report) All() []*CategoryReport { return slices.Concat(rep.Categories, rep.Roles) }

// WriteTable prints the report: a per-stage percentile table per category,
// then per origin role of the conflicting calls, each followed by its
// tail-attribution breakdowns.
func (rep *Report) WriteTable(w io.Writer) {
	if len(rep.Categories) == 0 {
		fmt.Fprintln(w, "(no spans)")
		return
	}
	for _, cr := range rep.All() {
		fmt.Fprintf(w, "== %s (%d calls, %d completed) ==\n", cr.Category, cr.Count, cr.Completed)
		fmt.Fprintf(w, "%-14s %9s %10s %10s %10s %10s\n", "stage", "count", "mean", "p50", "p95", "p99")
		for _, st := range cr.Stages {
			fmt.Fprintf(w, "%-14s %9d %10v %10v %10v %10v\n",
				st.Name, st.Count, st.Mean, st.P50, st.P95, st.P99)
		}
		fmt.Fprintf(w, "%-14s %9s %10s %10v %10v %10v\n",
			"total", "", "", cr.TotalP50, cr.TotalP95, cr.TotalP99)
		for _, tc := range cr.Tails {
			fmt.Fprintf(w, "tail p%.0f cohort: %d calls, mean total %v\n",
				tc.Quantile*100, tc.Count, tc.MeanTotal)
			for _, ss := range tc.Stages {
				fmt.Fprintf(w, "  %-14s %10v  %5.1f%%\n", ss.Name, ss.Mean, ss.Share*100)
			}
		}
		fmt.Fprintln(w)
	}
}
