// Package metrics is the Hamband runtime's measurement substrate: a
// sim-time-aware registry of counters, gauges and fixed-bucket latency
// histograms with percentile extraction.
//
// The design mirrors the tracer's opt-in contract but is built for hot
// paths:
//
//   - a nil *Registry — and the nil instruments it hands out — is a valid,
//     allocation-free no-op, so instrumented code needs no "is metrics on?"
//     branches and pays nothing when observability is disabled;
//   - instruments are looked up (and named) once at setup time; recording
//     is a field increment or a bucket index, never a map access or an
//     allocation;
//   - histograms use fixed exponential buckets, so Observe is O(log b) with
//     no memory growth, and p50/p95/p99 are extracted by interpolating
//     within the owning bucket.
//
// All times are virtual (package sim): a snapshot stamps the engine's
// current virtual time, which is what makes per-run reports reproducible.
package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"slices"
	"sort"

	"hamband/internal/sim"
)

// Counter is a monotone event count. The nil counter discards increments.
// Besides its own increments it may read counts a layer keeps itself (see
// Registry.CounterFunc), so an event the layer already counts is not counted
// a second time.
type Counter struct {
	v     uint64
	reads []*Read
}

// Read is one read function of a counter (Registry.CounterFunc); the nil
// Read, from the nil registry, is a no-op.
type Read struct {
	c  *Counter
	fn func() uint64 // nil once retired
}

// Retire folds the read's value into the counter's own count and drops the
// read, so a stopped instance leaves no read behind and the value does not
// move. Retiring again does nothing.
func (rd *Read) Retire() {
	if rd == nil || rd.fn == nil {
		return
	}
	c := rd.c
	c.v += rd.fn()
	rd.fn = nil
	c.reads = slices.DeleteFunc(c.reads, func(o *Read) bool { return o == rd })
}

// Reads returns how many read functions the counter calls.
func (c *Counter) Reads() int {
	if c == nil {
		return 0
	}
	return len(c.reads)
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v++
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v += n
	}
}

// Value returns the current count — the counter's own increments plus
// every read — (0 for the nil counter).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	v := c.v
	for _, rd := range c.reads {
		v += rd.fn()
	}
	return v
}

// Gauge is an instantaneous level (queue depth, in-flight count). The nil
// gauge discards updates.
type Gauge struct {
	v   int64
	max int64
}

// Set installs an absolute value.
func (g *Gauge) Set(v int64) {
	if g == nil {
		return
	}
	g.v = v
	if v > g.max {
		g.max = v
	}
}

// Add moves the gauge by d (negative to decrease).
func (g *Gauge) Add(d int64) {
	if g == nil {
		return
	}
	g.v += d
	if g.v > g.max {
		g.max = g.v
	}
}

// Value returns the current level (0 for the nil gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v
}

// Max returns the high-water mark (0 for the nil gauge).
func (g *Gauge) Max() int64 {
	if g == nil {
		return 0
	}
	return g.max
}

// maxBuckets bounds a histogram's bucket count (the +1 overflow bucket is
// stored separately).
const maxBuckets = 64

// Histogram is a fixed-bucket latency distribution. Bounds are inclusive
// upper edges in virtual nanoseconds; observations above the last bound
// land in an overflow bucket. The nil histogram discards observations.
type Histogram struct {
	bounds []sim.Duration
	counts []uint64 // len(bounds)+1; last is overflow
	n      uint64
	sum    sim.Duration
	min    sim.Duration
	max    sim.Duration
}

// DefaultLatencyBounds covers the fabric's operating range: 250 ns to
// ~8 ms, doubling — fine enough to separate a one-sided write (~2 µs RTT)
// from a consensus round (~5 µs) from a fail-over (~100 µs+).
func DefaultLatencyBounds() []sim.Duration {
	bounds := make([]sim.Duration, 0, 16)
	for b := 250 * sim.Nanosecond; b <= 8*sim.Millisecond; b *= 2 {
		bounds = append(bounds, b)
	}
	return bounds
}

// NewHistogram returns a standalone histogram over bounds (nil bounds:
// DefaultLatencyBounds), unattached to any registry — for consumers that
// want percentile extraction without naming an instrument.
func NewHistogram(bounds []sim.Duration) *Histogram { return newHistogram(bounds) }

// newHistogram builds a histogram over sorted bounds.
func newHistogram(bounds []sim.Duration) *Histogram {
	if len(bounds) == 0 {
		bounds = DefaultLatencyBounds()
	}
	if len(bounds) > maxBuckets {
		panic(fmt.Sprintf("metrics: %d buckets exceeds the %d limit", len(bounds), maxBuckets))
	}
	bs := append([]sim.Duration(nil), bounds...)
	sort.Slice(bs, func(i, j int) bool { return bs[i] < bs[j] })
	return &Histogram{bounds: bs, counts: make([]uint64, len(bs)+1)}
}

// Observe records one duration. Zero allocation; O(log buckets).
func (h *Histogram) Observe(d sim.Duration) {
	if h == nil {
		return
	}
	// Binary search for the first bound >= d.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if h.bounds[mid] < d {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	h.counts[lo]++
	h.n++
	h.sum += d
	if h.n == 1 || d < h.min {
		h.min = d
	}
	if d > h.max {
		h.max = d
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.n
}

// Sum returns the total of all observations.
func (h *Histogram) Sum() sim.Duration {
	if h == nil {
		return 0
	}
	return h.sum
}

// Mean returns the average observation (0 when empty).
func (h *Histogram) Mean() sim.Duration {
	if h == nil || h.n == 0 {
		return 0
	}
	return h.sum / sim.Duration(h.n)
}

// Max returns the largest observation.
func (h *Histogram) Max() sim.Duration {
	if h == nil {
		return 0
	}
	return h.max
}

// Min returns the smallest observation.
func (h *Histogram) Min() sim.Duration {
	if h == nil {
		return 0
	}
	return h.min
}

// Quantile returns an estimate of the q-quantile (q in [0,1]) by linear
// interpolation within the owning bucket, clamped to the observed min/max.
// The overflow bucket reports the observed max.
func (h *Histogram) Quantile(q float64) sim.Duration {
	if h == nil || h.n == 0 {
		return 0
	}
	if q <= 0 {
		return h.min
	}
	if q >= 1 {
		return h.max
	}
	rank := q * float64(h.n)
	var cum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		prev := cum
		cum += float64(c)
		if cum < rank {
			continue
		}
		if i == len(h.bounds) {
			return h.max // overflow bucket
		}
		lo := sim.Duration(0)
		if i > 0 {
			lo = h.bounds[i-1]
		}
		hi := h.bounds[i]
		frac := (rank - prev) / float64(c)
		est := lo + sim.Duration(frac*float64(hi-lo))
		if est < h.min {
			est = h.min
		}
		if est > h.max {
			est = h.max
		}
		return est
	}
	return h.max
}

// Registry names and owns instruments. Construct with New; the nil
// registry hands out nil instruments, making every downstream record a
// no-op. The simulation is single-threaded, so no locking is needed.
type Registry struct {
	eng   *sim.Engine
	names []string // registration order, for stable reports
	cs    map[string]*Counter
	gs    map[string]*Gauge
	hs    map[string]*Histogram
}

// New returns an enabled registry stamped with eng's virtual clock.
func New(eng *sim.Engine) *Registry {
	return &Registry{
		eng: eng,
		cs:  make(map[string]*Counter),
		gs:  make(map[string]*Gauge),
		hs:  make(map[string]*Histogram),
	}
}

// Enabled reports whether the registry records anything.
func (r *Registry) Enabled() bool { return r != nil }

// Counter returns the counter registered under name, creating it on first
// use. Returns nil (a no-op counter) on the nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	c, ok := r.cs[name]
	if !ok {
		c = &Counter{}
		r.cs[name] = c
		r.names = append(r.names, name)
	}
	return c
}

// CounterFunc adds read to the counter registered under name, creating it
// on first use: the counter's value then includes what read returns. A layer
// that keeps its own count of an event exports it this way, once per
// instance (the counter sums them); an instance that stops retires its Read.
// A no-op returning nil on the nil registry.
func (r *Registry) CounterFunc(name string, read func() uint64) *Read {
	c := r.Counter(name)
	if c == nil {
		return nil
	}
	rd := &Read{c: c, fn: read}
	c.reads = append(c.reads, rd)
	return rd
}

// Gauge returns the gauge registered under name, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	g, ok := r.gs[name]
	if !ok {
		g = &Gauge{}
		r.gs[name] = g
		r.names = append(r.names, name)
	}
	return g
}

// Histogram returns the histogram registered under name, creating it with
// the given bucket bounds on first use (nil bounds: DefaultLatencyBounds).
func (r *Registry) Histogram(name string, bounds []sim.Duration) *Histogram {
	if r == nil {
		return nil
	}
	h, ok := r.hs[name]
	if !ok {
		h = newHistogram(bounds)
		r.hs[name] = h
		r.names = append(r.names, name)
	}
	return h
}

// Now returns the registry's virtual clock (0 on the nil registry), for
// stamping latency measurement start points.
func (r *Registry) Now() sim.Time {
	if r == nil || r.eng == nil {
		return 0
	}
	return r.eng.Now()
}

// --- export -------------------------------------------------------------

// HistogramSnapshot is the exported view of one histogram.
type HistogramSnapshot struct {
	Count uint64  `json:"count"`
	SumNS int64   `json:"sum_ns"`
	MinNS int64   `json:"min_ns"`
	MaxNS int64   `json:"max_ns"`
	P50NS int64   `json:"p50_ns"`
	P95NS int64   `json:"p95_ns"`
	P99NS int64   `json:"p99_ns"`
	Mean  float64 `json:"mean_us"`
}

// GaugeSnapshot is the exported view of one gauge.
type GaugeSnapshot struct {
	Value int64 `json:"value"`
	Max   int64 `json:"max"`
}

// Snapshot is a point-in-time export of every instrument.
type Snapshot struct {
	AtNS       int64                        `json:"at_ns"`
	Counters   map[string]uint64            `json:"counters,omitempty"`
	Gauges     map[string]GaugeSnapshot     `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
}

// Snapshot exports the registry's current state, stamped with the virtual
// time. The nil registry snapshots as empty.
func (r *Registry) Snapshot() Snapshot {
	s := Snapshot{
		Counters:   map[string]uint64{},
		Gauges:     map[string]GaugeSnapshot{},
		Histograms: map[string]HistogramSnapshot{},
	}
	if r == nil {
		return s
	}
	s.AtNS = int64(r.Now())
	for name, c := range r.cs {
		s.Counters[name] = c.Value()
	}
	for name, g := range r.gs {
		s.Gauges[name] = GaugeSnapshot{Value: g.Value(), Max: g.Max()}
	}
	for name, h := range r.hs {
		s.Histograms[name] = HistogramSnapshot{
			Count: h.Count(),
			SumNS: int64(h.Sum()),
			MinNS: int64(h.Min()),
			MaxNS: int64(h.Max()),
			P50NS: int64(h.Quantile(0.50)),
			P95NS: int64(h.Quantile(0.95)),
			P99NS: int64(h.Quantile(0.99)),
			Mean:  h.Mean().Micros(),
		}
	}
	return s
}

// WriteJSON writes the snapshot as indented JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}

// WriteTable writes a human-readable report: a percentile table for every
// histogram followed by counters and gauges, in registration order.
func (r *Registry) WriteTable(w io.Writer) {
	if r == nil {
		fmt.Fprintln(w, "(metrics disabled)")
		return
	}
	wroteHist := false
	for _, name := range r.names {
		h, ok := r.hs[name]
		if !ok || h.Count() == 0 {
			continue
		}
		if !wroteHist {
			fmt.Fprintf(w, "%-34s %9s %10s %10s %10s %10s %10s\n",
				"histogram", "count", "mean", "p50", "p95", "p99", "max")
			wroteHist = true
		}
		fmt.Fprintf(w, "%-34s %9d %10v %10v %10v %10v %10v\n",
			name, h.Count(), h.Mean(), h.Quantile(0.50), h.Quantile(0.95),
			h.Quantile(0.99), h.Max())
	}
	wroteCount := false
	for _, name := range r.names {
		if c, ok := r.cs[name]; ok {
			if !wroteCount {
				fmt.Fprintf(w, "%-34s %14s\n", "counter", "value")
				wroteCount = true
			}
			fmt.Fprintf(w, "%-34s %14d\n", name, c.Value())
		}
	}
	wroteGauge := false
	for _, name := range r.names {
		if g, ok := r.gs[name]; ok {
			if !wroteGauge {
				fmt.Fprintf(w, "%-34s %14s %8s\n", "gauge", "value", "max")
				wroteGauge = true
			}
			fmt.Fprintf(w, "%-34s %14d %8d\n", name, g.Value(), g.Max())
		}
	}
}
