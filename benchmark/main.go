// Command benchmark is the repository's two-clock benchmark: six workloads
// driven through core.Replica.Invoke, store.Store.Invoke/Query and
// sim.Engine.Run on a 4-node fabric, reporting end-to-end metrics on the
// virtual and the host clock and a per-layer ledger. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

const (
	minTimedReps = 3
	// setupBatch and setupSlice bound the stand-alone builds timed before
	// each timed rep for setup_s's median: a single-object build takes half a
	// millisecond and gets the whole batch, the store's takes 35 ms and gets a
	// dozen.
	setupBatch = 16
	setupSlice = 500 * time.Millisecond
	outDir     = "benchmark/out"
	// microLoops is the number of timing loops in micro.go; without -layers
	// they share half of -seconds.
	microLoops = 28
)

// measured is one metric's value as printed and stored.
type measured struct {
	Value float64   `json:"value"`
	Unit  string    `json:"unit"`
	Clock string    `json:"clock"`
	Reps  []float64 `json:"reps,omitempty"` // per-rep values behind an end-to-end median
}

// workloadResult is everything one workload's run produced.
type workloadResult struct {
	Name      string              `json:"name"`
	Ops       int                 `json:"ops"`
	TraceOps  int                 `json:"trace_ops"`
	Reps      int                 `json:"reps"`
	Samples   int                 `json:"samples"` // response times behind the percentiles of one timed rep
	Correct   bool                `json:"correct"`
	Attempted int                 `json:"attempted"`
	Failed    int                 `json:"failed"`
	Notes     []string            `json:"notes,omitempty"` // failed checks and virtual-clock anomalies
	EndToEnd  map[string]measured `json:"end_to_end,omitempty"`
	PerLayer  map[string]measured `json:"per_layer,omitempty"`
}

// results is the machine-readable output of one set of runs.
type results struct {
	Seed       int64            `json:"seed"`
	Seconds    int              `json:"seconds"`
	GoVersion  string           `json:"go"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	Workloads  []workloadResult `json:"workloads"`
}

// note records a rep's outcome in the workload's totals.
func (wr *workloadResult) note(r *rep) {
	wr.Attempted += r.attempted()
	wr.Failed += r.failed()
	if r.checkErr != nil {
		wr.Correct = false
		wr.Notes = append(wr.Notes, r.checkErr.Error())
	} else if r.failed() > 0 {
		wr.Correct = false
		wr.Notes = append(wr.Notes, fmt.Sprintf("%d calls errored", r.errored))
	}
}

// sampleSetup appends one batch of stand-alone build times. Set-up is timed
// on cold memory: with the heap returned to the system first, every build
// faults its rings in anew, which is what a fresh process pays and, unlike a
// half-scavenged heap, repeats.
func sampleSetup(w workload, seed int64, setups []float64) ([]float64, error) {
	for begin, n := time.Now(), 0; n < setupBatch && time.Since(begin) < setupSlice; n++ {
		debug.FreeOSMemory()
		t0 := time.Now()
		sys, err := w.build(seed, 0)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", w.name, err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		sys.stop()
	}
	return setups, nil
}

// measureEndToEnd runs the discarded warm-up, then timed reps for about the
// given time, each after a batch of set-up samples, and reports each
// end-to-end metric as the median over the reps (setup_s: over the samples).
// The batches are spread over the run because the sandbox's speed wanders
// from second to second: samples taken in one burst share one moment of it.
func measureEndToEnd(w workload, ops int, seed int64, seconds time.Duration, wr *workloadResult) error {
	if _, err := runRep(w, ops/10, seed, false); err != nil {
		return err
	}
	// Timed reps: at least minTimedReps, then as many more as fit into the
	// time given, judged by the mean rep so far.
	var setups []float64
	var reps []*rep
	perRep := map[string][]float64{}
	for begin := time.Now(); ; {
		if n := len(reps); n >= minTimedReps && time.Since(begin)*time.Duration(n+1)/time.Duration(n) > seconds {
			break
		}
		var err error
		if setups, err = sampleSetup(w, seed, setups); err != nil {
			return err
		}
		r, err := runRep(w, ops, seed, false)
		if err != nil {
			return err
		}
		reps = append(reps, r)
		wr.note(r)
		for name, v := range endToEndOf(r) {
			perRep[name] = append(perRep[name], v)
		}
	}
	perRep["setup_s"] = setups
	wr.Reps, wr.Samples = len(reps), len(reps[0].lat)
	if n := variants(reps); n > 1 {
		wr.Notes = append(wr.Notes, fmt.Sprintf("virtual clock: %d distinct outcomes over %d reps of one seed", n, len(reps)))
	}

	values := map[string]float64{}
	for name, vs := range perRep {
		values[name] = median(vs)
	}
	if err := checkCatalogue(endToEnd, values); err != nil {
		return err
	}
	wr.EndToEnd = map[string]measured{}
	for _, m := range endToEnd {
		wr.EndToEnd[m.Name] = measured{Value: values[m.Name], Unit: m.Unit, Clock: m.Clock, Reps: perRep[m.Name]}
	}
	return nil
}

// measurePerLayer runs the untraced and the traced rep and merges their
// per-layer metrics with the micro loops' (which do not depend on the
// workload).
func measurePerLayer(w workload, ops int, seed int64, micro map[string]float64, traceDir string, wr *workloadResult) error {
	untraced, err := runRep(w, ops, seed, false)
	if err != nil {
		return err
	}
	traced, err := runRep(w, ops, seed, true)
	if err != nil {
		return err
	}
	wr.note(untraced)
	wr.note(traced)
	values := counterMetrics(untraced)
	values["driver.virtual_variants"] = float64(variants([]*rep{untraced, traced}))
	fromTrace, err := tracedMetrics(untraced, traced)
	if err != nil {
		return fmt.Errorf("%s: %w", w.name, err)
	}
	for _, part := range []map[string]float64{fromTrace, micro} {
		for name, v := range part {
			values[name] = v
		}
	}
	if err := checkCatalogue(perLayer, values); err != nil {
		return err
	}
	wr.PerLayer = map[string]measured{}
	for _, m := range perLayer {
		wr.PerLayer[m.Name] = measured{Value: values[m.Name], Unit: m.Unit, Clock: m.Clock}
	}
	if err := traced.host.write(filepath.Join(traceDir, "trace-"+w.name+".json")); err != nil {
		return fmt.Errorf("%s: host trace: %w", w.name, err)
	}
	return nil
}

// printTable writes one workload's metrics by name with unit and clock.
func printTable(out io.Writer, wr workloadResult) {
	fmt.Fprintf(out, "== %s  ops=%d trace_ops=%d reps=%d samples=%d attempted=%d failed=%d correct=%v\n",
		wr.Name, wr.Ops, wr.TraceOps, wr.Reps, wr.Samples, wr.Attempted, wr.Failed, wr.Correct)
	for _, e := range wr.Notes {
		fmt.Fprintf(out, "   ! %s\n", e)
	}
	row := func(m metricDef, v measured, extra string) {
		fmt.Fprintf(out, "   %-42s %16.6g %-12s %-8s%s\n", m.Name, v.Value, m.Unit, m.Clock, extra)
	}
	for _, m := range endToEnd {
		if v, ok := wr.EndToEnd[m.Name]; ok {
			row(m, v, fmt.Sprintf(" bound %g%%", 100*m.Bound))
		}
	}
	for _, m := range perLayer {
		_, shown := wr.EndToEnd[m.Name]
		if v, ok := wr.PerLayer[m.Name]; ok && !shown {
			row(m, v, "")
		}
	}
}

// resultLine is the last line of standard output for a single workload, in
// the form the driver's contract fixes: with manifestOnly the metrics are
// exactly BENCHMARK.json's end_to_end list.
func resultLine(wr workloadResult, manifestOnly bool) string {
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]mv `json:"metrics"`
	}{wr.Correct, wr.Attempted, wr.Failed, map[string]mv{}}
	for name, v := range wr.PerLayer {
		line.Metrics[name] = mv{v.Value, v.Unit}
	}
	for i, m := range endToEnd {
		if v, ok := wr.EndToEnd[m.Name]; ok && !(manifestOnly && i >= manifestEndToEnd) {
			line.Metrics[m.Name] = mv{v.Value, v.Unit}
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		panic(err) // only finite floats and strings are marshalled
	}
	return string(b)
}

type nameList []string

func (l *nameList) String() string     { return strings.Join(*l, ",") }
func (l *nameList) Set(s string) error { *l = append(*l, s); return nil }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Int64("seed", 42, "workload seed: the same seed gives the same inputs")
	var names nameList
	fs.Var(&names, "workload", "workload to run (repeatable; default all six)")
	secs := fs.Int("seconds", 10, "host seconds of timed reps per workload")
	trace := fs.Int("trace", -1, "0: end-to-end metrics only; 1: per-layer metrics only; default both")
	layers := fs.Bool("layers", false, "give each micro loop a full second instead of a share of -seconds")
	outPath := fs.String("out", "", "write machine-readable results here (default "+outDir+"/results.json)")
	compare := fs.Bool("compare", false, "compare two result files: -compare A.json B.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "benchmark: -compare takes two result files")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if fs.NArg() > 0 || *secs < 1 || *trace < -1 || *trace > 1 {
		fmt.Fprintln(stderr, "benchmark: bad arguments; see -h")
		return 2
	}
	selected := workloads
	if len(names) > 0 {
		selected = nil
		for _, n := range names {
			w, ok := workloadByName(n)
			if !ok {
				fmt.Fprintf(stderr, "benchmark: unknown workload %q\n", n)
				return 2
			}
			selected = append(selected, w)
		}
	}

	seconds := time.Duration(*secs) * time.Second
	res := results{Seed: *seed, Seconds: *secs, GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0)}
	var micro map[string]float64
	if *trace != 0 {
		// One pass of the micro loops serves every workload of the set.
		budget := time.Second
		if !*layers {
			budget = seconds / 2 / microLoops
		}
		var err error
		if micro, err = microMetrics(budget); err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
	}
	for _, w := range selected {
		wr := workloadResult{Name: w.name, Ops: w.ops, TraceOps: w.traceOps, Correct: true}
		var err error
		if *trace != 1 {
			err = measureEndToEnd(w, w.ops, *seed, seconds, &wr)
		}
		if err == nil && *trace != 0 {
			err = measurePerLayer(w, w.traceOps, *seed, micro, outDir, &wr)
		}
		if err != nil {
			fmt.Fprintln(stderr, "benchmark:", err)
			return 1
		}
		printTable(stdout, wr)
		res.Workloads = append(res.Workloads, wr)
	}

	path := *outPath
	if path == "" {
		path = filepath.Join(outDir, "results.json")
	}
	if err := writeJSON(path, res); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if len(res.Workloads) == 1 {
		fmt.Fprintln(stdout, resultLine(res.Workloads[0], *trace == 0))
	}
	for _, wr := range res.Workloads {
		if !wr.Correct {
			return 1
		}
	}
	return 0
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }
