// Command benchpairs runs the two-clock benchmark on a reference commit and on
// the working tree in alternating pairs and prints, per workload and
// end-to-end metric, what choosing-metrics §8 asks of a performance claim:
// each side's median and quartiles, how many pairs the change won, whether the
// medians differ by more than the reference's own spread, whether the change's
// median is worse than the reference's by more than the metric's bound in
// BENCHMARK.json (the rule a regression is rejected on), whether the
// reference's own spread is wider than that bound (the reading is then
// unresolved), and whether the virtual-clock values are byte-identical on
// both sides. A gain is read from ten pairs or more only. Each workload's table
// ends with one line saying whether all its virtual metrics were, so a
// refactor shows "identical on all six" with one command.
//
//	make bench-pairs REF=HEAD~1 WORKLOAD=reduce-gset-write PAIRS=10 SEED=77
//	make bench-pairs REF=HEAD~1 WORKLOAD=buffer-orset,conflict-movie
//	make bench-pairs REF=HEAD~1 WORKLOAD=all PAIRS=3
//
// -workload takes one workload, a comma-separated list, or all: every
// workload BENCHMARK.json declares. One run of a side covers them all.
//
// The reference tree is a `git archive` export under .bench_build/ (ignored),
// named after the commit, so it is built once and leaves nothing in .git.
// Both sides run `bash benchmark/run.sh --trace 0` from their own root, so
// each builds the benchmark its own checkout holds; nothing under benchmark/
// is touched. Every run's JSON stays under .bench_build/pairs/.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
)

type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"` // the worsening of the median a change may show, as a fraction of the ref's
}

// benchmarkSpec is the part of BENCHMARK.json this tool reads.
type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
}

// result is the part of a `run.sh --out` file this tool reads.
type result struct {
	Workloads []struct {
		Name     string `json:"name"`
		Failed   int    `json:"failed"`
		Correct  bool   `json:"correct"`
		EndToEnd map[string]struct {
			Value json.RawMessage `json:"value"`
			Clock string          `json:"clock"`
		} `json:"end_to_end"`
	} `json:"workloads"`
}

func main() {
	ref := flag.String("ref", "HEAD", "commit the working tree is compared against")
	workload := flag.String("workload", "", "benchmark workloads to run: one, a comma-separated list, or all (required)")
	pairs := flag.Int("pairs", 10, "number of ref/change pairs")
	seed := flag.Int("seed", 42, "workload seed, the same on both sides")
	flag.Parse()
	if *workload == "" || *pairs < 1 {
		flag.Usage()
		os.Exit(2)
	}
	if err := run(*ref, *workload, *pairs, *seed); err != nil {
		fmt.Fprintln(os.Stderr, "benchpairs:", err)
		os.Exit(1)
	}
}

// parseWorkloads reads -workload: all is every name of known, in its order;
// otherwise a comma-separated list of names from known, each at most once.
func parseWorkloads(arg string, known []string) ([]string, error) {
	if strings.TrimSpace(arg) == "all" {
		return known, nil
	}
	var names []string
	for _, name := range strings.Split(arg, ",") {
		name = strings.TrimSpace(name)
		switch {
		case name == "":
			return nil, fmt.Errorf("empty workload name in %q", arg)
		case !slices.Contains(known, name):
			return nil, fmt.Errorf("unknown workload %q; BENCHMARK.json declares %s, or all", name, strings.Join(known, ", "))
		case slices.Contains(names, name):
			return nil, fmt.Errorf("workload %q named twice", name)
		}
		names = append(names, name)
	}
	return names, nil
}

func run(ref, workloadArg string, pairs, seed int) error {
	root, err := os.Getwd()
	if err != nil {
		return err
	}
	var specs benchmarkSpec
	if err := readJSON(filepath.Join(root, "BENCHMARK.json"), &specs); err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	var known []string
	for _, w := range specs.Workloads {
		known = append(known, w.Name)
	}
	workloads, err := parseWorkloads(workloadArg, known)
	if err != nil {
		return err
	}
	out, err := exec.Command("git", "rev-parse", "--verify", "--short=12", ref+"^{commit}").Output()
	if err != nil {
		return fmt.Errorf("git rev-parse %s: %w", ref, err)
	}
	sha := strings.TrimSpace(string(out))
	refRoot := filepath.Join(root, ".bench_build", "ref-"+sha)
	if _, err := os.Stat(refRoot); err != nil {
		if err := export(sha, refRoot); err != nil {
			return fmt.Errorf("export %s: %w", sha, err)
		}
	}
	outDir := filepath.Join(root, ".bench_build", "pairs", fmt.Sprintf("%s-seed%d-%s", strings.Join(workloads, "+"), seed, sha))
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}

	sides := []struct{ name, root string }{{"ref", refRoot}, {"change", root}}
	args := []string{"benchmark/run.sh", "--seed", fmt.Sprint(seed), "--trace", "0"}
	for _, w := range workloads {
		args = append(args, "--workload", w)
	}
	values := map[string]map[string]map[string][]float64{} // workload → side → metric → per-pair value
	texts := map[string]map[string]map[string]bool{}       // workload → virtual metric → distinct value texts seen
	for _, w := range workloads {
		values[w] = map[string]map[string][]float64{"ref": {}, "change": {}}
		texts[w] = map[string]map[string]bool{}
	}
	for i := 0; i < pairs; i++ {
		order := []int{0, 1}
		if i%2 == 1 {
			order = []int{1, 0} // alternate which side runs first
		}
		for _, s := range order {
			side := sides[s]
			file := filepath.Join(outDir, fmt.Sprintf("%s-%02d.json", side.name, i))
			cmd := exec.Command("bash", append(args, "--out", file)...)
			cmd.Dir = side.root
			if msg, err := cmd.CombinedOutput(); err != nil {
				return fmt.Errorf("pair %d, %s: %w\n%s", i, side.name, err, msg)
			}
			var res result
			if err := readJSON(file, &res); err != nil {
				return err
			}
			if len(res.Workloads) != len(workloads) {
				return fmt.Errorf("pair %d, %s: %d workloads in %s, want %d", i, side.name, len(res.Workloads), file, len(workloads))
			}
			for _, wr := range res.Workloads {
				if values[wr.Name] == nil || !wr.Correct || wr.Failed != 0 {
					return fmt.Errorf("pair %d, %s: workload %s failed its checks (see %s)", i, side.name, wr.Name, file)
				}
				for name, m := range wr.EndToEnd {
					var v float64
					if err := json.Unmarshal(m.Value, &v); err != nil {
						return fmt.Errorf("%s: %s: %s: %w", file, wr.Name, name, err)
					}
					values[wr.Name][side.name][name] = append(values[wr.Name][side.name][name], v)
					if m.Clock == "virtual" {
						if texts[wr.Name][name] == nil {
							texts[wr.Name][name] = map[string]bool{}
						}
						texts[wr.Name][name][string(m.Value)] = true
					}
				}
			}
		}
		fmt.Fprintf(os.Stderr, "pair %d/%d done\n", i+1, pairs)
	}

	var moved []string
	for _, w := range workloads {
		fmt.Printf("%s, seed %d, %d alternating pairs: ref %s vs the working tree (runs in %s)\n",
			w, seed, pairs, sha, strings.TrimPrefix(outDir, root+"/"))
		fmt.Printf("%-20s %-15s %-38s %-38s %-6s %s\n", "metric", "unit", "ref median [q1, q3]", "change median [q1, q3]", "wins", "reading")
		virtual, identical := 0, true
		for _, spec := range specs.EndToEnd {
			r, c := values[w]["ref"][spec.Name], values[w]["change"][spec.Name]
			if len(r) != pairs || len(c) != pairs {
				continue // not an end-to-end metric of this benchmark version
			}
			n := len(texts[w][spec.Name])
			if n > 0 {
				virtual++
				identical = identical && n == 1
			}
			v := judge(spec, r, c, n)
			fmt.Printf("%-20s %-15s %-38s %-38s %-6s %s\n", spec.Name, spec.Unit, show(v.ref), show(v.change),
				fmt.Sprintf("%d/%d", v.wins, pairs), v.reading)
		}
		fmt.Printf("%s: %s\n\n", w, identityVerdict(virtual, identical))
		if !identical {
			moved = append(moved, w)
		}
	}
	if len(workloads) > 1 {
		if len(moved) == 0 {
			fmt.Printf("every virtual metric byte-identical on all %d workloads\n", len(workloads))
		} else {
			fmt.Printf("virtual metrics NOT byte-identical on %s\n", strings.Join(moved, ", "))
		}
	}
	return nil
}

// identityVerdict is a workload's last line: whether its virtual metrics, of
// which there were n, read byte-identical on both sides in every pair.
func identityVerdict(n int, identical bool) string {
	switch {
	case n == 0:
		return "no virtual metric"
	case identical:
		return fmt.Sprintf("virtual byte-identical (%d metrics)", n)
	}
	return "virtual NOT byte-identical"
}

// verdict is what the paired runs say about one end-to-end metric.
type verdict struct {
	wins        int        // pairs the change won; a tie counts for neither side
	ref, change [3]float64 // each side's quartiles
	reading     string
}

// minPairs is the fewest pairs a gain may be read from: with fewer, one
// pair's win is nine tenths of them, and the ref's spread is that of a
// handful of runs.
const minPairs = 10

// judge applies the claim rule to one metric's values, ref[i] and change[i]
// being pair i. texts is the number of distinct value texts a virtual-clock
// metric produced over both sides (0 for a host metric): a virtual metric is
// read only for byte-identity. A host metric reads as a gain when there are
// at least minPairs pairs, the change won at least nine tenths of them and
// its median is better than the ref's by more than the ref's interquartile
// range, and as a regression when its median is worse than the ref's by more
// than m.Bound of it. Otherwise it is unresolved when the ref's interquartile
// range is wider than m.Bound of its median, unless every change run beat
// every ref run: the ref alone then spreads past what the bound can tell.
func judge(m metricSpec, ref, change []float64, texts int) verdict {
	v := verdict{ref: quartiles(ref), change: quartiles(change)}
	for i := range ref {
		if better(m.Better, change[i], ref[i]) {
			v.wins++
		}
	}
	r, c := v.ref, v.change
	limit := r[1] * (1 + m.Bound) // the worst median the bound allows
	if m.Better == "higher" {
		limit = r[1] * (1 - m.Bound)
	}
	spread := r[2] - r[0]
	switch {
	case texts == 1:
		v.reading = "virtual: byte-identical on both sides"
	case texts > 1:
		v.reading = fmt.Sprintf("virtual: NOT byte-identical (%d distinct values)", texts)
	case len(ref) >= minPairs && 10*v.wins >= 9*len(ref) && better(m.Better, c[1], r[1]) && math.Abs(c[1]-r[1]) > spread:
		v.reading = fmt.Sprintf("gain: %.3g× the ref median, beyond the ref's spread", c[1]/r[1])
	case better(m.Better, limit, c[1]):
		v.reading = fmt.Sprintf("regression: %.3g× the ref median, past the %g bound", c[1]/r[1], m.Bound)
	case spread > m.Bound*math.Abs(r[1]) && !beatsAll(m.Better, change, ref):
		v.reading = fmt.Sprintf("unresolved: %.3g× the ref median, the ref's spread %.3g of it past the %g bound", c[1]/r[1], spread/math.Abs(r[1]), m.Bound)
	case len(ref) < minPairs:
		v.reading = fmt.Sprintf("no claim: %.3g× the ref median; a gain needs %d pairs", c[1]/r[1], minPairs)
	default:
		v.reading = fmt.Sprintf("no claim: %.3g× the ref median", c[1]/r[1])
	}
	return v
}

// beatsAll reports whether every run of change is better than every run of ref.
func beatsAll(direction string, change, ref []float64) bool {
	worst, best := slices.Max(change), slices.Min(ref)
	if direction == "higher" {
		worst, best = slices.Min(change), slices.Max(ref)
	}
	return better(direction, worst, best)
}

// export unpacks commit sha into dir with git archive piped into tar; dir
// appears only once the whole tree is there.
func export(sha, dir string) error {
	tmp := dir + ".tmp"
	if err := os.RemoveAll(tmp); err != nil {
		return err
	}
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		return err
	}
	archive := exec.Command("git", "archive", sha)
	untar := exec.Command("tar", "-x", "-C", tmp)
	pipe, err := archive.StdoutPipe()
	if err != nil {
		return err
	}
	untar.Stdin = pipe
	archive.Stderr, untar.Stderr = os.Stderr, os.Stderr
	if err := untar.Start(); err != nil {
		return err
	}
	if err := archive.Run(); err != nil {
		_ = untar.Wait() // its input closed with archive; the archive error is the one to report
		return err
	}
	if err := untar.Wait(); err != nil {
		return err
	}
	return os.Rename(tmp, dir)
}

func readJSON(path string, into any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, into); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

func better(direction string, a, b float64) bool {
	if direction == "higher" {
		return a > b
	}
	return a < b
}

// quartiles returns the first quartile, median and third quartile of xs,
// interpolating linearly between order statistics.
func quartiles(xs []float64) [3]float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	at := func(q float64) float64 {
		pos := q * float64(len(s)-1)
		lo := int(pos)
		if lo+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	return [3]float64{at(0.25), at(0.5), at(0.75)}
}

func show(q [3]float64) string { return fmt.Sprintf("%.6g [%.6g, %.6g]", q[1], q[0], q[2]) }
