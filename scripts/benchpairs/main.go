// Command benchpairs runs the two-clock benchmark on a reference commit and on
// the working tree in alternating pairs and prints, per end-to-end metric,
// what choosing-metrics §8 asks of a performance claim: each side's median and
// quartiles, how many pairs the change won, whether the medians differ by more
// than the reference's own spread, whether the change's median is worse than
// the reference's by more than the metric's bound in BENCHMARK.json (the rule
// a regression is rejected on), and whether the virtual-clock values are
// byte-identical on both sides.
//
//	make bench-pairs REF=HEAD~1 WORKLOAD=reduce-gset-write PAIRS=10 SEED=77
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
	workload := flag.String("workload", "", "benchmark workload to run (required)")
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

func run(ref, workload string, pairs, seed int) error {
	root, err := os.Getwd()
	if err != nil {
		return err
	}
	var specs struct {
		EndToEnd []metricSpec `json:"end_to_end"`
	}
	if err := readJSON(filepath.Join(root, "BENCHMARK.json"), &specs); err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
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
	outDir := filepath.Join(root, ".bench_build", "pairs", fmt.Sprintf("%s-seed%d-%s", workload, seed, sha))
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}

	sides := []struct{ name, root string }{{"ref", refRoot}, {"change", root}}
	values := map[string]map[string][]float64{"ref": {}, "change": {}} // side → metric → per-pair value
	texts := map[string]map[string]bool{}                              // virtual metric → distinct value texts seen
	for i := 0; i < pairs; i++ {
		order := []int{0, 1}
		if i%2 == 1 {
			order = []int{1, 0} // alternate which side runs first
		}
		for _, s := range order {
			side := sides[s]
			file := filepath.Join(outDir, fmt.Sprintf("%s-%02d.json", side.name, i))
			cmd := exec.Command("bash", "benchmark/run.sh", "--workload", workload,
				"--seed", fmt.Sprint(seed), "--trace", "0", "--out", file)
			cmd.Dir = side.root
			if msg, err := cmd.CombinedOutput(); err != nil {
				return fmt.Errorf("pair %d, %s: %w\n%s", i, side.name, err, msg)
			}
			var res result
			if err := readJSON(file, &res); err != nil {
				return err
			}
			if len(res.Workloads) != 1 || !res.Workloads[0].Correct || res.Workloads[0].Failed != 0 {
				return fmt.Errorf("pair %d, %s: the run failed its checks (see %s)", i, side.name, file)
			}
			for name, m := range res.Workloads[0].EndToEnd {
				var v float64
				if err := json.Unmarshal(m.Value, &v); err != nil {
					return fmt.Errorf("%s: %s: %w", file, name, err)
				}
				values[side.name][name] = append(values[side.name][name], v)
				if m.Clock == "virtual" {
					if texts[name] == nil {
						texts[name] = map[string]bool{}
					}
					texts[name][string(m.Value)] = true
				}
			}
		}
		fmt.Fprintf(os.Stderr, "pair %d/%d done\n", i+1, pairs)
	}

	fmt.Printf("%s, seed %d, %d alternating pairs: ref %s vs the working tree (runs in %s)\n",
		workload, seed, pairs, sha, strings.TrimPrefix(outDir, root+"/"))
	fmt.Printf("%-20s %-15s %-38s %-38s %-6s %s\n", "metric", "unit", "ref median [q1, q3]", "change median [q1, q3]", "wins", "reading")
	for _, spec := range specs.EndToEnd {
		r, c := values["ref"][spec.Name], values["change"][spec.Name]
		if len(r) != pairs || len(c) != pairs {
			continue // not an end-to-end metric of this benchmark version
		}
		v := judge(spec, r, c, len(texts[spec.Name]))
		fmt.Printf("%-20s %-15s %-38s %-38s %-6s %s\n", spec.Name, spec.Unit, show(v.ref), show(v.change),
			fmt.Sprintf("%d/%d", v.wins, pairs), v.reading)
	}
	return nil
}

// verdict is what the paired runs say about one end-to-end metric.
type verdict struct {
	wins        int        // pairs the change won; a tie counts for neither side
	ref, change [3]float64 // each side's quartiles
	reading     string
}

// judge applies the claim rule to one metric's values, ref[i] and change[i]
// being pair i. texts is the number of distinct value texts a virtual-clock
// metric produced over both sides (0 for a host metric): a virtual metric is
// read only for byte-identity. A host metric reads as a gain when the change
// won at least nine tenths of the pairs and its median is better than the
// ref's by more than the ref's interquartile range, and as a regression when
// its median is worse than the ref's by more than m.Bound of it.
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
	switch {
	case texts == 1:
		v.reading = "virtual: byte-identical on both sides"
	case texts > 1:
		v.reading = fmt.Sprintf("virtual: NOT byte-identical (%d distinct values)", texts)
	case 10*v.wins >= 9*len(ref) && better(m.Better, c[1], r[1]) && math.Abs(c[1]-r[1]) > r[2]-r[0]:
		v.reading = fmt.Sprintf("gain: %.3g× the ref median, beyond the ref's spread", c[1]/r[1])
	case better(m.Better, limit, c[1]):
		v.reading = fmt.Sprintf("regression: %.3g× the ref median, past the %g bound", c[1]/r[1], m.Bound)
	default:
		v.reading = fmt.Sprintf("no claim: %.3g× the ref median", c[1]/r[1])
	}
	return v
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
