// Command benchpairs runs the two-clock benchmark on a reference commit and on
// the working tree in alternating pairs and prints, per end-to-end metric,
// what choosing-metrics §8 asks of a performance claim: each side's median and
// quartiles, how many pairs the change won, whether the medians differ by more
// than the reference's own spread, and whether the virtual-clock values are
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
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
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
		wins := 0
		for i := range r {
			if better(spec.Better, c[i], r[i]) {
				wins++
			}
		}
		rq, cq := quartiles(r), quartiles(c)
		reading := ""
		switch {
		case texts[spec.Name] != nil && len(texts[spec.Name]) == 1:
			reading = "virtual: byte-identical on both sides"
		case texts[spec.Name] != nil:
			reading = fmt.Sprintf("virtual: NOT byte-identical (%d distinct values)", len(texts[spec.Name]))
		case 10*wins >= 9*pairs && better(spec.Better, cq[1], rq[1]) && math.Abs(cq[1]-rq[1]) > rq[2]-rq[0]:
			reading = fmt.Sprintf("gain: %.3g× the ref median, beyond the ref's spread", cq[1]/rq[1])
		default:
			reading = fmt.Sprintf("no claim: %.3g× the ref median", cq[1]/rq[1])
		}
		fmt.Printf("%-20s %-15s %-38s %-38s %-6s %s\n", spec.Name, spec.Unit, show(rq), show(cq),
			fmt.Sprintf("%d/%d", wins, pairs), reading)
	}
	return nil
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
