package chaos

import (
	"os"
	"path/filepath"
	"testing"

	"hamband/internal/sim"
)

// readCorpusPlan reads and validates one committed plan.
func readCorpusPlan(t *testing.T, path string) Plan {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	p, err := ReadPlan(f)
	if err != nil {
		t.Fatalf("invalid corpus plan %s: %v", path, err)
	}
	return p
}

// TestCorpus replays the committed fixed-seed plan corpus — the `make
// chaos` gate. Every plan must pass every probe; a failure dumps the plan
// for replay with `hambench -exp chaos -plan-json FILE`.
func TestCorpus(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "chaos", "*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 6 {
		t.Fatalf("corpus has %d plans, want at least 6", len(files))
	}
	classes := map[string]bool{}
	for _, path := range files {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			p := readCorpusPlan(t, path)
			classes[p.Class] = true
			assertPassed(t, mustRun(t, p, Options{}))
		})
	}
	if len(classes) < 3 {
		t.Fatalf("corpus covers %d classes, want at least 3", len(classes))
	}
}

// denseRounds is the workload density of the round-rule corpus plans:
// batches of 16 updates every 5 µs keep every synchronization group's leader
// with a round in flight and a queue behind it for the whole run.
var denseRounds = Options{BatchSize: 16, IssuePeriod: 5 * sim.Microsecond}

// denseRoundPlans are the corpus plans written for that density.
var denseRoundPlans = []string{"bankmap-rounds-seed1700.json", "bankmap-rounds-shardmix-seed1701.json"}

// TestCorpusDenseRounds replays the two round-rule plans — dense conflicting
// bursts on bankmap, once as a single object and once over three shards —
// at the density they were written for (TestCorpus replays them at the
// default one too). Each suspends the group-0 leader mid-round, resumes it
// as a zombie holding a queue while its successor serves, and then suspends
// the successor mid-round as well. Every probe must pass, the leaders must
// in fact have been batching, and both kills must have forced an election.
func TestCorpusDenseRounds(t *testing.T) {
	for _, name := range denseRoundPlans {
		t.Run(name, func(t *testing.T) {
			p := readCorpusPlan(t, filepath.Join("testdata", "chaos", name))
			opts := denseRounds
			opts.EnableMetrics = true
			v := mustRun(t, p, opts)
			assertPassed(t, v)
			if v.Acked+v.Rejected != v.Issued {
				t.Fatalf("issued %d, acked %d, rejected %d: calls unresolved", v.Issued, v.Acked, v.Rejected)
			}
			snap := v.Metrics.Snapshot()
			if rounds := snap.Histograms["mu.round_entries"]; rounds.Count == 0 || rounds.MaxNS < 4 {
				t.Fatalf("largest of %d rounds has %d entries: the bursts are not dense enough to batch", rounds.Count, rounds.MaxNS)
			}
			if snap.Counters["mu.elections"] < 2 {
				t.Fatalf("%d elections, want one per leader kill", snap.Counters["mu.elections"])
			}
		})
	}
}
