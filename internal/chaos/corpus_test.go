package chaos

import (
	"os"
	"path/filepath"
	"testing"

	"hamband/internal/sim"
	"hamband/internal/trace"
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
// in fact have been batching, both kills must have forced an election, and
// each must have caught its victim mid-round: the last call the victim (shard
// s00's leader on the shardmix plan) sequenced before the kill commits there
// after it, or never. The kill times are placed on this schedule by hand; PR 22
// shortened the records and the first kill of seed 1700 fell between two rounds
// (it moved from 43.7 to 45.7 µs), which only this check can see.
func TestCorpusDenseRounds(t *testing.T) {
	for _, name := range denseRoundPlans {
		t.Run(name, func(t *testing.T) {
			p := readCorpusPlan(t, filepath.Join("testdata", "chaos", name))
			opts := denseRounds
			opts.EnableMetrics = true
			opts.TraceLimit = 1 << 20
			v := mustRun(t, p, opts)
			assertPassed(t, v)
			events := v.Trace.Events()
			for _, kill := range p.Events {
				if kill.Kind != KindLeaderKill {
					continue
				}
				var last *trace.Event
				for i := range events {
					if e := &events[i]; e.At < kill.At && e.Kind == trace.Order && (e.Shard == "" || e.Shard == "s00") {
						last = e
					}
				}
				if last == nil {
					t.Fatalf("kill at %v: nothing sequenced before it", sim.Duration(kill.At))
				}
				for _, e := range events {
					if e.Kind == trace.Commit && e.Node == last.Node && e.Shard == last.Shard && e.Call == last.Call && e.At < kill.At {
						t.Fatalf("kill at %v: n%d's last round (%s, sequenced at %v) had committed at %v: the kill is not mid-round",
							sim.Duration(kill.At), last.Node, last.Call, sim.Duration(last.At), sim.Duration(e.At))
					}
				}
			}
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

// denseBurstPlans are the corpus plans written for the F out-channel's rule:
// dense OR-set bursts, once as a single object and once over three shards
// with client sessions. The default workload (four updates every 50 µs at
// random replicas) almost never puts two F calls of one source inside one
// round trip, so at that density every message carries one record and the
// batched path goes unchecked.
var denseBurstPlans = []string{"orset-bursts-seed1800.json", "orset-bursts-shardmix-seed1801.json"}

// TestCorpusDenseBursts replays them at the denseRounds density
// (TestCorpus replays them at the default one too). Each slows every link of
// one node past the issue period, so that node always has a message
// unacknowledged and a batch open behind it, and suspends it 1.2 µs after a
// burst, holding both, long enough to be suspected; around that run a
// torn-write window and partitions that park one link and (shardmix) isolate
// a source. Calls accepted into an open batch must survive all of it exactly
// once. Every probe must pass, the sources must in fact have been batching,
// and the faults must have bitten: a batch was held across the suspension.
func TestCorpusDenseBursts(t *testing.T) {
	for _, name := range denseBurstPlans {
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
			batch := snap.Histograms["core.free_batch_entries"]
			if batch.Count == 0 || batch.SumNS <= int64(batch.Count) || batch.MaxNS < 4 {
				t.Fatalf("%d calls left in %d messages, the largest carrying %d: the bursts are not dense enough to batch",
					batch.SumNS, batch.Count, batch.MaxNS)
			}
			if snap.Counters["broadcast.recovery_sweeps"] == 0 || snap.Counters["broadcast.backup_slots_recovered"] == 0 {
				t.Fatalf("%d recovery sweeps found %d backup slots: the suspension caught no message in flight",
					snap.Counters["broadcast.recovery_sweeps"], snap.Counters["broadcast.backup_slots_recovered"])
			}
			if snap.Counters["broadcast.torn_rejects"] == 0 {
				t.Fatal("no torn read rejected: the torn window saw no batch land")
			}
			var down sim.Duration
			for _, e := range p.Events {
				switch e.Kind {
				case KindSuspend:
					down = -sim.Duration(e.At)
				case KindResume:
					down += sim.Duration(e.At)
				}
			}
			if hold := snap.Histograms["core.free_hold"]; down <= 0 || sim.Duration(hold.MaxNS) < down {
				t.Fatalf("longest hold %v, the suspension lasts %v: the node was not suspended on an open batch", sim.Duration(hold.MaxNS), down)
			}
		})
	}
}
