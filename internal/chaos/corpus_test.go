package chaos

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hamband/internal/codec"
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
	if len(classes) < 5 {
		t.Fatalf("corpus covers %d classes, want at least 5", len(classes))
	}
}

// denseRounds is the workload density of the round-rule corpus plans:
// batches of 16 updates every 5 µs keep every synchronization group's leader
// with a round in flight and a queue behind it for the whole run.
var denseRounds = Options{BatchSize: 16, IssuePeriod: 5 * sim.Microsecond}

// denseRoundPlans are the corpus plans written for that density.
var denseRoundPlans = []string{"bankmap-rounds-seed1700.json", "bankmap-rounds-shardmix-seed1701.json", "movie-rounds-seed1702.json"}

// TestCorpusDenseRounds replays the three round-rule plans — dense
// conflicting bursts on bankmap, once as a single object and once over three
// shards, and on movie, whose two synchronization groups are the conflict-movie
// benchmark's — at the density they were written for (TestCorpus replays
// them at the default one too). Each suspends the group-0 leader mid-round
// and resumes it as a zombie holding a queue while its successor serves.
// The bankmap plans then suspend that successor mid-round as well; the movie
// plan, bankmap-rounds-seed1700's schedule, suspends group 1's leader
// mid-round instead. Every probe must pass, the leaders must
// in fact have been batching, both kills must have forced an election, and
// each must have caught its victim mid-round: the last call the victim (shard
// s00's leader on the shardmix plan) sequenced before the kill commits there
// after it, or never. The kills are anchored (Event.MidRound): each fires
// right after its victim's first sequencing at or after its time, so a change
// that moves the schedule does not move a kill between two rounds. When they
// were placed by hand, the first kill of seed 1700 moved from 43.7 to 45.7 µs
// when the call record shrank and to 50.5 µs when the Mu entry header was
// packed, and the second kill of seed 1701 from 251.0 to 248.6 µs when one
// poll came to reap every landed completion.
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
			kills := 0
			for _, e := range p.Events {
				if e.Kind == KindLeaderKill {
					kills++
				}
			}
			if len(v.Kills) != kills {
				t.Fatalf("%d of the plan's %d leader kills fired", len(v.Kills), kills)
			}
			for _, at := range v.Kills {
				var last *trace.Event
				for i := range events {
					if e := &events[i]; e.At < at && e.Kind == trace.Order && (e.Shard == "" || e.Shard == "s00") {
						last = e
					}
				}
				if last == nil {
					t.Fatalf("kill at %v: nothing sequenced before it", sim.Duration(at))
				}
				for _, e := range events {
					if e.Kind == trace.Commit && e.Node == last.Node && e.Shard == last.Shard && e.Call == last.Call && e.At < at {
						t.Fatalf("kill at %v: n%d's last round (%s, sequenced at %v) had committed at %v: the kill is not mid-round",
							sim.Duration(at), last.Node, last.Call, sim.Duration(last.At), sim.Duration(e.At))
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
			batch := snap.Histograms["broadcast.batch_entries"]
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
			if hold := snap.Histograms["broadcast.hold"]; down <= 0 || sim.Duration(hold.MaxNS) < down {
				t.Fatalf("longest hold %v, the suspension lasts %v: the node was not suspended on an open batch", sim.Duration(hold.MaxNS), down)
			}
		})
	}
}

// sweepWrapPlan is the corpus plan for the recovery sweep across the wrap of
// the 64 backup slots, written for the denseRounds density: node 0's link to
// node 1 is 20 µs slower than its others, and node 0 is suspended at 600 µs,
// after more than a hundred broadcast messages, and resumed at 763 µs. When
// node 1 trusts it again its sweep reads node 0's backup while the writes of
// node 0's newest messages are still on the slow link, and delivers those
// messages ahead of the ring — seqs 127, 128 and 129, in slots 63, 0 and 1.
// The resume is hand-timed: a scan of resumes from 700 to 900 µs in 0.5 µs
// steps recovers seqs across the wrap for resumes in 760.5–770, 790.5–800
// and 820.5–830 µs, and 127..129 for 760.5–765 (CHANGES.md).
const sweepWrapPlan = "orset-sweepwrap-seed2000.json"

// TestCorpusSweepWrap replays the sweep-wrap plan at the density it was
// written for (TestCorpus replays it at the default one too). Every probe and
// the history check must pass, and the plan must not be vacuous: the source
// broadcast at least 65 messages before it failed, and the slow receiver
// applied calls of messages on both sides of a multiple of 64 before the ring
// writes carrying them landed — which only a recovery sweep delivers. With the
// sweep delivering slots in index order the assertion fails: seq 127 then
// reaches the receiver after its ring write.
func TestCorpusSweepWrap(t *testing.T) {
	p := readCorpusPlan(t, filepath.Join("testdata", "chaos", sweepWrapPlan))
	slow, fail := p.Events[0], p.Events[1]
	if slow.Kind != KindDelay || fail.Kind != KindSuspend || fail.Node != slow.A {
		t.Fatalf("plan lost its shape: %v", p.Events)
	}
	v := mustRun(t, p, denseRounds.Checked())
	assertPassed(t, v)
	src, receiver := slow.A, slow.B
	numbering := 0
	for numbering == src || numbering == receiver {
		numbering++
	}
	seqOf, postedAt := messageSeqs(t, v.Trace.Events(), src, numbering)
	before := 0
	for _, at := range postedAt {
		if at < fail.At {
			before++
		}
	}
	if before < 65 {
		t.Fatalf("source failed after %d broadcast messages, want at least 65: the sweep cannot reach the wrap", before)
	}
	lo, hi := recoveredSpan(v.Trace.Events(), seqOf, src, receiver)
	if lo == 0 || lo/64 == hi/64 {
		t.Fatalf("p%d received seqs %d..%d from p%d ahead of the ring, want both sides of a multiple of 64", receiver, lo, hi, src)
	}
	t.Logf("p%d failed after %d messages; p%d recovered seqs %d..%d", src, before, receiver, lo, hi)
}

// messageSeqs numbers src's broadcast messages by its ring writes to peer,
// which carry them in sequence order: it returns the sequence number of each
// call's message and each message's post time. A labeled write names its
// calls, and the bytes it carries beyond their bare calls are its messages'
// framing: the same for every message but for the packed seq, one byte longer
// from seq 128 on. So every write must carry the least such overhead seen
// plus what its seq adds, or the numbering would skip.
func messageSeqs(t *testing.T, events []trace.Event, src, peer int) (map[string]int, []sim.Time) {
	t.Helper()
	size := make(map[string]int)
	for _, e := range events {
		if rec, ok := e.Data.(trace.CallRecord); ok && e.Kind == trace.FreeSend && e.Node == src {
			size[e.Call] = len(codec.AppendCall(nil, rec.C, rec.D))
		}
	}
	type write struct {
		calls    []string
		framing  int
		postedAt sim.Time
	}
	var writes []write
	least := -1
	for _, e := range events {
		vr, ok := e.Data.(trace.VerbRecord)
		if !ok || e.Kind != trace.Post || vr.From != src || vr.To != peer {
			continue
		}
		w := write{calls: strings.Split(e.Call, ","), framing: vr.Bytes, postedAt: e.At}
		for _, c := range w.calls {
			w.framing -= size[c]
		}
		if least < 0 || w.framing < least {
			least = w.framing
		}
		writes = append(writes, w)
	}
	seqOf := make(map[string]int)
	var postedAt []sim.Time
	for _, w := range writes {
		seq := uint64(len(postedAt) + 1)
		if one := least + len(codec.AppendUvarint(nil, seq)) - 1; w.framing != one {
			t.Fatalf("a write at %v carries %d bytes of framing, message %d %d: messages share writes", sim.Duration(w.postedAt), w.framing, seq, one)
		}
		postedAt = append(postedAt, w.postedAt)
		for _, c := range w.calls {
			seqOf[c] = len(postedAt)
		}
	}
	return seqOf, postedAt
}

// recoveredSpan returns the least and greatest sequence numbers of src's
// messages whose calls receiver applied before the ring write carrying them
// had landed there in full (0, 0 when there are none).
func recoveredSpan(events []trace.Event, seqOf map[string]int, src, receiver int) (lo, hi int) {
	landed := make(map[string]sim.Time) // the last landing wins: a torn write lands twice
	for _, e := range events {
		if vr, ok := e.Data.(trace.VerbRecord); ok && e.Kind == trace.Wire && vr.From == src && e.Node == receiver {
			for _, c := range strings.Split(e.Call, ",") {
				landed[c] = e.At
			}
		}
	}
	for _, e := range events {
		rec, ok := e.Data.(trace.CallRecord)
		if !ok || e.Kind != trace.Apply || e.Node != receiver || int(rec.C.Proc) != src {
			continue
		}
		if at, ok := landed[e.Call]; ok && at <= e.At {
			continue
		}
		if s := seqOf[e.Call]; s > 0 {
			if lo == 0 || s < lo {
				lo = s
			}
			hi = max(hi, s)
		}
	}
	return lo, hi
}
