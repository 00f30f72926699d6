package chaos

import (
	"path/filepath"
	"strings"
	"testing"

	"hamband/internal/health"
	"hamband/internal/rdma"
	"hamband/internal/sim"
)

// TestTornCorpusActuallyTears guards the torn corpus against vacuity: each
// committed *-torn-* plan must tear at least one write on the fabric (the
// fault fired and fragmented real traffic) while still passing every
// correctness probe — the CRC-validated read path absorbing the fault is
// exactly the behavior under test.
func TestTornCorpusActuallyTears(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "chaos", "*-torn-*.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) < 3 {
		t.Fatalf("torn corpus has %d plans, want at least 3", len(files))
	}
	for _, path := range files {
		path := path
		t.Run(filepath.Base(path), func(t *testing.T) {
			p := readCorpusPlan(t, path)
			hasTorn := false
			for _, e := range p.Events {
				if e.Kind == KindTorn {
					hasTorn = true
				}
			}
			if !hasTorn {
				t.Fatalf("plan %s has no torn event", path)
			}
			v := mustRun(t, p, Options{EnableMetrics: true})
			assertPassed(t, v)
			if torn := v.Metrics.Counter("rdma.torn_writes").Value(); torn == 0 {
				t.Fatal("plan tore no writes: the torn window missed all traffic")
			} else {
				t.Logf("torn writes: %d", torn)
			}
		})
	}
}

// TestCorpusTornPastWindow replays the plan whose link tears by 30 µs + 10 µs
// of jitter — past the 8 µs (rdma.TornLooks polls of 2 µs) a ring reader waits
// before it diagnoses a dead writer and parks — under bankmap load. The park is
// the diagnosis, not a quarantine: the reader validates the parked record again
// on every poll and resumes when the interior lands. So reader-parked must
// fire, only on the torn link's two rings, and must clear: the watchdog re-arms
// an episode only once its condition has cleared, so a second firing on one
// ring proves the first park ended, and the run passing its quiescence and
// exactly-once probes proves the last one did (a reader still parked holds its
// F buffer for good). The park lasts 22–32 µs; the default 100 µs probe cadence
// would step over it, hence the 4 µs one.
func TestCorpusTornPastWindow(t *testing.T) {
	p := readCorpusPlan(t, filepath.Join("testdata", "chaos", "bankmap-torn-late-seed1900.json"))
	torn := p.Events[0]
	if torn.Kind != KindTorn || torn.Extra < 30*sim.Microsecond {
		t.Fatalf("plan's first event is %v, want a tear of at least 30µs", torn)
	}
	v := mustRun(t, p, Options{EnableMetrics: true, ProbePeriod: 4 * sim.Microsecond})
	assertPassed(t, v)
	if v.Acked+v.Rejected != v.Issued {
		t.Fatalf("issued %d, acked %d, rejected %d: calls unresolved", v.Issued, v.Acked, v.Rejected)
	}
	parks := make(map[int]int) // firings by node: each end of the torn link has one ring that can park
	for _, f := range v.Anomalies {
		if f.Rule != health.RuleReaderParked {
			continue
		}
		if f.Node != torn.A && f.Node != torn.B {
			t.Fatalf("a reader parked off the torn link: %+v", f)
		}
		parks[f.Node]++
	}
	if parks[torn.A] < 2 && parks[torn.B] < 2 {
		t.Fatalf("reader-parked firings by node %v: no ring parked, cleared and parked again", parks)
	}
	if rejects := v.Metrics.Counter("broadcast.torn_rejects").Value(); rejects < 2*rdma.TornLooks {
		t.Fatalf("%d torn reads rejected: no reader sat out its whole retry window twice", rejects)
	}
}

// TestCorpusTornLong replays the plans whose links tear by 20–60 µs, past the
// ring readers' rdma.TornLooks-poll retry window, on counter and bankmap, whose
// δ-logs now re-anchor only when they fill: a summary reader that meets a torn
// record cannot wait for the next anchor, so it recovers through fetchSlot's
// one-sided read of the writer's own slot. Each plan must tear writes, make gap
// fetches, and pass every probe and the history check.
func TestCorpusTornLong(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "chaos", "*-torn-long-*.json"))
	if err != nil {
		t.Fatal(err)
	}
	classes := map[string]bool{}
	for _, path := range files {
		p := readCorpusPlan(t, path)
		classes[p.Class] = true
		for _, e := range p.Events {
			if e.Kind == KindTorn && (e.Extra < 20*sim.Microsecond || e.Extra+e.Jitter > 60*sim.Microsecond) {
				t.Fatalf("%s: %v tears outside 20–60µs", path, e)
			}
		}
		v := mustRun(t, p, Options{EnableMetrics: true}.Checked())
		assertPassed(t, v)
		if !v.Conform.OK() {
			t.Fatalf("%s: history check failed:\n%s", path, v.Conform)
		}
		torn, fetches := v.Metrics.Counter("rdma.torn_writes").Value(), v.Metrics.Counter("core.gap_fetches").Value()
		t.Logf("%s: %d torn writes, %d gap fetches", filepath.Base(path), torn, fetches)
		if torn == 0 || fetches == 0 {
			t.Fatalf("%s: %d torn writes and %d gap fetches, want both", path, torn, fetches)
		}
	}
	if !classes["counter"] || !classes["bankmap"] {
		t.Fatalf("long-tear corpus covers %v, want counter and bankmap", classes)
	}
}

// TestCorpusMuTornRejects: Mu's log, request and control ring readers reject
// torn records on a bankmap torn plan, and mu.torn_rejects exports the count.
func TestCorpusMuTornRejects(t *testing.T) {
	p := readCorpusPlan(t, filepath.Join("testdata", "chaos", "bankmap-torn-seed1102.json"))
	v := mustRun(t, p, Options{EnableMetrics: true})
	assertPassed(t, v)
	if n := v.Metrics.Counter("mu.torn_rejects").Value(); n == 0 {
		t.Fatal("mu.torn_rejects = 0: no Mu ring reader's torn reject reached the registry")
	}
}

// TestGeneratedPlansIncludeTorn pins that the randomized generator emits
// torn-write windows: across a seed sweep some plans must contain a torn
// event, every torn event must carry its matching heal, and all generated
// plans must validate.
func TestGeneratedPlansIncludeTorn(t *testing.T) {
	tornPlans := 0
	for seed := int64(0); seed < 40; seed++ {
		p := Generate("counter", 5, 80, seed)
		if err := p.Validate(); err != nil {
			t.Fatalf("seed %d: generated plan invalid: %v", seed, err)
		}
		torn, heals := 0, 0
		for _, e := range p.Events {
			switch e.Kind {
			case KindTorn:
				torn++
				if e.Extra <= 0 {
					t.Fatalf("seed %d: generated torn event without a tear: %v", seed, e)
				}
			case KindTornHeal:
				heals++
			}
		}
		if torn != heals {
			t.Fatalf("seed %d: %d torn events but %d heals", seed, torn, heals)
		}
		if torn > 0 {
			tornPlans++
			if !strings.Contains(p.Events[0].String(), "µs") && p.Events[0].At == 0 {
				t.Fatalf("seed %d: unrenderable event %v", seed, p.Events[0])
			}
		}
	}
	if tornPlans == 0 {
		t.Fatal("40 seeds generated no torn windows")
	}
	t.Logf("%d/40 generated plans carry torn windows", tornPlans)
}
