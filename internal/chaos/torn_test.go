package chaos

import (
	"path/filepath"
	"strings"
	"testing"

	"hamband/internal/health"
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
// of jitter — past the 16 µs (tornRetryLimit polls) a ring reader waits before
// it diagnoses a dead writer and parks — under bankmap load. The park is the
// diagnosis, not a quarantine: the reader validates the parked record again on
// every poll and resumes when the interior lands. So reader-parked must fire,
// only on the torn link's two rings, and must clear: the watchdog re-arms an
// episode only once its condition has cleared, so a second firing on one ring
// proves the first park ended, and the run passing its quiescence and
// exactly-once probes proves the last one did (a reader still parked holds its
// F buffer for good). The park lasts 15–25 µs; the default 100 µs probe cadence
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
	if rejects := v.Metrics.Counter("broadcast.torn_rejects").Value(); rejects < 16 {
		t.Fatalf("%d torn reads rejected: no reader sat out its whole retry window twice", rejects)
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
