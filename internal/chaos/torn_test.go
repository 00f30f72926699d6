package chaos

import (
	"path/filepath"
	"strings"
	"testing"
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
