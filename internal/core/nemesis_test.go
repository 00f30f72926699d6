package core_test

import (
	"strings"
	"testing"

	"hamband/internal/chaos"
)

// chaosRuns runs class under the chaos runner's generated 4-node fault plans
// on seeds lo..hi, each checked as exploration checks it: probes, the
// watchdog and the history replay. Every verdict must read PASS CONFORMS. It
// returns the number of leader kills that fired.
func chaosRuns(t *testing.T, class string, lo, hi int64, ops int) (kills int) {
	t.Helper()
	for seed := lo; seed <= hi; seed++ {
		v, err := chaos.Run(chaos.Generate(class, 4, ops, seed), chaos.Options{}.Checked())
		if err != nil {
			t.Fatalf("%s seed=%d: %v", class, seed, err)
		}
		if !v.Passed || !strings.HasSuffix(v.Summary(), " PASS CONFORMS") {
			t.Fatalf("%s\n%s", v.Summary(), chaos.FormatViolations(v))
		}
		kills += len(v.Kills)
	}
	return kills
}

func TestChaosCounter(t *testing.T) { chaosRuns(t, "counter", 1, 3, 150) }

func TestChaosORSet(t *testing.T) { chaosRuns(t, "orset", 10, 12, 120) }

// TestChaosAccount runs conflicting and dependent methods with real
// invariants under chaos: the leader of the withdraw group itself is killed.
func TestChaosAccount(t *testing.T) {
	if chaosRuns(t, "account", 20, 22, 120) == 0 {
		t.Error("no plan killed the withdraw group's leader")
	}
}

func TestChaosCourseware(t *testing.T) { chaosRuns(t, "courseware", 30, 31, 100) }

// TestChaosSoak is a longer randomized churn across many seeds and classes;
// skipped in -short runs.
func TestChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("soak test skipped in -short mode")
	}
	classes := []string{"counter", "pncounter", "twopset", "orset", "account", "bankmap",
		"courseware", "movie", "auction", "tournament"}
	for i, class := range classes {
		lo := 500 + int64(i)*10
		chaosRuns(t, class, lo, lo+3, 200)
	}
}
