package chaos

import (
	"os"
	"path/filepath"
	"testing"
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
