package bench

import (
	"bytes"
	"encoding/json"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"hamband/internal/metrics"
)

var (
	counterLit   = regexp.MustCompile(`\.Counter\("([a-z0-9_.]+)"\)`)
	histogramLit = regexp.MustCompile(`\.Histogram\("([a-z0-9_.]+)",`)
)

// scanInstrumentNames collects every literal instrument name matching lit
// that non-test source under internal/ registers. Dynamically-formatted
// names (the per-QP rdma.qp.<i>-<j>.* family, the span.<category>.<stage>
// histograms) are intentionally out of scope: the scan pins the fixed
// registry vocabulary.
func scanInstrumentNames(t *testing.T, root string, lit *regexp.Regexp, atLeast int) map[string]string {
	t.Helper()
	names := map[string]string{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range lit.FindAllSubmatch(src, -1) {
			names[string(m[1])] = path
		}
		return nil
	})
	if err != nil {
		t.Fatalf("walking %s: %v", root, err)
	}
	if len(names) < atLeast {
		t.Fatalf("scan for %s found only %d names under %s — wrong root?", lit, len(names), root)
	}
	return names
}

// TestMetricsExportCompleteness pins the observability contract: every
// counter and every histogram registered by name anywhere under internal/
// appears in the `-exp metrics` JSON export, the histograms with
// observations. An instrument that exists in code but not in the export is
// invisible to every dashboard built on the export — this test makes adding
// one without wiring it a build failure.
func TestMetricsExportCompleteness(t *testing.T) {
	names := scanInstrumentNames(t, "..", counterLit, 10) // internal/
	hists := scanInstrumentNames(t, "..", histogramLit, 5)

	var buf bytes.Buffer
	cfg := Config{Ops: 500, Seed: 7, Out: io.Discard}
	cfg.Metrics(&buf, nil)

	var snap metrics.Snapshot
	if err := json.Unmarshal(buf.Bytes(), &snap); err != nil {
		t.Fatalf("decoding -exp metrics JSON export: %v", err)
	}
	for name, where := range names {
		if _, ok := snap.Counters[name]; !ok {
			t.Errorf("counter %q (registered in %s) missing from the -exp metrics JSON export", name, where)
		}
	}
	// Registered with the fabric, counted by the coalescer: present is not
	// enough, the bank map's deposits must have merged into shared writes.
	if snap.Counters["rdma.coalesce_merged"] == 0 {
		t.Error(`counter "rdma.coalesce_merged" is zero in the export: the coalescer no longer reports merged records`)
	}
	for name, where := range hists {
		if h, ok := snap.Histograms[name]; !ok || h.Count == 0 {
			t.Errorf("histogram %q (registered in %s) missing from the -exp metrics JSON export, or empty in it", name, where)
		}
	}
	t.Logf("export covers all %d registered counter names (%d total exported) and all %d histogram names",
		len(names), len(snap.Counters), len(hists))
}
