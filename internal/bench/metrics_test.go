package bench

import (
	"bytes"
	"encoding/json"
	"io"
	"io/fs"
	"math/rand"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"hamband/internal/core"
	"hamband/internal/crdt"
	"hamband/internal/metrics"
	"hamband/internal/rdma"
	"hamband/internal/sim"
	"hamband/internal/spec"
)

var (
	// A counter is registered by Counter, or by CounterFunc when the
	// registry reads a count the layer keeps.
	counterLit   = regexp.MustCompile(`\.Counter(?:Func)?\("([a-z0-9_.]+)"[,)]`)
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
	cfg := Config{Ops: 500, Seed: 7, Out: io.Discard, JSON: &buf}
	cfg.Metrics()

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
	// The per-QP family is formatted, so the scan above cannot see it: every
	// queue pair that reads (heartbeats do, once the run idles) must export
	// the bytes it read.
	var read uint64
	for name, v := range snap.Counters {
		if strings.HasPrefix(name, "rdma.qp.") && strings.HasSuffix(name, ".bytes_read") {
			read += v
		}
	}
	if read == 0 {
		t.Error(`no "rdma.qp.*.bytes_read" counter in the export counts a byte: reads no longer report what they moved`)
	}
	for name, where := range hists {
		if h, ok := snap.Histograms[name]; !ok || h.Count == 0 {
			t.Errorf("histogram %q (registered in %s) missing from the -exp metrics JSON export, or empty in it", name, where)
		}
	}
	t.Logf("export covers all %d registered counter names (%d total exported) and all %d histogram names",
		len(names), len(snap.Counters), len(hists))
}

// TestEachEventCountedOnce pins the one-count rule: a layer that keeps its own
// count of an event exports that count, and the registry reads it, so every
// exported counter equals the layer's own number. It runs a bank map cluster
// (the registry attached to the fabric and again through core.Options, as the
// two-clock benchmark does: the second attach must count nothing twice) and a
// 4-shard OR-set store (the registry attached to the fabric only), each
// idling after its calls so that its detectors read.
func TestEachEventCountedOnce(t *testing.T) {
	t.Run("bankmap-cluster", func(t *testing.T) {
		eng := sim.NewEngine(7)
		an := spec.MustAnalyze(crdt.NewBankMap())
		reg := metrics.New(eng)
		sys, err := Build(Hamband, eng, 4, an, Variant{Edit: func(fab *rdma.Fabric, o *core.Options) {
			fab.EnableMetrics(reg)
			o.Metrics = reg
		}})
		if err != nil {
			t.Fatal(err)
		}
		Run(eng, sys, NewWorkload(an, 4, 800, 0.5, 7))
		c := sys.(*hambandSystem).c
		idle(eng, c.Fab)
		checkOneCount(t, reg, c.Fab, []*core.Cluster{c})
	})
	t.Run("orset-store", func(t *testing.T) {
		eng := sim.NewEngine(7)
		fab := rdma.NewFabric(eng, 4, rdma.DefaultLatency())
		reg := metrics.New(eng)
		fab.EnableMetrics(reg)
		an := spec.MustAnalyze(crdt.NewORSet())
		rng := rand.New(rand.NewSource(7))
		sys, err := newStoreSystem(fab, an, 4, 0, func() int { return rng.Intn(4) })
		if err != nil {
			t.Fatal(err)
		}
		defer sys.st.Stop()
		Run(eng, sys, NewWorkload(an, 4, 800, 0.5, 7))
		idle(eng, fab)
		var clusters []*core.Cluster
		for _, key := range sys.keys {
			clusters = append(clusters, sys.st.Shard(key).Cluster)
		}
		checkOneCount(t, reg, fab, clusters)
	})
}

// idle lets a run's nodes idle two CheckPeriods, so their detectors read the
// peers they no longer hear from: while calls flow, the peers' records stand
// in for the reads (rdma.Node.Heard).
func idle(eng *sim.Engine, fab *rdma.Fabric) { eng.RunFor(2 * fab.Latency().CheckPeriod) }

// checkOneCount compares every counter reg exports for the fabric, core and
// broadcast layers with the count the layer keeps; rdma.coalesce_merged with
// the sum over every node's coalescer.
func checkOneCount(t *testing.T, reg *metrics.Registry, fab *rdma.Fabric, clusters []*core.Cluster) {
	t.Helper()
	snap := reg.Snapshot()
	qpSum := func(suffix string) uint64 {
		var n uint64
		for name, v := range snap.Counters {
			if strings.HasPrefix(name, "rdma.qp.") && strings.HasSuffix(name, "."+suffix) {
				n += v
			}
		}
		return n
	}
	var merged, applied, rejected, torn, deltas, anchors, gaps, stale, bcTorn, bcStale uint64
	for _, c := range clusters {
		for _, r := range c.Replicas {
			_, a, rj, _ := r.Stats()
			d, an, g := r.DeltaStats()
			applied, rejected, deltas, anchors, gaps = applied+a, rejected+rj, deltas+d, anchors+an, gaps+g
			torn += r.TornRejects()
			stale += r.StaleSlotRejects()
			bcTorn += r.Receiver().TornRejects()
			bcStale += r.Receiver().StaleRejects()
		}
	}
	for i := 0; i < fab.Size(); i++ {
		merged += fab.Node(rdma.NodeID(i)).Coalescer().Stats().Merged
	}
	st := fab.Stats()
	for _, c := range []struct {
		name      string
		got, want uint64
	}{
		{"Σ rdma.qp.*.writes", qpSum("writes"), st.Writes},
		{"Σ rdma.qp.*.bytes_written", qpSum("bytes_written"), st.BytesWritten},
		{"Σ rdma.qp.*.reads", qpSum("reads"), st.Reads},
		{"Σ rdma.qp.*.bytes_read", qpSum("bytes_read"), st.BytesRead},
		{"Σ rdma.qp.*.cases", qpSum("cases"), st.CASes},
		{"Σ rdma.qp.*.chains", qpSum("chains"), st.Chains},
		{"Σ rdma.qp.*.chained_wrs", qpSum("chained_wrs"), st.ChainedWRs},
		{"Σ rdma.qp.*.inline_writes", qpSum("inline_writes"), st.InlineWrites},
		{"Σ rdma.qp.*.unsignaled", qpSum("unsignaled"), st.Unsignaled},
		{"rdma.parked_verbs", snap.Counters["rdma.parked_verbs"], st.Parked},
		{"rdma.link_partitions", snap.Counters["rdma.link_partitions"], st.Partitions},
		{"rdma.torn_writes", snap.Counters["rdma.torn_writes"], st.TornWrites},
		{"rdma.coalesce_merged", snap.Counters["rdma.coalesce_merged"], merged},
		{"core.applied", snap.Counters["core.applied"], applied},
		{"core.rejected", snap.Counters["core.rejected"], rejected},
		{"core.torn_rejects", snap.Counters["core.torn_rejects"], torn},
		{"core.delta_records", snap.Counters["core.delta_records"], deltas},
		{"core.anchor_writes", snap.Counters["core.anchor_writes"], anchors},
		{"core.gap_fetches", snap.Counters["core.gap_fetches"], gaps},
		{"core.stale_slot_rejects", snap.Counters["core.stale_slot_rejects"], stale},
		{"broadcast.torn_rejects", snap.Counters["broadcast.torn_rejects"], bcTorn},
		{"broadcast.stale_rejects", snap.Counters["broadcast.stale_rejects"], bcStale},
	} {
		if c.got != c.want {
			t.Errorf("%s = %d, the layer counted %d", c.name, c.got, c.want)
		}
	}
	if st.Writes == 0 || applied == 0 || st.BytesRead == 0 {
		t.Fatalf("nothing ran: %d writes, %d bytes read, %d applied", st.Writes, st.BytesRead, applied)
	}
}
