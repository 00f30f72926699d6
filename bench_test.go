package hamband

// One testing.B benchmark per figure of the paper's evaluation, plus
// micro-benchmarks of the hot substrates. Each figure benchmark runs a
// scaled-down experiment point per iteration and reports the paper's
// metrics — virtual-time throughput (vops/µs) and mean response time
// (vrt-ns) — via b.ReportMetric; the wall-clock ns/op column measures the
// simulator itself. Full-scale tables come from cmd/hambench.

import (
	"testing"

	"hamband/internal/bench"
	"hamband/internal/codec"
	"hamband/internal/crdt"
	"hamband/internal/rdma"
	"hamband/internal/ring"
	"hamband/internal/schema"
	"hamband/internal/sim"
	"hamband/internal/spec"
)

const benchOps = 2000

// runPoint executes one benchmark point per b.N iteration and reports the
// virtual-time metrics of the last run.
func runPoint(b *testing.B, kind bench.SystemKind, cls func() *spec.Class,
	nodes int, ratio float64, faults ...bench.Fault) {
	b.Helper()
	var res *bench.Result
	for i := 0; i < b.N; i++ {
		eng := sim.NewEngine(int64(42 + i))
		an := spec.MustAnalyze(cls())
		sys, err := bench.Build(kind, eng, nodes, an, bench.Variant{})
		if err != nil {
			b.Fatal(err)
		}
		wl := bench.NewWorkload(an, nodes, benchOps, ratio, int64(7+i))
		res = bench.Run(eng, sys, wl, faults...)
		if res.TimedOut {
			b.Fatal("replication barrier timed out")
		}
	}
	b.ReportMetric(res.Throughput(), "vops/µs")
	b.ReportMetric(float64(res.MeanRT), "vrt-ns")
}

// BenchmarkFig8Reduction regenerates Figure 8: reducible methods
// (Counter, LWW, GSet) across the three systems at 4 nodes, 25% updates.
func BenchmarkFig8Reduction(b *testing.B) {
	classes := map[string]func() *spec.Class{
		"counter": crdt.NewCounter, "lww": crdt.NewLWW, "gset": crdt.NewGSet,
	}
	for name, cls := range classes {
		for _, kind := range []bench.SystemKind{bench.Hamband, bench.MSG, bench.MuSMR} {
			b.Run(name+"/"+kind.String(), func(b *testing.B) {
				runPoint(b, kind, cls, 4, 0.25)
			})
		}
	}
}

// BenchmarkFig9Buffering regenerates Figure 9: irreducible conflict-free
// methods (ORSet, buffered GSet, Cart).
func BenchmarkFig9Buffering(b *testing.B) {
	classes := map[string]func() *spec.Class{
		"orset": crdt.NewORSet, "gset-buffered": crdt.NewGSetBuffered, "cart": crdt.NewCart,
	}
	for name, cls := range classes {
		for _, kind := range []bench.SystemKind{bench.Hamband, bench.MSG, bench.MuSMR} {
			b.Run(name+"/"+kind.String(), func(b *testing.B) {
				runPoint(b, kind, cls, 4, 0.25)
			})
		}
	}
}

// BenchmarkFig10SyncGroups regenerates Figure 10: the movie schema's two
// synchronization groups versus the SMR's single leader, all-update load.
func BenchmarkFig10SyncGroups(b *testing.B) {
	for _, kind := range []bench.SystemKind{bench.Hamband, bench.MuSMR} {
		b.Run(kind.String(), func(b *testing.B) {
			runPoint(b, kind, schema.NewMovie, 4, 1.0)
		})
	}
}

// BenchmarkFig11Mix regenerates Figure 11: the project-management schema
// mixing all three categories, 50% updates.
func BenchmarkFig11Mix(b *testing.B) {
	for _, kind := range []bench.SystemKind{bench.Hamband, bench.MuSMR} {
		b.Run(kind.String(), func(b *testing.B) {
			runPoint(b, kind, schema.NewProjectManagement, 4, 0.5)
		})
	}
}

// BenchmarkFig12FailureFree regenerates Figure 12: conflict-free use-cases
// with and without a follower failure.
func BenchmarkFig12FailureFree(b *testing.B) {
	for name, cls := range map[string]func() *spec.Class{
		"counter": crdt.NewCounter, "orset": crdt.NewORSet,
	} {
		b.Run(name+"/normal", func(b *testing.B) {
			runPoint(b, bench.Hamband, cls, 4, 0.25)
		})
		b.Run(name+"/follower-fails", func(b *testing.B) {
			runPoint(b, bench.Hamband, cls, 4, 0.25,
				bench.Fault{At: sim.Time(100 * sim.Microsecond), Node: 3})
		})
	}
}

// BenchmarkFig13Failure regenerates Figure 13: the courseware schema under
// normal execution, follower failure, and leader failure.
func BenchmarkFig13Failure(b *testing.B) {
	b.Run("normal", func(b *testing.B) {
		runPoint(b, bench.Hamband, schema.NewCourseware, 4, 0.5)
	})
	b.Run("follower-fails", func(b *testing.B) {
		runPoint(b, bench.Hamband, schema.NewCourseware, 4, 0.5,
			bench.Fault{At: sim.Time(100 * sim.Microsecond), Node: 3})
	})
	b.Run("leader-fails", func(b *testing.B) {
		runPoint(b, bench.Hamband, schema.NewCourseware, 4, 0.5,
			bench.Fault{At: sim.Time(100 * sim.Microsecond), Node: 0})
	})
}

// BenchmarkCodec measures the call wire codec.
func BenchmarkCodec(b *testing.B) {
	c := spec.Call{Method: 2, Args: spec.ArgsI(3, 1<<40, -7), Proc: 1, Seq: 99}
	d := spec.DepVec{1, 2, 3, 4, 5, 6}
	b.Run("encode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := codec.EncodeEntry(c, d); err != nil {
				b.Fatal(err)
			}
		}
	})
	enc, _ := codec.EncodeEntry(c, d)
	b.Run("decode", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, _, _, err := codec.DecodeEntry(enc); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkRing measures the single-writer ring's append/poll round trip.
func BenchmarkRing(b *testing.B) {
	region := make([]byte, ring.RegionSize(1<<16))
	w := ring.NewWriter(1 << 16)
	r := ring.NewReader(region)
	rec, _ := codec.EncodeEntry(spec.Call{Method: 1, Args: spec.ArgsI(5)}, nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		writes, ok := w.Append(rec)
		if !ok {
			w.NoteHead(ring.DecodeHead(region))
			writes, _ = w.Append(rec)
		}
		for _, wr := range writes {
			copy(region[wr.Off:], wr.Data)
		}
		if _, ok, err := r.Poll(); !ok || err != nil {
			b.Fatalf("poll: %v %v", ok, err)
		}
	}
}

// BenchmarkEngine measures raw event throughput of the simulator.
func BenchmarkEngine(b *testing.B) {
	eng := sim.NewEngine(1)
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			eng.After(10, tick)
		}
	}
	b.ResetTimer()
	eng.After(10, tick)
	eng.Run()
}

// BenchmarkOneSidedWrite measures the simulated RDMA write path.
func BenchmarkOneSidedWrite(b *testing.B) {
	eng := sim.NewEngine(1)
	fab := rdma.NewFabric(eng, 2, rdma.DefaultLatency())
	region := fab.Node(1).Register("buf", 4096)
	region.AllowWrite(0)
	data := make([]byte, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fab.Node(0).QP(1).Write("buf", 0, data, nil)
		eng.Run()
	}
}
