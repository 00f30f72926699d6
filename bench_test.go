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
	"hamband/internal/rdma"
	"hamband/internal/ring"
	"hamband/internal/sim"
	"hamband/internal/spec"
)

const benchOps = 2000

// benchFigure runs each headline point of the figure called name — its
// first panel at the first class and update ratio on four nodes, one per
// fault scenario and system, as the figure table in internal/bench defines
// it — per b.N iteration and reports the virtual-time metrics of the last
// run.
func benchFigure(b *testing.B, name string) {
	labels, runs := bench.Headline(name)
	for i, run := range runs {
		b.Run(labels[i], func(b *testing.B) {
			var res *bench.Result
			for j := 0; j < b.N; j++ {
				res = run(bench.Config{Ops: benchOps, Seed: int64(42 + j)})
				if res.TimedOut {
					b.Fatal("replication barrier timed out")
				}
			}
			b.ReportMetric(res.Throughput(), "vops/µs")
			b.ReportMetric(float64(res.MeanRT), "vrt-ns")
		})
	}
}

// BenchmarkFig8Reduction: Figure 8, reducible methods, on the three systems.
func BenchmarkFig8Reduction(b *testing.B) { benchFigure(b, "fig8") }

// BenchmarkFig9Buffering: Figure 9, irreducible conflict-free methods.
func BenchmarkFig9Buffering(b *testing.B) { benchFigure(b, "fig9") }

// BenchmarkFig10SyncGroups: Figure 10, the movie schema's two
// synchronization groups against the SMR's single leader.
func BenchmarkFig10SyncGroups(b *testing.B) { benchFigure(b, "fig10") }

// BenchmarkFig11Mix: Figure 11, the project-management schema mixing all
// three categories.
func BenchmarkFig11Mix(b *testing.B) { benchFigure(b, "fig11") }

// BenchmarkFig12FailureFree: Figure 12, a conflict-free use-case with and
// without a follower failure.
func BenchmarkFig12FailureFree(b *testing.B) { benchFigure(b, "fig12") }

// BenchmarkFig13Failure: Figure 13, the courseware schema under normal
// execution, follower failure and leader failure.
func BenchmarkFig13Failure(b *testing.B) { benchFigure(b, "fig13") }

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
