package bench

import (
	"io"

	"hamband/internal/core"
	"hamband/internal/crdt"
	"hamband/internal/rdma"
	"hamband/internal/sim"
	"hamband/internal/span"
	"hamband/internal/spec"
	"hamband/internal/trace"
)

// wireClasses are the classes the wire-efficiency study covers: every
// reducible bundle the δ-summary path accelerates, plus the two F-path
// classes whose broadcast records the packed framing shrinks.
func wireClasses() []func() *spec.Class {
	return []func() *spec.Class{
		crdt.NewCounter, crdt.NewPNCounter, crdt.NewLWW, crdt.NewGSet,
		crdt.NewLWWMap, crdt.NewTwoPSet, crdt.NewORSet, crdt.NewCart,
	}
}

// wirePoint runs one traced update-only Hamband point and reports
// bytes-on-wire per completed op plus the share of call latency the span
// attribution charges to the wire stage.
func (cfg Config) wirePoint(cls *spec.Class, nodes, ops int) (res *Result, bytesPerOp, wireShare float64) {
	var tr *trace.Tracer
	res, fab := cfg.run(Hamband, cls, nodes, ops, 1.0, variant{mut: func(fab *rdma.Fabric, o *core.Options) {
		tr = trace.New(fab.Engine(), 1<<20)
		o.Tracer = tr
	}})

	if n := float64(res.Completed - res.Rejected); n > 0 {
		bytesPerOp = float64(fab.Stats().BytesWritten) / n
	}
	var wire, total sim.Duration
	for _, s := range span.Build(tr.Events()) {
		if s.Rejected {
			continue
		}
		for _, st := range s.Stages {
			total += st.Duration()
			if st.Name == "wire" {
				wire += st.Duration()
			}
		}
	}
	if total > 0 {
		wireShare = float64(wire) / float64(total)
	}
	return res, bytesPerOp, wireShare
}

// Wire runs the wire-efficiency study: for each class an update-only
// workload, reporting bytes on the wire per operation, throughput, and the
// wire stage's share of span-attributed latency. When jsonOut is non-nil the
// per-class points are written as a benchmark snapshot (`-exp benchstat`
// diffs it).
func (cfg Config) Wire(jsonOut io.Writer) {
	const nodes = 4
	ops := cfg.Ops / 4
	if ops < 500 {
		ops = 500
	}
	cfg.printf("Wire efficiency — δ-mutation broadcast and δ-group summaries (%d nodes, updates only)\n", nodes)
	cfg.printf("%-10s %11s %9s %11s\n", "class", "delta B/op", "T delta", "wire% delta")
	s := Snapshot{Schema: 1, Ops: ops, Seed: cfg.Seed}
	for _, mk := range wireClasses() {
		r, bytes, share := cfg.wirePoint(mk(), nodes, ops)
		cfg.printf("%-10s %11.1f %9.2f %10.1f%%\n", r.Class, bytes, r.Throughput(), 100*share)
		s.Points = append(s.Points, resultPoint("wire/delta", "hamband", nodes, 1.0, r, bytes))
	}
	cfg.printf("\n")
	if jsonOut != nil {
		if err := s.WriteJSON(jsonOut); err != nil {
			cfg.printf("wire: JSON export failed: %v\n", err)
		}
	}
}
