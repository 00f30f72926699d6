package bench

import (
	"io"
	"testing"

	"hamband/internal/core"
	"hamband/internal/crdt"
	"hamband/internal/metrics"
	"hamband/internal/rdma"
	"hamband/internal/schema"
	"hamband/internal/sim"
	"hamband/internal/span"
	"hamband/internal/trace"
)

// TestOrderStageCarriesQueueWait: a conflicting call's `order` stage runs
// from its Issue to the leader's Order event, and the leader now emits Order
// when the call's round starts, not when the request arrives. The wait in the
// leader's queue must therefore show up inside `order` — not vanish between
// stages: on a saturated movie run every completed conflicting span's
// critical path still sums to its client-observed latency, and the `order`
// stages together hold at least the queue wait Mu measured itself.
func TestOrderStageCarriesQueueWait(t *testing.T) {
	var reg *metrics.Registry
	var tr *trace.Tracer
	cfg := Config{Ops: 2000, Seed: 11, Out: io.Discard}
	res, _ := cfg.run(Hamband, schema.NewMovie(), 4, cfg.Ops, 1.0, 0, Variant{Edit: func(fab *rdma.Fabric, o *core.Options) {
		reg = metrics.New(fab.Engine())
		tr = trace.New(fab.Engine(), 1<<20)
		o.Metrics, o.Tracer = reg, tr
	}})
	if res.TimedOut || tr.Dropped() > 0 {
		t.Fatalf("run timed out (%v) or dropped %d trace events", res.TimedOut, tr.Dropped())
	}
	var order sim.Duration
	checked := 0
	for _, s := range span.Build(tr.Events()) {
		if s.Category != span.CatConflicting || s.Rejected || !s.Completed() {
			continue
		}
		checked++
		var sum sim.Duration
		for _, st := range s.CriticalPath() {
			sum += st.Duration()
			if st.Name == "order" {
				order += st.Duration()
			}
		}
		if sum != s.Total() {
			t.Fatalf("%s: critical path sums to %v, client latency is %v: %+v", s.Call, sum, s.Total(), s.Stages)
		}
	}
	if checked < cfg.Ops*9/10 {
		t.Fatalf("only %d of %d calls checked", checked, cfg.Ops)
	}
	wait := reg.Histogram("mu.queue_wait", nil)
	if wait.Count() == 0 || wait.Sum() == 0 {
		t.Fatalf("mu.queue_wait recorded %d waits summing to %v on a saturated run", wait.Count(), wait.Sum())
	}
	if order < wait.Sum() {
		t.Fatalf("order stages sum to %v, less than the %v the calls waited in the leaders' queues", order, wait.Sum())
	}
	t.Logf("%d conflicting calls: order stages %v, of which queue wait %v", checked, order, wait.Sum())
}

// TestDoorbellStageCarriesTheHold is the conflict-free twin: an accepted
// call's record waits in the replica's open batch until the source's last
// message is acknowledged. The response does not wait for it, so the hold
// must show up behind `complete`, inside `doorbell` (Complete → first Post),
// and not vanish between stages: on a saturated orset run every span's
// stages still tile Issue → last remote apply, the client-observed latency
// ends before the hold begins, and the `doorbell` stages together hold at
// least the time the replicas measured themselves (broadcast.hold).
func TestDoorbellStageCarriesTheHold(t *testing.T) {
	var reg *metrics.Registry
	var tr *trace.Tracer
	cfg := Config{Ops: 2000, Seed: 11, Out: io.Discard}
	res, _ := cfg.run(Hamband, crdt.NewORSet(), 4, cfg.Ops, 1.0, 0, Variant{Edit: func(fab *rdma.Fabric, o *core.Options) {
		reg = metrics.New(fab.Engine())
		tr = trace.New(fab.Engine(), 1<<20)
		o.Metrics, o.Tracer = reg, tr
	}})
	if res.TimedOut || tr.Dropped() > 0 {
		t.Fatalf("run timed out (%v) or dropped %d trace events", res.TimedOut, tr.Dropped())
	}
	var doorbell sim.Duration
	checked := 0
	for _, s := range span.Build(tr.Events()) {
		if s.Category != span.CatConflictFree || s.Rejected || !s.Completed() {
			continue
		}
		checked++
		var sum sim.Duration
		for _, st := range s.Stages {
			sum += st.Duration()
			if st.Name == "doorbell" {
				doorbell += st.Duration()
				if st.From != s.Done {
					t.Fatalf("%s: doorbell stage starts at %v, the response resolved at %v: the hold is on the response path", s.Call, st.From, s.Done)
				}
			}
		}
		if last := s.Stages[len(s.Stages)-1]; sum != sim.Duration(s.End-s.Start) || last.Name != "remote-apply" {
			t.Fatalf("%s: stages sum to %v and end in %q, the span runs %v to its last remote apply: %+v",
				s.Call, sum, last.Name, sim.Duration(s.End-s.Start), s.Stages)
		}
	}
	if checked < cfg.Ops*9/10 {
		t.Fatalf("only %d of %d calls checked", checked, cfg.Ops)
	}
	hold, batch := reg.Histogram("broadcast.hold", nil), reg.Histogram("broadcast.batch_entries", nil)
	if hold.Count() != uint64(checked) || hold.Sum() == 0 || uint64(batch.Sum()) != hold.Count() || batch.Count() >= hold.Count()/2 {
		t.Fatalf("broadcast.hold recorded %d holds summing to %v, broadcast.batch_entries %d calls in %d messages, on a saturated run of %d calls",
			hold.Count(), hold.Sum(), batch.Sum(), batch.Count(), checked)
	}
	if doorbell < hold.Sum() {
		t.Fatalf("doorbell stages sum to %v, less than the %v the calls were held", doorbell, hold.Sum())
	}
	t.Logf("%d conflict-free calls in %d messages: doorbell stages %v, of which hold %v", checked, batch.Count(), doorbell, hold.Sum())
}
