// Package span reconstructs causal span trees from trace events: one span
// per client call, subdivided into protocol stages (CPU queueing, local
// summarization or apply, verb posting, wire transfer, consensus commit,
// remote apply). On top of spans it derives critical paths, per-stage
// latency histograms and tail-attribution reports — which stage the slow
// calls actually spend their time in.
//
// The input is any event slice recorded by trace.Tracer with core tracing
// enabled (core.Options.Tracer); the transport events (post/wire/cqe) and
// the consensus commit events appear automatically because core labels the
// underlying work requests with call identities.
package span

import (
	"sort"
	"strings"

	"hamband/internal/sim"
	"hamband/internal/trace"
)

// Call categories, matching the Hamband operation-type analysis.
const (
	CatReducible    = "reducible"
	CatConflictFree = "conflict-free"
	CatConflicting  = "conflicting"
	CatUnknown      = "unknown"
)

// Categories lists the span categories in canonical report order.
var Categories = []string{CatReducible, CatConflictFree, CatConflicting, CatUnknown}

// Stage is one leg of a span: the protocol was between two recorded
// boundary events from From to To.
type Stage struct {
	Name     string
	From, To sim.Time
}

// Duration returns the stage's length.
func (st Stage) Duration() sim.Duration { return sim.Duration(st.To - st.From) }

// Span is the reconstructed lifetime of one client call.
type Span struct {
	Call     string
	Category string
	Start    sim.Time // client submit time (Invoke entry) when known, else first event
	End      sim.Time // last recorded event (replication tail included)
	Done     sim.Time // response-resolved time; 0 when the call never completed
	Rejected bool
	Stages   []Stage // consecutive legs, in time order
	Events   []trace.Event
}

// Completed reports whether the call's response resolved.
func (s *Span) Completed() bool {
	return s.Done != 0 || (len(s.Events) > 0 && hasKind(s.Events, trace.Complete))
}

// Total returns the client-observed latency (submit → response) for
// completed spans and the full recorded extent otherwise.
func (s *Span) Total() sim.Duration {
	if s.Completed() {
		return sim.Duration(s.Done - s.Start)
	}
	return sim.Duration(s.End - s.Start)
}

// CriticalPath returns the chain of stages the client-observed latency is
// made of: every leg up to and including the one ending at the completion
// event. Replication-tail stages (wire transfer and remote applies that
// resolve after the response) are excluded.
func (s *Span) CriticalPath() []Stage {
	if !s.Completed() {
		return s.Stages
	}
	for i, st := range s.Stages {
		if st.To >= s.Done {
			return s.Stages[:i+1]
		}
	}
	return s.Stages
}

func hasKind(evs []trace.Event, k trace.Kind) bool {
	for _, e := range evs {
		if e.Kind == k {
			return true
		}
	}
	return false
}

// Build groups events by call identity and reconstructs one span per call.
// Transport events whose label covers several batched calls (identities
// joined with commas) are credited to each of them. Spans come back in
// first-seen call order; events within a span are sorted by time.
func Build(events []trace.Event) []*Span {
	byCall := make(map[string][]trace.Event)
	var order []string
	add := func(call string, e trace.Event) {
		if _, ok := byCall[call]; !ok {
			order = append(order, call)
		}
		byCall[call] = append(byCall[call], e)
	}
	for _, e := range events {
		if e.Call == "" {
			continue
		}
		if strings.Contains(e.Call, ",") {
			for _, call := range strings.Split(e.Call, ",") {
				if call != "" {
					add(call, e)
				}
			}
			continue
		}
		add(e.Call, e)
	}
	spans := make([]*Span, 0, len(order))
	for _, call := range order {
		evs := byCall[call]
		sort.SliceStable(evs, func(i, j int) bool { return evs[i].At < evs[j].At })
		spans = append(spans, build(call, evs))
	}
	return spans
}

// boundary is one candidate stage endpoint of a span.
type boundary struct {
	name string
	at   sim.Time
	ok   bool
}

func build(call string, evs []trace.Event) *Span {
	s := &Span{Call: call, Events: evs, Category: CatUnknown}
	s.Start = evs[0].At
	s.End = evs[len(evs)-1].At

	var issue, reduce, freeSend, order, commit, complete boundary
	var firstPost, lastWire, lastCQE, lastApply, lastAdopt boundary
	first := func(b *boundary, name string, at sim.Time) {
		if !b.ok {
			*b = boundary{name: name, at: at, ok: true}
		}
	}
	last := func(b *boundary, name string, at sim.Time) {
		*b = boundary{name: name, at: at, ok: true}
	}
	for _, e := range evs {
		switch e.Kind {
		case trace.Issue:
			first(&issue, "queue", e.At)
			if cr, ok := e.Data.(trace.CallRecord); ok && cr.SubmitAt != 0 && cr.SubmitAt <= e.At {
				s.Start = cr.SubmitAt
			}
		case trace.Reject:
			s.Rejected = true
		case trace.Reduce:
			first(&reduce, "summarize", e.At)
		case trace.FreeSend:
			first(&freeSend, "local-apply", e.At)
		case trace.Order:
			first(&order, "order", e.At)
		case trace.Commit:
			first(&commit, "commit", e.At)
		case trace.Complete:
			first(&complete, "complete", e.At)
			if !s.Rejected {
				s.Done = e.At
			}
		case trace.Post:
			first(&firstPost, "doorbell", e.At)
		case trace.Wire:
			last(&lastWire, "wire", e.At)
		case trace.CQE:
			last(&lastCQE, "ack", e.At)
		case trace.Apply:
			last(&lastApply, "remote-apply", e.At)
		case trace.Adopt:
			last(&lastAdopt, "adopt", e.At)
		}
	}

	// Classify by which lifecycle events the runtime emitted.
	var seq []boundary
	switch {
	case reduce.ok:
		s.Category = CatReducible
		seq = []boundary{issue, reduce, complete, firstPost, lastWire, lastAdopt}
	case freeSend.ok:
		s.Category = CatConflictFree
		seq = []boundary{issue, freeSend, complete, firstPost, lastWire, lastCQE, lastApply}
	case order.ok || commit.ok:
		s.Category = CatConflicting
		seq = []boundary{issue, order, commit, {name: "deliver", at: complete.at, ok: complete.ok}, lastApply}
	default:
		seq = []boundary{issue, complete}
	}

	// Order the present boundaries by when they actually happened (protocol
	// order breaks ties, keeping reports deterministic) and walk them with a
	// cursor: each boundary closes the stage reaching back to the previous
	// one, so the stages tile the span gap-free.
	present := seq[:0]
	for _, b := range seq {
		if b.ok {
			present = append(present, b)
		}
	}
	sort.SliceStable(present, func(i, j int) bool { return present[i].at < present[j].at })
	cursor := s.Start
	for _, b := range present {
		if b.at < cursor {
			continue
		}
		s.Stages = append(s.Stages, Stage{Name: b.name, From: cursor, To: b.at})
		cursor = b.at
	}
	return s
}
