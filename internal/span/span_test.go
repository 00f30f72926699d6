package span

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"hamband/internal/metrics"
	"hamband/internal/sim"
	"hamband/internal/trace"
)

func ev(at sim.Time, node int, kind trace.Kind, call string, data any) trace.Event {
	return trace.Event{At: at, Node: node, Kind: kind, Call: call, Data: data}
}

func TestBuildConflictFreeSpan(t *testing.T) {
	events := []trace.Event{
		ev(100, 0, trace.Issue, "p0#1", trace.CallRecord{SubmitAt: 40}),
		ev(150, 0, trace.FreeSend, "p0#1", nil),
		ev(160, 0, trace.Complete, "p0#1", trace.AckRecord{OK: true}),
		ev(400, 0, trace.Post, "p0#1", trace.VerbRecord{Verb: "chain"}),
		ev(1600, 1, trace.Wire, "p0#1", trace.VerbRecord{Verb: "chain"}),
		ev(1700, 2, trace.Wire, "p0#1", trace.VerbRecord{Verb: "chain"}),
		ev(2600, 0, trace.CQE, "p0#1", trace.VerbRecord{Verb: "chain"}),
		ev(2800, 1, trace.Apply, "p0#1", nil),
		ev(2900, 2, trace.Apply, "p0#1", nil),
	}
	spans := Build(events)
	if len(spans) != 1 {
		t.Fatalf("spans = %d, want 1", len(spans))
	}
	s := spans[0]
	if s.Category != CatConflictFree {
		t.Fatalf("category = %q", s.Category)
	}
	if s.Start != 40 || s.Done != 160 || s.End != 2900 {
		t.Fatalf("start/done/end = %d/%d/%d", s.Start, s.Done, s.End)
	}
	if s.Total() != 120 {
		t.Fatalf("total = %v, want 120 (client-observed)", s.Total())
	}
	wantStages := []string{"queue", "local-apply", "complete", "doorbell", "wire", "ack", "remote-apply"}
	if len(s.Stages) != len(wantStages) {
		t.Fatalf("stages = %+v", s.Stages)
	}
	for i, name := range wantStages {
		if s.Stages[i].Name != name {
			t.Fatalf("stage %d = %q, want %q", i, s.Stages[i].Name, name)
		}
	}
	// Stages tile the span: consecutive, gap-free.
	if s.Stages[0].From != 40 || s.Stages[len(s.Stages)-1].To != 2900 {
		t.Fatalf("stages do not cover the span: %+v", s.Stages)
	}
	for i := 1; i < len(s.Stages); i++ {
		if s.Stages[i].From != s.Stages[i-1].To {
			t.Fatalf("gap between stages %d and %d", i-1, i)
		}
	}
	// Critical path = the client-latency chain, ending at completion.
	cp := s.CriticalPath()
	if len(cp) != 3 || cp[len(cp)-1].Name != "complete" {
		t.Fatalf("critical path = %+v", cp)
	}
}

func TestBuildConflictingSpan(t *testing.T) {
	events := []trace.Event{
		ev(100, 2, trace.Issue, "p2#1", trace.CallRecord{SubmitAt: 90}),
		ev(2000, 0, trace.Order, "p2#1", nil),
		ev(6000, 0, trace.Commit, "p2#1", nil),
		ev(8000, 2, trace.Complete, "p2#1", trace.AckRecord{OK: true}),
		ev(8500, 1, trace.Apply, "p2#1", nil),
	}
	s := Build(events)[0]
	if s.Category != CatConflicting {
		t.Fatalf("category = %q", s.Category)
	}
	want := []string{"queue", "order", "commit", "deliver", "remote-apply"}
	for i, name := range want {
		if s.Stages[i].Name != name {
			t.Fatalf("stage %d = %q, want %q", i, s.Stages[i].Name, name)
		}
	}
	if d := s.Stages[2].Duration(); d != 4000 {
		t.Fatalf("commit stage = %v, want 4µs", d)
	}
}

func TestBuildReducibleAndBatchedLabels(t *testing.T) {
	// Two reducible calls share a batched verb chain: the transport events
	// carry a comma-joined label and must be credited to both spans.
	events := []trace.Event{
		ev(100, 0, trace.Issue, "p0#1", trace.CallRecord{SubmitAt: 50}),
		ev(140, 0, trace.Reduce, "p0#1", nil),
		ev(150, 0, trace.Complete, "p0#1", nil),
		ev(200, 0, trace.Issue, "p0#2", trace.CallRecord{SubmitAt: 180}),
		ev(240, 0, trace.Reduce, "p0#2", nil),
		ev(250, 0, trace.Complete, "p0#2", nil),
		ev(400, 0, trace.Post, "p0#1,p0#2", trace.VerbRecord{Verb: "chain"}),
		ev(1600, 1, trace.Wire, "p0#1,p0#2", trace.VerbRecord{Verb: "chain"}),
	}
	spans := Build(events)
	if len(spans) != 2 {
		t.Fatalf("spans = %d, want 2", len(spans))
	}
	for _, s := range spans {
		if s.Category != CatReducible {
			t.Fatalf("%s: category = %q", s.Call, s.Category)
		}
		var names []string
		for _, st := range s.Stages {
			names = append(names, st.Name)
		}
		joined := strings.Join(names, " ")
		if !strings.Contains(joined, "doorbell") || !strings.Contains(joined, "wire") {
			t.Fatalf("%s: stages missing transport legs: %v", s.Call, names)
		}
	}
}

func TestRejectedSpanExcludedFromReport(t *testing.T) {
	events := []trace.Event{
		ev(100, 0, trace.Issue, "p0#1", trace.CallRecord{SubmitAt: 90}),
		ev(110, 0, trace.Reject, "p0#1", nil),
		ev(200, 0, trace.Issue, "p0#2", trace.CallRecord{SubmitAt: 190}),
		ev(240, 0, trace.Reduce, "p0#2", nil),
		ev(250, 0, trace.Complete, "p0#2", nil),
	}
	spans := Build(events)
	rep := Analyze(spans, nil)
	if len(rep.Categories) != 1 || rep.Categories[0].Count != 1 {
		t.Fatalf("report = %+v, want only the accepted reducible call", rep.Categories)
	}
}

func TestAnalyzeTailAttribution(t *testing.T) {
	// 20 conflict-free calls: 19 fast (total 1000), one slow (total 10000)
	// dominated by its wire stage. The p95 cohort must contain the slow
	// call and attribute the bulk of its latency to "wire".
	var events []trace.Event
	base := sim.Time(0)
	for i := 0; i < 20; i++ {
		call := "p0#" + string(rune('A'+i))
		wire := sim.Time(300)
		if i == 19 {
			wire = 9300
		}
		events = append(events,
			ev(base+100, 0, trace.Issue, call, trace.CallRecord{SubmitAt: base}),
			ev(base+200, 0, trace.FreeSend, call, nil),
			ev(base+400, 0, trace.Post, call, nil),
			ev(base+400+wire, 1, trace.Wire, call, nil),
			ev(base+600+wire, 0, trace.Complete, call, nil),
		)
		base += 20000
	}
	// Completion after the wire leg makes wire part of the critical path.
	spans := Build(events)
	rep := Analyze(spans, nil)
	if len(rep.Categories) != 1 {
		t.Fatalf("categories = %+v", rep.Categories)
	}
	cr := rep.Categories[0]
	if cr.Count != 20 || cr.Completed != 20 {
		t.Fatalf("count/completed = %d/%d", cr.Count, cr.Completed)
	}
	if len(cr.Tails) != 2 {
		t.Fatalf("tails = %+v", cr.Tails)
	}
	p95 := cr.Tails[0]
	if p95.Quantile != 0.95 || p95.Count != 1 {
		t.Fatalf("p95 cohort = %+v, want the single slow call", p95)
	}
	var wireShare float64
	for _, ss := range p95.Stages {
		if ss.Name == "wire" {
			wireShare = ss.Share
		}
	}
	if wireShare < 0.8 {
		t.Fatalf("wire share of the slow call = %.2f, want > 0.8", wireShare)
	}

	var buf bytes.Buffer
	rep.WriteTable(&buf)
	out := buf.String()
	for _, want := range []string{"conflict-free", "tail p95 cohort", "wire", "p99"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report table missing %q:\n%s", want, out)
		}
	}
}

func TestAnalyzeDeterministic(t *testing.T) {
	events := []trace.Event{
		ev(100, 0, trace.Issue, "p0#1", trace.CallRecord{SubmitAt: 40}),
		ev(150, 0, trace.FreeSend, "p0#1", nil),
		ev(160, 0, trace.Complete, "p0#1", nil),
		ev(300, 1, trace.Issue, "p1#1", trace.CallRecord{SubmitAt: 290}),
		ev(500, 0, trace.Order, "p1#1", nil),
		ev(900, 0, trace.Commit, "p1#1", nil),
		ev(1200, 1, trace.Complete, "p1#1", nil),
	}
	var a, b bytes.Buffer
	Analyze(Build(events), nil).WriteTable(&a)
	Analyze(Build(events), nil).WriteTable(&b)
	if a.String() != b.String() {
		t.Fatal("report is not deterministic for identical input")
	}
}

// TestAnalyzeSplitsConflictingByRole: a conflicting call ordered at the node
// that issued it is leader-origin, one ordered elsewhere follower-origin; the
// report splits the conflicting category by role beside it, and only the
// category feeds the registry's span histograms.
func TestAnalyzeSplitsConflictingByRole(t *testing.T) {
	events := []trace.Event{
		ev(100, 0, trace.Issue, "p0#1", trace.CallRecord{SubmitAt: 90}),
		ev(200, 0, trace.Order, "p0#1", nil),
		ev(3000, 0, trace.Commit, "p0#1", nil),
		ev(3500, 0, trace.Complete, "p0#1", trace.AckRecord{OK: true}),
		ev(100, 2, trace.Issue, "p2#1", trace.CallRecord{SubmitAt: 90}),
		ev(2000, 0, trace.Order, "p2#1", nil),
		ev(6000, 0, trace.Commit, "p2#1", nil),
		ev(8000, 2, trace.Complete, "p2#1", trace.AckRecord{OK: true}),
		ev(300, 1, trace.Issue, "p1#1", trace.CallRecord{SubmitAt: 290}),
		ev(400, 1, trace.Reduce, "p1#1", nil),
		ev(450, 1, trace.Complete, "p1#1", nil),
	}
	roles := map[string]string{}
	spans := Build(events)
	for _, s := range spans {
		roles[s.Call] = s.Role
	}
	if roles["p0#1"] != RoleLeader || roles["p2#1"] != RoleFollower || roles["p1#1"] != "" {
		t.Fatalf("roles = %v, want p0#1 leader, p2#1 follower, p1#1 none", roles)
	}
	reg := metrics.New(nil)
	rep := Analyze(spans, reg)
	var got []string
	for _, cr := range rep.All() {
		got = append(got, fmt.Sprintf("%s:%d", cr.Category, cr.Count))
	}
	if want := "reducible:1 conflicting:2 conflicting/leader:1 conflicting/follower:1"; strings.Join(got, " ") != want {
		t.Fatalf("reports = %v, want %s", got, want)
	}
	if order := rep.Roles[1].Stages[1]; order.Name != "order" || order.Mean != 1900 {
		t.Fatalf("follower-origin stage 1 = %+v, want order at 1.9µs", order)
	}
	for name := range reg.Snapshot().Histograms {
		if strings.Contains(name, "/") {
			t.Fatalf("the registry holds %s: the role reports must not feed it", name)
		}
	}
	var buf bytes.Buffer
	rep.WriteTable(&buf)
	if !strings.Contains(buf.String(), "== conflicting/follower (1 calls, 1 completed) ==") {
		t.Fatalf("the table has no follower-origin section:\n%s", buf.String())
	}
}
