package chaos

import (
	"bytes"
	"reflect"
	"testing"
)

// FuzzPlanJSON fuzzes the fault-plan JSON reader: arbitrary input must
// never panic, and any input that parses into a valid plan must round-trip
// through encode/decode unchanged (plans are replayable bug reports, so a
// lossy serialization would corrupt counterexamples).
func FuzzPlanJSON(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		var buf bytes.Buffer
		p := Generate("bankmap", 4, 60, seed)
		p.NoFinalHeal = seed%2 == 0
		if seed%3 == 0 {
			p.Mutants = append(p.Mutants, "no-recovery")
		}
		if seed%4 == 0 {
			p.Mutants = append(p.Mutants, "apply-order")
		}
		if err := p.WriteJSON(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte(`{"class":"counter","nodes":2,"ops":0,"seed":-1,"events":null}`))
	f.Add([]byte(`{"class":"counter","nodes":2,"events":[{"at":-1,"kind":"suspend"}]}`))
	f.Add([]byte(`{"class":"counter","nodes":4,"ops":80,"seed":208,"full_summaries":true}`))
	f.Add([]byte(`not json`))
	f.Add([]byte(`{}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ReadPlan(bytes.NewReader(data))
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if err := p.WriteJSON(&buf); err != nil {
			t.Fatalf("valid plan failed to encode: %v", err)
		}
		q, err := ReadPlan(&buf)
		if err != nil {
			t.Fatalf("re-reading an encoded valid plan failed: %v", err)
		}
		// Normalize the asymmetries JSON allows: an empty event list encodes
		// as [] but absent/null decodes as nil, and an empty mutant list is
		// omitted.
		if len(p.Events) == 0 {
			p.Events = nil
		}
		if len(q.Events) == 0 {
			q.Events = nil
		}
		if len(p.Mutants) == 0 {
			p.Mutants = nil
		}
		if !reflect.DeepEqual(p, q) {
			t.Fatalf("round-trip changed the plan:\n in: %+v\nout: %+v", p, q)
		}
	})
}
