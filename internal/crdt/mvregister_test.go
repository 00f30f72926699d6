package crdt

import (
	"fmt"
	"math/rand"
	"testing"

	"hamband/internal/spec"
)

func mvWrite(v int64, vv ...int64) spec.Call {
	return spec.Call{Method: MVWrite, Args: spec.Args{I: append([]int64{v}, vv...)}}
}

func mvRead(t *testing.T, cls *spec.Class, s spec.State) string {
	t.Helper()
	return cls.Methods[MVRead].Eval(s, spec.Args{}).(string)
}

func TestMVRegisterCausalOverwrite(t *testing.T) {
	cls := NewMVRegister(2)
	s := cls.NewState()
	cls.ApplyCall(s, mvWrite(10, 1, 0))
	cls.ApplyCall(s, mvWrite(20, 2, 1)) // observed the first: dominates it
	if got := mvRead(t, cls, s); got != "20" {
		t.Fatalf("read = %q, want 20", got)
	}
}

func TestMVRegisterConcurrentWritesBothSurvive(t *testing.T) {
	cls := NewMVRegister(2)
	a := mvWrite(10, 1, 0) // p0's write
	b := mvWrite(20, 0, 1) // p1's concurrent write
	s1 := cls.NewState()
	cls.ApplyCall(s1, a)
	cls.ApplyCall(s1, b)
	s2 := cls.NewState()
	cls.ApplyCall(s2, b)
	cls.ApplyCall(s2, a)
	if !s1.Equal(s2) {
		t.Fatal("concurrent writes diverge under reordering")
	}
	if got := mvRead(t, cls, s1); got != "10|20" {
		t.Fatalf("read = %q, want both survivors", got)
	}
	// A later write observing both collapses the conflict.
	cls.ApplyCall(s1, mvWrite(30, 2, 2))
	if got := mvRead(t, cls, s1); got != "30" {
		t.Fatalf("read after merge-write = %q, want 30", got)
	}
}

func TestMVRegisterStaleWriteDiscarded(t *testing.T) {
	cls := NewMVRegister(2)
	s := cls.NewState()
	cls.ApplyCall(s, mvWrite(20, 3, 3))
	cls.ApplyCall(s, mvWrite(10, 1, 1)) // dominated on arrival
	if got := mvRead(t, cls, s); got != "20" {
		t.Fatalf("read = %q, want 20", got)
	}
}

func TestMVRegisterRelations(t *testing.T) {
	if err := spec.CheckRelations(NewMVRegister(3), rand.New(rand.NewSource(31)), 600); err != nil {
		t.Fatal(err)
	}
}

func TestMVRegisterAnalysis(t *testing.T) {
	a := spec.MustAnalyze(NewMVRegister(3))
	if a.Category[MVWrite] != spec.CatIrreducibleFree {
		t.Fatalf("write = %v, want irreducible conflict-free", a.Category[MVWrite])
	}
}

func TestMVRegisterRandomPermutationsConverge(t *testing.T) {
	cls := NewMVRegister(3)
	r := rand.New(rand.NewSource(37))
	for trial := 0; trial < 60; trial++ {
		n := 2 + r.Intn(8)
		calls := make([]spec.Call, n)
		for i := range calls {
			calls[i] = cls.Gen.Call(r, MVWrite)
		}
		s1 := cls.NewState()
		for _, c := range calls {
			cls.ApplyCall(s1, c)
		}
		s2 := cls.NewState()
		for _, i := range r.Perm(n) {
			cls.ApplyCall(s2, calls[i])
		}
		if !s1.Equal(s2) {
			t.Fatalf("trial %d diverged", trial)
		}
	}
}

func TestDominates(t *testing.T) {
	cases := []struct {
		a, b []uint32
		want bool
	}{
		{[]uint32{2, 1}, []uint32{1, 1}, true},
		{[]uint32{1, 1}, []uint32{1, 1}, false}, // equal: no strict domination
		{[]uint32{2, 0}, []uint32{1, 1}, false}, // concurrent
		{[]uint32{1, 1}, []uint32{2, 1}, false},
	}
	for _, c := range cases {
		if got := dominates(c.a, c.b); got != c.want {
			t.Fatalf("dominates(%v, %v) = %v, want %v", c.a, c.b, got, c.want)
		}
	}
}

// TestMVRegisterGeneratorBelongsToTheWorkload: the generators' version
// vectors are the workload's, so one class value driving two workloads on
// the same seed, one after the other or interleaved, gives both the same
// calls.
func TestMVRegisterGeneratorBelongsToTheWorkload(t *testing.T) {
	cls := NewMVRegister(3)
	draw := func(r spec.Rand) string {
		cls.Gen.State(r)
		return fmt.Sprint(cls.Gen.Call(r, MVWrite).Args.I)
	}
	var first []string
	r := rand.New(rand.NewSource(5))
	for i := 0; i < 50; i++ {
		first = append(first, draw(r))
	}
	again, interleaved := rand.New(rand.NewSource(5)), rand.New(rand.NewSource(5))
	for i, want := range first {
		if got := draw(again); got != want {
			t.Fatalf("call %d of the second workload: %s, want %s as the first drew", i, got, want)
		}
		if got := draw(interleaved); got != want {
			t.Fatalf("call %d of an interleaved workload: %s, want %s as the first drew", i, got, want)
		}
	}
}
