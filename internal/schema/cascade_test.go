package schema

import (
	"fmt"
	"testing"
	"time"

	"hamband/internal/spec"
)

// rowsPerLeft is how many link rows each left entity holds below.
const rowsPerLeft = 16

// cascadeChurn returns a courseware state of n link rows, rowsPerLeft per
// course, and a step that deletes the next course and enrolls its students
// again, so the state keeps n rows however many steps run.
func cascadeChurn(n int) func() {
	cls := NewCourseware()
	st := cls.NewState()
	lefts := n / rowsPerLeft
	link := make([][rowsPerLeft]spec.Call, lefts)
	del := make([]spec.Call, lefts)
	for l := range lefts {
		del[l] = spec.Call{Method: RefDelLeft, Args: spec.ArgsI(int64(l))}
		for r := range rowsPerLeft {
			link[l][r] = spec.Call{Method: RefLink, Args: spec.ArgsI(int64(l), int64(r))}
			cls.ApplyCall(st, link[l][r])
		}
	}
	next := 0
	return func() {
		l := next % lefts
		cls.ApplyCall(st, del[l])
		for _, c := range link[l] {
			cls.ApplyCall(st, c)
		}
		next++
	}
}

// maxSizeRatio bounds what deleteLeft may cost among 64 k rows against 1 k.
// A cascade that scans every row costs about 64×; a lookup in the larger maps
// costs up to about 2× more for its cache misses alone.
const maxSizeRatio = 4

// TestDeleteLeftCostIsIndependentOfSize: the cascade visits the deleted
// entity's rows only. Deleting (and relinking) 512 courses of 16 rows each
// costs less than maxSizeRatio× as much among 64 k rows as among 1 k. Each
// size's cost is its least over 9 to 45 trials; the trials of the two sizes
// alternate, so load from other processes falls on both alike, and as load
// only ever slows a trial down, they go on past the ninth only while the
// ratio is out of bounds.
func TestDeleteLeftCostIsIndependentOfSize(t *testing.T) {
	steps := []func(){cascadeChurn(1 << 10), cascadeChurn(1 << 16)}
	var best [2]time.Duration
	for trial := 0; trial < 45 && (trial < 9 || best[1] >= maxSizeRatio*best[0]); trial++ {
		for i, step := range steps {
			start := time.Now()
			for range 512 {
				step()
			}
			if d := time.Since(start); trial == 0 || d < best[i] {
				best[i] = d
			}
		}
	}
	ratio := float64(best[1]) / float64(best[0])
	t.Logf("512 deletes at 1k rows %v, at 64k %v (%.1f×)", best[0], best[1], ratio)
	if ratio >= maxSizeRatio {
		t.Errorf("deleteCourse among 64k rows costs %.1f× what it costs among 1k, want < %d×", ratio, maxSizeRatio)
	}
}

// TestDeleteLeftAllocatesNothing: once every course has been linked, a
// delete and the enrollments that follow reuse the index's emptied storage.
func TestDeleteLeftAllocatesNothing(t *testing.T) {
	step := cascadeChurn(1 << 10)
	for range 1 << 10 {
		step()
	}
	if n := testing.AllocsPerRun(1000, step); n != 0 {
		t.Errorf("a delete and %d enrollments allocate %.2f objects, want 0", rowsPerLeft, n)
	}
}

// TestDeleteLeftCascadesEveryState: the cascade removes each row whose left
// key is the deleted entity's, also on states that break the invariant (rows
// of an entity that was never added) and after copies, and leaves every
// other row.
func TestDeleteLeftCascadesEveryState(t *testing.T) {
	cls := NewProjectManagement()
	st := cls.NewState()
	for _, c := range []spec.Call{
		{Method: RefLink, Args: spec.ArgsI(1, 7)}, // no project 1: I does not hold
		{Method: RefLink, Args: spec.ArgsI(1, 8)},
		{Method: RefLink, Args: spec.ArgsI(2, 7)},
		{Method: RefLink, Args: spec.ArgsI(1, 7)},
	} {
		cls.ApplyCall(st, c)
	}
	cp := cls.NewState()
	cls.ApplyCall(cp, spec.Call{Method: RefLink, Args: spec.ArgsI(3, 3)})
	cp.CopyFrom(st)
	for _, s := range []spec.State{st, cp, st.Clone()} {
		cls.ApplyCall(s, spec.Call{Method: RefDelLeft, Args: spec.ArgsI(1)})
		links := s.(*RefState).Links
		if _, ok := links[pair(2, 7)]; len(links) != 1 || !ok {
			t.Errorf("links after deleting project 1: %v, want [%d] (2, 7) only", links, pair(2, 7))
		}
		cls.ApplyCall(s, spec.Call{Method: RefLink, Args: spec.ArgsI(1, 9)})
		cls.ApplyCall(s, spec.Call{Method: RefDelLeft, Args: spec.ArgsI(1)})
		if len(links) != 1 {
			t.Errorf("a row linked after the cascade survives the next one: %v", links)
		}
	}
}

// BenchmarkRefDeleteLeft is one deleteCourse of a 16-student course, plus the
// enrollments that restore it, among 1 k and 64 k enrollment rows.
func BenchmarkRefDeleteLeft(b *testing.B) {
	for _, n := range []int{1 << 10, 1 << 16} {
		b.Run(fmt.Sprintf("rows=%dk", n>>10), func(b *testing.B) {
			step := cascadeChurn(n)
			b.ReportAllocs()
			b.ResetTimer()
			for range b.N {
				step()
			}
		})
	}
}
