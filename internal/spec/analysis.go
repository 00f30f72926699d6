package spec

import (
	"fmt"
	"slices"
)

// Category classifies a method per §3.3 of the paper.
type Category int

// Method categories. Reducible methods are conflict-free, dependence-free
// and summarizable; irreducible conflict-free methods avoid synchronization
// but travel through buffers; conflicting methods are ordered by their
// synchronization group's leader.
const (
	CatReducible Category = iota
	CatIrreducibleFree
	CatConflicting
	CatQuery
)

// String names the category.
func (c Category) String() string {
	switch c {
	case CatReducible:
		return "reducible"
	case CatIrreducibleFree:
		return "irreducible-conflict-free"
	case CatConflicting:
		return "conflicting"
	case CatQuery:
		return "query"
	default:
		return fmt.Sprintf("Category(%d)", int(c))
	}
}

// NoGroup marks a method that belongs to no synchronization or
// summarization group.
const NoGroup = -1

// Analysis is the coordination analysis a Hamband node stores (§4
// "Meta-data"): the synchronization groups, the per-method dependency sets,
// the summarization groups and the derived method categories.
type Analysis struct {
	Class *Class

	// Category per method.
	Category []Category
	// SyncGroupOf maps a method to its synchronization group index, or
	// NoGroup for conflict-free methods.
	SyncGroupOf []int
	// SyncGroups lists the members of each synchronization group (the
	// connected components of the conflict graph).
	SyncGroups [][]MethodID
	// SumGroupOf maps a method to its summarization group index, or
	// NoGroup if unsummarizable.
	SumGroupOf []int
	// DependsOn is Dep(u) per method (nil for dependence-free methods).
	DependsOn [][]MethodID
	// DepIndex maps, for each method u and each u' in DependsOn[u], the
	// method ID u' to its position in u's dependency record; used to build
	// and check the variable-sized dependency arrays of §4.
	DepIndex []map[MethodID]int
}

// Analyze derives the coordination analysis from a class's declared
// method-level relations. It validates structural well-formedness: conflict
// edges and dependency targets must reference update methods, and
// summarization groups must consist of conflict-free, update methods.
func Analyze(cls *Class) (*Analysis, error) {
	n := len(cls.Methods)
	a := &Analysis{
		Class:       cls,
		Category:    make([]Category, n),
		SyncGroupOf: make([]int, n),
		SumGroupOf:  make([]int, n),
		DependsOn:   make([][]MethodID, n),
		DepIndex:    make([]map[MethodID]int, n),
	}
	for i := range a.SyncGroupOf {
		a.SyncGroupOf[i] = NoGroup
		a.SumGroupOf[i] = NoGroup
	}

	isUpdate := func(u MethodID) bool {
		return int(u) >= 0 && int(u) < n && cls.Methods[u].Kind == Update
	}

	// Build the undirected conflict graph.
	adj := make(map[MethodID]map[MethodID]bool)
	addEdge := func(u, v MethodID) {
		if adj[u] == nil {
			adj[u] = make(map[MethodID]bool)
		}
		adj[u][v] = true
	}
	for u, vs := range cls.ConflictsWith {
		if !isUpdate(u) {
			return nil, fmt.Errorf("spec: %s: conflict on non-update method %d", cls.Name, u)
		}
		for _, v := range vs {
			if !isUpdate(v) {
				return nil, fmt.Errorf("spec: %s: method %s conflicts with non-update method %d",
					cls.Name, cls.Methods[u].Name, v)
			}
			addEdge(u, v)
			addEdge(v, u)
		}
	}

	// Synchronization groups: connected components of the conflict graph
	// over methods with at least one conflict edge.
	for u := MethodID(0); int(u) < n; u++ {
		if len(adj[u]) == 0 || a.SyncGroupOf[u] != NoGroup {
			continue
		}
		g := len(a.SyncGroups)
		var comp []MethodID
		stack := []MethodID{u}
		a.SyncGroupOf[u] = g
		for len(stack) > 0 {
			x := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			comp = append(comp, x)
			for v := range adj[x] {
				if a.SyncGroupOf[v] == NoGroup {
					a.SyncGroupOf[v] = g
					stack = append(stack, v)
				}
			}
		}
		sortMethods(comp)
		a.SyncGroups = append(a.SyncGroups, comp)
	}

	// Dependencies.
	for u, deps := range cls.DependsOn {
		if !isUpdate(u) {
			return nil, fmt.Errorf("spec: %s: dependency on non-update method %d", cls.Name, u)
		}
		for _, v := range deps {
			if !isUpdate(v) {
				return nil, fmt.Errorf("spec: %s: method %s depends on non-update method %d",
					cls.Name, cls.Methods[u].Name, v)
			}
		}
		ds := append([]MethodID(nil), deps...)
		sortMethods(ds)
		a.DependsOn[u] = ds
		idx := make(map[MethodID]int, len(ds))
		for i, d := range ds {
			idx[d] = i
		}
		a.DepIndex[u] = idx
	}

	// Summarization groups.
	for gi, g := range cls.SumGroups {
		if g.Summarize == nil || g.Identity == nil {
			return nil, fmt.Errorf("spec: %s: summarization group %q lacks Summarize/Identity",
				cls.Name, g.Name)
		}
		for _, u := range g.Methods {
			if !isUpdate(u) {
				return nil, fmt.Errorf("spec: %s: sum group %q contains non-update method %d",
					cls.Name, g.Name, u)
			}
			if a.SumGroupOf[u] != NoGroup {
				return nil, fmt.Errorf("spec: %s: method %s in two summarization groups",
					cls.Name, cls.Methods[u].Name)
			}
			a.SumGroupOf[u] = gi
		}
	}

	// Categories.
	for u := 0; u < n; u++ {
		switch {
		case cls.Methods[u].Kind == Query:
			a.Category[u] = CatQuery
		case a.SyncGroupOf[u] != NoGroup:
			a.Category[u] = CatConflicting
		case len(a.DependsOn[u]) == 0 && a.SumGroupOf[u] != NoGroup:
			a.Category[u] = CatReducible
		default:
			a.Category[u] = CatIrreducibleFree
		}
	}

	// A reducible method must not sit in a summarization group together
	// with a conflicting method: summaries bypass the ordering a
	// conflicting method needs.
	for u := 0; u < n; u++ {
		if a.Category[u] != CatReducible {
			continue
		}
		for _, v := range cls.SumGroups[a.SumGroupOf[u]].Methods {
			if a.Category[v] == CatConflicting {
				return nil, fmt.Errorf("spec: %s: reducible method %s shares sum group with conflicting %s",
					cls.Name, cls.Methods[u].Name, cls.Methods[v].Name)
			}
		}
	}
	return a, nil
}

// Serialized returns cls as state machine replication sees it: every pair of
// update methods conflicts (a method with itself included), and nothing is
// summarized or declared dependent, since a total order subsumes both. Analyze
// then yields one synchronization group of all the update methods, so the
// runtime orders every update through one Mu instance: the Mu SMR baseline of
// the paper's evaluation.
func Serialized(cls *Class) *Class {
	s := *cls
	ups := cls.UpdateMethods()
	s.ConflictsWith = make(map[MethodID][]MethodID, len(ups))
	for _, u := range ups {
		s.ConflictsWith[u] = ups
	}
	s.SumGroups, s.DependsOn = nil, nil
	return &s
}

// MustAnalyze is Analyze panicking on error; for statically-known classes.
func MustAnalyze(cls *Class) *Analysis {
	a, err := Analyze(cls)
	if err != nil {
		panic(err)
	}
	return a
}

// HasFreeBuffers reports whether the class needs the F component of the
// configuration (§4: one buffer per source for irreducible conflict-free
// calls): some method is irreducible conflict-free. Like SumGroups for S and
// SyncGroups for L, it is the one input that decides whether a deployment
// builds the reliable-broadcast regions, sender, receiver and its sweep at all,
// and what a shard's memory footprint counts.
func (a *Analysis) HasFreeBuffers() bool {
	return slices.Contains(a.Category, CatIrreducibleFree)
}

// Summary returns a human-readable description of the analysis.
func (a *Analysis) Summary() string {
	s := fmt.Sprintf("class %s:\n", a.Class.Name)
	for u, m := range a.Class.Methods {
		s += fmt.Sprintf("  %-16s %s", m.Name, a.Category[u])
		if g := a.SyncGroupOf[u]; g != NoGroup {
			s += fmt.Sprintf(" sync-group=%d", g)
		}
		if g := a.SumGroupOf[u]; g != NoGroup {
			s += fmt.Sprintf(" sum-group=%q", a.Class.SumGroups[g].Name)
		}
		if deps := a.DependsOn[u]; len(deps) > 0 {
			s += " deps="
			for i, d := range deps {
				if i > 0 {
					s += ","
				}
				s += a.Class.Methods[d].Name
			}
		}
		s += "\n"
	}
	return s
}

func sortMethods(ms []MethodID) {
	for i := 1; i < len(ms); i++ {
		for j := i; j > 0 && ms[j] < ms[j-1]; j-- {
			ms[j], ms[j-1] = ms[j-1], ms[j]
		}
	}
}
