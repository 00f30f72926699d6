// Package rdmawrdt implements the paper's concrete operational semantics of
// RDMA replicated data types (§3.3, Figures 6 and 7) as an executable
// transition system, together with a refinement checker against the
// abstract WRDT semantics (package wrdt).
//
// A configuration K maps each process to ⟨σ, A, S, F, L⟩: the stored state,
// the applied-calls map, the summarized calls (one slot per summarization
// group and process), the conflict-free buffers (one FIFO per remote
// process) and the conflicting buffers (one FIFO per synchronization
// group). The transitions are REDUCE, FREE, CONF, FREE-APP, CONF-APP and
// QUERY, exactly as in Figure 7.
//
// The rules are built from three steps, each split into premises and an
// effect:
//
//   - Exec is the one body of FREE at the issuer, CONF at the leader,
//     FREE-APP and CONF-APP: premises DepsMet and Permits, then the effect.
//   - Install is a summary write landing at a process: premise Newer, then
//     the effect, with Intact as its post-check. REDUCE is Permits at the
//     issuer, Summarize, then Install at every process.
//   - Query is QUERY.
//
// Two drivers fire the steps. The model's own explorers (CheckExhaustive,
// Explorer) fire a rule only when its premises hold. Package conform
// replays a runtime trace as a schedule of the same steps: it reports a
// premise that fails and fires the effect anyway, so the replay follows the
// run. Package core implements the same semantics over the simulated RDMA
// fabric with real buffers, wire latencies and failures.
package rdmawrdt

import (
	"fmt"

	"hamband/internal/spec"
)

// Entry is a buffered call paired with its dependency record, the
// (c, D) pairs stored in the F and L buffers.
type Entry struct {
	C spec.Call
	D spec.DepVec
}

// Slot is one entry of S: a summary call and the version of the write that
// installed it.
type Slot struct {
	Sum     spec.Call
	Version uint32
}

// Proc is one process's component of the configuration: ⟨σ, A, S, F, L⟩.
type Proc struct {
	Sigma spec.State      // σ: result of applied conflicting/irreducible calls
	A     spec.AppliedMap // applied calls per (process, method)
	S     [][]Slot        // summarized calls: [sum group][process]
	F     [][]Entry       // conflict-free buffers: [issuing process]
	L     [][]Entry       // conflicting buffers: [sync group]
}

// Config is the configuration K of the concrete semantics.
type Config struct {
	Class   *spec.Class
	An      *spec.Analysis
	Leaders []spec.ProcID // leader process per synchronization group
	Procs   []*Proc
}

// New returns the initial configuration K0 for nprocs processes: initial
// states, zero applied maps, identity summaries at version 0 and empty
// buffers. Leaders default to round-robin over processes; override via
// SetLeader.
func New(an *spec.Analysis, nprocs int) *Config {
	cls := an.Class
	k := &Config{Class: cls, An: an}
	for g := range an.SyncGroups {
		k.Leaders = append(k.Leaders, spec.ProcID(g%max(nprocs, 1))) // conform replays an empty history on no processes
	}
	for i := 0; i < nprocs; i++ {
		p := &Proc{
			Sigma: cls.NewState(),
			A:     spec.NewAppliedMap(nprocs, len(cls.Methods)),
		}
		for g := range cls.SumGroups {
			row := make([]Slot, nprocs)
			for j := range row {
				row[j].Sum = cls.SumGroups[g].Identity()
			}
			p.S = append(p.S, row)
		}
		p.F = make([][]Entry, nprocs)
		p.L = make([][]Entry, len(an.SyncGroups))
		k.Procs = append(k.Procs, p)
	}
	return k
}

// SetLeader assigns process p as the leader of synchronization group g.
func (k *Config) SetLeader(g int, p spec.ProcID) { k.Leaders[g] = p }

// Leader returns the leader of synchronization group g.
func (k *Config) Leader(g int) spec.ProcID { return k.Leaders[g] }

// NumProcs returns the number of processes.
func (k *Config) NumProcs() int { return len(k.Procs) }

// CurrentState returns Apply(S_p)(σ_p): the process's stored state with all
// summarized calls applied, which is the state queries observe. The result
// is a fresh state; the stored state is not modified.
func (k *Config) CurrentState(p spec.ProcID) spec.State {
	st := k.Procs[p].Sigma.Clone()
	for _, row := range k.Procs[p].S {
		for _, s := range row {
			k.Class.ApplyCall(st, s.Sum)
		}
	}
	return st
}

// view is CurrentState for a reader that does not modify it: σ_p itself
// when the class has no summarization group.
func (k *Config) view(p spec.ProcID) spec.State {
	if len(k.Procs[p].S) == 0 {
		return k.Procs[p].Sigma
	}
	return k.CurrentState(p)
}

// DepsMet is Exec's dependency premise at p: c's dependency record d is
// covered by A_p over the methods c depends on (D ≤ A).
func (k *Config) DepsMet(p spec.ProcID, c spec.Call, d spec.DepVec) bool {
	return k.Procs[p].A.Satisfies(d, k.An.DependsOn[c.Method])
}

// Permits is the permissibility premise of Exec and REDUCE at p:
// P(Apply(S_p)(σ_p), c). A class whose invariant is constant true permits
// every call.
func (k *Config) Permits(p spec.ProcID, c spec.Call) bool {
	return k.Class.TrivialInvariant || k.Class.Permissible(k.view(p), c)
}

// Exec is the effect of FREE, CONF, FREE-APP and CONF-APP at p: c is
// applied to σ_p and counted in A_p.
func (k *Config) Exec(p spec.ProcID, c spec.Call) {
	k.Class.ApplyCall(k.Procs[p].Sigma, c)
	k.Procs[p].A.Inc(c.Proc, c.Method)
}

// exec fires Exec at p if both its premises hold and names the rule whose
// premise failed otherwise.
func (k *Config) exec(rule string, p spec.ProcID, c spec.Call, d spec.DepVec) error {
	if !k.DepsMet(p, c, d) {
		return fmt.Errorf("rdmawrdt: %s %s at p%d: dependencies unsatisfied", rule, c.Format(k.Class), p)
	}
	if !k.Permits(p, c) {
		return fmt.Errorf("rdmawrdt: %s %s at p%d not permissible", rule, c.Format(k.Class), p)
	}
	k.Exec(p, c)
	return nil
}

// Newer is Install's premise: ver is above the version of S_p[g][src].
func (k *Config) Newer(p spec.ProcID, g int, src spec.ProcID, ver uint32) bool {
	return ver > k.Procs[p].S[g][src].Version
}

// Install is the effect of a summary write landing at p: S_p[g][src] becomes
// s, and A_p's counts of src's calls of the group's methods rise to counts
// (counts[i] for the group's i-th method; they never fall).
func (k *Config) Install(p spec.ProcID, g int, src spec.ProcID, s Slot, counts []uint32) {
	pp := k.Procs[p]
	pp.S[g][src] = s
	for i, u := range k.Class.SumGroups[g].Methods {
		if i < len(counts) && counts[i] > pp.A.Get(src, u) {
			pp.A.Set(src, u, counts[i])
		}
	}
}

// Intact is Install's post-check, and Corollary 1 at p:
// I(Apply(S_p)(σ_p)).
func (k *Config) Intact(p spec.ProcID) bool {
	return k.Class.TrivialInvariant || k.Class.Invariant(k.view(p))
}

// Reduce fires rule REDUCE: process c.Proc issues the reducible call c. If
// c is permissible there, c.Proc's summary absorbs it and the new slot, one
// version up, is installed at every process in one atomic transition (the
// runtime realizes this with a pair of ordered remote writes per peer).
func (k *Config) Reduce(c spec.Call) error {
	u := c.Method
	if k.An.Category[u] != spec.CatReducible {
		return fmt.Errorf("rdmawrdt: REDUCE on non-reducible method %s", k.Class.Methods[u].Name)
	}
	j := c.Proc
	if !k.Permits(j, c) {
		return fmt.Errorf("rdmawrdt: REDUCE %s not locally permissible", c.Format(k.Class))
	}
	g := k.An.SumGroupOf[u]
	old := k.Procs[j].S[g][j]
	// Every process's row, and every configuration cloned from this one,
	// shares the old summary: Summarize consumes a copy of it.
	s := Slot{Sum: k.Class.SumGroups[g].Summarize(old.Sum.Clone(), c), Version: old.Version + 1}
	methods := k.Class.SumGroups[g].Methods
	counts := make([]uint32, len(methods))
	for i, m := range methods {
		counts[i] = k.Procs[j].A.Get(j, m)
		if m == u {
			counts[i]++
		}
	}
	for i := range k.Procs {
		k.Install(spec.ProcID(i), g, j, s, counts)
	}
	return nil
}

// Free fires rule FREE: process c.Proc issues the irreducible conflict-free
// call c through Exec and appends it with its dependency record to the
// conflict-free buffers every other process keeps for c.Proc.
func (k *Config) Free(c spec.Call) error {
	if cat := k.An.Category[c.Method]; cat != spec.CatIrreducibleFree {
		return fmt.Errorf("rdmawrdt: FREE on method %s of category %v", k.Class.Methods[c.Method].Name, cat)
	}
	return k.send("FREE", c, Buf{Idx: int(c.Proc)})
}

// Conf fires rule CONF: the leader of c's synchronization group issues the
// conflicting call c through Exec and appends it to the group's conflicting
// buffer at every other process. c.Proc must be the group's leader — the
// runtime redirects client requests there.
func (k *Config) Conf(c spec.Call) error {
	if k.An.Category[c.Method] != spec.CatConflicting {
		return fmt.Errorf("rdmawrdt: CONF on non-conflicting method %s", k.Class.Methods[c.Method].Name)
	}
	g := k.An.SyncGroupOf[c.Method]
	if k.Leaders[g] != c.Proc {
		return fmt.Errorf("rdmawrdt: CONF %s at p%d, but leader of group %d is p%d",
			c.Format(k.Class), c.Proc, g, k.Leaders[g])
	}
	return k.send("CONF", c, Buf{Conf: true, Idx: g})
}

// send fires Exec for FREE or CONF at the issuer and appends c, with the
// dependency record taken before it, to buffer b at every other process.
func (k *Config) send(rule string, c spec.Call, b Buf) error {
	d := k.Procs[c.Proc].A.Project(k.An.DependsOn[c.Method])
	if err := k.exec(rule, c.Proc, c, d); err != nil {
		return err
	}
	for i := range k.Procs {
		if p := spec.ProcID(i); p != c.Proc {
			buf := k.entries(p, b)
			*buf = append(*buf, Entry{C: c, D: d.Clone()})
		}
	}
	return nil
}

// Issue dispatches an update call to its category's rule.
func (k *Config) Issue(c spec.Call) error {
	switch k.An.Category[c.Method] {
	case spec.CatReducible:
		return k.Reduce(c)
	case spec.CatIrreducibleFree:
		return k.Free(c)
	case spec.CatConflicting:
		return k.Conf(c)
	default:
		return fmt.Errorf("rdmawrdt: Issue of non-update method %s", k.Class.Methods[c.Method].Name)
	}
}

// Buf names one buffer of a process: the F buffer it keeps for process
// Idx or, when Conf, the L buffer of synchronization group Idx.
type Buf struct {
	Conf bool
	Idx  int
}

// Bufs lists p's non-empty buffers, F before L.
func (k *Config) Bufs(p spec.ProcID) []Buf {
	var out []Buf
	for from, b := range k.Procs[p].F {
		if len(b) > 0 {
			out = append(out, Buf{Idx: from})
		}
	}
	for g, b := range k.Procs[p].L {
		if len(b) > 0 {
			out = append(out, Buf{Conf: true, Idx: g})
		}
	}
	return out
}

// entries returns p's buffer b.
func (k *Config) entries(p spec.ProcID, b Buf) *[]Entry {
	if b.Conf {
		return &k.Procs[p].L[b.Idx]
	}
	return &k.Procs[p].F[b.Idx]
}

// rule names the rule that applies b's head.
func (b Buf) rule() string {
	if b.Conf {
		return "CONF-APP"
	}
	return "FREE-APP"
}

// App fires rule FREE-APP, or CONF-APP on an L buffer: p applies the head
// of its buffer b through Exec and pops it. It returns the applied call.
func (k *Config) App(p spec.ProcID, b Buf) (spec.Call, error) {
	buf := k.entries(p, b)
	if len(*buf) == 0 {
		return spec.Call{}, fmt.Errorf("rdmawrdt: %s at p%d: buffer empty", b.rule(), p)
	}
	e := (*buf)[0]
	if err := k.exec(b.rule(), p, e.C, e.D); err != nil {
		return e.C, err
	}
	*buf = (*buf)[1:]
	return e.C, nil
}

// Query fires rule QUERY: evaluate q(v) against Apply(S_p)(σ_p).
func (k *Config) Query(p spec.ProcID, q spec.MethodID, args spec.Args) any {
	return k.Class.Methods[q].Eval(k.view(p), args)
}

// Drained reports whether every F and L buffer is empty.
func (k *Config) Drained() bool {
	for p := range k.Procs {
		if len(k.Bufs(spec.ProcID(p))) > 0 {
			return false
		}
	}
	return true
}

// CheckIntegrity verifies Corollary 1 at every process.
func (k *Config) CheckIntegrity() error {
	for p := range k.Procs {
		if !k.Intact(spec.ProcID(p)) {
			return fmt.Errorf("rdmawrdt: integrity violated at p%d", p)
		}
	}
	return nil
}

// CheckConvergence verifies Corollary 2: with all buffers drained, the
// processes' current states are equal.
func (k *Config) CheckConvergence() error {
	if !k.Drained() {
		return nil
	}
	s0 := k.view(0)
	for p := 1; p < len(k.Procs); p++ {
		if !s0.Equal(k.view(spec.ProcID(p))) {
			return fmt.Errorf("rdmawrdt: p0 and p%d diverged after drain", p)
		}
	}
	return nil
}
