package rdmawrdt

import (
	"fmt"
	"math/rand"

	"hamband/internal/spec"
)

// Explorer drives random executions of the concrete semantics under the
// refinement checker: random issues interleaved with random buffer
// applications. It is the harness for Lemma 3 and Corollaries 1–2.
type Explorer struct {
	RC   *RefinementChecker
	rng  *rand.Rand
	seqs []uint64
}

// NewExplorer returns an explorer over fresh lock-step states.
func NewExplorer(an *spec.Analysis, nprocs int, rng *rand.Rand) *Explorer {
	return &Explorer{RC: NewChecker(an, nprocs), rng: rng, seqs: make([]uint64, nprocs)}
}

// nextCall builds a random update call issued at a process chosen per the
// method's category (conflicting calls are issued at their group leader,
// as the runtime redirects them there).
func (e *Explorer) nextCall() spec.Call {
	k := e.RC.K
	ups := k.Class.UpdateMethods()
	u := ups[e.rng.Intn(len(ups))]
	c := k.Class.Gen.Call(e.rng, u)
	if k.An.Category[u] == spec.CatConflicting {
		c.Proc = k.Leader(k.An.SyncGroupOf[u])
	} else {
		c.Proc = spec.ProcID(e.rng.Intn(k.NumProcs()))
	}
	c.Seq = e.seqs[c.Proc] + 1
	return c
}

// Step attempts one random transition: an issue with probability issueBias,
// otherwise a random buffer application. It returns a refinement error if
// the lock-step check fails.
func (e *Explorer) Step(issueBias float64) error {
	if e.rng.Float64() < issueBias {
		c := e.nextCall()
		fired, err := e.RC.Issue(c)
		if err != nil {
			return err
		}
		if fired {
			e.seqs[c.Proc]++
		}
		return nil
	}
	return e.applyRandom()
}

func (e *Explorer) applyRandom() error {
	k := e.RC.K
	p := spec.ProcID(e.rng.Intn(k.NumProcs()))
	bufs := k.Bufs(p)
	if len(bufs) == 0 {
		return nil
	}
	_, err := e.RC.App(p, bufs[e.rng.Intn(len(bufs))])
	return err
}

// Drain applies buffered calls until every buffer is empty, failing if no
// progress is possible.
func (e *Explorer) Drain() error {
	k := e.RC.K
	for !k.Drained() {
		progressed := false
		for p := 0; p < k.NumProcs(); p++ {
			for _, b := range k.Bufs(spec.ProcID(p)) {
				fired, err := e.RC.App(spec.ProcID(p), b)
				if err != nil {
					return err
				}
				progressed = progressed || fired
			}
		}
		if !progressed {
			return fmt.Errorf("rdmawrdt: drain stuck")
		}
	}
	return nil
}

// RandomQuery fires a random query at a random process through the
// lock-step checker.
func (e *Explorer) RandomQuery() error {
	qs := e.RC.K.Class.QueryMethods()
	if len(qs) == 0 {
		return nil
	}
	q := qs[e.rng.Intn(len(qs))]
	c := e.RC.K.Class.Gen.Call(e.rng, q)
	p := spec.ProcID(e.rng.Intn(e.RC.K.NumProcs()))
	_, err := e.RC.Query(p, q, c.Args)
	return err
}
