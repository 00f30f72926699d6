// Courseware: a relational schema with all three method categories and a
// leader failure (the paper's Figure 13 scenario as a demo).
//
//   - registerStudent is reducible: student registrations summarize into a
//     single set-typed call and propagate as one remote write;
//   - addCourse, deleteCourse and enroll form a synchronization group (a
//     concurrent deleteCourse and enroll on the same course must be
//     ordered); enroll additionally depends on addCourse and
//     registerStudent through the foreign-key invariant;
//   - when the group's leader fails, the failure detector suspects it, the
//     next node takes over leadership, and conflicting calls resume, while
//     conflict-free registrations never stop flowing.
//
// Run with: go run ./examples/courseware
package main

import (
	"fmt"

	"hamband/internal/core"
	"hamband/internal/rdma"
	"hamband/internal/schema"
	"hamband/internal/sim"
	"hamband/internal/spec"
)

func main() {
	eng := sim.NewEngine(11)
	fab := rdma.NewFabric(eng, 4, rdma.DefaultLatency())
	cls := schema.NewCourseware()
	an := spec.MustAnalyze(cls)
	fmt.Print(an.Summary())

	opts := core.DefaultOptions()
	opts.CheckIntegrity = true
	cluster := core.NewCluster(fab, an, opts)

	log := func(format string, args ...any) {
		fmt.Printf("t=%-10v ", sim.Duration(eng.Now()))
		fmt.Printf(format+"\n", args...)
	}
	at := func(d sim.Duration, fn func()) { eng.At(sim.Time(d), fn) }

	at(0, func() {
		log("p1 addCourse(101); p2 registerStudent({7,8})")
		cluster.Replica(1).Invoke(schema.RefAddLeft, spec.ArgsI(101), nil)
		cluster.Replica(2).Invoke(schema.RefAddRight, spec.ArgsI(7, 8), nil)
	})
	at(300*sim.Microsecond, func() {
		cluster.Replica(3).Invoke(schema.RefLink, spec.ArgsI(101, 7), func(_ any, err error) {
			log("p3 enroll(101, 7) -> err=%v", err)
		})
	})

	// Leader failure: p0 leads the synchronization group by default.
	at(800*sim.Microsecond, func() {
		log("LEADER p0 fails (heartbeat thread suspended; NIC stays up)")
		fab.Node(0).Suspend()
	})
	// Conflict-free registrations keep flowing during fail-over.
	at(900*sim.Microsecond, func() {
		cluster.Replica(2).Invoke(schema.RefAddRight, spec.ArgsI(9), func(_ any, err error) {
			log("p2 registerStudent({9}) during fail-over -> err=%v", err)
		})
	})
	// A conflicting call during/after fail-over waits for the new leader.
	at(1*sim.Millisecond, func() {
		cluster.Replica(3).Invoke(schema.RefLink, spec.ArgsI(101, 8), func(_ any, err error) {
			log("p3 enroll(101, 8) after fail-over -> err=%v (leader is now p%d)",
				err, cluster.Leader(3, 0))
		})
	})

	eng.RunUntil(sim.Time(50 * sim.Millisecond))

	st := cluster.Replica(1).CurrentState().(*schema.RefState)
	for p := spec.ProcID(2); p < 4; p++ {
		if !cluster.Replica(p).CurrentState().Equal(st) {
			fmt.Println("ERROR: survivors diverged")
			return
		}
	}
	fmt.Printf("\nsurvivors converged: %d courses, %d students, %d enrollments; leader moved p0 -> p%d\n",
		len(st.Left), len(st.Right), len(st.Links), cluster.Leader(1, 0))
}
