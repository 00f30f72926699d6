// Package hamband is a reproduction of "Hamband: RDMA Replicated Data
// Types" (Houshmand, Saberlatibari, Lesani — PLDI 2022): hybrid-consistency
// well-coordinated replicated data types (WRDTs) for the RDMA network
// model, built over a deterministic discrete-event RDMA simulator.
//
// The library layers, bottom to top:
//
//   - internal/sim — deterministic discrete-event engine with per-node CPUs
//   - internal/rdma — simulated RDMA fabric (RC queue pairs, one-sided
//     verbs, write permissions, suspend/crash fault injection), and each
//     node's write coalescer, poll loop, heartbeat and failure detector
//   - internal/msgnet — two-sided kernel-stack message network (baseline)
//   - internal/spec — object data types, coordination relations, analysis
//   - internal/wrdt, internal/rdmawrdt — the paper's abstract and concrete
//     operational semantics, executable, with a refinement checker
//   - internal/codec, internal/ring, internal/broadcast, internal/mu —
//     the runtime's protocol substrates
//   - internal/core — the Hamband runtime (REDUCE / FREE / CONF dispatch)
//   - internal/crdt, internal/schema — the evaluated data types
//   - internal/baseline — the MSG and Mu SMR baselines
//   - internal/bench — the evaluation harness (Figures 8–13, ablations)
//
// See DESIGN.md for the system inventory and per-experiment index, and
// EXPERIMENTS.md for measured-versus-paper results.
package hamband
