package hamband

// This file is the library's public facade: the user-facing surface of the
// internal packages, re-exported through type aliases and constructor
// wrappers so that downstream modules can build and run Hamband clusters
// without reaching into internal paths.
//
// A minimal deployment:
//
//	eng := hamband.NewEngine(1)
//	fab := hamband.NewFabric(eng, 3, hamband.DefaultLatency())
//	cluster := hamband.NewCluster(fab, hamband.MustAnalyze(hamband.NewCounter()),
//	    hamband.DefaultOptions())
//	cluster.Replica(0).Invoke(hamband.CounterAdd, hamband.ArgsI(5), nil)
//	eng.Run()

import (
	"hamband/internal/core"
	"hamband/internal/crdt"
	"hamband/internal/rdma"
	"hamband/internal/schema"
	"hamband/internal/sim"
	"hamband/internal/spec"
	"hamband/internal/trace"
)

// --- simulation engine --------------------------------------------------

// Engine is the deterministic discrete-event engine driving a simulation.
type Engine = sim.Engine

// Time is a point in virtual time (nanoseconds).
type Time = sim.Time

// Duration is a span of virtual time (nanoseconds).
type Duration = sim.Duration

// Virtual-time units.
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// NewEngine returns a seeded deterministic engine.
func NewEngine(seed int64) *Engine { return sim.NewEngine(seed) }

// --- RDMA fabric ----------------------------------------------------------

// Fabric is the simulated RDMA network.
type Fabric = rdma.Fabric

// LatencyModel is the fabric's cost model: the verbs' prices and every CPU
// price and poll period the layers above them charge.
type LatencyModel = rdma.LatencyModel

// NodeID identifies a fabric node.
type NodeID = rdma.NodeID

// NewFabric creates a fabric with n nodes.
func NewFabric(eng *Engine, n int, lat LatencyModel) *Fabric {
	return rdma.NewFabric(eng, n, lat)
}

// DefaultLatency returns the calibrated InfiniBand-like cost model.
func DefaultLatency() LatencyModel { return rdma.DefaultLatency() }

// --- data-type specification ----------------------------------------------

// Class is a replicated object data type with its coordination relations.
type Class = spec.Class

// Analysis is the derived coordination analysis (categories, groups, deps).
type Analysis = spec.Analysis

// Call is an update method call instance.
type Call = spec.Call

// Args carries a call's arguments.
type Args = spec.Args

// State is the object state interface.
type State = spec.State

// MethodID indexes a method within a class.
type MethodID = spec.MethodID

// ProcID identifies a replica process.
type ProcID = spec.ProcID

// ArgsI builds integer arguments.
func ArgsI(vals ...int64) Args { return spec.ArgsI(vals...) }

// ArgsS builds string arguments.
func ArgsS(vals ...string) Args { return spec.ArgsS(vals...) }

// Analyze derives a class's coordination analysis.
func Analyze(cls *Class) (*Analysis, error) { return spec.Analyze(cls) }

// MustAnalyze is Analyze panicking on error.
func MustAnalyze(cls *Class) *Analysis { return spec.MustAnalyze(cls) }

// CheckRelations validates a class's declared relations by randomized
// testing; see internal/spec for the checked claims.
var CheckRelations = spec.CheckRelations

// --- the Hamband runtime ----------------------------------------------------

// Cluster is a Hamband deployment of one object over a fabric.
type Cluster = core.Cluster

// Replica is one node's runtime.
type Replica = core.Replica

// Options configures a cluster.
type Options = core.Options

// Tracer records per-call lifecycle events when installed in Options.
type Tracer = trace.Tracer

// NewCluster deploys the analyzed class over the fabric.
func NewCluster(fab *Fabric, an *Analysis, opts Options) *Cluster {
	return core.NewCluster(fab, an, opts)
}

// DefaultOptions returns production-shaped runtime parameters.
func DefaultOptions() Options { return core.DefaultOptions() }

// NewTracer returns a lifecycle tracer holding at most limit events.
func NewTracer(eng *Engine, limit int) *Tracer { return trace.New(eng, limit) }

// Errors surfaced through Invoke callbacks.
var (
	ErrImpermissible = core.ErrImpermissible
	ErrDown          = core.ErrDown
)

// --- bundled data types -----------------------------------------------------

// CRDT and schema constructors, re-exported. Method IDs follow each
// constructor (see the internal package docs for the full list).
var (
	NewCounter           = crdt.NewCounter
	NewPNCounter         = crdt.NewPNCounter
	NewLWW               = crdt.NewLWW
	NewLWWMap            = crdt.NewLWWMap
	NewGSet              = crdt.NewGSet
	NewGSetBuffered      = crdt.NewGSetBuffered
	NewTwoPSet           = crdt.NewTwoPSet
	NewORSet             = crdt.NewORSet
	NewCart              = crdt.NewCart
	NewRGA               = crdt.NewRGA
	NewMVRegister        = crdt.NewMVRegister
	NewAccount           = crdt.NewAccount
	NewBankMap           = crdt.NewBankMap
	NewProjectManagement = schema.NewProjectManagement
	NewCourseware        = schema.NewCourseware
	NewMovie             = schema.NewMovie
	NewAuction           = schema.NewAuction
	NewTournament        = schema.NewTournament
)

// Tag builds a globally unique OR-set/RGA element tag from the issuing
// process and a per-process counter.
func Tag(p ProcID, seq uint64) int64 { return crdt.Tag(p, seq) }

// Frequently used method IDs, re-exported for the bundled types.
const (
	CounterAdd   = crdt.CounterAdd
	CounterValue = crdt.CounterValue

	AccountDeposit  = crdt.AccountDeposit
	AccountWithdraw = crdt.AccountWithdraw
	AccountBalance  = crdt.AccountBalance

	GSetAdd      = crdt.GSetAdd
	GSetContains = crdt.GSetContains
	GSetSize     = crdt.GSetSize

	ORSetAdd      = crdt.ORSetAdd
	ORSetRemove   = crdt.ORSetRemove
	ORSetContains = crdt.ORSetContains

	RGAInsert = crdt.RGAInsert
	RGARemove = crdt.RGARemove
	RGARead   = crdt.RGARead
)
