// Package repro is the public facade of the behavioural-skeletons
// reproduction (Aldinucci, Danelutto, Kilpatrick: "Autonomic management of
// non-functional concerns in distributed & parallel application
// programming", IPDPS 2009).
//
// A behavioural skeleton is a pair <P, M_C> of a parallelism-exploitation
// pattern and an autonomic manager responsible for a non-functional
// concern. This package re-exports the pieces a downstream user needs:
//
//   - contracts (SLAs) and their P_spl splitting heuristics,
//   - application builders for the evaluated skeleton shapes
//     (farm(seq) and pipe(seq, farm(seq), seq)),
//   - the skeleton-expression parser,
//   - the multi-concern coordination modes of §3.2, and
//   - the experiment harnesses regenerating the paper's figures.
//
// See examples/ for runnable programs and bench_test.go for the per-figure
// regeneration benchmarks.
package repro

import (
	"io"

	"repro/internal/contract"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/grid"
	"repro/internal/manager"
	"repro/internal/rules"
	"repro/internal/simclock"
	"repro/internal/skel"
	"repro/internal/trace"
)

// Re-exported core types.
type (
	// App is a runnable behavioural-skeleton application.
	App = core.App
	// Result is the outcome of an App run: event log plus sampled series.
	Result = core.Result
	// BS is an assembled behavioural skeleton <P, M_C>.
	BS = core.BS
	// Spec is a parsed skeleton expression.
	Spec = core.Spec
	// FarmAppConfig parameterizes a farm(seq) application.
	FarmAppConfig = core.FarmAppConfig
	// StreamAppConfig parameterizes a seq/farm pipeline such as the
	// Fig. 4 pipe(seq, farm(seq), seq).
	StreamAppConfig = core.StreamAppConfig
	// StageSpec describes one stage of a StreamApp.
	StageSpec = core.StageSpec

	// Contract is a non-functional SLA.
	Contract = contract.Contract
	// ThroughputRange contracts tasks/s within [Lo, Hi].
	ThroughputRange = contract.ThroughputRange
	// Snapshot is the monitored state contracts are checked against.
	Snapshot = contract.Snapshot
	// Verdict is a contract check outcome.
	Verdict = contract.Verdict

	// Env carries the modelled-time clock of an application.
	Env = skel.Env
	// Task is one stream element.
	Task = skel.Task
	// Platform is a simulated execution environment.
	Platform = grid.Platform
	// FarmLimits bounds a farm manager's reconfiguration space.
	FarmLimits = manager.FarmLimits
	// CoordinationMode selects the §3.2 multi-concern scheme.
	CoordinationMode = manager.CoordinationMode
	// EventLog is the autonomic event log of a run.
	EventLog = trace.Log
	// ExperimentOptions configures an experiment harness run.
	ExperimentOptions = experiments.Options
)

// Multi-concern coordination modes.
const (
	TwoPhase  = manager.TwoPhase
	Reactive  = manager.Reactive
	Unmanaged = manager.Unmanaged
)

// Stream-app stage kinds.
const (
	StageSeq  = core.StageSeq
	StageFarm = core.StageFarm
)

// NewEnv returns an environment on the wall clock running modelled time
// scale times faster than real time (scale <= 0 means 1).
func NewEnv(scale float64) Env {
	return Env{Clock: simclock.NewScaledReal(scale)}
}

// NewFarmApp assembles a farm(seq) behavioural-skeleton application with a
// single autonomic manager (the Fig. 3 setup).
func NewFarmApp(cfg FarmAppConfig) (*App, error) { return core.NewFarmApp(cfg) }

// NewStreamApp assembles a pipeline of seq and farm stages, each with its
// own manager, under one application manager AM_A (the Fig. 4 setup is
// one such pipeline). Use StageSpec.Farmize to apply the §4.2
// stage-to-farm transformation.
func NewStreamApp(cfg StreamAppConfig) (*App, error) { return core.NewStreamApp(cfg) }

// ParseExpr parses a skeleton expression such as
// "pipe(seq, farm(seq), seq)".
func ParseExpr(src string) (*Spec, error) { return core.ParseExpr(src) }

// BuildFromExpr assembles an application from a skeleton expression using
// whichever of the two configs matches its shape (see core.BuildFromExpr).
func BuildFromExpr(expr string, farmCfg FarmAppConfig, streamCfg StreamAppConfig) (*App, error) {
	return core.BuildFromExpr(expr, farmCfg, streamCfg)
}

// ParseContract parses the textual contract syntax, e.g.
// "throughput:0.3-0.7", "throughput>=0.6", "secure+throughput>=0.6".
func ParseContract(s string) (Contract, error) { return contract.Parse(s) }

// MinThroughput returns the lower-bound throughput contract of Fig. 3.
func MinThroughput(lo float64) ThroughputRange { return contract.MinThroughput(lo) }

// NewThroughputRange returns the c_tRange contract of Fig. 4.
func NewThroughputRange(lo, hi float64) (ThroughputRange, error) {
	return contract.NewThroughputRange(lo, hi)
}

// NewSMP builds the paper's SMP test platform.
func NewSMP(cores int) *Platform { return grid.NewSMP(cores) }

// NewTwoDomainGrid builds the §3.2 platform with an untrusted domain.
func NewTwoDomainGrid(trustedCores, untrustedCores int) *Platform {
	return grid.NewTwoDomainGrid(trustedCores, untrustedCores)
}

// FarmRuleSource is the Fig. 5 rule file in this engine's DRL dialect.
const FarmRuleSource = rules.FarmRuleSource

// Experiment harnesses (one per evaluation artefact; see EXPERIMENTS.md).
var (
	// Fig3 reproduces Fig. 3 (single manager, 0.6 task/s farm contract).
	Fig3 = experiments.Fig3
	// Fig4 reproduces Fig. 4 (hierarchical management, 0.3-0.7 contract).
	Fig4 = experiments.Fig4
	// ExtLoad reproduces the §4.2 external-load adaptation narrative.
	ExtLoad = experiments.ExtLoad
	// MultiConcern reproduces the §3.2 two-phase vs. naive comparison.
	MultiConcern = experiments.MultiConcern
	// ContractSplit demonstrates the P_spl heuristics.
	ContractSplit = experiments.ContractSplit
	// FaultTolerance runs the EXT-FT crash-recovery experiment.
	FaultTolerance = experiments.FaultTolerance
	// Farmize runs the EXT-FARMIZE stage-to-farm comparison.
	Farmize = experiments.Farmize
)

// RenderTimeline writes the run's autonomic event log, one event per line.
func RenderTimeline(w io.Writer, res *Result) {
	io.WriteString(w, res.Log.Timeline())
}
