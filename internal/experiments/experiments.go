// Package experiments contains the reproduction harnesses: one entry point
// per evaluation artefact of the paper (Fig. 3, Fig. 4) plus the extension
// experiments DESIGN.md lists (external-load adaptation, multi-concern
// coordination, contract-split soundness). Each harness builds the
// corresponding behavioural-skeleton application with paper-faithful
// parameters (uniformly time-scaled), runs it, and returns the event log
// and series to compare with the paper's figures.
package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/contract"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/manager"
	"repro/internal/simclock"
	"repro/internal/skel"
	"repro/internal/trace"
)

// Options configures a harness run.
type Options struct {
	// Scale is how many modelled seconds pass per wall-clock second: the
	// harness runs on simclock.NewScaledReal(Scale), so 200 makes the
	// minutes-long paper runs finish in a couple of wall-clock seconds.
	// Default 200.
	Scale float64
	// Tasks overrides the stream length (0 = experiment default).
	Tasks int
	// Out, when non-nil, receives the rendered figure.
	Out io.Writer
	// RulesDriven makes Fig4 store the application manager's policy as
	// DRL rules (rules.PipeRuleSource) instead of the built-in Go policy.
	RulesDriven bool
	// Telemetry, when non-empty, serves the introspection endpoint
	// (/healthz, /metrics, /trace, /managers, pprof) on this address for
	// the duration of each run. Empty disables the listener.
	Telemetry string
}

// enableTelemetry binds the introspection server when opts ask for one.
// Called per app, just before RunContext, so harnesses running several
// apps in sequence (MultiConcern) rebind the same address for each run.
func enableTelemetry(app *core.App, opts Options) error {
	if opts.Telemetry == "" {
		return nil
	}
	srv, err := app.EnableTelemetry(opts.Telemetry)
	if err != nil {
		return err
	}
	if opts.Out != nil {
		fmt.Fprintf(opts.Out, "telemetry: serving on %s\n", srv.Addr())
	}
	return nil
}

func (o Options) env() skel.Env {
	scale := o.Scale
	if scale <= 0 {
		scale = 200
	}
	return skel.Env{Clock: simclock.NewScaledReal(scale)}
}

// waitConsumed polls, on the wall clock, until the app's sink has consumed
// n tasks; it reports false if ctx ends first. The poll paces a harness
// thread, not the modelled run, so its period is wall time.
func waitConsumed(ctx context.Context, app *core.App, n int) bool {
	for app.Sink.Consumed() < n {
		if ctx != nil && ctx.Err() != nil {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

// Fig3 reproduces the single-manager experiment of Fig. 3: a task-farm BS
// processing a stream of (synthetic) medical images under the user contract
// "0.6 images/s"; the AM adds processing resources until the contract is
// satisfied.
//
// Paper-faithful parameters: images cost 6.4 s on one core (so a single
// worker delivers ~0.16 img/s and the contract needs ~4 workers), images
// arrive at 1 img/s, and the farm starts with one worker.
func Fig3(ctx context.Context, opts Options) (*core.Result, error) {
	tasks := opts.Tasks
	if tasks <= 0 {
		tasks = 200
	}
	app, err := core.NewFarmApp(core.FarmAppConfig{
		Name:           "fig3",
		Env:            opts.env(),
		Platform:       grid.NewSMP(12),
		Tasks:          tasks,
		TaskWork:       6400 * time.Millisecond,
		SourceInterval: 1250 * time.Millisecond, // 0.8 img/s offered
		Payload:        256,
		InitialWorkers: 1,
		Contract:       contract.MinThroughput(0.6),
		Limits:         manager.FarmLimits{MaxWorkers: 10},
		Period:         3 * time.Second,
		SamplePeriod:   time.Second,
	})
	if err != nil {
		return nil, err
	}
	if err := enableTelemetry(app, opts); err != nil {
		return nil, err
	}
	res, err := app.RunContext(ctx)
	if err != nil {
		return nil, err
	}
	if opts.Out != nil {
		writeFig3(opts.Out, res)
	}
	return res, nil
}

// Fig4 reproduces the hierarchical-management experiment of Fig. 4: the
// three-stage pipeline pipe(producer, farm(filter), consumer) with the
// manager hierarchy AM_A / AM_P / AM_F / AM_C and the application SLA
// c_tRange = 0.3 - 0.7 tasks/s.
//
// The producer deliberately starts too slow (0.2 tasks/s) so the first
// phase of the paper's narrative — notEnough -> raiseViol -> incRate —
// plays out, followed by addWorker reconfigurations, the decRate warning
// and the endStream tail with its rebalance.
func Fig4(ctx context.Context, opts Options) (*core.Result, error) {
	tasks := opts.Tasks
	if tasks <= 0 {
		tasks = 150
	}
	app, err := core.NewPipelineApp(core.PipelineAppConfig{
		Name:             "fig4",
		Env:              opts.env(),
		Platform:         grid.NewSMP(12),
		Tasks:            tasks,
		ProducerInterval: 5 * time.Second,
		FilterWork:       14 * time.Second,
		ConsumerWork:     200 * time.Millisecond,
		Payload:          256,
		InitialWorkers:   3,
		Limits:           manager.FarmLimits{MaxWorkers: 9},
		Contract:         contract.ThroughputRange{Lo: 0.3, Hi: 0.7},
		// A slightly aggressive rate step makes the producer overshoot
		// the upper bound once, eliciting the decRate warning of the
		// paper's second phase before settling into the stripe.
		Step:         1.5,
		Period:       5 * time.Second,
		SamplePeriod: time.Second,
		RulesDriven:  opts.RulesDriven,
	})
	if err != nil {
		return nil, err
	}
	if err := enableTelemetry(app, opts); err != nil {
		return nil, err
	}
	res, err := app.RunContext(ctx)
	if err != nil {
		return nil, err
	}
	if opts.Out != nil {
		writeFig4(opts.Out, res)
	}
	return res, nil
}

// ExtLoadResult augments the run result with the injection instant.
type ExtLoadResult struct {
	*core.Result
	InjectedAt     time.Time
	WorkersBefore  int
	WorkersAfter   int
	LoadedNode     string
	AddsAfterSpike int
}

// ExtLoad reproduces the §4.2 narrative experiment: external load appears
// on the cores running farm workers mid-run; overloaded workers deliver
// fewer results and the manager reacts by adding workers until the
// contract is restored.
func ExtLoad(ctx context.Context, opts Options) (*ExtLoadResult, error) {
	tasks := opts.Tasks
	if tasks <= 0 {
		tasks = 240
	}
	// Single-core nodes so external load hits identifiable workers, with
	// enough spare nodes to recover onto.
	trusted := grid.Domain{Name: "cluster.local", Trusted: true}
	var nodes []*grid.Node
	for i := 0; i < 20; i++ {
		nodes = append(nodes, grid.NewNode(fmt.Sprintf("n%02d", i), trusted, 1, 1.0))
	}
	platform := &grid.Platform{
		Domains: []grid.Domain{trusted},
		Network: grid.NewNetwork(),
		RM:      grid.NewResourceManager(nodes...),
	}
	env := opts.env()
	app, err := core.NewFarmApp(core.FarmAppConfig{
		Name:           "extload",
		Env:            env,
		Platform:       platform,
		Tasks:          tasks,
		TaskWork:       5 * time.Second,
		SourceInterval: 1250 * time.Millisecond, // 0.8/s offered
		InitialWorkers: 5,                       // capacity 1.0/s: stable
		Contract:       contract.MinThroughput(0.6),
		Limits:         manager.FarmLimits{MaxWorkers: 16},
		Period:         2 * time.Second,
		SamplePeriod:   time.Second,
	})
	if err != nil {
		return nil, err
	}

	out := &ExtLoadResult{}
	// Injector: once a third of the stream is done, overload every node
	// currently running a worker (75% external load cuts each to a
	// quarter of its speed), dropping the farm below the contract.
	go func() {
		if !waitConsumed(ctx, app, tasks/3) {
			return
		}
		workers := app.FarmABC.Workers()
		out.WorkersBefore = len(workers)
		for _, w := range workers {
			w.Node.SetExternalLoad(0.75)
			out.LoadedNode = w.Node.ID
		}
		out.InjectedAt = env.Clock.Now()
		app.Log.Record(env.Clock.Now(), "ENV", trace.Kind("extLoad"),
			fmt.Sprintf("75%% external load on %d worker nodes", len(workers)))
	}()

	if err := enableTelemetry(app, opts); err != nil {
		return nil, err
	}
	res, err := app.RunContext(ctx)
	if err != nil {
		return nil, err
	}
	out.Result = res
	out.WorkersAfter = int(res.Workers.Max())
	for _, e := range res.Log.BySource("AM_F") {
		if e.Kind == trace.AddWorker && !out.InjectedAt.IsZero() && e.T.After(out.InjectedAt) {
			out.AddsAfterSpike++
		}
	}
	if opts.Out != nil {
		writeExtLoad(opts.Out, out)
	}
	return out, nil
}

// SecRow is one line of the multi-concern comparison table.
type SecRow struct {
	Mode            manager.CoordinationMode
	Completed       int
	Leaks           uint64
	SecuredMsgs     uint64
	TotalMsgs       uint64
	UntrustedHosts  int
	PeakThroughput  float64
	WallClock       time.Duration
	ContractVerdict contract.Verdict
}

// MultiConcernResult is the full EXT-SEC comparison.
type MultiConcernResult struct {
	Rows []SecRow
	Logs map[string]*trace.Log
}

// MultiConcern runs the §3.2 scenario — a farm forced to grow into
// untrusted_ip_domain_A — under the three coordination schemes and
// reports, per scheme, the plaintext messages exposed on links that
// required securing, the secured traffic and the achieved throughput.
// The paper's claims to verify: two-phase leaks exactly 0; the naive
// (reactive) scheme leaks > 0; securing costs some throughput vs. the
// insecure baseline.
func MultiConcern(ctx context.Context, opts Options) (*MultiConcernResult, error) {
	tasks := opts.Tasks
	if tasks <= 0 {
		tasks = 200
	}
	out := &MultiConcernResult{Logs: map[string]*trace.Log{}}
	for _, mode := range []manager.CoordinationMode{manager.TwoPhase, manager.Reactive, manager.Unmanaged} {
		log := trace.NewLog()
		c := contract.Contract(contract.MinThroughput(1.2))
		if mode != manager.Unmanaged {
			c = contract.Conjunction{contract.SecureComms{}, contract.MinThroughput(1.2)}
		}
		app, err := core.NewFarmApp(core.FarmAppConfig{
			Name:           "multiconcern-" + mode.String(),
			Env:            opts.env(),
			Platform:       grid.NewTwoDomainGrid(2, 8),
			Log:            log,
			Tasks:          tasks,
			TaskWork:       4 * time.Second,
			SourceInterval: 600 * time.Millisecond,
			Payload:        512,
			InitialWorkers: 2,
			Contract:       c,
			Limits:         manager.FarmLimits{MaxWorkers: 10},
			Period:         2 * time.Second,
			SamplePeriod:   time.Second,
			WithSecurity:   true,
			Coordination:   mode,
			Handshake:      500 * time.Millisecond,
			// The reactive scheme's hazard window: the security manager
			// scans every 8 modelled seconds while tasks arrive every
			// 0.6 s, so an unsecured binding reliably carries plaintext
			// before it is fixed — the §3.2 argument made measurable.
			SecurityPeriod: 8 * time.Second,
		})
		if err != nil {
			return nil, err
		}
		if err := enableTelemetry(app, opts); err != nil {
			return nil, err
		}
		res, err := app.RunContext(ctx)
		if err != nil {
			return nil, err
		}
		row := SecRow{
			Mode:           mode,
			Completed:      res.Completed,
			Leaks:          app.Auditor.Leaks(),
			SecuredMsgs:    app.Auditor.Secured(),
			TotalMsgs:      app.Auditor.Total(),
			PeakThroughput: res.Throughput.Max(),
			WallClock:      res.Elapsed,
		}
		for _, w := range app.FarmABC.Workers() {
			if !w.Node.Domain.Trusted {
				row.UntrustedHosts++
			}
		}
		row.ContractVerdict = c.Check(contract.Snapshot{
			Throughput:     res.Throughput.Max(),
			UnsecuredSends: app.Auditor.Leaks(),
		})
		out.Rows = append(out.Rows, row)
		out.Logs[mode.String()] = log
	}
	if opts.Out != nil {
		writeMultiConcern(opts.Out, out)
	}
	return out, nil
}

// FaultResult augments the run result with fault-injection accounting.
type FaultResult struct {
	*core.Result
	Injected  int
	Recovered int
	Replaced  int
}

// FaultTolerance runs the EXT-FT experiment: a farm under contract with a
// fault-tolerance manager attached; worker crashes are injected while the
// stream flows; the manager must detect each crash, redistribute the
// stranded tasks and replace the worker, so that every task completes
// exactly once and the contract is eventually restored.
func FaultTolerance(ctx context.Context, opts Options) (*FaultResult, error) {
	tasks := opts.Tasks
	if tasks <= 0 {
		tasks = 200
	}
	env := opts.env()
	app, err := core.NewFarmApp(core.FarmAppConfig{
		Name:               "faulttol",
		Env:                env,
		Platform:           grid.NewSMP(12),
		Tasks:              tasks,
		TaskWork:           5 * time.Second,
		SourceInterval:     1250 * time.Millisecond,
		InitialWorkers:     5,
		Contract:           contract.MinThroughput(0.6),
		Limits:             manager.FarmLimits{MaxWorkers: 10},
		Period:             2 * time.Second,
		SamplePeriod:       time.Second,
		WithFaultTolerance: true,
		FaultPeriod:        time.Second,
	})
	if err != nil {
		return nil, err
	}

	out := &FaultResult{}
	// Injector: crash one random live worker each time another quarter of
	// the stream completes (three crashes total).
	go func() {
		for _, frac := range []int{4, 2} {
			if !waitConsumed(ctx, app, tasks/frac) {
				return
			}
			for _, w := range app.FarmABC.Workers() {
				if !w.Failed {
					if err := app.FarmABC.Farm().KillWorker(w.ID); err == nil {
						out.Injected++
						app.Log.Record(env.Clock.Now(), "ENV", trace.Kind("crash"), w.ID)
					}
					break
				}
			}
		}
	}()

	if err := enableTelemetry(app, opts); err != nil {
		return nil, err
	}
	res, err := app.RunContext(ctx)
	if err != nil {
		return nil, err
	}
	out.Result = res
	out.Recovered = app.Fault.Recovered()
	out.Replaced = app.Fault.Replaced()
	if opts.Out != nil {
		writeFaultTolerance(opts.Out, out)
	}
	return out, nil
}

// SplitRow is one line of the contract-splitting demonstration.
type SplitRow struct {
	Pattern  string
	Contract string
	Subs     []string
}

// ContractSplit exercises the P_spl heuristics on the paper's example
// structures and returns the derived sub-contracts (the EXT-SPLIT
// artefact).
func ContractSplit(ctx context.Context, opts Options) ([]SplitRow, error) {
	pipeTR := contract.ThroughputRange{Lo: 0.3, Hi: 0.7}
	pipePD := contract.ParDegree{Min: 3, Max: 12}
	secConj := contract.Conjunction{contract.SecureComms{}, pipeTR}

	var rows []SplitRow
	add := func(pattern string, c contract.Contract, subs []contract.Contract, err error) error {
		if err != nil {
			return err
		}
		row := SplitRow{Pattern: pattern, Contract: c.Describe()}
		for _, s := range subs {
			row.Subs = append(row.Subs, s.Describe())
		}
		rows = append(rows, row)
		return nil
	}
	subs, err := contract.SplitPipeline(pipeTR, 3, nil)
	if err := add("pipe(seq,farm,seq) throughput", pipeTR, subs, err); err != nil {
		return nil, err
	}
	subs, err = contract.SplitPipeline(pipePD, 3, []float64{1, 3, 1})
	if err := add("pipe(seq,farm,seq) par-degree, weights 1:3:1", pipePD, subs, err); err != nil {
		return nil, err
	}
	subs, err = contract.SplitPipeline(secConj, 3, nil)
	if err := add("pipe(...) secure+throughput", secConj, subs, err); err != nil {
		return nil, err
	}
	subs, err = contract.SplitFarm(secConj, 4)
	if err := add("farm(seq) secure+throughput, 4 workers", secConj, subs, err); err != nil {
		return nil, err
	}
	if opts.Out != nil {
		writeSplit(opts.Out, rows)
	}
	return rows, nil
}
