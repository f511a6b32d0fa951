package core

import (
	"fmt"
	"time"

	"repro/internal/abc"
	"repro/internal/contract"
	"repro/internal/grid"
	"repro/internal/manager"
	"repro/internal/metrics"
	"repro/internal/planner"
	"repro/internal/runtime"
	"repro/internal/security"
	"repro/internal/skel"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// throughputLo extracts the lower throughput bound of a contract (walking
// conjunctions); ok is false when the contract has no throughput part.
func throughputLo(c contract.Contract) (float64, bool) {
	switch c := c.(type) {
	case contract.ThroughputRange:
		return c.Lo, true
	case contract.Conjunction:
		for _, sub := range c {
			if lo, ok := throughputLo(sub); ok {
				return lo, true
			}
		}
	}
	return 0, false
}

// FarmAppConfig parameterizes a single-farm behavioural-skeleton
// application (the Fig. 3 experiment and the §3.2 multi-concern scenario).
type FarmAppConfig struct {
	Name     string
	Env      skel.Env
	Platform *grid.Platform
	Log      *trace.Log

	// Tasks is the stream length; TaskWork the per-task nominal service
	// time; SourceInterval the task inter-arrival period (modelled).
	Tasks          int
	TaskWork       time.Duration
	SourceInterval time.Duration
	// Payload sizes each task's payload in bytes (0 = 64).
	Payload int

	// Fn is the worker function (nil = identity).
	Fn skel.Fn
	// SinkFn runs in the sink on every collected task (nil = none); the
	// chaos soak uses it for exactly-once accounting.
	SinkFn skel.Fn
	// ChargeLinkLatency makes the farm charge each task the latency of
	// the link between the platform's first domain (where the dispatcher
	// lives) and the worker's domain, so inter-domain link
	// degradation becomes observable to the managers. Default off.
	ChargeLinkLatency bool

	// Executors, when set, lets the farm reach recruited nodes through a
	// cross-process transport (internal/wire): nodes the factory claims get
	// a remote executor, all others stay loopback. Selector constrains
	// which admitted workers the unified dispatch decision path may pick
	// (labels, trust domain, the local escape hatch); the zero value admits
	// everything.
	Executors skel.ExecutorFactory
	Selector  skel.Selector

	// DispatchBatch > 1 turns on the farm's batched dispatch hot path (up
	// to N tasks per worker per sealed envelope); BatchFlush bounds the
	// latency a partial batch may wait for more input. Zero values keep the
	// per-task path, byte-identical to the unbatched farm.
	DispatchBatch int
	BatchFlush    time.Duration

	// TraceSample > 0 attaches a task-span tracer sampling one task in
	// TraceSample (1 = every task): sampled tasks get an eight-stage
	// latency decomposition published to /spans, /metrics and /cluster.
	// TraceSeed seeds the deterministic sampler, so a chaos replay with
	// the same seed samples the same task ids; TraceRing bounds the
	// retained spans (0 = 1024).
	TraceSample uint64
	TraceSeed   uint64
	TraceRing   int

	InitialWorkers int
	// AutoDegree derives InitialWorkers from the task-farm performance
	// model (internal/planner) instead of starting cold: the §3 "initial
	// parallelism degree set-up" policy.
	AutoDegree bool
	Limits     manager.FarmLimits
	// Contract is the farm SLA (default throughput >= 0.6, the Fig. 3
	// contract).
	Contract contract.Contract

	// Period is the manager control-loop period in modelled time
	// (default 1s); SamplePeriod the series sampling period (default
	// 0.5s modelled).
	Period       time.Duration
	SamplePeriod time.Duration
	// WarmUp suppresses manager rule firing for this long (modelled)
	// after start, letting the sliding-window sensors fill before the
	// manager acts. Default: 10s (one rate-meter window); negative
	// disables it.
	WarmUp time.Duration

	// Coordination selects the multi-concern scheme; Unmanaged disables
	// the security manager (the single-concern experiments). WithSecurity
	// must be set for TwoPhase/Reactive to take effect.
	WithSecurity bool
	Coordination manager.CoordinationMode
	// Handshake is the simulated SSL session setup latency (modelled).
	Handshake time.Duration
	// SecurityPeriod is the reactive security manager's control-loop
	// period — its reaction latency to an unsecured binding (default:
	// Period). The §3.2 hazard window is exactly this long.
	SecurityPeriod time.Duration

	// WithFaultTolerance attaches a fault-tolerance manager (C_ft) that
	// detects crashed workers, redistributes their stranded tasks and
	// replaces them. FaultPeriod is its detection latency (default:
	// Period/2).
	WithFaultTolerance bool
	FaultPeriod        time.Duration
	// FaultSuspectAfter arms the progress-based stall detector (modelled;
	// 0 leaves it off); FaultSuspectGrace shields freshly added workers
	// (modelled; default 2×FaultSuspectAfter).
	FaultSuspectAfter time.Duration
	FaultSuspectGrace time.Duration
	// FaultQuarantineAfter and FaultQuarantineCooldown (modelled) tune the
	// node circuit breaker (defaults: 3 crashes, 10 fault periods).
	FaultQuarantineAfter    int
	FaultQuarantineCooldown time.Duration

	// ActuatorTimeout is the per-operation deadline of the hardened
	// actuator path (modelled; default 30s). The guard also retries
	// transient actuator failures with bounded jittered backoff.
	ActuatorTimeout time.Duration

	// JitterSeed, when non-zero, seeds one shared PRNG that every backoff
	// in the app draws its jitter from — the actuator guard's retries, the
	// fault manager's recruitment retries and the manager-restart
	// supervisors — so a run's whole retry plane replays deterministically
	// from (JitterSeed, fault plan). Zero keeps the default global-rand
	// jitter.
	JitterSeed int64

	// WithMigration attaches a migration manager that moves workers off
	// nodes whose external load exceeds MigrationMaxLoad (default 0.5).
	WithMigration    bool
	MigrationMaxLoad float64
	MigrationPeriod  time.Duration
}

func (cfg *FarmAppConfig) normalize() error {
	if cfg.Name == "" {
		cfg.Name = "farmapp"
	}
	if cfg.Platform == nil {
		cfg.Platform = grid.NewSMP(8)
	}
	if cfg.Log == nil {
		cfg.Log = trace.NewLog()
	}
	if cfg.Tasks <= 0 {
		cfg.Tasks = 100
	}
	if cfg.TaskWork <= 0 {
		cfg.TaskWork = 1600 * time.Millisecond
	}
	if cfg.SourceInterval < 0 {
		return fmt.Errorf("core: negative source interval")
	}
	if cfg.Payload <= 0 {
		cfg.Payload = 64
	}
	if cfg.InitialWorkers <= 0 {
		cfg.InitialWorkers = 1
	}
	if cfg.Contract == nil {
		cfg.Contract = contract.MinThroughput(0.6)
	}
	if cfg.Period <= 0 {
		cfg.Period = time.Second
	}
	if cfg.SamplePeriod <= 0 {
		cfg.SamplePeriod = 500 * time.Millisecond
	}
	return nil
}

// scaled converts a modelled duration into clock time under the config's
// time scale.
func scaled(env skel.Env, d time.Duration) time.Duration {
	s := env.TimeScale
	if s <= 0 {
		s = 1
	}
	out := time.Duration(float64(d) / s)
	if out <= 0 {
		out = time.Millisecond
	}
	return out
}

// NewFarmApp assembles source -> farm BS -> sink with a single autonomic
// manager AM_F responsible for the performance concern, optionally under
// multi-concern coordination with a security manager.
func NewFarmApp(cfg FarmAppConfig) (*App, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	env := cfg.Env
	clock := env.Clock
	if clock == nil {
		return nil, fmt.Errorf("core: farm app needs a clock (set Env.Clock)")
	}

	var auditor *security.Auditor
	var pol *security.Policy
	if cfg.WithSecurity {
		auditor = security.NewAuditor()
		pol = &security.Policy{Network: cfg.Platform.Network}
	}

	if cfg.AutoDegree {
		lo, _ := throughputLo(cfg.Contract)
		if lo > 0 {
			plan, err := planner.PlanFarm(cfg.Platform.RM, grid.Request{}, lo, cfg.TaskWork)
			if err != nil {
				return nil, err
			}
			if plan.Degree > 0 {
				cfg.InitialWorkers = plan.Degree
				if max := cfg.Limits.MaxWorkers; max > 0 && cfg.InitialWorkers > max {
					cfg.InitialWorkers = max
				}
			}
		}
	}

	var jit func() float64
	if cfg.JitterSeed != 0 {
		jit = runtime.NewSeededJitter(cfg.JitterSeed)
	}

	payload := make([]byte, cfg.Payload)
	for i := range payload {
		payload[i] = byte(i)
	}
	source := skel.NewSource(cfg.Name+".source", env, cfg.Tasks, cfg.SourceInterval,
		func(i int) *skel.Task {
			return &skel.Task{Work: cfg.TaskWork, Payload: append([]byte(nil), payload...)}
		})
	farmIns := &skel.FarmInstruments{
		Dispatch: metrics.NewLatencyHistogram(),
		Seal:     metrics.NewLatencyHistogram(),
	}
	var taskTracer *telemetry.TaskTracer
	if cfg.TraceSample > 0 {
		taskTracer = telemetry.NewTaskTracer(cfg.TraceSeed, cfg.TraceSample, cfg.TraceRing)
	}
	farmCfg := skel.FarmConfig{
		Name:           cfg.Name + ".farm",
		Env:            env,
		Fn:             cfg.Fn,
		RM:             cfg.Platform.RM,
		InitialWorkers: cfg.InitialWorkers,
		Policy:         pol,
		Auditor:        auditor,
		Instruments:    farmIns,
		Executors:      cfg.Executors,
		Selector:       cfg.Selector,
		DispatchBatch:  cfg.DispatchBatch,
		BatchFlush:     cfg.BatchFlush,
		Tracer:         taskTracer,
	}
	if cfg.ChargeLinkLatency && len(cfg.Platform.Domains) > 0 {
		farmCfg.Network = cfg.Platform.Network
		farmCfg.HomeDomain = cfg.Platform.Domains[0].Name
	}
	farm, err := skel.NewFarm(farmCfg)
	if err != nil {
		return nil, err
	}
	sink := skel.NewSink(cfg.Name+".sink", env, cfg.SinkFn)

	farmABC := abc.NewFarmABC(farm, auditor)
	actTimeout := cfg.ActuatorTimeout
	if actTimeout <= 0 {
		actTimeout = 30 * time.Second
	}
	guard := abc.NewGuard(farmABC, abc.GuardConfig{
		Clock:   clock,
		Timeout: scaled(env, actTimeout),
		Backoff: runtime.Backoff{Clock: clock, Rand: jit},
	})
	amF, err := manager.NewFarmManager("AM_F", guard, cfg.Log, clock,
		scaled(env, cfg.Period), cfg.Limits)
	if err != nil {
		return nil, err
	}
	switch {
	case cfg.WarmUp > 0:
		amF.SetWarmUp(scaled(env, cfg.WarmUp))
	case cfg.WarmUp == 0:
		amF.SetWarmUp(scaled(env, 10*time.Second))
	}

	app := &App{
		Name:         cfg.Name,
		Env:          env,
		Platform:     cfg.Platform,
		Log:          cfg.Log,
		RootManager:  amF,
		Source:       source,
		Sink:         sink,
		FarmABC:      farmABC,
		Guard:        guard,
		Auditor:      auditor,
		SamplePeriod: scaled(env, cfg.SamplePeriod),
		Grace:        scaled(env, 2*cfg.Period),
		stages:       []skel.Stage{source, farm, sink},
		taskTracer:   taskTracer,
	}
	app.Root = &BS{
		Pattern:    FarmPattern,
		Component:  newBSComponent(cfg.Name+".farmBS", amF, farmABC),
		Manager:    amF,
		Controller: farmABC,
		Stage:      farm,
	}

	if cfg.WithSecurity {
		secPeriod := cfg.SecurityPeriod
		if secPeriod <= 0 {
			secPeriod = cfg.Period
		}
		sec, err := manager.NewSecurityManager(manager.SecurityConfig{
			Clock:     clock,
			Log:       cfg.Log,
			Policy:    *pol,
			Handshake: scaled(env, cfg.Handshake),
			Period:    scaled(env, secPeriod),
		})
		if err != nil {
			return nil, err
		}
		gm, err := manager.NewGeneralManager("GM", sec, cfg.Log, clock, cfg.Coordination)
		if err != nil {
			return nil, err
		}
		gm.Coordinate(farmABC)
		app.Security = sec
		app.GM = gm
		app.startSecurity = cfg.Coordination == manager.Reactive
	}

	if cfg.WithFaultTolerance {
		fp := cfg.FaultPeriod
		if fp <= 0 {
			fp = cfg.Period / 2
		}
		cfg.Platform.RM.SetClock(clock)
		fc := manager.FaultConfig{
			Clock:           clock,
			Log:             cfg.Log,
			Period:          scaled(env, fp),
			RM:              cfg.Platform.RM,
			QuarantineAfter: cfg.FaultQuarantineAfter,
			Retry:           runtime.Backoff{Clock: clock, Rand: jit},
		}
		// scaled() floors at 1ms, so modelled knobs translate only when set.
		if cfg.FaultSuspectAfter > 0 {
			fc.SuspectAfter = scaled(env, cfg.FaultSuspectAfter)
		}
		if cfg.FaultSuspectGrace > 0 {
			fc.SuspectGrace = scaled(env, cfg.FaultSuspectGrace)
		}
		if cfg.FaultQuarantineCooldown > 0 {
			fc.QuarantineCooldown = scaled(env, cfg.FaultQuarantineCooldown)
		}
		ft, err := manager.NewFaultManager(fc)
		if err != nil {
			return nil, err
		}
		ft.Watch(farmABC)
		app.Fault = ft
	}

	if cfg.WithMigration {
		mp := cfg.MigrationPeriod
		if mp <= 0 {
			mp = cfg.Period / 2
		}
		mig, err := manager.NewMigrationManager(manager.MigrationConfig{
			Clock:   clock,
			Log:     cfg.Log,
			MaxLoad: cfg.MigrationMaxLoad,
			Period:  scaled(env, mp),
		})
		if err != nil {
			return nil, err
		}
		mig.Watch(farmABC)
		app.Migration = mig
	}

	app.initSupervision(jit)
	app.initTelemetry(farmIns)
	if err := app.Contract(cfg.Contract); err != nil {
		return nil, err
	}
	return app, nil
}

// PipelineAppConfig parameterizes the three-stage pipeline of the Fig. 4
// experiment: pipe(producer, farm(filter), consumer) with the four-manager
// hierarchy AM_A / AM_P / AM_F / AM_C.
type PipelineAppConfig struct {
	Name     string
	Env      skel.Env
	Platform *grid.Platform
	Log      *trace.Log

	Tasks int
	// ProducerInterval is the producer's initial emission period; the
	// Fig. 4 run starts with it too slow (notEnough) on purpose.
	ProducerInterval time.Duration
	// FilterWork is the per-task cost of the parallel (farm) stage;
	// ConsumerWork the per-task cost of the display stage.
	FilterWork   time.Duration
	ConsumerWork time.Duration
	Payload      int

	InitialWorkers int
	Limits         manager.FarmLimits
	// Contract is the application SLA c_tRange (default 0.3 - 0.7
	// tasks/s as in the paper).
	Contract contract.ThroughputRange
	// Step is the incRate/decRate multiplicative factor.
	Step float64
	// RulesDriven stores the application manager's reaction policy as
	// DRL rules (rules.PipeRuleSource) instead of the built-in Go policy;
	// behaviour is equivalent (§4.2: "the policies are stored as JBoss
	// rules").
	RulesDriven bool

	Period       time.Duration
	SamplePeriod time.Duration
}

func (cfg *PipelineAppConfig) normalize() {
	if cfg.Name == "" {
		cfg.Name = "pipeapp"
	}
	if cfg.Platform == nil {
		cfg.Platform = grid.NewSMP(8)
	}
	if cfg.Log == nil {
		cfg.Log = trace.NewLog()
	}
	if cfg.Tasks <= 0 {
		cfg.Tasks = 120
	}
	if cfg.ProducerInterval <= 0 {
		cfg.ProducerInterval = 5 * time.Second // 0.2 tasks/s: below contract
	}
	if cfg.FilterWork <= 0 {
		cfg.FilterWork = 4 * time.Second
	}
	if cfg.ConsumerWork <= 0 {
		cfg.ConsumerWork = 200 * time.Millisecond
	}
	if cfg.Payload <= 0 {
		cfg.Payload = 64
	}
	if cfg.InitialWorkers <= 0 {
		cfg.InitialWorkers = 3
	}
	if cfg.Contract == (contract.ThroughputRange{}) {
		cfg.Contract = contract.ThroughputRange{Lo: 0.3, Hi: 0.7}
	}
	if cfg.Period <= 0 {
		cfg.Period = time.Second
	}
	if cfg.SamplePeriod <= 0 {
		cfg.SamplePeriod = 500 * time.Millisecond
	}
}

// NewPipelineApp assembles the Fig. 4 application and its manager
// hierarchy.
func NewPipelineApp(cfg PipelineAppConfig) (*App, error) {
	cfg.normalize()
	env := cfg.Env
	clock := env.Clock
	if clock == nil {
		return nil, fmt.Errorf("core: pipeline app needs a clock (set Env.Clock)")
	}
	rm := cfg.Platform.RM

	// Producer and consumer each occupy one core of the platform for the
	// whole run (the Fig. 4 resource accounting: 3 farm workers + 2 = 5).
	prodNode, err := rm.Recruit(grid.Request{})
	if err != nil {
		return nil, fmt.Errorf("core: placing producer: %w", err)
	}
	consNode, err := rm.Recruit(grid.Request{})
	if err != nil {
		return nil, fmt.Errorf("core: placing consumer: %w", err)
	}

	payload := make([]byte, cfg.Payload)
	source := skel.NewSource(cfg.Name+".producer", env, cfg.Tasks, cfg.ProducerInterval,
		func(i int) *skel.Task {
			return &skel.Task{Work: cfg.FilterWork, Payload: append([]byte(nil), payload...)}
		})
	farmIns := &skel.FarmInstruments{
		Dispatch: metrics.NewLatencyHistogram(),
		Seal:     metrics.NewLatencyHistogram(),
	}
	farm, err := skel.NewFarm(skel.FarmConfig{
		Name:           cfg.Name + ".filter",
		Env:            env,
		RM:             rm,
		InitialWorkers: cfg.InitialWorkers,
		// Tasks leave the filter carrying the display cost, so the
		// consumer stage charges ConsumerWork, not FilterWork.
		Fn: func(t *skel.Task) *skel.Task {
			t.Work = cfg.ConsumerWork
			return t
		},
		Instruments: farmIns,
	})
	if err != nil {
		return nil, err
	}
	consumer := skel.NewSeq(cfg.Name+".consumer", env, consNode, nil)
	sink := skel.NewSink(cfg.Name+".sink", env, nil)

	sourceABC := abc.NewSourceABC(source)
	farmABC := abc.NewFarmABC(farm, nil)
	consABC := abc.NewSeqABC(consumer)
	pipeABC := abc.NewPipeABC(sourceABC, abc.NewSinkABC(sink))

	period := scaled(env, cfg.Period)
	amP, err := manager.NewSourceManager("AM_P", sourceABC, cfg.Log, clock, period)
	if err != nil {
		return nil, err
	}
	amF, err := manager.NewFarmManager("AM_F", farmABC, cfg.Log, clock, period, cfg.Limits)
	if err != nil {
		return nil, err
	}
	amC, err := manager.NewMonitorManager("AM_C", consABC, cfg.Log, clock, period)
	if err != nil {
		return nil, err
	}
	var amA *manager.Manager
	if cfg.RulesDriven {
		amA, err = manager.NewRuleDrivenPipelineManager("AM_A", pipeABC, amP,
			cfg.Step, cfg.Contract.Hi*1.2, cfg.Log, clock, period)
	} else {
		coord := &manager.PipelineCoordinator{Producer: amP, Step: cfg.Step, Cap: cfg.Contract.Hi * 1.2}
		amA, err = manager.NewPipelineManager("AM_A", pipeABC, coord, cfg.Log, clock, period)
	}
	if err != nil {
		return nil, err
	}
	amA.AttachChild(amP)
	amA.AttachChild(amF)
	amA.AttachChild(amC)

	app := &App{
		Name:         cfg.Name,
		Env:          env,
		Platform:     cfg.Platform,
		Log:          cfg.Log,
		RootManager:  amA,
		Source:       source,
		Sink:         sink,
		FarmABC:      farmABC,
		SamplePeriod: scaled(env, cfg.SamplePeriod),
		Grace:        scaled(env, 3*cfg.Period),
		stages:       []skel.Stage{source, farm, consumer, sink},
	}

	// GCM component view: pipe BS containing the three stage BSs.
	pipeBS := &BS{
		Pattern:    PipePattern,
		Component:  newBSComponent(cfg.Name+".pipeBS", amA, pipeABC),
		Manager:    amA,
		Controller: pipeABC,
	}
	prodBS := &BS{Pattern: SeqPattern, Component: newBSComponent(cfg.Name+".producerBS", amP, sourceABC), Manager: amP, Controller: sourceABC, Stage: source}
	farmBS := &BS{Pattern: FarmPattern, Component: newBSComponent(cfg.Name+".filterBS", amF, farmABC), Manager: amF, Controller: farmABC, Stage: farm}
	consBS := &BS{Pattern: SeqPattern, Component: newBSComponent(cfg.Name+".consumerBS", amC, consABC), Manager: amC, Controller: consABC, Stage: consumer}
	for _, child := range []*BS{prodBS, farmBS, consBS} {
		pipeBS.Children = append(pipeBS.Children, child)
		if err := pipeBS.Component.Membrane().Content().AddChild(child.Component); err != nil {
			return nil, err
		}
	}
	app.Root = pipeBS
	_ = prodNode // held for the duration of the app (resource accounting)

	app.initSupervision(nil)
	app.initTelemetry(farmIns)
	if err := app.Contract(cfg.Contract); err != nil {
		return nil, err
	}
	return app, nil
}

// BuildFromExpr assembles an application from a skeleton expression. The
// supported shapes are the ones the paper evaluates:
//
//	farm(seq)                  -> NewFarmApp
//	pipe(seq, farm(seq), seq)  -> NewPipelineApp (any pipe whose stages
//	                              are seq or farm(seq); the first and last
//	                              stages become producer and consumer)
//
// Deeper nestings (farm over pipelines) are modelled at the management
// layer (manager hierarchies support arbitrary trees) but not by this
// stream runtime; they are rejected with a descriptive error.
func BuildFromExpr(expr string, farmCfg FarmAppConfig, pipeCfg PipelineAppConfig) (*App, error) {
	spec, err := ParseExpr(expr)
	if err != nil {
		return nil, err
	}
	spec = spec.Normalize()
	switch spec.Kind {
	case FarmPattern:
		if spec.Children[0].Kind != SeqPattern {
			return nil, fmt.Errorf("core: farm over %s is not supported by the stream runtime (only farm(seq))", spec.Children[0])
		}
		return NewFarmApp(farmCfg)
	case PipePattern:
		farms := 0
		for _, c := range spec.Children {
			switch {
			case c.Kind == SeqPattern:
			case c.Kind == FarmPattern && c.Children[0].Kind == SeqPattern:
				farms++
			default:
				return nil, fmt.Errorf("core: pipeline stage %s is not supported by the stream runtime", c)
			}
		}
		if farms != 1 {
			return nil, fmt.Errorf("core: pipeline runtime supports exactly one farm stage, found %d", farms)
		}
		return NewPipelineApp(pipeCfg)
	default:
		return nil, fmt.Errorf("core: a bare seq has nothing to manage; wrap it in farm(...) or pipe(...)")
	}
}
