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

	// Period is the control-loop period of AM_F and of the GM in
	// modelled time (default 1s); SamplePeriod the series sampling period
	// (default 0.5s modelled).
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
	if cfg.SecurityPeriod <= 0 {
		cfg.SecurityPeriod = cfg.Period
	}
	if cfg.FaultPeriod <= 0 {
		cfg.FaultPeriod = cfg.Period / 2
	}
	if cfg.MigrationPeriod <= 0 {
		cfg.MigrationPeriod = cfg.Period / 2
	}
	if cfg.ActuatorTimeout <= 0 {
		cfg.ActuatorTimeout = 30 * time.Second
	}
	return nil
}

// NewFarmApp assembles source -> farm BS -> sink with a single autonomic
// manager AM_F responsible for the performance concern, optionally under
// multi-concern coordination with a security manager.
func NewFarmApp(cfg FarmAppConfig) (*App, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	// Every duration below is modelled: the managers share the skeletons'
	// clock.
	if cfg.Env.Clock == nil {
		return nil, fmt.Errorf("core: farm app needs a clock (set Env.Clock)")
	}
	env := cfg.Env.Modelled()
	clock := env.Clock

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
	guard := abc.NewGuard(farmABC, abc.GuardConfig{
		Clock:   clock,
		Timeout: cfg.ActuatorTimeout,
		Backoff: runtime.Backoff{Clock: clock, Rand: jit},
	})
	amF, err := manager.NewFarmManager("AM_F", guard, cfg.Log, clock, cfg.Period, cfg.Limits)
	if err != nil {
		return nil, err
	}
	switch {
	case cfg.WarmUp > 0:
		amF.SetWarmUp(cfg.WarmUp)
	case cfg.WarmUp == 0:
		amF.SetWarmUp(10 * time.Second)
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
		SamplePeriod: cfg.SamplePeriod,
		Grace:        2 * cfg.Period,
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
		sec, err := manager.NewSecurityManager(manager.SecurityConfig{
			Clock:     clock,
			Log:       cfg.Log,
			Policy:    *pol,
			Handshake: cfg.Handshake,
			Period:    cfg.SecurityPeriod,
		})
		if err != nil {
			return nil, err
		}
		gm, err := manager.NewGeneralManager("GM", sec, cfg.Log, clock, cfg.Coordination)
		if err != nil {
			return nil, err
		}
		gm.SetPeriod(cfg.Period)
		gm.Coordinate(farmABC)
		app.Security = sec
		app.GM = gm
		app.startSecurity = cfg.Coordination == manager.Reactive
	}

	if cfg.WithFaultTolerance {
		cfg.Platform.RM.SetClock(clock)
		ft, err := manager.NewFaultManager(manager.FaultConfig{
			Clock:              clock,
			Log:                cfg.Log,
			Period:             cfg.FaultPeriod,
			RM:                 cfg.Platform.RM,
			SuspectAfter:       cfg.FaultSuspectAfter,
			SuspectGrace:       cfg.FaultSuspectGrace,
			QuarantineAfter:    cfg.FaultQuarantineAfter,
			QuarantineCooldown: cfg.FaultQuarantineCooldown,
			Retry:              runtime.Backoff{Clock: clock, Rand: jit},
		})
		if err != nil {
			return nil, err
		}
		ft.Watch(farmABC)
		app.Fault = ft
	}

	if cfg.WithMigration {
		mig, err := manager.NewMigrationManager(manager.MigrationConfig{
			Clock:   clock,
			Log:     cfg.Log,
			MaxLoad: cfg.MigrationMaxLoad,
			Period:  cfg.MigrationPeriod,
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

// BuildFromExpr assembles an application from a skeleton expression. The
// supported shapes are the ones the stream runtime can run:
//
//	farm(seq)                 -> NewFarmApp(farmCfg)
//	pipe(seq, s_2, ..., s_n)  -> NewStreamApp(streamCfg), each s_i seq or farm(seq)
//
// In a pipe the first seq is the stream source and every later stage
// becomes one StageSpec: seq a StageSeq, farm(seq) a StageFarm. A stage
// copies its Work, Fn, Workers and Limits from the first entry of
// streamCfg.Stages of its kind (zero values when there is none); names
// follow the stage position.
//
// Deeper nestings (farm over pipelines) are modelled at the management
// layer (manager hierarchies support arbitrary trees) but not by this
// stream runtime; they are rejected with a descriptive error.
func BuildFromExpr(expr string, farmCfg FarmAppConfig, streamCfg StreamAppConfig) (*App, error) {
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
		if spec.Children[0].Kind != SeqPattern {
			return nil, fmt.Errorf("core: a pipeline's first stage is its source and must be seq, found %s", spec.Children[0])
		}
		templates := map[StageKind]StageSpec{}
		for i := len(streamCfg.Stages) - 1; i >= 0; i-- {
			templates[streamCfg.Stages[i].Kind] = streamCfg.Stages[i]
		}
		var stages []StageSpec
		for _, c := range spec.Children[1:] {
			kind := StageSeq
			switch {
			case c.Kind == SeqPattern:
			case c.Kind == FarmPattern && c.Children[0].Kind == SeqPattern:
				kind = StageFarm
			default:
				return nil, fmt.Errorf("core: pipeline stage %s is not supported by the stream runtime", c)
			}
			st := templates[kind]
			st.Name, st.Kind = "", kind
			stages = append(stages, st)
		}
		streamCfg.Stages = stages
		return NewStreamApp(streamCfg)
	default:
		return nil, fmt.Errorf("core: a bare seq has nothing to manage; wrap it in farm(...) or pipe(...)")
	}
}
