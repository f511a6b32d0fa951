package core

import (
	"fmt"
	"time"

	"repro/internal/abc"
	"repro/internal/contract"
	"repro/internal/grid"
	"repro/internal/manager"
	"repro/internal/skel"
	"repro/internal/trace"
)

// This file generalizes the Fig. 4 builder to arbitrary pipelines of
// sequential and farm stages: pipe(s_1, ..., s_n) where each s_i is either
// seq or farm(seq). It is the mechanism behind the §4.2 idea of
// "transforming a pipeline stage into a farm with the workers behaving as
// instances of the original stage": a StageSpec flips from StageSeq to
// StageFarm without touching the rest of the application (see Farmize and
// the EXT-FARMIZE experiment).

// StageKind discriminates StreamApp stage specifications.
type StageKind int

// Stage kinds.
const (
	StageSeq StageKind = iota
	StageFarm
)

// StageSpec describes one pipeline stage of a stream application.
type StageSpec struct {
	Name string
	Kind StageKind
	// Work is the per-task nominal service time in this stage.
	Work time.Duration
	// Fn is the stage's functional code (nil = identity).
	Fn skel.Fn
	// Workers is a farm stage's initial parallelism degree (default 1).
	Workers int
	// Limits bounds a farm stage's manager.
	Limits manager.FarmLimits
}

// Farmize returns a copy of the spec transformed into a farm stage with
// the given initial degree — the §4.2 stage-to-farm transformation.
func (s StageSpec) Farmize(workers int) StageSpec {
	s.Kind = StageFarm
	if workers > 0 {
		s.Workers = workers
	} else if s.Workers <= 0 {
		s.Workers = 2
	}
	return s
}

// StreamAppConfig parameterizes an arbitrary seq/farm pipeline under one
// application manager.
type StreamAppConfig struct {
	Name     string
	Env      skel.Env
	Platform *grid.Platform
	Log      *trace.Log

	Tasks          int
	SourceInterval time.Duration
	Payload        int

	Stages []StageSpec

	Contract contract.ThroughputRange
	Step     float64

	Period       time.Duration
	SamplePeriod time.Duration
}

// NewStreamApp assembles source -> stages -> sink with one manager per
// stage (farm managers run the Fig. 5 rules; sequential stages get
// monitor-only managers) under a top-level application manager that splits
// the contract and reacts to farm violations with producer rate contracts.
func NewStreamApp(cfg StreamAppConfig) (*App, error) {
	if cfg.Name == "" {
		cfg.Name = "streamapp"
	}
	if cfg.Platform == nil {
		cfg.Platform = grid.NewSMP(16)
	}
	if cfg.Log == nil {
		cfg.Log = trace.NewLog()
	}
	if cfg.Tasks <= 0 {
		cfg.Tasks = 100
	}
	if cfg.SourceInterval <= 0 {
		cfg.SourceInterval = time.Second
	}
	if cfg.Payload <= 0 {
		cfg.Payload = 64
	}
	if len(cfg.Stages) == 0 {
		return nil, fmt.Errorf("core: stream app needs at least one stage")
	}
	if cfg.Contract == (contract.ThroughputRange{}) {
		cfg.Contract = contract.ThroughputRange{Lo: 0.3, Hi: 0.7}
	}
	if cfg.Period <= 0 {
		cfg.Period = 2 * time.Second
	}
	if cfg.SamplePeriod <= 0 {
		cfg.SamplePeriod = 500 * time.Millisecond
	}
	if cfg.Env.Clock == nil {
		return nil, fmt.Errorf("core: stream app needs a clock (set Env.Clock)")
	}
	env := cfg.Env.Modelled()
	clock := env.Clock
	rm := cfg.Platform.RM
	period := cfg.Period

	payload := make([]byte, cfg.Payload)
	source := skel.NewSource(cfg.Name+".source", env, cfg.Tasks, cfg.SourceInterval,
		func(i int) *skel.Task {
			return &skel.Task{Payload: append([]byte(nil), payload...)}
		})
	sink := skel.NewSink(cfg.Name+".sink", env, nil)
	sourceABC := abc.NewSourceABC(source)
	pipeABC := abc.NewPipeABC(sourceABC, abc.NewSinkABC(sink))

	amP, err := manager.NewSourceManager("AM_P", sourceABC, cfg.Log, clock, period)
	if err != nil {
		return nil, err
	}
	coord := &manager.PipelineCoordinator{Producer: amP, Step: cfg.Step, Cap: cfg.Contract.Hi * 1.2}
	amA, err := manager.NewPipelineManager("AM_A", pipeABC, coord, cfg.Log, clock, period)
	if err != nil {
		return nil, err
	}
	amA.AttachChild(amP)

	app := &App{
		Name:         cfg.Name,
		Env:          env,
		Platform:     cfg.Platform,
		Log:          cfg.Log,
		RootManager:  amA,
		Source:       source,
		Sink:         sink,
		SamplePeriod: cfg.SamplePeriod,
		Grace:        3 * cfg.Period,
	}
	rootBS := &BS{
		Pattern:    PipePattern,
		Component:  newBSComponent(cfg.Name+".pipeBS", amA, pipeABC),
		Manager:    amA,
		Controller: pipeABC,
	}
	prodBS := &BS{Pattern: SeqPattern,
		Component: newBSComponent(cfg.Name+".sourceBS", amP, sourceABC),
		Manager:   amP, Controller: sourceABC, Stage: source}
	rootBS.Children = append(rootBS.Children, prodBS)
	rootBS.Component.Membrane().Content().AddChild(prodBS.Component)

	stages := []skel.Stage{source}
	farmIdx := 0
	for i, spec := range cfg.Stages {
		name := spec.Name
		if name == "" {
			name = fmt.Sprintf("%s.stage%d", cfg.Name, i)
		}
		switch spec.Kind {
		case StageSeq:
			node, err := rm.Recruit(grid.Request{})
			if err != nil {
				return nil, fmt.Errorf("core: placing stage %q: %w", name, err)
			}
			seq := skel.NewSeq(name, env, node, spec.Fn).WithWork(spec.Work)
			seqABC := abc.NewSeqABC(seq)
			am, err := manager.NewMonitorManager(fmt.Sprintf("AM_S%d", i), seqABC, cfg.Log, clock, period)
			if err != nil {
				return nil, err
			}
			amA.AttachChild(am)
			bs := &BS{Pattern: SeqPattern,
				Component: newBSComponent(name+"BS", am, seqABC),
				Manager:   am, Controller: seqABC, Stage: seq}
			rootBS.Children = append(rootBS.Children, bs)
			rootBS.Component.Membrane().Content().AddChild(bs.Component)
			stages = append(stages, seq)
		case StageFarm:
			workers := spec.Workers
			if workers <= 0 {
				workers = 1
			}
			farm, err := skel.NewFarm(skel.FarmConfig{
				Name:           name,
				Env:            env,
				RM:             rm,
				InitialWorkers: workers,
				Fn:             spec.Fn,
				WorkOverride:   spec.Work,
			})
			if err != nil {
				return nil, err
			}
			farmABC := abc.NewFarmABC(farm, nil)
			amName := "AM_F"
			if farmIdx > 0 {
				amName = fmt.Sprintf("AM_F%d", farmIdx)
			}
			farmIdx++
			am, err := manager.NewFarmManager(amName, farmABC, cfg.Log, clock, period, spec.Limits)
			if err != nil {
				return nil, err
			}
			amA.AttachChild(am)
			bs := &BS{Pattern: FarmPattern,
				Component: newBSComponent(name+"BS", am, farmABC),
				Manager:   am, Controller: farmABC, Stage: farm}
			rootBS.Children = append(rootBS.Children, bs)
			rootBS.Component.Membrane().Content().AddChild(bs.Component)
			stages = append(stages, farm)
			if app.FarmABC == nil {
				app.FarmABC = farmABC
			}
		default:
			return nil, fmt.Errorf("core: unknown stage kind %d", spec.Kind)
		}
	}
	stages = append(stages, sink)
	app.stages = stages
	app.Root = rootBS

	if err := app.Contract(cfg.Contract); err != nil {
		return nil, err
	}
	return app, nil
}
