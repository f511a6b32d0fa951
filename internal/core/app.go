package core

import (
	"context"
	"errors"
	"time"

	"repro/internal/abc"
	"repro/internal/component"
	"repro/internal/contract"
	"repro/internal/grid"
	"repro/internal/manager"
	"repro/internal/metrics"
	"repro/internal/runtime"
	"repro/internal/security"
	"repro/internal/simclock"
	"repro/internal/skel"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// BS is a behavioural skeleton instance: the pair <P, M_C> plus the pieces
// it is assembled from — the skeleton runtime stage, its ABC and the GCM
// component carrying AM and ABC in its membrane.
type BS struct {
	Pattern    PatternKind
	Component  component.Component
	Manager    *manager.Manager
	Controller abc.Controller
	Stage      skel.Stage
	Children   []*BS
}

// newBSComponent builds the GCM composite of a BS with the manager and ABC
// installed as membrane NF interfaces, as in Fig. 2 (left).
func newBSComponent(name string, m *manager.Manager, ctrl abc.Controller) *component.Composite {
	comp := component.NewComposite(name)
	comp.Membrane().SetNF("manager", m)
	comp.Membrane().SetNF("abc", ctrl)
	return comp
}

// Result is the outcome of one application run: the autonomic event log
// plus the sampled series that the paper's figures plot.
type Result struct {
	Log        *trace.Log
	Throughput *metrics.Series // completed tasks/s (modelled)
	InputRate  *metrics.Series // tasks/s offered to the main farm
	Cores      *metrics.Series // allocated core slots (Fig. 4 bottom graph)
	Workers    *metrics.Series // farm parallelism degree
	Completed  int
	Elapsed    time.Duration // wall-clock duration of the run
	Final      contract.Snapshot
}

// App is a runnable behavioural-skeleton application: a stream source, a
// body of behavioural skeletons, a sink, the manager hierarchy and the
// optional multi-concern coordination.
type App struct {
	Name     string
	Env      skel.Env
	Platform *grid.Platform
	Log      *trace.Log

	Root        *BS
	RootManager *manager.Manager
	Source      *skel.Source
	Sink        *skel.Sink
	FarmABC     *abc.FarmABC // the principal farm, when the app has one
	Guard       *abc.Guard   // hardened actuator path wrapping FarmABC
	Auditor     *security.Auditor

	Security  *manager.SecurityManager
	GM        *manager.GeneralManager
	Fault     *manager.FaultManager
	Migration *manager.MigrationManager

	// Supervisors holds the restart supervisor of every management loop,
	// keyed by manager name (see supervision.go). The chaos soak and the
	// telemetry plane read restart counts and causes from it.
	Supervisors map[string]*runtime.Supervisor
	// concerns lists the concern managers' control loops in /managers
	// order; RunContext runs each under its own supervisor.
	concerns []concern

	// SamplePeriod is the sampling period of the result series, in
	// modelled time on Env.Clock. Default 500ms, the builders' default.
	SamplePeriod time.Duration
	// Grace is how long (modelled) to keep managers running after the sink
	// finishes, letting end-of-stream events (rebalance, endStream)
	// surface.
	Grace time.Duration

	stages []skel.Stage

	// Introspection plane (see telemetry.go): the registry and tracer are
	// assembled by the builders; the server exists only after
	// EnableTelemetry and is run by RunContext inside the management group.
	telemetry       *telemetry.Registry
	tracer          *telemetry.Tracer
	taskTracer      *telemetry.TaskTracer
	telemetryServer *telemetry.Server

	// Remote management plane (see AttachManagerLink /
	// AttachManagerEndpoint): child-side links reporting into this app and
	// parent-side endpoints tracking remote children.
	managerLinks     []*manager.RemoteLink
	managerEndpoints []*manager.ParentEndpoint

	// Self-healing plane (see supervision.go): the shared restart-downtime
	// histogram.
	mttr *metrics.Histogram
}

// concern is one concern manager's control loop (GM, AM_sec, AM_ft,
// AM_mig): its row in /managers and, once initSupervision has wired it,
// the supervisor RunContext runs it under.
type concern struct {
	loop interface {
		Name() string
		runtime.Runnable
	}
	kind  string // the /managers concern label
	state string // the /managers state
	sup   *runtime.Supervisor
}

// Contract installs the top-level SLA on the root manager (propagating
// sub-contracts down the hierarchy).
func (a *App) Contract(c contract.Contract) error {
	if a.RootManager == nil {
		return errors.New("core: application has no root manager")
	}
	return a.RootManager.AssignContract(c)
}

// ComponentTree returns the root of the GCM component view.
func (a *App) ComponentTree() component.Component {
	if a.Root == nil {
		return nil
	}
	return a.Root.Component
}

// Run executes the application to stream completion and returns the
// collected result. It is synchronous and may be called once. It is
// RunContext under a background context.
func (a *App) Run() (*Result, error) {
	return a.RunContext(context.Background())
}

// RunContext executes the application under ctx. The manager hierarchy,
// the concern managers and the result sampler all run as members of one
// supervised runtime.Group, so the whole management tree starts and tears
// down together and the first manager failure cancels its siblings.
//
// Canceling ctx triggers a graceful shutdown with drain-on-cancel
// semantics: the source stops emitting, the stages drain every task
// already accepted, and the managers keep supervising until the drain
// completes — the partial Result is returned, not discarded.
func (a *App) RunContext(ctx context.Context) (*Result, error) {
	if len(a.stages) == 0 || a.Sink == nil {
		return nil, errors.New("core: application is not assembled")
	}
	if ctx == nil {
		ctx = context.Background()
	}
	sample := a.SamplePeriod
	if sample <= 0 {
		sample = 500 * time.Millisecond
	}
	clock := simclock.Or(a.Env.Clock)

	res := &Result{
		Log:        a.Log,
		Throughput: metrics.NewSeries("throughput"),
		InputRate:  metrics.NewSeries("input rate"),
		Cores:      metrics.NewSeries("cores"),
		Workers:    metrics.NewSeries("workers"),
	}

	// The management plane: one supervised group for the manager
	// hierarchy, the concern managers and the sampler. It outlives the
	// stream (for the Grace window) and is canceled as one tree.
	mgmt, _ := runtime.NewGroup(context.Background())
	defer func() {
		mgmt.Cancel()
		_ = mgmt.Wait()
	}()
	if a.RootManager != nil {
		mgmt.Go(a.RootManager.RunTree)
	}
	if a.telemetryServer != nil {
		mgmt.Go(a.telemetryServer.Run)
	}
	for _, c := range a.concerns {
		mgmt.Go(c.sup.Run)
	}
	mgmt.Go(func(ctx context.Context) error { // sampler
		ticker := clock.NewTicker(sample)
		defer ticker.Stop()
		for {
			select {
			case <-ctx.Done():
				return nil
			case now := <-ticker.C():
				res.Throughput.Append(now, a.Sink.Rate())
				if a.FarmABC != nil {
					st := a.FarmABC.Stats()
					res.InputRate.Append(now, st.ArrivalRate)
					res.Workers.Append(now, float64(st.Workers))
				}
				if a.Platform != nil {
					res.Cores.Append(now, float64(a.Platform.RM.CoresInUse()))
				}
			}
		}
	})

	pipe, err := skel.NewPipe(a.Name, 16, a.stages...)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	pipeDone := make(chan struct{})
	go func() {
		defer close(pipeDone)
		pipe.Run(ctx, nil, nil)
	}()
	// The sink finishes either at natural stream completion or after a
	// cancelation drain (the source closes its output on cancel and the
	// stages drain what was accepted).
	<-a.Sink.Done()
	<-pipeDone
	if a.Grace > 0 && ctx.Err() == nil {
		// Keep managers running briefly so end-of-stream events
		// (rebalance, endStream) surface; skipped when canceled.
		select {
		case <-ctx.Done():
		case <-clock.After(a.Grace):
		}
	}
	res.Elapsed = time.Since(start)
	mgmt.Cancel()
	if err := mgmt.Wait(); err != nil {
		return res, err
	}

	res.Completed = a.Sink.Consumed()
	if a.FarmABC != nil {
		res.Final = a.FarmABC.Snapshot()
	} else if a.RootManager != nil {
		res.Final = a.RootManager.Controller().Snapshot()
	}
	return res, nil
}
