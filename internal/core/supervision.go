package core

import (
	"time"

	"repro/internal/manager"
	"repro/internal/metrics"
	"repro/internal/runtime"
	"repro/internal/trace"
)

// This file wires the self-healing layer of the management plane: every
// manager loop — the performance hierarchy and the concern managers — runs
// under a runtime.Supervisor, so a crashed or panicking manager is
// restarted (replaying its checkpoint, see internal/manager/selfheal.go)
// instead of silently leaving its concern unenforced. One shared MTTR
// histogram observes the downtime of every restart, and the supervisors
// are collected in App.Supervisors so telemetry (and the chaos soak) can
// read restart counts and causes per manager.

// initSupervision builds the supervisors for every management loop. jit,
// when non-nil, seeds the restart-backoff jitter (and is the same source
// the actuator guard and recruitment retries draw from), keeping the whole
// retry plane a pure function of the plan seed. Must run before
// initTelemetry so the registry can export the supervisor counters.
func (a *App) initSupervision(jit func() float64) {
	clock := a.Env.Clock
	a.mttr = metrics.NewLatencyHistogram()
	a.Supervisors = make(map[string]*runtime.Supervisor)
	backoff := runtime.Backoff{Rand: jit}
	observe := func(cause error, downtime time.Duration) {
		a.mttr.ObserveDuration(downtime)
	}

	a.eachManager(func(m *manager.Manager) {
		m.SetSupervision(runtime.SupervisorConfig{
			Backoff:   backoff,
			OnRestart: observe,
		})
		a.Supervisors[m.Name()] = m.Supervisor()
	})

	for i := range a.concerns {
		c := &a.concerns[i]
		name := c.loop.Name()
		c.sup = runtime.NewSupervisor(c.loop, runtime.SupervisorConfig{
			Name:    name,
			Clock:   clock,
			Backoff: backoff,
			OnRestart: func(cause error, downtime time.Duration) {
				a.Log.Record(clock.Now(), name, trace.Restarted, cause.Error())
				observe(cause, downtime)
			},
		})
		a.Supervisors[name] = c.sup
	}
}

// ManagerMTTR returns the shared restart-downtime histogram (nil before
// supervision is wired).
func (a *App) ManagerMTTR() *metrics.Histogram { return a.mttr }
