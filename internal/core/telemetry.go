package core

import (
	"repro/internal/manager"
	"repro/internal/metrics"
	"repro/internal/skel"
	"repro/internal/telemetry"
)

// This file assembles the introspection plane of an application: one
// telemetry.Registry collecting every layer's instruments (manager phase
// histograms, farm dispatch/seal latency, actuator round-trips, the
// platform and sink gauges), one telemetry.Tracer receiving a structured
// DecisionRecord per MAPE iteration, and — only when the -telemetry flag
// names an address — a telemetry.Server exposing them over HTTP.
//
// Measurement is always on: histograms and the decision trace are atomic,
// allocation-free or bounded, so the builders wire them unconditionally.
// The flag controls a single thing, the HTTP listener; without it no
// socket is bound and no telemetry goroutine runs.

// ManagerNode is one manager in the /managers hierarchy view.
type ManagerNode struct {
	Name         string                    `json:"name"`
	Concern      string                    `json:"concern,omitempty"`
	State        string                    `json:"state"`
	Contract     string                    `json:"contract,omitempty"`
	LastDecision *telemetry.DecisionRecord `json:"last_decision,omitempty"`
	// Self-healing surfaces: supervised restarts of this manager's loop,
	// the cause of the most recent one, and the child-side violation
	// buffer state across parent outages.
	Restarts           uint64 `json:"restarts,omitempty"`
	LastRestartCause   string `json:"last_restart_cause,omitempty"`
	BufferedViolations int    `json:"buffered_violations,omitempty"`
	ViolationDrops     uint64 `json:"violation_drops,omitempty"`
	// Remote management plane surfaces: the link's failure-detection state
	// (up/suspect/partitioned/reattached), reattach count and downtime
	// catch-up cycles of a manager reporting over a RemoteLink.
	Link           string         `json:"link,omitempty"`
	LinkReattaches uint64         `json:"link_reattaches,omitempty"`
	CatchUpCycles  uint64         `json:"catchup_cycles,omitempty"`
	Children       []*ManagerNode `json:"children,omitempty"`
}

// ManagersView is the /managers payload: the performance hierarchy plus
// the concern managers outside it.
type ManagersView struct {
	App      string         `json:"app"`
	Root     *ManagerNode   `json:"root,omitempty"`
	Concerns []*ManagerNode `json:"concerns,omitempty"`
	// Linked lists managers reporting to this app over a RemoteLink (the
	// child side of the remote management plane); Remote lists the remote
	// children a parent endpoint is tracking, with their lease state.
	Linked []*ManagerNode `json:"linked,omitempty"`
	Remote []*ManagerNode `json:"remote,omitempty"`
}

// Telemetry returns the application's instrument registry.
func (a *App) Telemetry() *telemetry.Registry { return a.telemetry }

// Tracer returns the application's decision tracer.
func (a *App) Tracer() *telemetry.Tracer { return a.tracer }

// TaskTracer returns the application's task-span tracer (nil unless the
// builder was configured with TraceSample > 0).
func (a *App) TaskTracer() *telemetry.TaskTracer { return a.taskTracer }

// EnableTelemetry binds the introspection HTTP server on addr (":0" for an
// ephemeral port) and arranges for RunContext to serve on it for the whole
// run. It returns the bound server so callers can print its address.
func (a *App) EnableTelemetry(addr string) (*telemetry.Server, error) {
	srv := telemetry.NewServer(addr, a.telemetry)
	if err := srv.Listen(); err != nil {
		return nil, err
	}
	a.telemetryServer = srv
	return srv, nil
}

// initTelemetry assembles the registry and tracer and attaches them to
// every layer of the application. The builders call it once the manager
// hierarchy and skeletons exist; farmIns carries the farm's hot-path
// histograms (nil when the app has no principal farm).
func (a *App) initTelemetry(farmIns *skel.FarmInstruments) {
	reg := telemetry.NewRegistry()
	tracer := telemetry.NewTracer(0)
	a.telemetry = reg
	a.tracer = tracer
	reg.SetTracer(tracer)
	reg.SetEventLog(a.Log)
	reg.SetTaskTracer(a.taskTracer) // nil-safe no-op when tracing is off

	a.eachManager(func(m *manager.Manager) {
		m.SetTracer(tracer)
		if a.taskTracer != nil {
			m.SetSpanRing(a.taskTracer.Ring())
		}
		ins := m.Instruments()
		for phase, h := range map[string]*metrics.Histogram{
			"sense":   ins.Sense,
			"analyze": ins.Analyze,
			"plan":    ins.Plan,
			"act":     ins.Act,
		} {
			reg.AddHistogram("repro_mape_phase_seconds",
				"Wall-clock latency of one MAPE phase.",
				telemetry.Labels{"manager": m.Name(), "phase": phase}, h)
		}
		reg.AddHistogram("repro_mape_wake_to_decision_seconds",
			"Latency from a skeleton edge to the decision it triggered.",
			telemetry.Labels{"manager": m.Name()}, ins.Wake)
		mm := m
		reg.AddCounter("repro_actuator_failures_total",
			"Actuator operations that failed after the hardened path gave up.",
			telemetry.Labels{"manager": m.Name()},
			func() float64 { return float64(mm.ActuatorFailures()) })
		reg.AddCounter("repro_violations_dropped_total",
			"Buffered child violations dropped oldest-first during a parent outage.",
			telemetry.Labels{"manager": m.Name()},
			func() float64 { return float64(mm.ViolationDrops()) })
		reg.AddGauge("repro_manager_buffered_violations",
			"Violations parked in the bounded buffer while the parent is unreachable.",
			telemetry.Labels{"manager": m.Name()},
			func() float64 { return float64(mm.BufferedViolations()) })
	})
	for name, sup := range a.Supervisors {
		s := sup
		reg.AddCounter("repro_manager_restarts_total",
			"Supervised restarts of a management loop after a crash or panic.",
			telemetry.Labels{"manager": name},
			func() float64 { return float64(s.Restarts()) })
	}
	if a.mttr != nil {
		reg.AddHistogram("repro_manager_mttr_seconds",
			"Modelled seconds between a management-loop failure and its supervised restart.",
			nil, a.mttr)
	}
	if a.GM != nil {
		a.GM.SetTracer(tracer) // and its security manager's
	}

	if farmIns != nil {
		reg.AddHistogram("repro_farm_dispatch_seconds",
			"Dispatcher latency per task (selection, encode, queue push).",
			nil, farmIns.Dispatch)
		reg.AddHistogram("repro_farm_seal_seconds",
			"Codec encode share of the dispatch path.",
			nil, farmIns.Seal)
	}
	if a.FarmABC != nil {
		actuator := metrics.NewLatencyHistogram()
		a.FarmABC.SetActuatorHistogram(actuator)
		reg.AddHistogram("repro_abc_actuator_seconds",
			"Round-trip latency of farm actuator operations.", nil, actuator)
		fa := a.FarmABC
		reg.AddGauge("repro_farm_workers", "Current farm parallelism degree.", nil,
			func() float64 { return float64(fa.Stats().Workers) })
		reg.AddGauge("repro_farm_arrival_rate", "Farm arrival rate (modelled tasks/s).", nil,
			func() float64 { return fa.Stats().ArrivalRate })
		reg.AddGauge("repro_farm_departure_rate", "Farm departure rate (modelled tasks/s).", nil,
			func() float64 { return fa.Stats().DepartureRate })
		reg.AddGauge("repro_farm_queue_variance", "Farm queue imbalance.", nil,
			func() float64 { return fa.Stats().QueueVariance })
	}
	if a.Sink != nil {
		sink := a.Sink
		reg.AddGauge("repro_sink_rate", "Completed-task rate at the sink (modelled tasks/s).", nil,
			func() float64 { return sink.Rate() })
		reg.AddCounter("repro_sink_consumed_total", "Tasks consumed by the sink.", nil,
			func() float64 { return float64(sink.Consumed()) })
	}
	if a.Guard != nil {
		g := a.Guard
		reg.AddCounter("repro_actuator_retries_total",
			"Actuator operations retried by the hardened path.", nil,
			func() float64 { return float64(g.Retries()) })
		reg.AddCounter("repro_actuator_timeouts_total",
			"Actuator operations that exceeded the per-op deadline.", nil,
			func() float64 { return float64(g.Timeouts()) })
	}
	if a.Fault != nil {
		ft := a.Fault
		reg.AddCounter("repro_actuator_failures_total",
			"Recruitment operations that failed after the retry budget.",
			telemetry.Labels{"manager": ft.Name()},
			func() float64 { return float64(ft.ActuatorFailures()) })
		reg.AddCounter("repro_nodes_quarantined_total",
			"Node circuit-breaker trips after repeated worker crashes.", nil,
			func() float64 { return float64(ft.Quarantined()) })
		reg.AddGauge("repro_fault_degraded",
			"1 while recruitment is exhausted and the concern runs degraded.", nil,
			func() float64 {
				if ft.Degraded() {
					return 1
				}
				return 0
			})
	}
	if a.Auditor != nil {
		aud := a.Auditor
		reg.AddCounter("repro_security_leaks_total",
			"Plaintext sends on bindings the policy requires to be secure.", nil,
			func() float64 { return float64(aud.Leaks()) })
		reg.AddCounter("repro_security_secured_total",
			"Sends that crossed their binding sealed.", nil,
			func() float64 { return float64(aud.Secured()) })
	}
	if a.FarmABC != nil {
		farm := a.FarmABC.Farm()
		reg.AddGauge("repro_farm_remote_workers",
			"Workers reached through a cross-process transport.", nil,
			func() float64 { return float64(farm.Stats().RemoteWorkers) })
	}
	if a.Platform != nil {
		rm := a.Platform.RM
		reg.AddGauge("repro_cores_in_use", "Allocated core slots on the platform.", nil,
			func() float64 { return float64(rm.CoresInUse()) })
	}

	reg.SetManagersFunc(func() any { return a.managersView() })
}

// AttachManagerLink registers a child-side remote management link with
// the introspection plane: /metrics gains the link's failure-detection
// state, reattach and catch-up counters and the linked manager's
// buffered-violation depth; /managers gains the manager under "linked".
// Call after the builder assembled the app (the registry exists then).
func (a *App) AttachManagerLink(l *manager.RemoteLink) {
	a.managerLinks = append(a.managerLinks, l)
	if a.telemetry == nil {
		return
	}
	ll := l
	name := l.Child().Name()
	a.telemetry.AddGauge("repro_manager_link_state",
		"Manager-link failure-detection state: 0 up, 1 suspect, 2 partitioned, 3 reattached.",
		telemetry.Labels{"manager": name},
		func() float64 { return float64(ll.State()) })
	a.telemetry.AddCounter("repro_manager_link_reattach_total",
		"Times the manager link re-established after a partition.",
		telemetry.Labels{"manager": name},
		func() float64 { return float64(ll.Reattaches()) })
	a.telemetry.AddCounter("repro_manager_catchup_cycles_total",
		"Downtime catch-up MAPE cycles run after link reattach.",
		telemetry.Labels{"manager": name},
		func() float64 { return float64(ll.Child().CatchUpCycles()) })
	a.telemetry.AddGauge("repro_manager_buffered_violations",
		"Violations parked in the bounded buffer while the parent is unreachable.",
		telemetry.Labels{"manager": name},
		func() float64 { return float64(ll.Child().BufferedViolations()) })
}

// AttachManagerEndpoint registers a parent-side management endpoint with
// the introspection plane: /metrics gains the endpoint's delivery and
// dedup counters, /managers lists its remote children with their lease
// state.
func (a *App) AttachManagerEndpoint(ep *manager.ParentEndpoint) {
	a.managerEndpoints = append(a.managerEndpoints, ep)
	if a.telemetry == nil {
		return
	}
	e := ep
	a.telemetry.AddCounter("repro_manager_link_delivered_total",
		"Violations accepted from remote children over the management plane.", nil,
		func() float64 { return float64(e.Delivered()) })
	a.telemetry.AddCounter("repro_manager_link_duplicates_total",
		"Duplicate violation reports suppressed by causality-id dedup.", nil,
		func() float64 { return float64(e.Duplicates()) })
	a.telemetry.AddGauge("repro_manager_link_children",
		"Remote child managers the endpoint has leases for.", nil,
		func() float64 { return float64(len(e.Children())) })
}

// eachManager visits every manager in the performance hierarchy.
func (a *App) eachManager(fn func(*manager.Manager)) {
	var walk func(m *manager.Manager)
	walk = func(m *manager.Manager) {
		if m == nil {
			return
		}
		fn(m)
		for _, c := range m.Children() {
			walk(c)
		}
	}
	walk(a.RootManager)
}

// managersView builds the /managers payload.
func (a *App) managersView() *ManagersView {
	var last map[string]telemetry.DecisionRecord
	if a.tracer != nil {
		last = a.tracer.LastByManager()
	}
	node := func(name, concern, state, contract string) *ManagerNode {
		n := &ManagerNode{Name: name, Concern: concern, State: state, Contract: contract}
		if rec, ok := last[name]; ok {
			n.LastDecision = &rec
		}
		if sup := a.Supervisors[name]; sup != nil {
			n.Restarts = sup.Restarts()
			n.LastRestartCause = sup.LastCause()
		}
		return n
	}
	var build func(m *manager.Manager) *ManagerNode
	build = func(m *manager.Manager) *ManagerNode {
		n := node(m.Name(), m.Concern(), m.State().String(), m.Contract().Describe())
		n.BufferedViolations = m.BufferedViolations()
		n.ViolationDrops = m.ViolationDrops()
		for _, c := range m.Children() {
			n.Children = append(n.Children, build(c))
		}
		return n
	}
	view := &ManagersView{App: a.Name}
	if a.RootManager != nil {
		view.Root = build(a.RootManager)
	}
	for _, c := range a.concerns {
		view.Concerns = append(view.Concerns, node(c.loop.Name(), c.kind, c.state, ""))
	}
	for _, l := range a.managerLinks {
		c := l.Child()
		n := node(c.Name(), c.Concern(), c.State().String(), c.Contract().Describe())
		n.Link = l.State().String()
		n.LinkReattaches = l.Reattaches()
		n.CatchUpCycles = c.CatchUpCycles()
		n.BufferedViolations = c.BufferedViolations()
		n.ViolationDrops = c.ViolationDrops()
		view.Linked = append(view.Linked, n)
	}
	for _, ep := range a.managerEndpoints {
		for _, child := range ep.Children() {
			state := "up"
			if ep.ChildPartitioned(child) {
				state = "partitioned"
			}
			view.Remote = append(view.Remote, &ManagerNode{Name: child, State: state, Link: state})
		}
	}
	return view
}
