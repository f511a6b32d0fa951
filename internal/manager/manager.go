// Package manager implements the active part of autonomic management: the
// autonomic managers (AMs) of the paper. A Manager runs the classical MAPE
// control loop — monitor via its ABC, analyse against its SLA contract,
// plan via its rule engine, execute through the ABC actuators — and plays
// the two roles of the P_rol problem: active (autonomously restoring its
// contract) and passive (only monitoring, reporting violations to its
// parent through the callback interface added in §4.2 and waiting for a
// new contract).
//
// Managers compose into hierarchies mirroring the behavioural-skeleton
// tree; contract propagation uses the P_spl splitting heuristics of
// internal/contract. Multi-concern coordination (a performance hierarchy
// plus a security manager under a general manager, with the two-phase
// intent/prepare/commit protocol of §3.2) lives in multiconcern.go.
package manager

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/abc"
	"repro/internal/contract"
	"repro/internal/metrics"
	"repro/internal/rules"
	"repro/internal/runtime"
	"repro/internal/simclock"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// State is a manager's autonomic role.
type State int

// Manager states (Fig. 1, right).
const (
	// Active: the manager autonomically tries to ensure its contract.
	Active State = iota
	// Passive: no locally fireable plan can restore the contract; the
	// manager only monitors and waits for a new contract.
	Passive
)

// String implements fmt.Stringer.
func (s State) String() string {
	if s == Passive {
		return "passive"
	}
	return "active"
}

// Violation is the message a manager sends its parent through the
// violation-callback interface when it cannot restore its contract with
// local actions.
type Violation struct {
	From     string // reporting manager name
	Tag      string // rules.TagNotEnoughTasks, rules.TagTooMuchTasks, ...
	Snapshot contract.Snapshot
	When     time.Time
	// CauseID is the telemetry causality id linking the child's decision
	// record to the parent's reaction (0 when decision tracing is off).
	CauseID uint64
}

// Policy collects the pluggable policy hooks of a manager. Zero-value
// hooks are simply skipped; mechanisms stay in the ABC.
type Policy struct {
	// OnContract applies a freshly assigned contract locally (rebuild the
	// rule engine from its bounds, retarget an emission rate, ...).
	OnContract func(m *Manager, c contract.Contract)
	// OnChildViolation reacts to a violation reported by a child (AM_A's
	// queues it as a ViolationBean for the Fig. 4 pipe rules).
	OnChildViolation func(m *Manager, v Violation)
	// Split derives the children's sub-contracts when a contract is
	// assigned (P_spl). n is the number of children.
	Split func(c contract.Contract, n int) ([]contract.Contract, error)
	// OnVerdict observes every analyse-phase contract verdict, violating
	// or not. Sentinel managers (cmd/workerd's remote child) use it to
	// escalate boolean violations that carry no rule-engine reaction.
	OnVerdict func(m *Manager, v contract.Verdict, snap contract.Snapshot)
}

// Config parameterizes a Manager.
type Config struct {
	Name    string
	Concern string // e.g. "performance", "security"
	Clock   simclock.Clock
	// Period is the control-loop period in the time of Clock: modelled
	// time when Clock is simclock.Scaled. Default 100ms.
	Period time.Duration
	// Controller is the manager's ABC (monitor + actuators). Required.
	Controller abc.Controller
	// Engine holds the manager's autonomic rules; nil for managers whose
	// behaviour is purely hierarchical coordination.
	Engine *rules.Engine
	// Policy hooks.
	Policy Policy
	// Log receives the manager's autonomic events. Required.
	Log *trace.Log
	// WarmUp suppresses the plan/execute phase (rule firing) for this
	// long after creation, in the time of Clock: acting before the sliding-
	// window sensors hold a full window's worth of samples makes the
	// manager chase measurement transients. Monitoring and verdict
	// logging stay on throughout.
	WarmUp time.Duration
	// Skew is the tolerance applied when the manager compares timestamps
	// that may originate on different processes (the warm-up window after
	// a cross-process checkpoint restore, link lease math). Nil installs a
	// per-manager tolerance of simclock.DefaultSkew.
	Skew *simclock.Tolerance
}

// Instruments are the phase-latency histograms of one MAPE loop, in
// wall-clock seconds. They are always collected: observation is atomic
// and allocation-free, and the loop runs at control frequency, so the
// cost is negligible. Wake records the wake-to-decision latency of
// edge-triggered iterations only.
type Instruments struct {
	Sense   *metrics.Histogram
	Analyze *metrics.Histogram
	Plan    *metrics.Histogram
	Act     *metrics.Histogram
	Wake    *metrics.Histogram
}

func newInstruments() Instruments {
	return Instruments{
		Sense:   metrics.NewLatencyHistogram(),
		Analyze: metrics.NewLatencyHistogram(),
		Plan:    metrics.NewLatencyHistogram(),
		Act:     metrics.NewLatencyHistogram(),
		Wake:    metrics.NewLatencyHistogram(),
	}
}

// Manager is one autonomic manager.
type Manager struct {
	cfg     Config
	clock   simclock.Clock
	log     *trace.Log
	created time.Time
	inst    Instruments
	skew    *simclock.Tolerance

	mu       sync.Mutex
	contract contract.Contract
	engine   *rules.Engine
	state    State
	parent   *Manager
	children []*Manager
	// link, when set, carries the child's violations to a parent in
	// another process; without one the in-process parent is reached
	// through a localLink (see Link).
	link Link

	violations chan Violation

	// tracer receives one DecisionRecord per RunOnce; set before the
	// control loop starts (SetTracer), read only by the loop goroutine.
	tracer *telemetry.Tracer
	// spanRing, when attached, links recently published task spans to the
	// causality id of each violation this manager raises, joining the
	// task-level trace to the decision chain that reacted to it.
	spanRing *telemetry.SpanRing
	// wakeStamp is the UnixNano of the oldest unserviced edge wake-up
	// (0 when none); written by skeleton goroutines, consumed by Run.
	wakeStamp atomic.Int64
	// actFailures counts actuator executions that failed (and were turned
	// into violations); exported at /metrics as actuator_failures.
	actFailures atomic.Uint64
	// escalations counts violations reported to the parent.
	escalations atomic.Uint64
	// cycleSeq counts completed MAPE cycles; ackedCycle is the parent's
	// delivery watermark over the link. Their difference at reattach sizes
	// the catch-up debt; catchUpCycles counts the cycles actually re-run.
	cycleSeq      atomic.Uint64
	ackedCycle    atomic.Uint64
	catchUpCycles atomic.Uint64

	// Self-healing state (selfheal.go): the chaos fault hook, the crashed
	// flag set between a crash wipe and the checkpoint replay, the last
	// checkpoint, the bounded buffer of violations raised while the parent
	// was down, and the lazily built restart supervisor.
	runFault      atomic.Pointer[func() RunFault]
	crashed       atomic.Bool
	checkpoint    Checkpoint // guarded by mu
	hasCheckpoint bool       // guarded by mu
	violBuf       []Violation
	violDrops     atomic.Uint64
	superMu       sync.Mutex
	superCfg      runtime.SupervisorConfig
	super         *runtime.Supervisor

	// per-RunOnce scratch (single goroutine)
	cycleLocalAction bool
	cycleViolation   bool
	cycleCatchUp     bool
	seenErrsDropped  uint64 // high-water mark of Snapshot.ErrorsDropped
	cycleOpen        bool
	cycleCause       uint64
	cycleActNs       int64
	cycleWakeNS      int64
	cycleEvents      []telemetry.EventRec
	cycleActions     []telemetry.ActionRec

	running atomic.Bool
	life    runtime.Lifecycle
}

// New validates cfg and builds a manager (initially active, with a
// best-effort contract).
func New(cfg Config) (*Manager, error) {
	if cfg.Name == "" {
		return nil, fmt.Errorf("manager: missing name")
	}
	if cfg.Controller == nil {
		return nil, fmt.Errorf("manager %s: missing controller", cfg.Name)
	}
	if cfg.Log == nil {
		return nil, fmt.Errorf("manager %s: missing trace log", cfg.Name)
	}
	cfg.Clock = simclock.Or(cfg.Clock)
	if cfg.Period <= 0 {
		cfg.Period = 100 * time.Millisecond
	}
	if cfg.Skew == nil {
		cfg.Skew = &simclock.Tolerance{Max: simclock.DefaultSkew}
	}
	return &Manager{
		cfg:        cfg,
		clock:      cfg.Clock,
		log:        cfg.Log,
		inst:       newInstruments(),
		skew:       cfg.Skew,
		contract:   contract.BestEffort{},
		engine:     cfg.Engine,
		violations: make(chan Violation, 256),
		created:    cfg.Clock.Now(),
	}, nil
}

// Instruments returns the manager's phase-latency histograms.
func (m *Manager) Instruments() Instruments { return m.inst }

// SetTracer attaches the decision tracer: every subsequent RunOnce emits
// one structured telemetry.DecisionRecord. Attach before the control loop
// starts; a nil tracer disables decision tracing (the default).
func (m *Manager) SetTracer(t *telemetry.Tracer) { m.tracer = t }

// Tracer returns the attached decision tracer (may be nil).
func (m *Manager) Tracer() *telemetry.Tracer { return m.tracer }

// SetSpanRing attaches the task-span ring: each violation this manager
// raises claims the most recent unattributed spans for its causality id,
// so /spans?cause=ID answers "which tasks were in flight when the
// contract broke". Attach before the control loop starts.
func (m *Manager) SetSpanRing(r *telemetry.SpanRing) { m.spanRing = r }

// Name returns the manager's name (e.g. "AM_F").
func (m *Manager) Name() string { return m.cfg.Name }

// Concern returns the non-functional concern the manager handles.
func (m *Manager) Concern() string { return m.cfg.Concern }

// Controller returns the manager's ABC.
func (m *Manager) Controller() abc.Controller { return m.cfg.Controller }

// ActuatorFailures returns how many actuator executions failed so far
// (each one was converted into an upward violation per §3.1).
func (m *Manager) ActuatorFailures() uint64 { return m.actFailures.Load() }

// Log returns the manager's trace log.
func (m *Manager) Log() *trace.Log { return m.log }

// State returns the manager's current role.
func (m *Manager) State() State {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.state
}

// Contract returns the currently installed contract.
func (m *Manager) Contract() contract.Contract {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.contract
}

// Parent returns the parent manager, or nil at the root.
func (m *Manager) Parent() *Manager {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.parent
}

// Children returns the child managers.
func (m *Manager) Children() []*Manager {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*Manager, len(m.children))
	copy(out, m.children)
	return out
}

// AttachChild links child under m in the management hierarchy.
func (m *Manager) AttachChild(child *Manager) {
	if child == nil || child == m {
		return
	}
	m.mu.Lock()
	m.children = append(m.children, child)
	m.mu.Unlock()
	child.mu.Lock()
	child.parent = m
	child.mu.Unlock()
}

// WarmUp returns the manager's warm-up window.
func (m *Manager) WarmUp() time.Duration {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.cfg.WarmUp
}

// SetWarmUp changes the warm-up window (time of the manager's clock since
// creation during which the rule engine does not fire).
func (m *Manager) SetWarmUp(d time.Duration) {
	m.mu.Lock()
	m.cfg.WarmUp = d
	m.mu.Unlock()
}

// warmUpDeadline is the instant the rule engine may start firing; Restore
// re-bases it so a restart observes exactly the checkpointed remainder.
func (m *Manager) warmUpDeadline() time.Time {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.created.Add(m.cfg.WarmUp)
}

// warmedUp reports whether the sensor warm-up window has elapsed. The
// elapsed-since-creation measurement goes through the skew tolerance:
// after a cross-process restore `created` may carry a peer clock slightly
// ahead of ours, and the small negative elapsed that produces must read
// as "just created" — not as a window that never opens.
func (m *Manager) warmedUp() bool {
	m.mu.Lock()
	created, warm := m.created, m.cfg.WarmUp
	m.mu.Unlock()
	return m.skew.Elapsed(created, m.clock.Now()) >= warm
}

// SkewClamps reports how many cross-process timestamp comparisons the
// manager's skew tolerance has absorbed.
func (m *Manager) SkewClamps() uint64 { return m.skew.Clamped() }

// SetEngine replaces the manager's rule engine (used when a new contract
// re-parameterizes the rules).
func (m *Manager) SetEngine(e *rules.Engine) {
	m.mu.Lock()
	m.engine = e
	m.mu.Unlock()
}

// Engine returns the current rule engine (may be nil).
func (m *Manager) Engine() *rules.Engine {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.engine
}

// AssignContract installs c, applies it locally through the OnContract
// hook, splits it over the children (P_spl) and recursively propagates the
// sub-contracts. Receiving a contract (re-)activates the manager.
func (m *Manager) AssignContract(c contract.Contract) error {
	if c == nil {
		return fmt.Errorf("manager %s: nil contract", m.cfg.Name)
	}
	m.mu.Lock()
	m.contract = c
	wasPassive := m.state == Passive
	m.state = Active
	children := make([]*Manager, len(m.children))
	copy(children, m.children)
	m.mu.Unlock()

	m.log.Record(m.clock.Now(), m.cfg.Name, trace.NewContr, c.Describe())
	if wasPassive {
		m.log.Record(m.clock.Now(), m.cfg.Name, trace.EnterActive, "new contract")
	}
	if m.cfg.Policy.OnContract != nil {
		m.cfg.Policy.OnContract(m, c)
	}
	if len(children) == 0 || m.cfg.Policy.Split == nil {
		return nil
	}
	subs, err := m.cfg.Policy.Split(c, len(children))
	if err != nil {
		return fmt.Errorf("manager %s: splitting %q: %w", m.cfg.Name, c.Describe(), err)
	}
	for i, child := range children {
		if err := child.AssignContract(subs[i]); err != nil {
			return err
		}
	}
	return nil
}

// deliver enqueues a child violation. A full queue refuses it with
// ErrParentBusy rather than blocking — a slow parent must not stall its
// children's control loops — and the refused child keeps it parked.
func (m *Manager) deliver(v Violation) error {
	select {
	case m.violations <- v:
		return nil
	default:
		return ErrParentBusy
	}
}

// event logs an autonomic event and, when a MAPE cycle is in flight on
// this goroutine, captures it into the cycle's decision record.
func (m *Manager) event(kind trace.Kind, detail string) {
	m.log.Record(m.clock.Now(), m.cfg.Name, kind, detail)
	if m.cycleOpen && m.tracer != nil {
		m.cycleEvents = append(m.cycleEvents, telemetry.EventRec{Kind: string(kind), Detail: detail})
	}
}

// noteAction captures one executed operation into the cycle's decision
// record.
func (m *Manager) noteAction(op, detail string, err error) {
	if !m.cycleOpen || m.tracer == nil {
		return
	}
	a := telemetry.ActionRec{Op: op, Detail: detail}
	if err != nil {
		a.Error = err.Error()
	}
	m.cycleActions = append(m.cycleActions, a)
}

// reportViolation sends a violation to the parent (or only logs it at the
// root) and marks this cycle as violation-raising. With tracing on, the
// violation carries the cycle's causality id (allocating one if this
// cycle has none yet), so the parent's reaction records chain to ours.
// Every report goes through the bounded buffer and is flushed at once,
// behind any violations still parked there, so the parent sees them in
// raise order. What the link does not take — parent crashed or
// partitioned, a drop mid-send, a full parent queue — stays parked for
// the next flush.
func (m *Manager) reportViolation(tag string, snap contract.Snapshot) {
	m.cycleViolation = true
	if m.cycleOpen && m.cycleCause == 0 && m.tracer != nil {
		m.cycleCause = m.tracer.NextCause()
	}
	if m.spanRing != nil && m.cycleCause != 0 {
		m.spanRing.AttachCause(m.cycleCause, 32)
	}
	m.event(trace.RaiseViol, tag)
	l := m.Link()
	if l == nil { // the root: nobody above to report to
		return
	}
	m.escalations.Add(1)
	v := Violation{
		From: m.cfg.Name, Tag: tag, Snapshot: snap,
		When: m.clock.Now(), CauseID: m.cycleCause,
	}
	m.flushBuffered(m.bufferViolation(v))
}

// Escalate forwards a violation up the hierarchy. Intermediate managers —
// like the inner pipeline AM of the §3.1 expression
// farm(pipeline(seq, farm(seq), seq)), which must "report to the AM of the
// outer, top level farm" — call it from their OnChildViolation policy when
// a child's violation cannot be absorbed at their level.
func (m *Manager) Escalate(tag string, snap contract.Snapshot) {
	m.reportViolation(tag, snap)
}

// FireOperation implements rules.Effector: it is how the plan phase's rule
// actions reach the execute phase. Violation raising goes to the parent;
// everything else is an ABC mechanism.
func (m *Manager) FireOperation(op string, act *rules.Activation) error {
	start := time.Now()
	defer func() { m.cycleActNs += int64(time.Since(start)) }()
	switch op {
	case rules.OpRaiseViolation:
		tag := act.LastData()
		switch tag {
		case rules.TagNotEnoughTasks:
			m.event(trace.NotEnough, "")
		case rules.TagTooMuchTasks:
			m.event(trace.TooMuch, "")
		}
		m.noteAction(op, tag, nil)
		m.reportViolation(tag, m.cfg.Controller.Snapshot())
		return nil
	default:
		detail, err := m.cfg.Controller.Execute(op)
		if err != nil {
			// Corrective action required but not possible: report a
			// violation upward instead (§3.1).
			m.actFailures.Add(1)
			m.noteAction(op, "", err)
			m.reportViolation(op+"_failed: "+err.Error(), m.cfg.Controller.Snapshot())
			return nil
		}
		m.cycleLocalAction = true
		m.noteAction(op, detail, nil)
		switch op {
		case rules.OpAddExecutor:
			m.event(trace.AddWorker, detail)
		case rules.OpRemoveExecutor:
			m.event(trace.RemWorker, detail)
		case rules.OpBalanceLoad:
			m.event(trace.Rebalance, detail)
		default:
			m.event(trace.Kind(op), detail)
		}
		return nil
	}
}

// RunOnce performs one MAPE iteration. It is exported so that tests and
// deterministic experiments can drive the loop explicitly. Each iteration
// observes its phase latencies into Instruments and — when a tracer is
// attached — emits one telemetry.DecisionRecord.
func (m *Manager) RunOnce() error {
	m.cycleLocalAction = false
	m.cycleViolation = false
	m.cycleCause = 0
	m.cycleActNs = 0
	m.cycleEvents = m.cycleEvents[:0]
	m.cycleActions = m.cycleActions[:0]
	m.cycleOpen = true
	defer func() { m.cycleOpen = false }()
	wakeNS := m.cycleWakeNS
	m.cycleWakeNS = 0

	// Re-deliver violations parked during a parent outage before reacting
	// to the live ones, preserving arrival order at the parent.
	m.flushBuffered(false)

	// React to child violations first (hierarchical coordination). The
	// first child violation's causality id is inherited, so the reaction's
	// decision record chains to the child's.
	drainStart := time.Now()
	for {
		select {
		case v := <-m.violations:
			if m.cycleCause == 0 {
				m.cycleCause = v.CauseID
			}
			if m.cfg.Policy.OnChildViolation != nil {
				m.cfg.Policy.OnChildViolation(m, v)
			}
		default:
			goto drained
		}
	}
drained:
	drainDur := time.Since(drainStart)

	// Monitor.
	senseStart := time.Now()
	snap := m.cfg.Controller.Snapshot()
	m.inst.Sense.ObserveDuration(time.Since(senseStart))

	// Analyse: verdict logging (the contrLow events of Fig. 4).
	analyzeStart := time.Now()
	if snap.ErrorsDropped > m.seenErrsDropped {
		// Runtime errors overflowed the skeleton's error buffer since the
		// last cycle: make the loss visible in the trace instead of silent.
		m.event(trace.ErrsDropped,
			fmt.Sprintf("+%d (total %d)", snap.ErrorsDropped-m.seenErrsDropped, snap.ErrorsDropped))
		m.seenErrsDropped = snap.ErrorsDropped
	}
	verdict := m.Contract().Check(snap)
	switch verdict {
	case contract.ViolatedLow:
		m.event(trace.ContrLow, fmt.Sprintf("tp=%.3f", snap.Throughput))
	case contract.ViolatedHigh:
		m.event(trace.ContrHigh, fmt.Sprintf("tp=%.3f", snap.Throughput))
	case contract.Violated:
		m.event(trace.ContrLow, "boolean concern violated")
	}
	if m.cfg.Policy.OnVerdict != nil {
		m.cfg.Policy.OnVerdict(m, verdict, snap)
	}
	analyzeDur := time.Since(analyzeStart)
	m.inst.Analyze.ObserveDuration(analyzeDur)

	// Plan + execute via the rule engine (skipped during sensor warm-up).
	// FireOperation accumulates execute time into cycleActNs, so the act
	// share can be subtracted from the engine cycle to isolate planning.
	var ruleEvals []telemetry.RuleEval
	engStart := time.Now()
	engine := m.Engine()
	if engine != nil && m.warmedUp() {
		if m.tracer != nil {
			_, verdicts, err := engine.CycleExplain(m.cfg.Controller.Beans(), m, 0)
			for _, v := range verdicts {
				ruleEvals = append(ruleEvals, telemetry.RuleEval{
					Rule: v.Rule, Fired: v.Fired, Failed: v.FailingPattern,
				})
			}
			if err != nil {
				return fmt.Errorf("manager %s: %w", m.cfg.Name, err)
			}
		} else if _, err := engine.Cycle(m.cfg.Controller.Beans(), m); err != nil {
			return fmt.Errorf("manager %s: %w", m.cfg.Name, err)
		}
	}
	engDur := time.Since(engStart)
	actDur := time.Duration(m.cycleActNs)
	planDur := drainDur + engDur - actDur
	if planDur < 0 {
		planDur = 0
	}
	m.inst.Plan.ObserveDuration(planDur)
	m.inst.Act.ObserveDuration(actDur)

	// Role transition (P_rol): passive iff the only reaction available
	// was raising a violation.
	m.mu.Lock()
	var transition trace.Kind
	if m.cycleViolation && !m.cycleLocalAction {
		if m.state == Active {
			transition = trace.EnterPass
		}
		m.state = Passive
	} else if m.cycleLocalAction {
		if m.state == Passive {
			transition = trace.EnterActive
		}
		m.state = Active
	}
	m.mu.Unlock()
	if transition != "" {
		m.event(transition, "")
	}

	if wakeNS != 0 {
		m.inst.Wake.Observe(time.Since(time.Unix(0, wakeNS)).Seconds())
	}
	if m.tracer != nil {
		rec := telemetry.DecisionRecord{
			T:        m.clock.Now(),
			Manager:  m.cfg.Name,
			Concern:  m.cfg.Concern,
			State:    m.State().String(),
			Cause:    m.cycleCause,
			Snapshot: snap,
			Verdict:  verdict.String(),
			CatchUp:  m.cycleCatchUp,
			Rules:    ruleEvals,
			Phases: telemetry.PhaseNanos{
				Sense:   int64(analyzeStart.Sub(senseStart)),
				Analyze: int64(analyzeDur),
				Plan:    int64(planDur),
				Act:     int64(actDur),
			},
		}
		if len(m.cycleActions) > 0 {
			rec.Actions = append([]telemetry.ActionRec(nil), m.cycleActions...)
		}
		if len(m.cycleEvents) > 0 {
			rec.Events = append([]telemetry.EventRec(nil), m.cycleEvents...)
		}
		if wakeNS != 0 {
			rec.WakeNs = time.Now().UnixNano() - wakeNS
		}
		m.tracer.Record(rec)
	}
	// Persist the autonomic state this cycle ended in: the restart path
	// replays the latest completed MAPE cycle, never a partial one. The
	// cycle counter moves first so the checkpointed watermark covers it.
	m.cycleSeq.Add(1)
	m.takeCheckpoint()
	return nil
}

// Run executes the MAPE control loop until ctx is canceled, then returns
// nil (clean shutdown). Iterations are triggered by the periodic tick and
// — when the controller implements abc.WakeSource — by skeleton edges
// (worker crash, end of stream), which wake the loop immediately instead
// of after up to one full period. RunOnce errors are logged and the loop
// continues: a bad rule cycle must not kill supervision. Run returns an
// error immediately if the loop is already running.
func (m *Manager) Run(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if !m.running.CompareAndSwap(false, true) {
		return fmt.Errorf("manager %s: control loop already running", m.cfg.Name)
	}
	defer m.running.Store(false)

	// Restart path: replay the checkpoint before the first cycle so the
	// loop resumes enforcing the pre-crash contract, re-attached to its
	// parent.
	m.recoverIfCrashed()

	var wake runtime.Notifier
	if ws, ok := m.cfg.Controller.(abc.WakeSource); ok {
		// Stamp the oldest unserviced edge so RunOnce can report the
		// wake-to-decision latency (the edge-notifier claim of the paper's
		// "react within a control period" argument, made measurable).
		defer ws.OnEdge(func() {
			m.wakeStamp.CompareAndSwap(0, time.Now().UnixNano())
			wake.Notify()
		})()
	}
	ticker := m.clock.NewTicker(m.cfg.Period)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return nil
		case <-ticker.C():
		case <-wake.C():
		}
		// Chaos fault hook (nil-gated): stall freezes the loop, panic and
		// crash kill it — the supervisor converts, restarts and replays.
		if fp := m.runFault.Load(); fp != nil {
			f := (*fp)()
			if f.Stall > 0 {
				select {
				case <-ctx.Done():
					return nil
				case <-m.clock.After(f.Stall):
				}
			}
			if f.Panic {
				panic(fmt.Sprintf("manager %s: injected panic", m.cfg.Name))
			}
			if f.Crash {
				m.Crash()
				return fmt.Errorf("manager %s: %w", m.cfg.Name, ErrInjectedCrash)
			}
		}
		if ns := m.wakeStamp.Swap(0); ns != 0 {
			m.cycleWakeNS = ns
		}
		if err := m.RunOnce(); err != nil {
			m.log.Record(m.clock.Now(), m.cfg.Name, trace.Kind("error"), err.Error())
		}
		// A link reattach may owe catch-up cycles covering the partition
		// window; they run here, distinctly flagged in the trace.
		m.runCatchUp(ctx)
	}
}

// RunTree runs the control loops of m and all its descendants as one
// supervised group under ctx. Every loop runs under the manager's restart
// Supervisor, so a crashed or panicking member is restarted (replaying its
// checkpoint) instead of taking the tree down; only a terminal give-up —
// the restart budget exhausted — cancels the siblings. RunTree returns
// once all loops have exited.
func (m *Manager) RunTree(ctx context.Context) error {
	g, _ := runtime.NewGroup(ctx)
	m.treeGo(g)
	return g.Wait()
}

func (m *Manager) treeGo(g *runtime.Group) {
	g.Go(m.Supervisor().Run)
	for _, c := range m.Children() {
		c.treeGo(g)
	}
}

// Start launches the control loop on a background goroutine. Stop it with
// Stop; Start again after Stop is allowed. A second Start while running is
// a no-op.
func (m *Manager) Start() { m.life.Start(m.Run) }

// Stop terminates the control loop and waits for it to exit. It is
// idempotent.
func (m *Manager) Stop() { _ = m.life.Stop() }

// StartTree starts the control loops of m and all its descendants.
func (m *Manager) StartTree() {
	m.Start()
	for _, c := range m.Children() {
		c.StartTree()
	}
}

// StopTree stops the control loops of m and all its descendants.
func (m *Manager) StopTree() {
	for _, c := range m.Children() {
		c.StopTree()
	}
	m.Stop()
}
