package manager

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/abc"
	"repro/internal/grid"
	"repro/internal/rules"
	"repro/internal/security"
	"repro/internal/simclock"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

// This file implements the multi-concern (MM) management scheme of §3.2:
// one hierarchy per concern — here performance (the Managers of this
// package) and security (SecurityManager) — coordinated by a general
// manager (GeneralManager) that arbitrates cross-concern actions with the
// two-phase protocol: (i) AM_perf expresses the *intent* to add a worker,
// (ii) AM_sec reacts by securing the new binding, (iii) AM_perf commits
// and only then does the worker receive tasks.

// CoordinationMode selects how the security concern is enforced when the
// performance manager reconfigures the farm.
type CoordinationMode int

// Coordination modes.
const (
	// TwoPhase is the paper's protocol: bindings are secured before the
	// new worker can receive any task. Zero leaks by construction.
	TwoPhase CoordinationMode = iota
	// Reactive is the naive scheme §3.2 warns about: AM_perf commits by
	// itself and AM_sec secures the binding on its next control cycle;
	// messages sent in between are exposed.
	Reactive
	// Unmanaged disables the security manager entirely (baseline).
	Unmanaged
)

// String implements fmt.Stringer.
func (m CoordinationMode) String() string {
	switch m {
	case TwoPhase:
		return "two-phase"
	case Reactive:
		return "reactive"
	default:
		return "unmanaged"
	}
}

// SecurityConfig parameterizes a SecurityManager.
type SecurityConfig struct {
	Name  string // default "AM_sec"
	Clock simclock.Clock
	Log   *trace.Log
	// Policy decides which bindings must be secured.
	Policy security.Policy
	// DispatchNode anchors the policy checks (where S/C run). Optional.
	DispatchNode *grid.Node
	// Key is the session key for secured bindings (default: random).
	Key []byte
	// Handshake is the simulated SSL session-establishment latency paid
	// by each newly secured binding.
	Handshake time.Duration
	// Period is the reactive-mode control-loop period.
	Period time.Duration
}

// SecurityManager is the AM of the security concern C_sec. In two-phase
// mode it acts during the prepare step of farm reconfigurations; in
// reactive mode its control loop scans the watched farms for bindings that
// violate the policy. That loop is deliberately tick-only: farms fire no
// edge on worker *addition*, so a reactively managed binding stays exposed
// until the next security cycle — exactly the §3.2 hazard window the
// MultiConcern experiment measures.
type SecurityManager struct {
	loop
	cfg    SecurityConfig
	tracer *telemetry.Tracer

	mu      sync.Mutex
	secured int

	// downUntil (clock UnixNano) is the end of the current crash window:
	// while set in the future the manager is "dead" — prepare requests are
	// refused with abc.ErrManagerDown and the reactive scan is suspended.
	// The window models the gap between the process dying and its
	// supervised replacement accepting requests again.
	downUntil atomic.Int64
	crashes   atomic.Uint64
}

// NewSecurityManager validates cfg and builds the manager.
func NewSecurityManager(cfg SecurityConfig) (*SecurityManager, error) {
	if cfg.Log == nil {
		return nil, fmt.Errorf("manager: security manager needs a trace log")
	}
	if cfg.Name == "" {
		cfg.Name = "AM_sec"
	}
	cfg.Clock = simclock.Or(cfg.Clock)
	if len(cfg.Key) == 0 {
		cfg.Key = security.NewRandomKey()
	}
	if cfg.Period <= 0 {
		cfg.Period = 100 * time.Millisecond
	}
	s := &SecurityManager{
		loop: loop{name: cfg.Name, clock: cfg.Clock, log: cfg.Log, period: cfg.Period},
		cfg:  cfg,
	}
	s.cycle = func() { s.RunOnce() }
	return s, nil
}

// SetTracer attaches the decision tracer; a nil tracer disables decision
// tracing (the default).
func (s *SecurityManager) SetTracer(t *telemetry.Tracer) { s.tracer = t }

// Secured returns how many bindings this manager has secured so far.
func (s *SecurityManager) Secured() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.secured
}

// newCodec builds a fresh secure codec paying the configured handshake.
func (s *SecurityManager) newCodec() (security.Codec, error) {
	return security.NewAESGCM(s.cfg.Key, s.clock, s.cfg.Handshake)
}

// FailFor kills the manager for d of its clock's time: the chaos plane's
// manager-crash fault for the two-phase participant. Until the window
// elapses (the supervised restart coming back up), every prepare request
// is refused with abc.ErrManagerDown and the reactive scan is suspended.
func (s *SecurityManager) FailFor(d time.Duration) {
	if d <= 0 {
		return
	}
	s.downUntil.Store(s.clock.Now().Add(d).UnixNano())
	s.crashes.Add(1)
	s.log.Record(s.clock.Now(), s.name, trace.Crashed,
		fmt.Sprintf("down for %v", d))
}

// Available reports whether the manager is up (not inside a crash window).
func (s *SecurityManager) Available() bool {
	until := s.downUntil.Load()
	return until == 0 || s.clock.Now().UnixNano() >= until
}

// Crashes returns how many crash windows have been injected.
func (s *SecurityManager) Crashes() uint64 { return s.crashes.Load() }

// PrepareWorker is the manager's contribution to the two-phase protocol:
// called between recruitment and first dispatch, it secures the binding if
// the policy requires it.
func (s *SecurityManager) PrepareWorker(id string, node *grid.Node, setCodec func(security.Codec)) error {
	return s.prepareWorker(0, id, node, setCodec)
}

// prepareWorker is PrepareWorker carrying the coordinator's causality id,
// so the AM_sec prepare record chains to the GM intent/commit records.
func (s *SecurityManager) prepareWorker(cause uint64, id string, node *grid.Node, setCodec func(security.Codec)) error {
	if !s.Available() {
		return fmt.Errorf("manager %s: preparing %s: %w", s.name, id, abc.ErrManagerDown)
	}
	if !s.cfg.Policy.RequireSecure(s.cfg.DispatchNode, node) {
		return nil
	}
	codec, err := s.newCodec()
	if err != nil {
		return fmt.Errorf("manager %s: securing %s: %w", s.name, id, err)
	}
	if !s.Available() {
		// Died mid-handshake: the binding must not be half-secured — the
		// codec is discarded, the coordinator aborts, the farm rolls the
		// worker back before it could receive a single task.
		return fmt.Errorf("manager %s: died securing %s: %w", s.name, id, abc.ErrManagerDown)
	}
	setCodec(codec)
	s.mu.Lock()
	s.secured++
	s.mu.Unlock()
	detail := fmt.Sprintf("%s on %s (%s)", id, node.ID, node.Domain.Name)
	s.log.Record(s.clock.Now(), s.name, trace.Prepared, detail)
	s.log.Record(s.clock.Now(), s.name, trace.Secured, id)
	if s.tracer != nil {
		s.tracer.Record(telemetry.DecisionRecord{
			T: s.clock.Now(), Manager: s.name, Concern: "security",
			State: "active", Cause: cause,
			Actions: []telemetry.ActionRec{{Op: "SECURE_BINDING", Detail: id}},
			Events: []telemetry.EventRec{
				{Kind: string(trace.Prepared), Detail: detail},
				{Kind: string(trace.Secured), Detail: id},
			},
		})
	}
	return nil
}

// RunOnce performs one reactive control cycle: every watched binding that
// the policy requires to be secure but is not gets rebound onto the secure
// codec. It returns the number of bindings secured this cycle.
func (s *SecurityManager) RunOnce() int {
	if !s.Available() {
		return 0
	}
	n := 0
	var acts []telemetry.ActionRec
	for _, f := range s.watched() {
		for _, w := range f.Workers() {
			if w.Secure || !s.cfg.Policy.RequireSecure(s.cfg.DispatchNode, w.Node) {
				continue
			}
			codec, err := s.newCodec()
			if err != nil {
				continue
			}
			if err := f.SecureBinding(w.ID, codec); err != nil {
				continue
			}
			n++
			s.mu.Lock()
			s.secured++
			s.mu.Unlock()
			s.log.Record(s.clock.Now(), s.name, trace.Secured,
				fmt.Sprintf("%s (reactive)", w.ID))
			if s.tracer != nil {
				acts = append(acts, telemetry.ActionRec{Op: "SECURE_BINDING", Detail: w.ID + " (reactive)"})
			}
		}
	}
	if s.tracer != nil && n > 0 {
		s.tracer.Record(telemetry.DecisionRecord{
			T: s.clock.Now(), Manager: s.name, Concern: "security",
			State: "active", Actions: acts,
		})
	}
	return n
}

// SecurityParticipant is the GM's two-phase participant seam: the local
// SecurityManager by default, or a RemoteParticipant when the security
// concern lives across a manager link. The GM's abort/re-issue machinery
// is written against this interface, so a partitioned link and a crashed
// local manager take the same ErrManagerDown path.
type SecurityParticipant interface {
	Name() string
	Available() bool
	prepareWorker(cause uint64, id string, node *grid.Node, setCodec func(security.Codec)) error
}

// GeneralManager is the GM of §3.2: it wires the cross-concern
// coordination protocol into the farms' actuator paths. Its own control
// loop (default period 100ms, in the time of its clock) re-issues aborted
// two-phase intents once the participant is back. The security manager's
// reactive scan is a loop of its own, supervised beside the GM's.
type GeneralManager struct {
	loop
	sec    *SecurityManager
	part   SecurityParticipant // two-phase participant; defaults to sec
	mode   CoordinationMode
	tracer *telemetry.Tracer

	// pending counts two-phase intents aborted because the participant was
	// down, per farm; the GM's loop re-issues them once the participant is
	// back. This is the GM's durable intent log: an injected GM crash does
	// not wipe it, the supervised restart resumes the re-issue duty.
	pendingMu sync.Mutex
	pending   map[*abc.FarmABC]int
	aborted   atomic.Uint64
	reissued  atomic.Uint64
}

// maxPendingIntents caps the per-farm re-issue backlog: during a long
// participant outage the performance manager keeps re-sensing and
// re-intending, and replaying every one of those after recovery would
// overshoot the topology the contract actually needs.
const maxPendingIntents = 4

// NewGeneralManager builds a GM over the given security manager.
func NewGeneralManager(name string, sec *SecurityManager, log *trace.Log, clock simclock.Clock, mode CoordinationMode) (*GeneralManager, error) {
	if log == nil {
		return nil, fmt.Errorf("manager: general manager needs a trace log")
	}
	if name == "" {
		name = "GM"
	}
	clock = simclock.Or(clock)
	if sec == nil && mode == Reactive {
		return nil, fmt.Errorf("manager: %s coordination needs a security manager", mode)
	}
	g := &GeneralManager{
		loop:    loop{name: name, clock: clock, log: log, period: 100 * time.Millisecond},
		sec:     sec,
		mode:    mode,
		pending: map[*abc.FarmABC]int{},
	}
	g.cycle = func() { g.ReissueOnce() }
	if sec != nil {
		g.part = sec
	}
	return g, nil
}

// SetParticipant replaces the GM's two-phase participant — the seam that
// routes prepare/commit over a manager link instead of the in-process
// SecurityManager. Call before Coordinate/Run.
func (g *GeneralManager) SetParticipant(p SecurityParticipant) {
	if p != nil {
		g.part = p
	}
}

// Participant returns the two-phase participant in force.
func (g *GeneralManager) Participant() SecurityParticipant { return g.part }

// SetPeriod changes the GM loop period, in the time of the GM's clock
// (modelled time on a simclock.Scaled clock). Call before Run.
func (g *GeneralManager) SetPeriod(d time.Duration) {
	if d > 0 {
		g.period = d
	}
}

// Mode returns the coordination mode in force.
func (g *GeneralManager) Mode() CoordinationMode { return g.mode }

// SetTracer attaches the decision tracer to the GM and its security
// manager; a nil tracer disables decision tracing (the default).
func (g *GeneralManager) SetTracer(t *telemetry.Tracer) {
	g.tracer = t
	if g.sec != nil {
		g.sec.SetTracer(t)
	}
}

// decision emits one GM coordination record (no-op without a tracer).
func (g *GeneralManager) decision(cause uint64, kind trace.Kind, detail string) {
	if g.tracer == nil {
		return
	}
	g.tracer.Record(telemetry.DecisionRecord{
		T: g.clock.Now(), Manager: g.name, Concern: "coordination",
		State: "active", Cause: cause,
		Events: []telemetry.EventRec{{Kind: string(kind), Detail: detail}},
	})
}

// Coordinate installs the coordination protocol on a farm's actuator path.
// In TwoPhase mode every ADD_EXECUTOR goes intent -> prepare (security) ->
// commit; in Reactive mode the security manager merely watches the farm;
// in Unmanaged mode nothing is installed.
func (g *GeneralManager) Coordinate(farm *abc.FarmABC) {
	switch g.mode {
	case TwoPhase:
		if g.part == nil {
			g.log.Record(g.clock.Now(), g.name, trace.Kind("error"),
				"two-phase coordination without a participant; farm left unmanaged")
			return
		}
		farm.SetPrepare(func(id string, node *grid.Node, setCodec func(security.Codec)) error {
			// One causality id spans the whole intent -> prepare -> commit
			// chain, so /trace?cause=N reconstructs the protocol run.
			var cause uint64
			if g.tracer != nil {
				cause = g.tracer.NextCause()
			}
			detail := fmt.Sprintf("add %s on %s (%s)", id, node.ID, node.Domain.Name)
			g.log.Record(g.clock.Now(), g.name, trace.Intent, detail)
			g.decision(cause, trace.Intent, detail)
			if err := g.part.prepareWorker(cause, id, node, setCodec); err != nil {
				// Abort: the farm rolls the prepared worker back (node
				// released, never dispatched to), so no plaintext binding
				// can survive the failure. A participant-down abort is
				// additionally recorded for re-issue after recovery.
				g.log.Record(g.clock.Now(), g.name, trace.Aborted, err.Error())
				g.decision(cause, trace.Aborted, err.Error())
				if errors.Is(err, abc.ErrManagerDown) {
					g.recordAbort(farm)
				}
				return err
			}
			g.log.Record(g.clock.Now(), g.name, trace.Committed, id)
			g.decision(cause, trace.Committed, id)
			return nil
		})
	case Reactive:
		g.sec.Watch(farm)
	case Unmanaged:
		// baseline: no security enforcement at all
	}
}

// recordAbort notes one participant-down abort for farm, bounded by
// maxPendingIntents per farm.
func (g *GeneralManager) recordAbort(farm *abc.FarmABC) {
	g.aborted.Add(1)
	g.pendingMu.Lock()
	if g.pending[farm] < maxPendingIntents {
		g.pending[farm]++
	}
	g.pendingMu.Unlock()
}

// AbortedIntents returns how many two-phase intents were aborted because
// the participant manager was down.
func (g *GeneralManager) AbortedIntents() uint64 { return g.aborted.Load() }

// ReissuedIntents returns how many aborted intents were re-issued (and
// committed) after the participant recovered. Always ≤ AbortedIntents.
func (g *GeneralManager) ReissuedIntents() uint64 { return g.reissued.Load() }

// PendingIntents returns how many aborted intents still await re-issue.
func (g *GeneralManager) PendingIntents() int {
	g.pendingMu.Lock()
	defer g.pendingMu.Unlock()
	n := 0
	for _, k := range g.pending {
		n += k
	}
	return n
}

// ReissueOnce re-drives aborted intents while the participant is up: each
// one re-runs the full intent -> prepare -> commit ladder through the
// farm's actuator path (recruiting a fresh node — the rolled-back one may
// be gone). A participant flapping down again stops the round; intents the
// farm can no longer service (stream ended, pool exhausted) are dropped.
// It returns how many intents committed.
func (g *GeneralManager) ReissueOnce() int {
	if g.mode != TwoPhase || (g.part != nil && !g.part.Available()) {
		return 0
	}
	g.pendingMu.Lock()
	farms := make([]*abc.FarmABC, 0, len(g.pending))
	for f, n := range g.pending {
		if n > 0 {
			farms = append(farms, f)
		}
	}
	g.pendingMu.Unlock()
	total := 0
	for _, f := range farms {
		for {
			g.pendingMu.Lock()
			n := g.pending[f]
			g.pendingMu.Unlock()
			if n <= 0 {
				break
			}
			detail, err := f.Execute(rules.OpAddExecutor)
			if err != nil {
				if errors.Is(err, abc.ErrManagerDown) {
					return total // participant flapped; retry next tick
				}
				g.pendingMu.Lock()
				g.pending[f]--
				g.pendingMu.Unlock()
				g.log.Record(g.clock.Now(), g.name, trace.Aborted,
					"re-issue dropped: "+err.Error())
				continue
			}
			g.pendingMu.Lock()
			g.pending[f]--
			g.pendingMu.Unlock()
			g.reissued.Add(1)
			g.log.Record(g.clock.Now(), g.name, trace.Reissued, detail)
			g.decision(0, trace.Reissued, detail)
			total++
		}
	}
	return total
}
