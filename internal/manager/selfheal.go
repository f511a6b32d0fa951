// Self-healing of the management plane itself: the paper's hierarchy
// assumes the managers are reliable — a crashed AM silently leaves its
// sub-contract unenforced. This file makes manager failure a first-class,
// recoverable event: every control loop runs under a runtime.Supervisor
// (see RunTree / core.App), checkpoints its autonomic state after each
// MAPE cycle, and replays the checkpoint on restart, re-attaching to the
// hierarchy by asking its parent to re-split the live contract (P_spl).
// While a parent is down, child violations are buffered in a bounded
// drop-oldest queue and re-delivered on recovery — over the same Link
// whether the parent is in-process or remote.
package manager

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/contract"
	"repro/internal/runtime"
	"repro/internal/trace"
)

// ErrInjectedCrash marks a manager loop killed by the chaos plane's
// manager-crash fault; the supervisor treats it like any other failure.
var ErrInjectedCrash = errors.New("manager: injected crash")

// violBufCap bounds the per-manager buffer of violations raised while the
// parent is down. The queue drops oldest-first beyond it: under a long
// parent outage the freshest evidence is the actionable one.
const violBufCap = 64

// RunFault is one fault injected into a manager's control loop through the
// nil-gated hook installed with SetRunFault (the chaos plane's
// manager-crash / manager-panic / manager-stall kinds). Stall freezes the
// loop first, for that long on the manager's clock (modelled time on a
// simclock.Scaled clock); Panic and Crash then kill it (panic unwinds,
// crash wipes the volatile autonomic state and returns ErrInjectedCrash).
type RunFault struct {
	Crash bool
	Panic bool
	Stall time.Duration
}

// SetRunFault installs the loop fault hook, consulted once per iteration
// of Run. A nil fn (the default) costs one atomic load per iteration.
func (m *Manager) SetRunFault(fn func() RunFault) {
	if fn == nil {
		m.runFault.Store(nil)
		return
	}
	m.runFault.Store(&fn)
}

// Checkpoint is the autonomic state a manager needs to resume enforcement
// after a restart: the installed contract, the P_rol role, how much
// sensor warm-up was still outstanding, and the failure counters. It is
// deliberately small — everything else (rule engine, sensors) is rebuilt
// from the contract via the OnContract hook, exactly as a fresh process
// would.
type Checkpoint struct {
	Contract        contract.Contract
	State           State
	WarmUpRemaining time.Duration
	ActFailures     uint64
	Escalations     uint64
	// CycleSeq and AckedCycle persist the MAPE cycle counter and the
	// parent's delivery watermark, so a restarted manager knows how many
	// cycles its parent missed and the catch-up policy can size the debt.
	CycleSeq   uint64
	AckedCycle uint64
	Taken      time.Time
}

// takeCheckpoint snapshots the autonomic state; called after every
// RunOnce so the latest completed MAPE cycle is always recoverable.
func (m *Manager) takeCheckpoint() {
	now := m.clock.Now()
	m.mu.Lock()
	rem := m.cfg.WarmUp - now.Sub(m.created)
	if rem < 0 {
		rem = 0
	}
	m.checkpoint = Checkpoint{
		Contract:        m.contract,
		State:           m.state,
		WarmUpRemaining: rem,
		ActFailures:     m.actFailures.Load(),
		Escalations:     m.escalations.Load(),
		CycleSeq:        m.cycleSeq.Load(),
		AckedCycle:      m.ackedCycle.Load(),
		Taken:           now,
	}
	m.hasCheckpoint = true
	m.mu.Unlock()
}

// LastCheckpoint returns the most recent checkpoint, or false while no
// MAPE cycle has completed yet.
func (m *Manager) LastCheckpoint() (Checkpoint, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.checkpoint, m.hasCheckpoint
}

// Crash simulates the manager process dying: the volatile autonomic state
// (contract, role, engine, queued violations) is wiped as a fresh process
// would start empty, and the manager is marked down until Restore replays
// the checkpoint. The checkpoint itself survives — it models the durable
// store. Exposed for the chaos plane and tests; the run loop calls it on
// an injected crash.
func (m *Manager) Crash() {
	m.mu.Lock()
	m.contract = contract.BestEffort{}
	m.state = Active
	m.engine = m.cfg.Engine
	m.mu.Unlock()
	for {
		select {
		case <-m.violations:
		default:
			m.crashed.Store(true)
			m.log.Record(m.clock.Now(), m.cfg.Name, trace.Crashed, "volatile state wiped")
			return
		}
	}
}

// Crashed reports whether the manager is down (crashed and not yet
// restored). An in-process child's localLink reads it as link-down, so
// the child buffers instead of delivering.
func (m *Manager) Crashed() bool { return m.crashed.Load() }

// Running reports whether the control loop is currently executing.
func (m *Manager) Running() bool { return m.running.Load() }

// Escalations returns how many violations this manager has reported to
// its parent.
func (m *Manager) Escalations() uint64 { return m.escalations.Load() }

// Restore replays cp after a crash: the contract is re-installed (driving
// the OnContract rebuild and the P_spl re-split over the children), the
// hierarchy is re-attached by asking the parent to re-split its own live
// contract — so the sub-contract reflects the current worker topology,
// not the pre-crash one — and the role, warm-up remainder and counters
// are restored.
func (m *Manager) Restore(cp Checkpoint) error {
	now := m.clock.Now()
	m.mu.Lock()
	// Re-base the warm-up window so exactly the checkpointed remainder is
	// still observed: restarting must not re-mute a warmed-up manager.
	m.created = now
	m.cfg.WarmUp = cp.WarmUpRemaining
	m.mu.Unlock()

	if cp.Contract != nil {
		if err := m.AssignContract(cp.Contract); err != nil {
			return err
		}
	}
	if p := m.Parent(); p != nil && !p.Crashed() {
		if err := p.resplitChild(m); err != nil {
			return err
		}
	}
	m.mu.Lock()
	m.state = cp.State
	m.mu.Unlock()
	m.escalations.Store(cp.Escalations)
	m.cycleSeq.Store(cp.CycleSeq)
	m.ackedCycle.Store(cp.AckedCycle)
	m.crashed.Store(false)
	m.log.Record(now, m.cfg.Name, trace.Restored,
		fmt.Sprintf("contract=%q state=%s warmup=%v", cp.Contract.Describe(), cp.State, cp.WarmUpRemaining))
	return nil
}

// recoverIfCrashed replays the checkpoint at loop (re)start. Without a
// checkpoint there is nothing to replay: the manager simply resumes with
// its post-wipe defaults and waits for a contract.
func (m *Manager) recoverIfCrashed() {
	if !m.crashed.Load() {
		return
	}
	if cp, ok := m.LastCheckpoint(); ok {
		if err := m.Restore(cp); err != nil {
			m.log.Record(m.clock.Now(), m.cfg.Name, trace.Kind("error"),
				"restore: "+err.Error())
		}
		return
	}
	m.crashed.Store(false)
}

// resplitChild re-derives child's sub-contract from m's live contract
// (P_spl over the current children) — the re-attachment half of recovery.
func (m *Manager) resplitChild(child *Manager) error {
	m.mu.Lock()
	c := m.contract
	split := m.cfg.Policy.Split
	children := make([]*Manager, len(m.children))
	copy(children, m.children)
	m.mu.Unlock()
	if c == nil || split == nil || len(children) == 0 {
		return nil
	}
	subs, err := split(c, len(children))
	if err != nil {
		return fmt.Errorf("manager %s: re-splitting for %s: %w", m.cfg.Name, child.Name(), err)
	}
	for i, ch := range children {
		if ch == child {
			return child.AssignContract(subs[i])
		}
	}
	return nil
}

// bufferViolation queues v while the parent is down: bounded, duplicates
// of an already-buffered causality id dropped, re-raises of the same
// (From, Tag) coalesced onto their first buffered cause, and only then the
// oldest distinct cause evicted — counted and traced, never silent.
//
// The coalescing step is what keeps a long outage honest: every MAPE
// cycle re-raises a standing violation under a *fresh* causality id
// (cycleCause is per-cycle), so CauseID dedup alone lets a single
// persistent violation flood the 64-slot queue and push every other cause
// out one eviction at a time. Coalescing keeps the entry's original
// CauseID — the id the parent-side dedup and the decision chain anchor on
// — while refreshing its evidence to the newest snapshot.
//
// It reports whether v went in as a new entry, which is then the last.
func (m *Manager) bufferViolation(v Violation) bool {
	m.mu.Lock()
	if v.CauseID != 0 {
		for _, q := range m.violBuf {
			if q.CauseID == v.CauseID {
				m.mu.Unlock()
				return false
			}
		}
	}
	for i := range m.violBuf {
		if m.violBuf[i].From == v.From && m.violBuf[i].Tag == v.Tag {
			m.violBuf[i].Snapshot = v.Snapshot
			m.violBuf[i].When = v.When
			m.mu.Unlock()
			return false
		}
	}
	var dropped Violation
	evicted := false
	if len(m.violBuf) >= violBufCap {
		dropped = m.violBuf[0]
		evicted = true
		copy(m.violBuf, m.violBuf[1:])
		m.violBuf = m.violBuf[:len(m.violBuf)-1]
		m.violDrops.Add(1)
	}
	m.violBuf = append(m.violBuf, v)
	m.mu.Unlock()
	if evicted {
		m.log.Record(m.clock.Now(), m.cfg.Name, trace.ViolDropped,
			fmt.Sprintf("buffer full: evicted %s from %s (cause %d)",
				dropped.Tag, dropped.From, dropped.CauseID))
	}
	return true
}

// flushBuffered re-delivers violations buffered across a parent outage
// (or refused by a full parent queue) once the link takes deliveries
// again. Called at the top of every RunOnce and after every raise; a
// delivery failure mid-flush re-parks the remainder in order. freshTail
// says the last entry is the violation just raised: it is delivered like
// the others but not counted as re-delivered.
func (m *Manager) flushBuffered(freshTail bool) {
	m.mu.Lock()
	n := len(m.violBuf)
	m.mu.Unlock()
	if n == 0 {
		return
	}
	l := m.Link()
	if l == nil || l.Down() {
		return
	}
	m.mu.Lock()
	buf := m.violBuf
	m.violBuf = nil
	m.mu.Unlock()
	sent := 0
	for i, v := range buf {
		if err := l.Deliver(v); err != nil {
			m.mu.Lock()
			m.violBuf = append(buf[i:], m.violBuf...)
			m.mu.Unlock()
			break
		}
		sent++
	}
	if freshTail && sent == len(buf) {
		sent--
	}
	if sent > 0 {
		m.log.Record(m.clock.Now(), m.cfg.Name, trace.RaiseViol,
			fmt.Sprintf("re-delivered %d buffered violations", sent))
	}
}

// BufferedViolations returns how many violations are currently parked
// waiting for the parent to recover.
func (m *Manager) BufferedViolations() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.violBuf)
}

// ViolationDrops returns how many buffered violations were dropped
// oldest-first because the buffer overflowed during a parent outage.
func (m *Manager) ViolationDrops() uint64 { return m.violDrops.Load() }

// SetSupervision configures the restart policy the manager's Supervisor
// uses. Call before the tree starts (before the first Supervisor call);
// later calls are ignored once the supervisor exists.
func (m *Manager) SetSupervision(cfg runtime.SupervisorConfig) {
	m.superMu.Lock()
	defer m.superMu.Unlock()
	if m.super == nil {
		m.superCfg = cfg
	}
}

// Supervisor returns the manager's restart supervisor, lazily built to
// wrap Run with the policy from SetSupervision (defaults otherwise). All
// supervised entry points (RunTree, core.App) share this one instance so
// restart counts and causes surface consistently in telemetry. Every
// restart is logged to the trace; an OnRestart hook set via SetSupervision
// is chained after the logging.
func (m *Manager) Supervisor() *runtime.Supervisor {
	m.superMu.Lock()
	defer m.superMu.Unlock()
	if m.super == nil {
		cfg := m.superCfg
		if cfg.Name == "" {
			cfg.Name = m.cfg.Name
		}
		if cfg.Clock == nil {
			cfg.Clock = m.clock
		}
		user := cfg.OnRestart
		cfg.OnRestart = func(cause error, downtime time.Duration) {
			m.log.Record(m.clock.Now(), m.cfg.Name, trace.Restarted, cause.Error())
			if user != nil {
				user(cause, downtime)
			}
		}
		m.super = runtime.NewSupervisor(runtime.Func(m.Run), cfg)
	}
	return m.super
}
