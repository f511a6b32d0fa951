package manager

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/abc"
	"repro/internal/grid"
	"repro/internal/runtime"
	"repro/internal/simclock"
	"repro/internal/skel"
	"repro/internal/trace"
)

// This file implements an autonomic manager for the fault-tolerance
// concern C_ft — one of the non-functional concerns §2 of the paper lists
// ("fault tolerance can be supported ... using redundant control in such a
// way that a limited number of faults can be tolerated"). Like the
// security manager it is a second, independent hierarchy in the MM scheme:
// its control loop detects crashed farm workers through the ABC monitor,
// redistributes their stranded tasks over the surviving workers, and
// replaces the lost capacity.

// FaultConfig parameterizes a FaultManager.
type FaultConfig struct {
	Name  string // default "AM_ft"
	Clock simclock.Clock
	Log   *trace.Log
	// Period is the detection loop period (the fault-detection latency).
	Period time.Duration
	// Replace controls whether a recovered worker is also replaced by a
	// freshly recruited one (default true).
	Replace *bool
	// SuspectAfter enables progress-based failure detection: a worker
	// with queued tasks whose served count does not advance for this
	// long (time of Clock) is declared crashed, exactly as a heartbeat
	// timeout would. Zero disables it (only explicitly injected crashes
	// are detected). Like any timeout detector it can false-positive on
	// genuinely slow tasks; pick it well above the expected service time.
	SuspectAfter time.Duration
	// SuspectGrace shields freshly added workers from the timeout
	// detector: a worker that has served nothing yet is not suspected
	// until it has been visible for this long (recruitment, the security
	// handshake and a long first task all look exactly like a stall).
	// The grace is keyed on the time the detector first saw the worker —
	// its add time, up to one detection period. Defaults to 2×SuspectAfter.
	SuspectGrace time.Duration
	// RM, when set, arms the node circuit breaker: a node whose workers
	// crash QuarantineAfter times is quarantined from recruitment for
	// QuarantineCooldown.
	RM *grid.ResourceManager
	// QuarantineAfter is the per-node crash count tripping the breaker
	// (default 3; meaningful only with RM set).
	QuarantineAfter int
	// QuarantineCooldown is how long a tripped node stays out of the
	// recruitment pool (default 10×Period).
	QuarantineCooldown time.Duration
	// Retry is the backoff policy for replacement recruitment; transient
	// recruitment errors are retried under it, while pool exhaustion and
	// end of stream fail fast. The zero value uses the runtime defaults.
	Retry runtime.Backoff
}

// FaultManager is the AM of the fault-tolerance concern. Its detection
// loop wakes on every crash edge of a watched farm as well as on the tick.
type FaultManager struct {
	loop
	cfg     FaultConfig
	replace bool

	mu          sync.Mutex
	recovered   int
	replaced    int
	suspected   int
	quarantined int
	progress    map[string]progressEntry
	// seen is when the detector first observed each live worker — its add
	// time up to one detection period — anchoring the suspect grace.
	seen map[string]time.Time
	// nodeCrashes counts worker crashes per node for the circuit breaker;
	// crashCounted ensures one crash is charged to its node exactly once
	// even when recovery takes several cycles.
	nodeCrashes  map[string]int
	crashCounted map[string]bool
	// degraded is set while recruitment keeps failing: the manager stays
	// live (it still recovers stranded tasks onto survivors) but raises
	// the violation upward instead of silently wedging the loop.
	degraded        bool
	recruitFailures uint64
}

// progressEntry tracks a worker's last observed progress for the timeout
// detector.
type progressEntry struct {
	served int
	since  time.Time
}

// NewFaultManager validates cfg and builds the manager.
func NewFaultManager(cfg FaultConfig) (*FaultManager, error) {
	if cfg.Log == nil {
		return nil, fmt.Errorf("manager: fault manager needs a trace log")
	}
	if cfg.Name == "" {
		cfg.Name = "AM_ft"
	}
	cfg.Clock = simclock.Or(cfg.Clock)
	if cfg.Period <= 0 {
		cfg.Period = 100 * time.Millisecond
	}
	if cfg.SuspectGrace <= 0 {
		cfg.SuspectGrace = 2 * cfg.SuspectAfter
	}
	if cfg.QuarantineAfter <= 0 {
		cfg.QuarantineAfter = 3
	}
	if cfg.QuarantineCooldown <= 0 {
		cfg.QuarantineCooldown = 10 * cfg.Period
	}
	if cfg.Retry.Clock == nil {
		cfg.Retry.Clock = cfg.Clock
	}
	replace := true
	if cfg.Replace != nil {
		replace = *cfg.Replace
	}
	m := &FaultManager{
		loop:         loop{name: cfg.Name, clock: cfg.Clock, log: cfg.Log, period: cfg.Period, edges: true},
		cfg:          cfg,
		replace:      replace,
		progress:     map[string]progressEntry{},
		seen:         map[string]time.Time{},
		nodeCrashes:  map[string]int{},
		crashCounted: map[string]bool{},
	}
	m.cycle = func() { m.RunOnce() }
	return m, nil
}

// Suspected returns how many stalled workers the timeout detector
// declared crashed.
func (m *FaultManager) Suspected() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.suspected
}

// Recovered returns how many crashes were repaired.
func (m *FaultManager) Recovered() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.recovered
}

// Replaced returns how many replacement workers were recruited.
func (m *FaultManager) Replaced() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.replaced
}

// Quarantined returns how many nodes the circuit breaker has tripped.
func (m *FaultManager) Quarantined() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.quarantined
}

// Degraded reports whether the manager is currently in degraded mode:
// recruitment keeps failing, so lost capacity cannot be replaced and the
// violation has been raised upward (P_rol).
func (m *FaultManager) Degraded() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.degraded
}

// ActuatorFailures returns how many recruitment actuations ultimately
// failed (after retry); exported at /metrics as actuator_failures.
func (m *FaultManager) ActuatorFailures() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.recruitFailures
}

// permanentRecruitErr reports recruitment errors that retrying cannot fix:
// pool exhaustion and a farm past end of stream.
func permanentRecruitErr(err error) bool {
	return errors.Is(err, grid.ErrExhausted) || errors.Is(err, skel.ErrStreamEnded)
}

// recruit runs one recruitment actuation under the retry policy, tracking
// the degraded-mode transitions: entering it raises the violation upward,
// leaving it is logged as a return to active management.
func (m *FaultManager) recruit(kind string, add func() (string, error)) (string, error) {
	var id string
	err := runtime.Retry(context.Background(), m.cfg.Retry, func() error {
		var err error
		id, err = add()
		return err
	}, permanentRecruitErr)
	if errors.Is(err, skel.ErrStreamEnded) {
		// Benign: past end of stream there is no capacity to restore.
		return "", err
	}
	m.mu.Lock()
	if err != nil {
		m.recruitFailures++
		entered := !m.degraded
		m.degraded = true
		m.mu.Unlock()
		if entered {
			m.log.Record(m.clock.Now(), m.name, trace.RaiseViol,
				fmt.Sprintf("%s recruitment failed, degraded: %v", kind, err))
		}
		return "", err
	}
	left := m.degraded
	m.degraded = false
	m.mu.Unlock()
	if left {
		m.log.Record(m.clock.Now(), m.name, trace.EnterActive,
			fmt.Sprintf("recruitment restored (%s)", kind))
	}
	return id, nil
}

// chargeCrash charges one worker crash to its node and trips the circuit
// breaker when the node reaches the configured crash count.
func (m *FaultManager) chargeCrash(workerID, nodeID string) {
	if m.cfg.RM == nil {
		return
	}
	m.mu.Lock()
	if m.crashCounted[workerID] {
		m.mu.Unlock()
		return
	}
	m.crashCounted[workerID] = true
	m.nodeCrashes[nodeID]++
	tripped := m.nodeCrashes[nodeID] >= m.cfg.QuarantineAfter
	if tripped {
		m.nodeCrashes[nodeID] = 0
		m.quarantined++
	}
	m.mu.Unlock()
	if tripped && m.cfg.RM.Quarantine(nodeID, m.cfg.QuarantineCooldown) {
		m.log.Record(m.clock.Now(), m.name, trace.Quarantine,
			fmt.Sprintf("%s: %d worker crashes, cooling down for %v",
				nodeID, m.cfg.QuarantineAfter, m.cfg.QuarantineCooldown))
	}
}

// RunOnce performs one detection cycle: every crashed worker found in a
// watched farm is recovered (its stranded tasks redistributed) and, when
// configured, replaced. It returns the number of crashes repaired.
func (m *FaultManager) RunOnce() int {
	repaired := 0
	live := map[string]bool{}
	for _, fa := range m.watched() {
		if m.cfg.SuspectAfter > 0 {
			m.suspectStalled(fa)
		}
		for _, w := range fa.Workers() {
			if !w.Failed {
				live[w.ID] = true
				continue
			}
			m.log.Record(m.clock.Now(), m.name, trace.WorkerFail,
				fmt.Sprintf("%s on %s (%d tasks stranded)", w.ID, w.Node.ID, w.QueueLen))
			m.chargeCrash(w.ID, w.Node.ID)
			n, err := fa.Farm().RecoverWorker(w.ID)
			if err != nil {
				// Typically: no live worker to recover onto. Recruit one
				// (valid even after end of stream) and retry on the next
				// cycle. A recruitment failure flips the manager into
				// degraded mode rather than wedging the loop.
				farm, prep := fa.Farm(), fa.Prepare()
				if _, err := m.recruit("recovery", func() (string, error) {
					return farm.AddRecoveryWorker(prep)
				}); err == nil {
					m.mu.Lock()
					m.replaced++
					m.mu.Unlock()
				}
				continue
			}
			repaired++
			m.mu.Lock()
			m.recovered++
			m.mu.Unlock()
			m.log.Record(m.clock.Now(), m.name, trace.Recovered,
				fmt.Sprintf("%s: %d tasks redistributed", w.ID, n))
			if m.replace {
				farm, prep := fa.Farm(), fa.Prepare()
				if id, err := m.recruit("replacement", func() (string, error) {
					return farm.AddWorker(prep)
				}); err == nil {
					m.mu.Lock()
					m.replaced++
					m.mu.Unlock()
					m.log.Record(m.clock.Now(), m.name, trace.AddWorker,
						fmt.Sprintf("%s replaces %s", id, w.ID))
				}
			}
		}
	}
	m.pruneSeen(live)
	return repaired
}

// pruneSeen drops first-seen and progress bookkeeping for workers that are
// no longer live, keeping the maps bounded across long soaks.
func (m *FaultManager) pruneSeen(live map[string]bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for id := range m.seen {
		if !live[id] {
			delete(m.seen, id)
			delete(m.progress, id)
		}
	}
}

// suspectStalled declares workers crashed when their served count has not
// advanced despite queued work for longer than SuspectAfter. Workers that
// have never served a task are shielded by SuspectGrace from their first
// sighting: a fresh worker legitimately shows zero progress while it is
// recruited, has its binding secured and chews its first task, and killing
// it then would throw away capacity the farm just paid for.
func (m *FaultManager) suspectStalled(fa *abc.FarmABC) {
	now := m.clock.Now()
	for _, w := range fa.Workers() {
		if w.Failed {
			continue
		}
		m.mu.Lock()
		first, known := m.seen[w.ID]
		if !known {
			first = now
			m.seen[w.ID] = now
		}
		m.mu.Unlock()
		if w.QueueLen == 0 {
			// Idle workers make no progress legitimately.
			m.mu.Lock()
			delete(m.progress, w.ID)
			m.mu.Unlock()
			continue
		}
		m.mu.Lock()
		e, ok := m.progress[w.ID]
		if !ok || e.served != w.Served {
			m.progress[w.ID] = progressEntry{served: w.Served, since: now}
			m.mu.Unlock()
			continue
		}
		stalled := now.Sub(e.since) >= m.cfg.SuspectAfter
		m.mu.Unlock()
		if !stalled {
			continue
		}
		if w.Served == 0 && now.Sub(first) < m.cfg.SuspectGrace {
			continue // still in the warm-up grace window
		}
		if err := fa.Farm().KillWorker(w.ID); err != nil {
			continue
		}
		m.mu.Lock()
		m.suspected++
		delete(m.progress, w.ID)
		m.mu.Unlock()
		m.log.Record(now, m.name, trace.WorkerFail,
			fmt.Sprintf("%s suspected stalled (no progress for %v, %d queued)",
				w.ID, m.cfg.SuspectAfter, w.QueueLen))
	}
}
