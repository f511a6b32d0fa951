package manager

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/grid"
	"repro/internal/simclock"
	"repro/internal/trace"
)

// MigrationManager implements the §3 performance policy "migration of
// poorly performing activities to faster execution resources": its control
// loop watches the nodes hosting farm workers and, when a node's external
// load exceeds a threshold, moves the worker (queue, binding codec and
// all) to a freshly recruited node, instead of — or in addition to —
// growing the farm. The replacement runs the farm's prepare hook like any
// new worker, so under two-phase coordination a destination in an
// untrusted domain is secured before its first task. External load has no skeleton edge — load is sampled,
// not evented — so the loop is purely periodic.
type MigrationManager struct {
	loop
	cfg MigrationConfig

	mu       sync.Mutex
	migrated int
}

// MigrationConfig parameterizes a MigrationManager.
type MigrationConfig struct {
	Name  string // default "AM_mig"
	Clock simclock.Clock
	Log   *trace.Log
	// MaxLoad is the external-load threshold above which a worker's node
	// counts as poorly performing (default 0.5).
	MaxLoad float64
	// Recruit constrains the destination nodes; typically MinSpeed or
	// TrustedOnly.
	Recruit grid.Request
	// Period is the observation loop period.
	Period time.Duration
}

// NewMigrationManager validates cfg and builds the manager.
func NewMigrationManager(cfg MigrationConfig) (*MigrationManager, error) {
	if cfg.Log == nil {
		return nil, fmt.Errorf("manager: migration manager needs a trace log")
	}
	if cfg.Name == "" {
		cfg.Name = "AM_mig"
	}
	cfg.Clock = simclock.Or(cfg.Clock)
	if cfg.MaxLoad <= 0 {
		cfg.MaxLoad = 0.5
	}
	if cfg.Period <= 0 {
		cfg.Period = 100 * time.Millisecond
	}
	if cfg.Recruit.MaxExternalLoad == 0 {
		// Never migrate onto a node as loaded as the one being escaped.
		cfg.Recruit.MaxExternalLoad = cfg.MaxLoad
	}
	m := &MigrationManager{
		loop: loop{name: cfg.Name, clock: cfg.Clock, log: cfg.Log, period: cfg.Period},
		cfg:  cfg,
	}
	m.cycle = func() { m.RunOnce() }
	return m, nil
}

// Migrated returns how many workers were moved.
func (m *MigrationManager) Migrated() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.migrated
}

// RunOnce performs one observation cycle and returns how many workers it
// moved. A migration that fails (no acceptable destination) is skipped
// silently; the performance manager's addWorker path remains the fallback.
func (m *MigrationManager) RunOnce() int {
	moved := 0
	for _, fa := range m.watched() {
		for _, w := range fa.Workers() {
			if w.Failed || w.Node == nil {
				continue
			}
			if w.Node.ExternalLoad() <= m.cfg.MaxLoad {
				continue
			}
			newID, err := fa.Farm().MigrateWorker(w.ID, m.cfg.Recruit, fa.Prepare())
			if err != nil {
				continue
			}
			moved++
			m.mu.Lock()
			m.migrated++
			m.mu.Unlock()
			m.log.Record(m.clock.Now(), m.name, trace.Migrated,
				fmt.Sprintf("%s (%s, load %.0f%%) -> %s", w.ID, w.Node.ID,
					w.Node.ExternalLoad()*100, newID))
		}
	}
	return moved
}
