package manager

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/abc"
	"repro/internal/grid"
	"repro/internal/runtime"
	"repro/internal/simclock"
	"repro/internal/trace"
)

// MigrationManager implements the §3 performance policy "migration of
// poorly performing activities to faster execution resources": its control
// loop watches the nodes hosting farm workers and, when a node's external
// load exceeds a threshold, moves the worker (queue, binding codec and
// all) to a freshly recruited node, instead of — or in addition to —
// growing the farm.
type MigrationManager struct {
	cfg   MigrationConfig
	clock simclock.Clock
	log   *trace.Log

	mu       sync.Mutex
	farms    []*abc.FarmABC
	migrated int

	running atomic.Bool
	life    runtime.Lifecycle
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
	return &MigrationManager{cfg: cfg, clock: cfg.Clock, log: cfg.Log}, nil
}

// Name returns the manager's name.
func (m *MigrationManager) Name() string { return m.cfg.Name }

// Migrated returns how many workers were moved.
func (m *MigrationManager) Migrated() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.migrated
}

// Watch registers a farm for load supervision.
func (m *MigrationManager) Watch(f *abc.FarmABC) {
	m.mu.Lock()
	m.farms = append(m.farms, f)
	m.mu.Unlock()
}

// RunOnce performs one observation cycle and returns how many workers it
// moved. A migration that fails (no acceptable destination) is skipped
// silently; the performance manager's addWorker path remains the fallback.
func (m *MigrationManager) RunOnce() int {
	m.mu.Lock()
	farms := make([]*abc.FarmABC, len(m.farms))
	copy(farms, m.farms)
	m.mu.Unlock()
	moved := 0
	for _, fa := range farms {
		for _, w := range fa.Workers() {
			if w.Failed || w.Node == nil {
				continue
			}
			if w.Node.ExternalLoad() <= m.cfg.MaxLoad {
				continue
			}
			newID, err := fa.Farm().MigrateWorker(w.ID, m.cfg.Recruit)
			if err != nil {
				continue
			}
			moved++
			m.mu.Lock()
			m.migrated++
			m.mu.Unlock()
			m.log.Record(m.clock.Now(), m.cfg.Name, trace.Migrated,
				fmt.Sprintf("%s (%s, load %.0f%%) -> %s", w.ID, w.Node.ID,
					w.Node.ExternalLoad()*100, newID))
		}
	}
	return moved
}

// Run executes the observation loop until ctx is canceled, then returns
// nil. External load changes have no skeleton edge — load is sampled, not
// evented — so migration stays purely periodic. Run returns an error
// immediately if the loop is already running.
func (m *MigrationManager) Run(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if !m.running.CompareAndSwap(false, true) {
		return fmt.Errorf("manager %s: observation loop already running", m.cfg.Name)
	}
	defer m.running.Store(false)

	ticker := m.clock.NewTicker(m.cfg.Period)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return nil
		case <-ticker.C():
			m.RunOnce()
		}
	}
}

// Start launches the observation loop on a background goroutine. A second
// Start while running is a no-op.
func (m *MigrationManager) Start() { m.life.Start(m.Run) }

// Stop terminates the observation loop and waits for it to exit. It is
// idempotent.
func (m *MigrationManager) Stop() { _ = m.life.Stop() }
