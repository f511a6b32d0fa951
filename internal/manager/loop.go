package manager

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/abc"
	"repro/internal/runtime"
	"repro/internal/simclock"
	"repro/internal/trace"
)

// loop is the periodic control loop of a concern manager — fault
// tolerance, migration, security and the GM each embed one and supply only
// their cycle. Every tick of the manager's clock runs one cycle; a loop
// with edges set also wakes on the crash and end-of-stream edges of the
// farms watched when Run starts, so a fault is seen in milliseconds rather
// than after up to one period. The performance managers' MAPE loop
// (Manager.Run) is not a concern loop: it replays a checkpoint, stamps its
// wake-ups and runs catch-up cycles.
type loop struct {
	name   string
	clock  simclock.Clock
	log    *trace.Log
	period time.Duration
	edges  bool
	cycle  func()

	farmsMu sync.Mutex
	farms   []*abc.FarmABC

	// crash marks a pending injected crash: the loop dies on its next wake
	// and its supervisor restarts it. The concern's own state lives in the
	// embedding manager and survives the restart.
	crash   atomic.Bool
	running atomic.Bool
	life    runtime.Lifecycle
}

// Name returns the manager's name.
func (l *loop) Name() string { return l.name }

// Watch registers a farm with the concern.
func (l *loop) Watch(f *abc.FarmABC) {
	l.farmsMu.Lock()
	l.farms = append(l.farms, f)
	l.farmsMu.Unlock()
}

// watched returns a snapshot of the watched farms.
func (l *loop) watched() []*abc.FarmABC {
	l.farmsMu.Lock()
	defer l.farmsMu.Unlock()
	return append([]*abc.FarmABC(nil), l.farms...)
}

// InjectCrash marks the loop for an injected crash on its next wake; the
// supervisor restarts it with the concern's state intact. Returns true
// (the fault is always deliverable).
func (l *loop) InjectCrash() bool {
	l.crash.Store(true)
	return true
}

// Run executes the control loop until ctx is canceled, then returns nil,
// or ErrInjectedCrash on the first wake after InjectCrash. Run returns an
// error immediately if the loop is already running.
func (l *loop) Run(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if !l.running.CompareAndSwap(false, true) {
		return fmt.Errorf("manager %s: loop already running", l.name)
	}
	defer l.running.Store(false)

	var wake runtime.Notifier
	if l.edges {
		for _, fa := range l.watched() {
			defer fa.OnEdge(wake.Notify)()
		}
	}
	ticker := l.clock.NewTicker(l.period)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return nil
		case <-ticker.C():
		case <-wake.C():
		}
		if l.crash.CompareAndSwap(true, false) {
			l.log.Record(l.clock.Now(), l.name, trace.Crashed, "injected")
			return fmt.Errorf("manager %s: %w", l.name, ErrInjectedCrash)
		}
		l.cycle()
	}
}

// Start launches the loop on a background goroutine. A second Start while
// running is a no-op.
func (l *loop) Start() { l.life.Start(l.Run) }

// Stop terminates the loop and waits for it to exit. It is idempotent.
func (l *loop) Stop() { _ = l.life.Stop() }
