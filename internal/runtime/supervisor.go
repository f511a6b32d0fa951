package runtime

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/simclock"
)

// ErrSupervisorGaveUp marks a terminal supervisor exit: the supervised
// Runnable kept failing until the restart budget for the sliding window was
// exhausted. The error surfaces through the enclosing Group, so a
// management-plane member that cannot be healed takes its tree down
// instead of flapping forever.
var ErrSupervisorGaveUp = errors.New("runtime: supervisor gave up")

// SupervisorConfig parameterizes the restart policy of a Supervisor.
// The zero value is usable.
type SupervisorConfig struct {
	// Name labels restart log lines and give-up errors (default
	// "supervised").
	Name string
	// Clock times restart delays and the sliding restart window
	// (default: real time).
	Clock simclock.Clock
	// Backoff shapes the delay before each restart. Attempts is ignored
	// (the budget below bounds restarts); the retry index grows with the
	// current restart streak inside the window. Backoff.Clock is
	// overridden by Clock.
	Backoff Backoff
	// MaxRestarts is the number of restarts allowed within Window before
	// the supervisor gives up (default 8).
	MaxRestarts int
	// Window is the sliding window the restart budget applies to
	// (default 1 minute). Restarts older than Window no longer count
	// against the budget.
	Window time.Duration
	// OnRestart, when non-nil, observes every restart with the failure
	// cause and the downtime between the failure and the moment the
	// replacement run starts (the restart delay, i.e. the manager's MTTR
	// contribution), measured on Clock.
	OnRestart func(cause error, downtime time.Duration)
}

func (c SupervisorConfig) withDefaults() SupervisorConfig {
	if c.Name == "" {
		c.Name = "supervised"
	}
	c.Clock = simclock.Or(c.Clock)
	if c.MaxRestarts <= 0 {
		c.MaxRestarts = 8
	}
	if c.Window <= 0 {
		c.Window = time.Minute
	}
	c.Backoff.Clock = c.Clock
	return c
}

// Supervisor wraps a Runnable with a restart policy: panics are converted
// to errors, every failure is retried after a jittered backoff delay, and
// a sliding-window budget bounds how often. The management plane runs
// every manager loop under one, so a crashed or panicking manager is
// restarted (and replays its checkpoint) instead of silently leaving its
// sub-contract unenforced.
//
// A nil error from the inner Run — the contract for clean, cancelation-
// driven shutdown — ends supervision; so does ctx being done when the
// failure is observed (teardown races are not failures).
type Supervisor struct {
	inner Runnable
	cfg   SupervisorConfig

	restarts atomic.Uint64

	mu        sync.Mutex
	lastCause string
	recent    []time.Time // restart instants still inside the window
}

// NewSupervisor wraps inner with the restart policy in cfg.
func NewSupervisor(inner Runnable, cfg SupervisorConfig) *Supervisor {
	return &Supervisor{inner: inner, cfg: cfg.withDefaults()}
}

// Supervise is shorthand for NewSupervisor over a plain run function.
func Supervise(run func(ctx context.Context) error, cfg SupervisorConfig) *Supervisor {
	return NewSupervisor(Func(run), cfg)
}

// SetOnRestart installs the restart observer. It must be called before Run.
func (s *Supervisor) SetOnRestart(fn func(cause error, downtime time.Duration)) {
	s.cfg.OnRestart = fn
}

// Restarts returns how many times the inner Runnable has been restarted.
func (s *Supervisor) Restarts() uint64 { return s.restarts.Load() }

// LastCause returns the cause of the most recent restart (or give-up),
// empty while the inner Runnable has never failed.
func (s *Supervisor) LastCause() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastCause
}

// Run runs the inner Runnable until it exits cleanly, ctx is canceled, or
// the restart budget is exhausted — in which case the terminal give-up
// error (wrapping ErrSupervisorGaveUp and the last cause) is returned and
// surfaces to the enclosing Group.
func (s *Supervisor) Run(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	for {
		err := s.runOnce(ctx)
		if err == nil {
			return nil
		}
		if ctx.Err() != nil {
			// Teardown race: the failure happened while the tree was
			// already being canceled. Not a supervision case.
			return nil
		}
		failedAt := s.cfg.Clock.Now()
		streak := s.recordFailure(failedAt, err)
		if streak > s.cfg.MaxRestarts {
			return fmt.Errorf("%w: %s: %d restarts within %v, last cause: %v",
				ErrSupervisorGaveUp, s.cfg.Name, streak-1, s.cfg.Window, err)
		}
		delay := s.cfg.Backoff.Delay(streak - 1)
		select {
		case <-ctx.Done():
			return nil
		case <-s.cfg.Clock.After(delay):
		}
		s.restarts.Add(1)
		if s.cfg.OnRestart != nil {
			s.cfg.OnRestart(err, s.cfg.Clock.Now().Sub(failedAt))
		}
	}
}

// runOnce runs the inner Runnable once, converting a panic to an error so
// a panicking MAPE cycle is a restartable failure rather than a process
// crash.
func (s *Supervisor) runOnce(ctx context.Context) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%s: panic: %v", s.cfg.Name, r)
		}
	}()
	return s.inner.Run(ctx)
}

// recordFailure notes the failure cause and returns how many failures
// (including this one) fall inside the sliding window ending at now.
func (s *Supervisor) recordFailure(now time.Time, cause error) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.lastCause = cause.Error()
	cutoff := now.Add(-s.cfg.Window)
	kept := s.recent[:0]
	for _, t := range s.recent {
		if t.After(cutoff) {
			kept = append(kept, t)
		}
	}
	s.recent = append(kept, now)
	return len(s.recent)
}
