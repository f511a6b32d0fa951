package abc

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/contract"
	"repro/internal/grid"
	"repro/internal/rules"
	"repro/internal/runtime"
	"repro/internal/simclock"
	"repro/internal/skel"
)

// ErrActuatorTimeout is returned by a Guard when an Execute call exceeds
// its per-operation deadline. A timed-out operation is never retried: the
// mechanism may still land after the deadline, and re-issuing it could
// execute the reconfiguration twice. The manager instead raises the
// violation upward (P_rol) and lets the next control cycle re-sense.
var ErrActuatorTimeout = errors.New("abc: actuator operation timed out")

// ErrManagerDown is returned through the actuator path when a coordinating
// manager required by the operation (the two-phase security participant)
// is down. It is permanent from the Guard's point of view — retrying
// inside one Execute cannot outlast a manager restart; instead the
// coordinator records the aborted intent and re-issues it once the
// participant is back.
var ErrManagerDown = errors.New("abc: coordinating manager is down")

// GuardConfig parameterizes a Guard.
type GuardConfig struct {
	// Clock times the per-operation deadline and the backoff sleeps
	// (default: real time).
	Clock simclock.Clock
	// Timeout is the per-operation deadline; 0 disables the deadline.
	Timeout time.Duration
	// Backoff is the retry policy for transient failures. The zero value
	// uses the runtime package defaults (3 attempts, 10ms base, 1s cap).
	Backoff runtime.Backoff
}

// Guard hardens a Controller's actuator surface: every Execute gets a
// per-operation timeout plus bounded jittered exponential backoff on
// transient failures. Permanent conditions — unsupported operations,
// recruitment exhaustion, the last worker, a finished stream — fail fast,
// and timeouts are never retried (the operation may have landed late;
// re-issuing it would risk a double reconfiguration). Sensing passes
// through untouched.
type Guard struct {
	inner Controller
	cfg   GuardConfig

	failures atomic.Uint64 // Execute calls that ultimately failed
	retries  atomic.Uint64 // extra attempts spent on transient errors
	timeouts atomic.Uint64 // operations that hit the deadline
}

// NewGuard wraps inner. The zero GuardConfig yields retry-only guarding
// with the default backoff and no deadline.
func NewGuard(inner Controller, cfg GuardConfig) *Guard {
	cfg.Clock = simclock.Or(cfg.Clock)
	if cfg.Backoff.Clock == nil {
		cfg.Backoff.Clock = cfg.Clock
	}
	return &Guard{inner: inner, cfg: cfg}
}

// Inner returns the wrapped controller.
func (g *Guard) Inner() Controller { return g.inner }

// Beans implements Monitor by delegation.
func (g *Guard) Beans() []rules.Bean { return g.inner.Beans() }

// Snapshot implements Monitor by delegation.
func (g *Guard) Snapshot() contract.Snapshot { return g.inner.Snapshot() }

// OnEdge implements WakeSource when the wrapped controller does; otherwise
// it registers nothing and returns a no-op cancel.
func (g *Guard) OnEdge(fn func()) (cancel func()) {
	if ws, ok := g.inner.(WakeSource); ok {
		return ws.OnEdge(fn)
	}
	return func() {}
}

// Failures returns how many guarded Execute calls ultimately failed.
func (g *Guard) Failures() uint64 { return g.failures.Load() }

// Retries returns how many extra attempts the guard spent on transient
// actuator errors.
func (g *Guard) Retries() uint64 { return g.retries.Load() }

// Timeouts returns how many operations exceeded the per-op deadline.
func (g *Guard) Timeouts() uint64 { return g.timeouts.Load() }

// permanentExecErr reports errors that retrying cannot fix.
func permanentExecErr(err error) bool {
	return errors.Is(err, ErrUnsupported) ||
		errors.Is(err, ErrActuatorTimeout) ||
		errors.Is(err, ErrManagerDown) ||
		errors.Is(err, grid.ErrExhausted) ||
		errors.Is(err, skel.ErrLastWorker) ||
		errors.Is(err, skel.ErrNoWorker) ||
		errors.Is(err, skel.ErrStreamEnded)
}

// Execute implements Controller: the wrapped Execute under deadline and
// retry policy.
func (g *Guard) Execute(op string) (string, error) {
	var detail string
	attempt := func() error {
		d, err := g.executeOnce(op)
		if err == nil {
			detail = d
		}
		return err
	}
	first := true
	err := runtime.Retry(context.Background(), g.cfg.Backoff, func() error {
		if !first {
			g.retries.Add(1)
		}
		first = false
		return attempt()
	}, permanentExecErr)
	if err != nil {
		g.failures.Add(1)
		return "", err
	}
	return detail, nil
}

// executeOnce runs one attempt under the per-op deadline. On timeout the
// attempt's goroutine is left to finish in the background; its eventual
// result is discarded.
func (g *Guard) executeOnce(op string) (string, error) {
	if g.cfg.Timeout <= 0 {
		return g.inner.Execute(op)
	}
	type result struct {
		detail string
		err    error
	}
	done := make(chan result, 1)
	go func() {
		d, err := g.inner.Execute(op)
		done <- result{d, err}
	}()
	select {
	case r := <-done:
		return r.detail, r.err
	case <-g.cfg.Clock.After(g.cfg.Timeout):
		g.timeouts.Add(1)
		return "", fmt.Errorf("%w: %s after %v", ErrActuatorTimeout, op, g.cfg.Timeout)
	}
}
