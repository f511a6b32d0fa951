// Package simclock abstracts time so that the skeleton runtime, the
// autonomic managers and the metric windows can run either against the wall
// clock (experiments, benchmarks) or against a manually advanced clock
// (deterministic unit tests).
//
// The abstraction is intentionally small: Now, Sleep, After and NewTicker
// are the only operations used by the rest of the repository. Every
// duration they take is modelled time; Scaled replays it k times faster.
package simclock

import (
	"sync"
	"time"
)

// Clock is the time source used throughout the framework.
type Clock interface {
	// Now returns the current time of this clock.
	Now() time.Time
	// Sleep blocks the caller for at least d of this clock's time.
	Sleep(d time.Duration)
	// After returns a channel that delivers the clock's time once at
	// least d has elapsed.
	After(d time.Duration) <-chan time.Time
	// NewTicker returns a ticker firing every d of this clock's time.
	NewTicker(d time.Duration) Ticker
}

// Ticker is the clock-independent counterpart of time.Ticker.
type Ticker interface {
	// C returns the channel on which ticks are delivered.
	C() <-chan time.Time
	// Stop shuts the ticker down. It does not close C.
	Stop()
}

// Real is the wall-clock implementation of Clock. The zero value is ready
// to use.
type Real struct{}

// NewReal returns a wall-clock Clock.
func NewReal() *Real { return &Real{} }

// Now implements Clock.
func (*Real) Now() time.Time { return time.Now() }

// Sleep implements Clock.
func (*Real) Sleep(d time.Duration) { time.Sleep(d) }

// After implements Clock.
func (*Real) After(d time.Duration) <-chan time.Time { return time.After(d) }

// NewTicker implements Clock.
func (*Real) NewTicker(d time.Duration) Ticker {
	return realTicker{time.NewTicker(d)}
}

type realTicker struct{ t *time.Ticker }

func (r realTicker) C() <-chan time.Time { return r.t.C }
func (r realTicker) Stop()               { r.t.Stop() }

// Manual is a Clock whose time only moves when Advance is called. Sleepers
// and timers are released in deadline order as time passes them. Manual is
// safe for concurrent use.
type Manual struct {
	mu      sync.Mutex
	now     time.Time
	waiters []*waiter
	tickers []*manualTicker
}

type waiter struct {
	deadline time.Time
	ch       chan time.Time
}

// NewManual returns a Manual clock whose current time is start.
func NewManual(start time.Time) *Manual {
	return &Manual{now: start}
}

// Now implements Clock.
func (m *Manual) Now() time.Time {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.now
}

// Sleep implements Clock. It blocks until the clock has been advanced past
// the deadline by another goroutine.
func (m *Manual) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	<-m.After(d)
}

// After implements Clock.
func (m *Manual) After(d time.Duration) <-chan time.Time {
	m.mu.Lock()
	defer m.mu.Unlock()
	ch := make(chan time.Time, 1)
	if d <= 0 {
		ch <- m.now
		return ch
	}
	m.waiters = append(m.waiters, &waiter{deadline: m.now.Add(d), ch: ch})
	return ch
}

// NewTicker implements Clock.
func (m *Manual) NewTicker(d time.Duration) Ticker {
	if d <= 0 {
		panic("simclock: non-positive ticker period")
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	t := &manualTicker{period: d, next: m.now.Add(d), ch: make(chan time.Time, 1)}
	m.tickers = append(m.tickers, t)
	return t
}

type manualTicker struct {
	period  time.Duration
	next    time.Time
	ch      chan time.Time
	stopped bool
}

func (t *manualTicker) C() <-chan time.Time { return t.ch }

func (t *manualTicker) Stop() { t.stopped = true }

// Advance moves the clock forward by d, waking every sleeper and firing
// every ticker whose deadline is passed, in deadline order.
func (m *Manual) Advance(d time.Duration) {
	if d < 0 {
		panic("simclock: negative advance")
	}
	m.mu.Lock()
	target := m.now.Add(d)
	for {
		next, ok := m.nextEventLocked(target)
		if !ok {
			break
		}
		m.now = next
		m.fireLocked()
	}
	m.now = target
	m.mu.Unlock()
}

// AdvanceTo moves the clock to instant t, which must not be in the past.
func (m *Manual) AdvanceTo(t time.Time) {
	m.mu.Lock()
	now := m.now
	m.mu.Unlock()
	if t.Before(now) {
		panic("simclock: AdvanceTo into the past")
	}
	m.Advance(t.Sub(now))
}

// nextEventLocked returns the earliest pending deadline that is not after
// target, if any.
func (m *Manual) nextEventLocked(target time.Time) (time.Time, bool) {
	var (
		best  time.Time
		found bool
	)
	consider := func(t time.Time) {
		if t.After(target) {
			return
		}
		if !found || t.Before(best) {
			best, found = t, true
		}
	}
	for _, w := range m.waiters {
		consider(w.deadline)
	}
	for _, t := range m.tickers {
		if !t.stopped {
			consider(t.next)
		}
	}
	return best, found
}

// fireLocked releases all waiters and tickers whose deadline is <= now.
func (m *Manual) fireLocked() {
	keep := m.waiters[:0]
	for _, w := range m.waiters {
		if !w.deadline.After(m.now) {
			w.ch <- m.now
		} else {
			keep = append(keep, w)
		}
	}
	m.waiters = keep
	for _, t := range m.tickers {
		for !t.stopped && !t.next.After(m.now) {
			select {
			case t.ch <- t.next:
			default: // ticker semantics: drop ticks nobody consumed
			}
			t.next = t.next.Add(t.period)
		}
	}
}

// PendingWaiters reports how many Sleep/After callers are currently parked
// on the clock. It is useful for tests that need to synchronise with
// goroutines before advancing time.
func (m *Manual) PendingWaiters() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.waiters)
}
