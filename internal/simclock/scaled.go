package simclock

import (
	"sync"
	"time"
)

// Or returns c, or the wall clock when c is nil: the one place that decides
// what a missing clock means. It is not an error yet, because callers such
// as the benchmark stack build managers and farms without a clock.
func Or(c Clock) Clock {
	if c == nil {
		return NewReal()
	}
	return c
}

// NewScaledReal is Scaled(NewReal(), k): what a -scale flag builds.
func NewScaledReal(k float64) Clock { return Scaled(NewReal(), k) }

// Scaled returns a Clock running k times faster than base that speaks
// modelled time: Now is start + k·(base.Now() − start), durations given to
// Sleep, After and NewTicker reach base divided by k (a positive one never
// below 1ns), and tick and After values are modelled instants. It returns
// base itself when k <= 0 or k == 1.
func Scaled(base Clock, k float64) Clock {
	if k <= 0 || k == 1 {
		return base
	}
	return &scaled{base: base, k: k, start: base.Now()}
}

// BaseDuration is the base-clock time c spends in the modelled duration d:
// d/k on a Scaled clock, d otherwise. It hands modelled windows to planes
// timed outside any Clock (the wire transport's link faults).
func BaseDuration(c Clock, d time.Duration) time.Duration {
	if s, ok := c.(*scaled); ok {
		return s.toBase(d)
	}
	return d
}

type scaled struct {
	base  Clock
	k     float64
	start time.Time
}

func (s *scaled) modelled(t time.Time) time.Time {
	return s.start.Add(time.Duration(float64(t.Sub(s.start)) * s.k))
}

func (s *scaled) toBase(d time.Duration) time.Duration {
	if b := time.Duration(float64(d) / s.k); b > 0 || d <= 0 {
		return b
	}
	return 1
}

func (s *scaled) Now() time.Time { return s.modelled(s.base.Now()) }

func (s *scaled) Sleep(d time.Duration) {
	if d > 0 {
		s.base.Sleep(s.toBase(d))
	}
}

func (s *scaled) After(d time.Duration) <-chan time.Time {
	in, out := s.base.After(s.toBase(d)), make(chan time.Time, 1)
	go func() { out <- s.modelled(<-in) }()
	return out
}

// NewTicker relays base ticks as modelled instants, dropping ticks nobody
// consumed like any ticker. A non-positive period reaches base as is.
func (s *scaled) NewTicker(d time.Duration) Ticker {
	t := &scaledTicker{base: s.base.NewTicker(s.toBase(d)),
		ch: make(chan time.Time, 1), stop: make(chan struct{})}
	go func() {
		for {
			select {
			case <-t.stop:
				return
			case at := <-t.base.C():
				select {
				case t.ch <- s.modelled(at):
				default:
				}
			}
		}
	}()
	return t
}

type scaledTicker struct {
	base Ticker
	ch   chan time.Time
	stop chan struct{}
	once sync.Once
}

func (t *scaledTicker) C() <-chan time.Time { return t.ch }

func (t *scaledTicker) Stop() { t.once.Do(func() { t.base.Stop(); close(t.stop) }) }
