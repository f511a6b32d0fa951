package runtime

import (
	"context"
	"math/rand"
	"sync"
	"time"

	"repro/internal/simclock"
)

// NewSeededJitter returns a jitter source in [0,1) drawn from one seeded
// PRNG behind a mutex, safe for concurrent use from several Backoff
// consumers. The chaos plane hands the same source to every retrying and
// restarting component so that same-seed replays are byte-identical
// including retry and restart timing; the default (the global math/rand
// source) would differ between runs.
func NewSeededJitter(seed int64) func() float64 {
	var mu sync.Mutex
	rng := rand.New(rand.NewSource(seed))
	return func() float64 {
		mu.Lock()
		defer mu.Unlock()
		return rng.Float64()
	}
}

// Backoff describes a bounded, jittered exponential retry policy. The zero
// value is usable: every field defaults to a conservative setting suited to
// actuator-style control operations (3 attempts, 10ms base, 1s cap).
//
// Both the clock and the jitter source are injectable so that tests and the
// chaos plane can replay retry schedules deterministically.
type Backoff struct {
	// Base is the delay before the first retry (default 10ms).
	Base time.Duration
	// Max caps the grown delay (default 1s).
	Max time.Duration
	// Factor is the multiplicative growth per retry (default 2).
	Factor float64
	// Jitter in [0,1] is the fraction of each delay that is randomized:
	// the actual delay is drawn uniformly from [d*(1-Jitter), d]. Default
	// 0.5; set a negative value for no jitter at all.
	Jitter float64
	// Attempts is the total number of tries including the first
	// (default 3).
	Attempts int
	// Clock times the sleeps between attempts (default: real time).
	Clock simclock.Clock
	// Rand supplies jitter in [0,1) (default: math/rand global source).
	Rand func() float64
}

func (b Backoff) withDefaults() Backoff {
	if b.Base <= 0 {
		b.Base = 10 * time.Millisecond
	}
	if b.Max <= 0 {
		b.Max = time.Second
	}
	if b.Factor < 1 {
		b.Factor = 2
	}
	if b.Jitter == 0 {
		b.Jitter = 0.5
	}
	if b.Jitter < 0 {
		b.Jitter = 0
	}
	if b.Jitter > 1 {
		b.Jitter = 1
	}
	if b.Attempts <= 0 {
		b.Attempts = 3
	}
	b.Clock = simclock.Or(b.Clock)
	if b.Rand == nil {
		b.Rand = rand.Float64
	}
	return b
}

// Delay returns the sleep before retry number retry (0-based), including
// jitter. Exposed so tests can assert the schedule.
func (b Backoff) Delay(retry int) time.Duration {
	b = b.withDefaults()
	d := float64(b.Base)
	for i := 0; i < retry; i++ {
		d *= b.Factor
		if d >= float64(b.Max) {
			d = float64(b.Max)
			break
		}
	}
	if b.Jitter > 0 {
		d *= 1 - b.Jitter*b.Rand()
	}
	if d < 1 {
		d = 1
	}
	return time.Duration(d)
}

// Retry runs op up to b.Attempts times, sleeping a growing jittered delay
// between attempts on b's clock. It returns nil as soon as op succeeds. A
// non-nil permanent classifier short-circuits retrying: when it reports an
// error as permanent, that error is returned immediately (recruitment
// exhaustion or an unsupported operation will not get better by waiting).
// If ctx is canceled during a backoff sleep, the last attempt's error is
// returned; op is never started again after ctx is done.
func Retry(ctx context.Context, b Backoff, op func() error, permanent func(error) bool) error {
	if ctx == nil {
		ctx = context.Background()
	}
	b = b.withDefaults()
	var err error
	for attempt := 0; attempt < b.Attempts; attempt++ {
		if attempt > 0 {
			select {
			case <-ctx.Done():
				return err
			case <-b.Clock.After(b.Delay(attempt - 1)):
			}
		}
		if err = op(); err == nil {
			return nil
		}
		if permanent != nil && permanent(err) {
			return err
		}
	}
	return err
}
