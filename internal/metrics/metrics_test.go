package metrics

import (
	"math"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/simclock"
)

var epoch = time.Date(2009, 5, 25, 0, 0, 0, 0, time.UTC)

func TestRateMeterBasic(t *testing.T) {
	c := simclock.NewManual(epoch)
	m := NewRateMeter(c, 10*time.Second)
	for i := 0; i < 6; i++ {
		m.Mark()
		c.Advance(time.Second)
	}
	// Six events in six elapsed seconds: the warm-up-corrected rate is
	// 1/s, not the 6/10 = 0.6/s a full-window division would report.
	if got := m.Rate(); math.Abs(got-1.0) > 1e-9 {
		t.Fatalf("Rate = %v, want 1.0", got)
	}
	if m.Total() != 6 {
		t.Fatalf("Total = %d, want 6", m.Total())
	}
}

// TestRateMeterWarmup is the regression test for the warm-up bias: a young
// meter must divide by the elapsed time since its first event, not by the
// full window, or throughput is underreported during the first control
// periods and the perf manager over-provisions workers at startup.
func TestRateMeterWarmup(t *testing.T) {
	c := simclock.NewManual(epoch)
	m := NewRateMeter(c, 10*time.Second)
	// Four events over two seconds: the true rate is 2/s. The biased
	// implementation reported 4/10 = 0.4/s.
	for i := 0; i < 4; i++ {
		m.Mark()
		c.Advance(500 * time.Millisecond)
	}
	if got := m.Rate(); math.Abs(got-2.0) > 1e-9 {
		t.Fatalf("warm-up Rate = %v, want 2.0 (elapsed-based)", got)
	}
	// Once a full window has passed since the first event, the divisor is
	// the window again: 4 events still inside a 10 s window -> 0.4/s.
	c.Advance(7 * time.Second) // now 9 s after the first event
	if got := m.Rate(); math.Abs(got-4.0/9.0) > 1e-9 {
		t.Fatalf("late warm-up Rate = %v, want %v", got, 4.0/9.0)
	}
	c.Advance(time.Second) // exactly one window after the first event
	// The events from the first ~1.5 s have started to expire by now; the
	// rate must never exceed the remaining count over the window.
	if got := m.Rate(); got > 0.4+1e-9 {
		t.Fatalf("post-warm-up Rate = %v, want <= 0.4", got)
	}
}

// TestRateMeterSteadyState pins the bucketed ring against the behaviour of
// the exact per-timestamp implementation it replaced: one event per second
// with mark-then-advance leaves 9 events inside a 10 s window at t=30 s.
func TestRateMeterSteadyState(t *testing.T) {
	c := simclock.NewManual(epoch)
	m := NewRateMeter(c, 10*time.Second)
	for i := 0; i < 30; i++ {
		m.Mark()
		c.Advance(time.Second)
	}
	if got := m.Rate(); math.Abs(got-0.9) > 1e-9 {
		t.Fatalf("steady-state Rate = %v, want 0.9", got)
	}
	if m.Total() != 30 {
		t.Fatalf("Total = %d, want 30", m.Total())
	}
}

// TestRateMeterLongIdleGap checks ring rotation across a gap much longer
// than the window (every bucket must be expired, not recycled).
func TestRateMeterLongIdleGap(t *testing.T) {
	c := simclock.NewManual(epoch)
	m := NewRateMeter(c, time.Second)
	m.MarkN(100)
	c.Advance(time.Hour)
	if got := m.Rate(); got != 0 {
		t.Fatalf("Rate after long idle = %v, want 0", got)
	}
	m.Mark()
	c.Advance(500 * time.Millisecond)
	// One event still inside the 1 s window; warm-up long over, so the
	// divisor is the full window.
	if got := m.Rate(); math.Abs(got-1.0) > 1e-9 {
		t.Fatalf("Rate after restart = %v, want 1.0", got)
	}
}

func TestRateMeterExpiry(t *testing.T) {
	c := simclock.NewManual(epoch)
	m := NewRateMeter(c, time.Second)
	m.MarkN(10)
	if got := m.Rate(); got != 10 {
		t.Fatalf("Rate = %v, want 10", got)
	}
	c.Advance(2 * time.Second)
	if got := m.Rate(); got != 0 {
		t.Fatalf("Rate after expiry = %v, want 0", got)
	}
	if m.Total() != 10 {
		t.Fatalf("Total must survive expiry, got %d", m.Total())
	}
}

func TestRateMeterMarkNNonPositive(t *testing.T) {
	c := simclock.NewManual(epoch)
	m := NewRateMeter(c, time.Second)
	m.MarkN(0)
	m.MarkN(-3)
	if m.Total() != 0 {
		t.Fatalf("Total = %d, want 0", m.Total())
	}
}

func TestRateMeterZeroWindowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRateMeter(simclock.NewManual(epoch), 0)
}

func TestRateMeterConcurrent(t *testing.T) {
	c := simclock.NewManual(epoch)
	m := NewRateMeter(c, time.Minute)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				m.Mark()
			}
		}()
	}
	wg.Wait()
	if m.Total() != 800 {
		t.Fatalf("Total = %d, want 800", m.Total())
	}
}

func TestQueueImbalance(t *testing.T) {
	if v := QueueImbalance([]int{3, 3, 3}); v != 0 {
		t.Fatalf("balanced queues variance = %v, want 0", v)
	}
	if v := QueueImbalance([]int{0, 6}); v != 9 {
		t.Fatalf("variance = %v, want 9", v)
	}
	if v := QueueImbalance([]int{2, 4, 4, 4, 5, 5, 7, 9}); v != 4 {
		t.Fatalf("variance = %v, want 4", v)
	}
	if v := QueueImbalance(nil); v != 0 {
		t.Fatalf("nil variance = %v, want 0", v)
	}
}

// Property: imbalance is invariant under permutation and zero iff all equal.
func TestQueueImbalanceProperties(t *testing.T) {
	f := func(lens []uint8) bool {
		qs := make([]int, len(lens))
		for i, l := range lens {
			qs[i] = int(l)
		}
		v := QueueImbalance(qs)
		if v < 0 {
			return false
		}
		// reverse permutation
		rev := make([]int, len(qs))
		for i := range qs {
			rev[i] = qs[len(qs)-1-i]
		}
		if math.Abs(QueueImbalance(rev)-v) > 1e-6 {
			return false
		}
		allEq := true
		for _, q := range qs {
			if q != qs[0] {
				allEq = false
			}
		}
		if allEq && v != 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSeries(t *testing.T) {
	s := NewSeries("throughput")
	if s.Name() != "throughput" {
		t.Fatalf("Name = %q", s.Name())
	}
	if _, ok := s.Last(); ok {
		t.Fatal("empty series must report no last point")
	}
	s.Append(epoch, 0.1)
	s.Append(epoch.Add(time.Second), 0.7)
	if s.Len() != 2 {
		t.Fatalf("Len = %d", s.Len())
	}
	if s.Max() != 0.7 {
		t.Fatalf("Max = %v", s.Max())
	}
	last, ok := s.Last()
	if !ok || last.V != 0.7 {
		t.Fatalf("Last = %+v ok=%v", last, ok)
	}
	pts := s.Points()
	pts[0].V = 99 // must not alias internal storage
	if s.Points()[0].V == 99 {
		t.Fatal("Points leaked internal storage")
	}
}

// Property: the rate meter never reports a negative rate and Total is
// monotone in the number of Mark calls.
func TestRateMeterProperty(t *testing.T) {
	f := func(gaps []uint8) bool {
		c := simclock.NewManual(epoch)
		m := NewRateMeter(c, 5*time.Second)
		var marks uint64
		for _, g := range gaps {
			m.Mark()
			marks++
			c.Advance(time.Duration(g) * time.Millisecond)
			if m.Rate() < 0 {
				return false
			}
		}
		return m.Total() == marks
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
