package simclock

import (
	"testing"
	"time"
)

func TestScaledIdentityScales(t *testing.T) {
	base := NewManual(epoch)
	for _, k := range []float64{-3, 0, 1} {
		if got := Scaled(base, k); got != Clock(base) {
			t.Fatalf("Scaled(base, %g) = %T, want the base clock itself", k, got)
		}
	}
	if _, ok := NewScaledReal(1).(*Real); !ok {
		t.Fatalf("NewScaledReal(1) is not the unwrapped wall clock")
	}
}

func TestScaledNowIsModelled(t *testing.T) {
	base := NewManual(epoch)
	c := Scaled(base, 4)
	if !c.Now().Equal(epoch) {
		t.Fatalf("Now at start = %v, want %v", c.Now(), epoch)
	}
	base.Advance(250 * time.Millisecond)
	if got, want := c.Now(), epoch.Add(time.Second); !got.Equal(want) {
		t.Fatalf("Now after 250ms of base = %v, want %v", got, want)
	}
}

func TestScaledSleepTakesModelledDuration(t *testing.T) {
	base := NewManual(epoch)
	c := Scaled(base, 4)
	done := make(chan struct{})
	go func() {
		c.Sleep(2 * time.Second)
		close(done)
	}()
	for base.PendingWaiters() == 0 {
		time.Sleep(time.Millisecond)
	}
	base.Advance(499 * time.Millisecond)
	select {
	case <-done:
		t.Fatal("slept less than 2s modelled (500ms of base)")
	case <-time.After(20 * time.Millisecond):
	}
	base.Advance(time.Millisecond)
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("sleeper not woken after 500ms of base")
	}
	c.Sleep(0) // must not block
}

func TestScaledAfterDeliversModelledInstant(t *testing.T) {
	base := NewManual(epoch)
	c := Scaled(base, 10)
	ch := c.After(3 * time.Second)
	if n := base.PendingWaiters(); n != 1 {
		t.Fatalf("pending waiters = %d, want 1", n)
	}
	base.Advance(300 * time.Millisecond)
	select {
	case at := <-ch:
		if want := epoch.Add(3 * time.Second); !at.Equal(want) {
			t.Fatalf("After delivered %v, want modelled %v", at, want)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("After did not fire")
	}
}

func TestScaledTickerPeriodAndValues(t *testing.T) {
	base := NewManual(epoch)
	c := Scaled(base, 5)
	tk := c.NewTicker(time.Second)
	defer tk.Stop()
	for i := 1; i <= 3; i++ {
		base.Advance(200 * time.Millisecond)
		select {
		case at := <-tk.C():
			if want := epoch.Add(time.Duration(i) * time.Second); !at.Equal(want) {
				t.Fatalf("tick %d at %v, want modelled %v", i, at, want)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("tick %d not delivered after 200ms of base", i)
		}
	}
}

func TestScaledTinyTickerPeriodDoesNotPanic(t *testing.T) {
	base := NewManual(epoch)
	c := Scaled(base, 1e6)
	tk := c.NewTicker(time.Nanosecond) // 1e-6 ns of base: floored to 1ns
	tk.Stop()
	tk.Stop() // idempotent
	if d := BaseDuration(c, time.Nanosecond); d != time.Nanosecond {
		t.Fatalf("BaseDuration(1ns) = %v, want the 1ns floor", d)
	}
}

func TestBaseDuration(t *testing.T) {
	base := NewManual(epoch)
	if d := BaseDuration(Scaled(base, 400), 2*time.Second); d != 5*time.Millisecond {
		t.Fatalf("BaseDuration at k=400 = %v, want 5ms", d)
	}
	if d := BaseDuration(base, 2*time.Second); d != 2*time.Second {
		t.Fatalf("BaseDuration on an unscaled clock = %v, want 2s", d)
	}
}

func TestOr(t *testing.T) {
	if _, ok := Or(nil).(*Real); !ok {
		t.Fatal("Or(nil) is not the wall clock")
	}
	m := NewManual(epoch)
	if Or(m) != Clock(m) {
		t.Fatal("Or(c) did not return c")
	}
}
