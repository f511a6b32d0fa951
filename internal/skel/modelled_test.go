package skel

import (
	"context"
	"math"
	"testing"
	"time"

	"repro/internal/simclock"
)

// TestSourcePacesModelledIntervalOnScaledClock drives a source and a farm
// on Scaled(Manual, k): the source's modelled interval reaches the base
// clock divided by k, and the rate meters read modelled tasks per second
// straight off the clock.
func TestSourcePacesModelledIntervalOnScaledClock(t *testing.T) {
	const (
		k        = 10
		n        = 20
		interval = 500 * time.Millisecond // modelled: 2 tasks/s
	)
	base := simclock.NewManual(time.Unix(0, 0))
	env := Env{Clock: simclock.Scaled(base, k)}
	src := NewSource("src", env, n, interval, nil)
	farm, err := NewFarm(FarmConfig{Name: "f", Env: env, RM: smpRM(4), InitialWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	sink := NewSink("sink", env, nil)
	p, err := NewPipe("p", 4, src, farm, sink)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		p.Run(context.Background(), nil, nil)
	}()
	for i := 0; i < n; i++ {
		waitFor(t, func() bool { return base.PendingWaiters() == 1 })
		base.Advance(interval / k)
	}
	<-done
	if got := sink.Consumed(); got != n {
		t.Fatalf("consumed %d tasks, want %d", got, n)
	}
	if got, want := env.Clock.Now().Sub(time.Unix(0, 0)), time.Duration(n)*interval; got != want {
		t.Fatalf("modelled time elapsed = %v, want %v", got, want)
	}
	const want = 2.0 // tasks per modelled second
	if got := farm.Stats().ArrivalRate; math.Abs(got-want) > 0.2 {
		t.Fatalf("farm arrival rate = %.3f tasks/s, want %.1f modelled", got, want)
	}
	if got := src.Rate(); math.Abs(got-want) > 0.2 {
		t.Fatalf("source rate = %.3f tasks/s, want %.1f modelled", got, want)
	}
}
