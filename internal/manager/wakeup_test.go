package manager

import (
	"context"
	"testing"
	"time"

	"repro/internal/simclock"
	"repro/internal/skel"
	"repro/internal/trace"
)

// startFaultLoop runs ft.Run under a cancelable context and waits until
// the loop is live (edge subscriptions installed). The returned stop
// cancels the loop and waits for it to exit.
func startFaultLoop(t *testing.T, ft *FaultManager) (stop func()) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := ft.Run(ctx); err != nil {
			t.Error(err)
		}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for !ft.running.Load() {
		if time.Now().After(deadline) {
			t.Fatal("fault loop never started")
		}
		time.Sleep(time.Millisecond)
	}
	// The edge subscriptions follow the running flag on the same
	// goroutine within a few instructions; give them a beat.
	time.Sleep(20 * time.Millisecond)
	return func() {
		cancel()
		<-done
	}
}

// TestEventWakeupReactsWithinPollPeriod is the deterministic form of the
// wake-up latency claim. The fault manager's ticker runs on a manual
// clock that is never advanced, so the periodic path cannot fire at all:
// any recovery can only come from the crash-edge wake-up. Event-driven
// detection therefore reacts in strictly less than one poll period —
// here, in zero elapsed clock time.
func TestEventWakeupReactsWithinPollPeriod(t *testing.T) {
	f, fa, in, count, stopFarm := newRunningFarmForFT(t)
	clock := simclock.NewManual(time.Unix(0, 0))
	ft, err := NewFaultManager(FaultConfig{Log: trace.NewLog(), Clock: clock, Period: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	ft.Watch(fa)
	stopLoop := startFaultLoop(t, ft)

	for i := 0; i < 10; i++ {
		in <- &skel.Task{ID: skel.NextTaskID(), Work: 500 * time.Millisecond}
	}
	if err := f.KillWorker(f.Workers()[0].ID); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for ft.Recovered() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("edge wake-up never detected the crash (poll clock frozen)")
		}
		time.Sleep(time.Millisecond)
	}

	stopLoop()
	stopFarm()
	if n := <-count; n != 10 {
		t.Fatalf("completed %d/10", n)
	}
}

// TestPollOnlyWaitsForPollPeriod is the baseline half of the claim: with
// the loop's edge source cleared the crash edge is ignored, so detection
// needs the next tick — at least one full poll period away.
func TestPollOnlyWaitsForPollPeriod(t *testing.T) {
	f, fa, in, count, stopFarm := newRunningFarmForFT(t)
	clock := simclock.NewManual(time.Unix(0, 0))
	ft, err := NewFaultManager(FaultConfig{Log: trace.NewLog(), Clock: clock, Period: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	ft.edges = false
	ft.Watch(fa)
	stopLoop := startFaultLoop(t, ft)

	for i := 0; i < 10; i++ {
		in <- &skel.Task{ID: skel.NextTaskID(), Work: 500 * time.Millisecond}
	}
	if err := f.KillWorker(f.Workers()[0].ID); err != nil {
		t.Fatal(err)
	}
	// The edge fired but nobody listens; with the clock frozen short of
	// one period the crash must remain undetected.
	clock.Advance(time.Second - time.Millisecond)
	time.Sleep(50 * time.Millisecond)
	if got := ft.Recovered(); got != 0 {
		t.Fatalf("poll-only recovered %d crashes before the poll period elapsed", got)
	}
	// Completing the period delivers the tick and the detection.
	clock.Advance(2 * time.Millisecond)
	deadline := time.Now().Add(5 * time.Second)
	for ft.Recovered() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("poll tick never detected the crash")
		}
		time.Sleep(time.Millisecond)
	}

	stopLoop()
	stopFarm()
	if n := <-count; n != 10 {
		t.Fatalf("completed %d/10", n)
	}
}
