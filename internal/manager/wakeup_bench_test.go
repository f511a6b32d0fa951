package manager

import (
	"context"
	"testing"
	"time"

	"repro/internal/skel"
	"repro/internal/trace"
)

// benchmarkCrashDetection measures the wall-clock latency from an
// injected worker crash to its recovery by the fault manager's loop, with
// a deliberately long 100ms poll period so the two wake-up paths
// separate: the event-driven loop reacts in well under one period (the
// crash edge fires immediately), the poll-only baseline averages half a
// period. Run with:
//
//	go test ./internal/manager -bench WakeupLatency -benchtime 20x
func benchmarkCrashDetection(b *testing.B, pollOnly bool) {
	const period = 100 * time.Millisecond
	f, fa, in, count, stopFarm := newRunningFarmForFT(b)
	defer func() {
		stopFarm()
		<-count
	}()
	ft, err := NewFaultManager(FaultConfig{Log: trace.NewLog(), Period: period})
	if err != nil {
		b.Fatal(err)
	}
	ft.edges = !pollOnly // the tick-only baseline ignores crash edges
	ft.Watch(fa)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		_ = ft.Run(ctx)
	}()
	defer func() {
		cancel()
		<-done
	}()
	for !ft.running.Load() {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)

	// Keep a small standing backlog so recovery always has tasks to
	// redistribute.
	for i := 0; i < 4; i++ {
		in <- &skel.Task{ID: skel.NextTaskID(), Work: time.Second}
	}

	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		target := ft.Recovered() + 1
		var victim string
		for _, w := range f.Workers() {
			if !w.Failed {
				victim = w.ID
				break
			}
		}
		if victim == "" {
			b.Fatal("no live worker to crash")
		}
		if err := f.KillWorker(victim); err != nil {
			b.Fatal(err)
		}
		deadline := time.Now().Add(10 * time.Second)
		for ft.Recovered() < target {
			if time.Now().After(deadline) {
				b.Fatal("crash never recovered")
			}
			time.Sleep(50 * time.Microsecond)
		}
	}
}

// BenchmarkWakeupLatency compares the crash-to-recovery latency of the
// event-driven wake-up against the poll-only baseline. ns/op is the
// detection latency; expect event << period and poll ≈ period/2.
func BenchmarkWakeupLatency(b *testing.B) {
	b.Run("event", func(b *testing.B) { benchmarkCrashDetection(b, false) })
	b.Run("poll", func(b *testing.B) { benchmarkCrashDetection(b, true) })
}
