package skel

import (
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/runtime/leaktest"
)

// TestDispatchParksWhenAllWorkersCrashed proves the no-loss invariant under
// a total crash: tasks dispatched while every worker is failed are parked,
// not dropped, and flushed to the next worker that joins the pool — so a
// correlated crash storm delays the stream instead of losing part of it.
func TestDispatchParksWhenAllWorkersCrashed(t *testing.T) {
	defer leaktest.Check(t)()
	f, err := NewFarm(FarmConfig{
		Name: "park", Env: fastEnv(), RM: smpRM(8), InitialWorkers: 2,
	})
	if err != nil {
		t.Fatal(err)
	}

	const n = 24
	in := make(chan *Task)
	out := make(chan *Task, n+8)
	runDone := make(chan struct{})
	go func() { f.Run(context.Background(), in, out); close(runDone) }()

	// Feed a few tasks so both workers exist, then kill them all.
	tasks := mkTasks(n, 50*time.Millisecond)
	for i := 0; i < 4; i++ {
		in <- tasks[i]
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		killed := 0
		for _, w := range f.Workers() {
			if w.Failed {
				killed++
				continue
			}
			if err := f.KillWorker(w.ID); err == nil {
				killed++
			}
		}
		if killed >= 2 || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}

	// Everything dispatched now has no live worker to go to: it must park.
	for i := 4; i < n; i++ {
		in <- tasks[i]
	}
	close(in)

	// Recovery: a fresh worker joins (flushing the parked tasks), then the
	// crashed workers' stranded queues are recovered onto it.
	if _, err := f.AddRecoveryWorker(); err != nil {
		t.Fatalf("AddRecoveryWorker: %v", err)
	}
	for _, w := range f.Workers() {
		if w.Failed {
			if _, err := f.RecoverWorker(w.ID); err != nil {
				t.Fatalf("RecoverWorker(%s): %v", w.ID, err)
			}
		}
	}

	seen := map[uint64]int{}
	for r := range out {
		seen[r.ID]++
	}
	<-runDone
	if len(seen) != n {
		t.Fatalf("collected %d distinct tasks, want %d (parked tasks lost)", len(seen), n)
	}
	for id, c := range seen {
		if c != 1 {
			t.Fatalf("task %d collected %d times (exactly-once violated)", id, c)
		}
	}
}

// TestLiveWorkerStaysForPostStreamRecovery: when the stream ends while a
// crashed worker still strands tasks, the surviving worker must not drain
// and retire before the recovery runs — it is the only target
// RecoverWorker can move the stranded tasks onto.
func TestLiveWorkerStaysForPostStreamRecovery(t *testing.T) {
	defer leaktest.Check(t)()
	f, err := NewFarm(FarmConfig{
		Name: "stay", Env: fastEnv(), RM: smpRM(8), InitialWorkers: 2, Dispatch: RoundRobin,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Worker w0 blocks inside its first task until released, so the tasks
	// round-robin hands it afterwards wait in its queue.
	release := make(chan struct{})
	blocked := make(chan struct{})
	var once sync.Once
	f.SetWorkerFault(func(id string, _ *Task) WorkerFault {
		if id == "stay.w0" {
			once.Do(func() { close(blocked) })
			<-release
		}
		return WorkerFault{}
	})
	const n = 6
	in := make(chan *Task, n)
	out := make(chan *Task, n)
	runDone := make(chan struct{})
	go func() { f.Run(context.Background(), in, out); close(runDone) }()
	for _, task := range mkTasks(n, time.Millisecond) {
		in <- task
	}
	<-blocked
	for f.Stats().Dispatched < n {
		time.Sleep(time.Millisecond)
	}
	if err := f.KillWorker("stay.w0"); err != nil {
		t.Fatal(err)
	}
	close(in)
	// w1 finishes its own three tasks; then w0's stranded tasks must still
	// find it in the pool.
	for i := 0; i < n/2; i++ {
		<-out
	}
	time.Sleep(20 * time.Millisecond)
	got, err := f.RecoverWorker("stay.w0")
	if err != nil {
		close(release)
		t.Fatalf("RecoverWorker after the stream ended: %v", err)
	}
	if got == 0 {
		t.Error("no stranded task recovered")
	}
	close(release)
	seen := n / 2
	for range out {
		seen++
	}
	<-runDone
	if seen != n {
		t.Fatalf("collected %d tasks, want %d", seen, n)
	}
}
