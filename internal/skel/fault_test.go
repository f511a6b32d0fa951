package skel

import (
	"context"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/runtime/leaktest"
)

func TestFarmReduceCollection(t *testing.T) {
	f, err := NewFarm(FarmConfig{
		Name: "sum", Env: fastEnv(), RM: smpRM(8), InitialWorkers: 4,
		Collect: Reduce,
		Fn: func(t *Task) *Task {
			// worker: payload -> its own length as one byte
			t.Payload = []byte{byte(len(t.Payload))}
			return t
		},
		Reduce: func(a, b []byte) []byte { return []byte{a[0] + b[0]} },
	})
	if err != nil {
		t.Fatal(err)
	}
	tasks := make([]*Task, 10)
	for i := range tasks {
		tasks[i] = &Task{ID: NextTaskID(), Payload: make([]byte, 3)}
	}
	results := runStage(t, f, tasks)
	if len(results) != 1 {
		t.Fatalf("reduce emitted %d results, want 1", len(results))
	}
	if got := results[0].Payload[0]; got != 30 {
		t.Fatalf("reduced value = %d, want 10*3=30", got)
	}
	if f.Stats().Completed != 10 {
		t.Fatalf("departure meter counted %d", f.Stats().Completed)
	}
}

func TestFarmReduceNeedsFunction(t *testing.T) {
	if _, err := NewFarm(FarmConfig{RM: smpRM(2), Collect: Reduce}); err == nil {
		t.Fatal("Reduce without Reduce fn accepted")
	}
}

func TestFarmReduceEmptyStream(t *testing.T) {
	f, _ := NewFarm(FarmConfig{
		Name: "sum", Env: fastEnv(), RM: smpRM(4),
		Collect: Reduce, Reduce: func(a, b []byte) []byte { return a },
	})
	results := runStage(t, f, nil)
	if len(results) != 0 {
		t.Fatalf("empty reduce emitted %d results", len(results))
	}
}

func TestKillWorkerStrandsTasksUntilRecovered(t *testing.T) {
	f, _ := NewFarm(FarmConfig{
		Name: "ft", Env: Env{TimeScale: 100}, RM: smpRM(8), InitialWorkers: 2,
	})
	in := make(chan *Task)
	out := make(chan *Task, 256)
	got := make(chan int, 1)
	go func() {
		n := 0
		for range out {
			n++
		}
		got <- n
	}()
	done := make(chan struct{})
	go func() { f.Run(context.Background(), in, out); close(done) }()
	waitFor(t, func() bool { return len(f.Workers()) == 2 })

	// Build a backlog on both workers with slow tasks.
	for i := 0; i < 20; i++ {
		in <- &Task{ID: NextTaskID(), Work: 2 * time.Second}
	}
	waitFor(t, func() bool { return f.Stats().Dispatched == 20 })

	victim := f.Workers()[0].ID
	if err := f.KillWorker(victim); err != nil {
		t.Fatal(err)
	}
	if err := f.KillWorker(victim); err == nil {
		t.Fatal("double kill accepted")
	}
	if err := f.KillWorker("nope"); err == nil {
		t.Fatal("kill of unknown worker accepted")
	}
	// The victim must be reported failed.
	waitFor(t, func() bool {
		for _, w := range f.Workers() {
			if w.ID == victim && w.Failed {
				return true
			}
		}
		return false
	})

	// Recover: stranded tasks move to the surviving worker.
	waitFor(t, func() bool {
		_, err := f.RecoverWorker(victim)
		return err == nil
	})
	if _, err := f.RecoverWorker(victim); err == nil {
		t.Fatal("double recover accepted")
	}
	close(in)
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("farm did not terminate after recovery")
	}
	if n := <-got; n != 20 {
		t.Fatalf("completed %d/20 after crash+recovery", n)
	}
}

func TestRecoverWorkerErrors(t *testing.T) {
	f, _ := NewFarm(FarmConfig{Name: "ft", Env: fastEnv(), RM: smpRM(4), InitialWorkers: 2})
	in := make(chan *Task)
	out := make(chan *Task, 16)
	go func() {
		for range out {
		}
	}()
	done := make(chan struct{})
	go func() { f.Run(context.Background(), in, out); close(done) }()
	waitFor(t, func() bool { return len(f.Workers()) == 2 })
	if _, err := f.RecoverWorker("nope"); err == nil {
		t.Fatal("recover of unknown worker accepted")
	}
	healthy := f.Workers()[0].ID
	if _, err := f.RecoverWorker(healthy); err == nil {
		t.Fatal("recover of healthy worker accepted")
	}
	close(in)
	<-done
}

func TestRemoveWorkerRefusesCrashed(t *testing.T) {
	f, _ := NewFarm(FarmConfig{Name: "ft", Env: fastEnv(), RM: smpRM(4), InitialWorkers: 2})
	in := make(chan *Task)
	out := make(chan *Task, 16)
	go func() {
		for range out {
		}
	}()
	done := make(chan struct{})
	go func() { f.Run(context.Background(), in, out); close(done) }()
	waitFor(t, func() bool { return len(f.Workers()) == 2 })
	last := f.Workers()[1].ID
	if err := f.KillWorker(last); err != nil {
		t.Fatal(err)
	}
	if _, err := f.RemoveWorker(); err == nil {
		t.Fatal("RemoveWorker removed a crashed worker")
	}
	if _, err := f.RecoverWorker(last); err != nil {
		t.Fatal(err)
	}
	close(in)
	<-done
}

// TestFarmConservationUnderChaos is the central safety property of the
// reconfigurable farm: whatever interleaving of addWorker, removeWorker,
// rebalance and kill/recover happens while a stream flows, every accepted
// task is eventually delivered exactly once.
func TestFarmConservationUnderChaos(t *testing.T) {
	run := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const total = 60
		f, err := NewFarm(FarmConfig{
			Name: "chaos", Env: Env{TimeScale: 2000}, RM: smpRM(16), InitialWorkers: 3,
		})
		if err != nil {
			return false
		}
		in := make(chan *Task)
		out := make(chan *Task, total)
		seen := make(chan map[uint64]int, 1)
		go func() {
			m := map[uint64]int{}
			for tsk := range out {
				m[tsk.ID]++
			}
			seen <- m
		}()
		done := make(chan struct{})
		go func() { f.Run(context.Background(), in, out); close(done) }()

		ids := map[uint64]bool{}
		for i := 0; i < total; i++ {
			id := NextTaskID()
			ids[id] = true
			in <- &Task{ID: id, Work: time.Duration(rng.Intn(40)) * time.Millisecond}
			switch rng.Intn(6) {
			case 0:
				f.AddWorker(nil)
			case 1:
				f.RemoveWorker()
			case 2:
				f.Rebalance()
			case 3:
				ws := f.Workers()
				if len(ws) > 1 {
					victim := ws[rng.Intn(len(ws))]
					if !victim.Failed {
						if err := f.KillWorker(victim.ID); err == nil {
							// recover immediately so capacity survives
							for {
								if _, err := f.RecoverWorker(victim.ID); err == nil {
									break
								}
								if _, err := f.AddRecoveryWorker(nil); err != nil {
									time.Sleep(time.Millisecond)
								}
							}
						}
					}
				}
			}
		}
		close(in)
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Log("chaos run hung")
			return false
		}
		m := <-seen
		if len(m) != total {
			t.Logf("seed %d: %d distinct tasks delivered, want %d", seed, len(m), total)
			return false
		}
		for id, n := range m {
			if !ids[id] || n != 1 {
				t.Logf("seed %d: task %d delivered %d times", seed, id, n)
				return false
			}
		}
		return true
	}
	if err := quick.Check(run, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// TestAddRecoveryWorkerAfterRunCompletes is the regression test for the
// post-run recovery leak: once the run has completed (results closed, no
// stranded tasks), AddRecoveryWorker must refuse instead of recruiting a
// worker that blocks forever on an open empty queue. On the old code this
// test fails twice over — the call succeeds and leaktest catches the
// leaked worker goroutine.
func TestAddRecoveryWorkerAfterRunCompletes(t *testing.T) {
	defer leaktest.Check(t)()
	rm := smpRM(4)
	f, _ := NewFarm(FarmConfig{Name: "ft", Env: fastEnv(), RM: rm, InitialWorkers: 1})
	runStage(t, f, mkTasks(2, 0)) // completes the stream
	if _, err := f.AddWorker(nil); err != ErrStreamEnded {
		t.Fatalf("AddWorker post-stream err = %v", err)
	}
	if _, err := f.AddRecoveryWorker(nil); err != ErrStreamEnded {
		t.Fatalf("AddRecoveryWorker after completed run err = %v, want ErrStreamEnded", err)
	}
	if rm.CoresInUse() != 0 {
		t.Fatalf("CoresInUse after refused recovery = %d, want 0", rm.CoresInUse())
	}
}

// TestAddRecoveryWorkerRecoversStrandedPostStream pins the legitimate
// window AddRecoveryWorker exists for: the input stream has ended but a
// crash left stranded tasks, so the result stream is still open and a
// recovery worker must be recruitable to drain them.
func TestAddRecoveryWorkerRecoversStrandedPostStream(t *testing.T) {
	defer leaktest.Check(t)()
	f, _ := NewFarm(FarmConfig{Name: "ft", Env: Env{TimeScale: 100}, RM: smpRM(4), InitialWorkers: 1})
	in := make(chan *Task)
	out := make(chan *Task, 16)
	got := make(chan int, 1)
	go func() {
		n := 0
		for range out {
			n++
		}
		got <- n
	}()
	done := make(chan struct{})
	go func() { f.Run(context.Background(), in, out); close(done) }()
	waitFor(t, func() bool { return len(f.Workers()) == 1 })

	for i := 0; i < 5; i++ {
		in <- &Task{ID: NextTaskID(), Work: 2 * time.Second}
	}
	waitFor(t, func() bool { return f.Stats().Dispatched == 5 })
	victim := f.Workers()[0].ID
	if err := f.KillWorker(victim); err != nil {
		t.Fatal(err)
	}
	close(in) // input done, but stranded tasks keep the results open

	id, err := f.AddRecoveryWorker(nil)
	if err != nil {
		t.Fatalf("AddRecoveryWorker with stranded tasks err = %v", err)
	}
	if id == "" {
		t.Fatal("no worker id")
	}
	waitFor(t, func() bool {
		_, err := f.RecoverWorker(victim)
		return err == nil
	})
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("farm did not terminate after post-stream recovery")
	}
	if n := <-got; n != 5 {
		t.Fatalf("completed %d/5 after post-stream recovery", n)
	}
}
