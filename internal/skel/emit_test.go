package skel

import (
	"context"
	"encoding/binary"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/runtime/leaktest"
)

// TestReduceFoldSurvivesKillRecover drives a 4-worker Reduce farm through
// crashes and recoveries mid-stream. Workers fold their own results into
// the accumulator, so the fold must still equal the sequential sum (every
// task exactly once), and out must carry exactly that one result before it
// closes, once.
func TestReduceFoldSurvivesKillRecover(t *testing.T) {
	defer leaktest.Check(t)()
	f, err := NewFarm(FarmConfig{
		Name: "sum", Env: Env{TimeScale: 100}, RM: smpRM(16), InitialWorkers: 4,
		Collect: Reduce,
		Fn: func(t *Task) *Task {
			v := binary.BigEndian.Uint64(t.Payload)
			t.Payload = binary.BigEndian.AppendUint64(nil, 3*v+1)
			return t
		},
		Reduce: func(a, b []byte) []byte {
			return binary.BigEndian.AppendUint64(nil, binary.BigEndian.Uint64(a)+binary.BigEndian.Uint64(b))
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	const n = 600
	var want uint64
	for v := uint64(1); v <= n; v++ {
		want += 3*v + 1
	}
	in := make(chan *Task)
	out := make(chan *Task)
	results := make(chan []*Task, 1)
	go func() {
		var got []*Task
		for r := range out {
			got = append(got, r)
		}
		results <- got
	}()
	ran := make(chan struct{})
	go func() { f.Run(context.Background(), in, out); close(ran) }()
	waitFor(t, func() bool { return len(f.Workers()) == 4 })

	for v := uint64(1); v <= n; v++ {
		in <- &Task{ID: NextTaskID(), Work: 10 * time.Millisecond, Payload: binary.BigEndian.AppendUint64(nil, v)}
		if v%150 != 0 {
			continue
		}
		// Crash one worker with work in flight, move its stranded tasks
		// onto the survivors and restore the lost capacity.
		victim := f.Workers()[0].ID
		if err := f.KillWorker(victim); err != nil {
			t.Fatal(err)
		}
		if _, err := f.RecoverWorker(victim); err != nil {
			t.Fatal(err)
		}
		if _, err := f.AddWorker(); err != nil {
			t.Fatal(err)
		}
	}
	close(in)
	select {
	case <-ran:
	case <-time.After(30 * time.Second):
		t.Fatal("farm did not terminate")
	}
	got := <-results
	if len(got) != 1 {
		t.Fatalf("reduce emitted %d results, want 1", len(got))
	}
	if sum := binary.BigEndian.Uint64(got[0].Payload); sum != want {
		t.Fatalf("fold = %d, want the sequential sum %d", sum, want)
	}
	if c := f.Stats().Completed; c != n {
		t.Fatalf("departure meter counted %d, want %d", c, n)
	}
}

// TestGatherRunWaitsForSlowConsumer pins that Run returns only once every
// result was delivered: workers send on out directly, so with an
// unbuffered out and a slow consumer each result is handed over one at a
// time, and Run must still be running whenever any but the last arrives.
func TestGatherRunWaitsForSlowConsumer(t *testing.T) {
	defer leaktest.Check(t)()
	f, err := NewFarm(FarmConfig{Name: "slow", Env: fastEnv(), RM: smpRM(8), InitialWorkers: 4})
	if err != nil {
		t.Fatal(err)
	}
	const n = 40
	tasks := mkTasks(n, time.Millisecond)
	in := make(chan *Task, n)
	for _, task := range tasks {
		in <- task
	}
	close(in)
	out := make(chan *Task)
	var returned atomic.Bool
	early := make(chan int, n)
	seen := make(chan map[uint64]int, 1)
	go func() {
		ids := map[uint64]int{}
		for r := range out {
			ids[r.ID]++
			if len(ids) < n && returned.Load() {
				early <- len(ids)
			}
			time.Sleep(2 * time.Millisecond)
		}
		seen <- ids
	}()
	f.Run(context.Background(), in, out)
	returned.Store(true)
	ids := <-seen
	close(early)
	for k := range early {
		t.Errorf("result %d of %d was received after Run returned", k, n)
	}
	if len(ids) != n {
		t.Fatalf("received %d distinct results, want %d", len(ids), n)
	}
	for _, task := range tasks {
		if ids[task.ID] != 1 {
			t.Errorf("task %d received %d times", task.ID, ids[task.ID])
		}
	}
}
