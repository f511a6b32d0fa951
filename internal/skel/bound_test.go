package skel

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/grid"
	"repro/internal/runtime/leaktest"
)

// queueState reads q's queued member tasks and whether a push is parked
// on it.
func queueState(q *queue) (tasks int, parked bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.tasks, q.parked
}

// queueView is the farm's queue state: the most member tasks any worker
// queue holds, and the id of the worker whose queue a push is parked on
// ("" when the dispatcher is not parked).
func queueView(f *Farm) (maxTasks int, parkedOn string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, w := range f.workers {
		n, parked := queueState(w.queue)
		maxTasks = max(maxTasks, n)
		if parked {
			parkedOn = w.id
		}
	}
	return maxTasks, parkedOn
}

// boundRun is one farm run under a gate: a sender goroutine pushes the
// tasks into in and closes it, and a collector counts every result.
type boundRun struct {
	f       *Farm
	sent    atomic.Int64
	sendEnd chan struct{}
	runEnd  chan struct{}
	seen    chan map[uint64]int
}

func startBoundRun(t *testing.T, f *Farm, tasks []*Task) *boundRun {
	t.Helper()
	r := &boundRun{f: f, sendEnd: make(chan struct{}), runEnd: make(chan struct{}), seen: make(chan map[uint64]int, 1)}
	in := make(chan *Task)
	out := make(chan *Task)
	go func() {
		m := map[uint64]int{}
		for res := range out {
			m[res.ID]++
		}
		r.seen <- m
	}()
	go func() { f.Run(context.Background(), in, out); close(r.runEnd) }()
	waitFor(t, func() bool { return len(f.Workers()) == f.cfg.InitialWorkers })
	go func() {
		for _, task := range tasks {
			in <- task
			r.sent.Add(1)
		}
		close(in)
		close(r.sendEnd)
	}()
	return r
}

// waitParked waits until the dispatcher is parked on the full queue of
// worker id, or on any full queue when id is "".
func (r *boundRun) waitParked(t *testing.T, id string) {
	t.Helper()
	waitFor(t, func() bool { _, on := queueView(r.f); return on != "" && (id == "" || on == id) })
}

// waitSent fails the test unless the sender gets every task in.
func (r *boundRun) waitSent(t *testing.T, what string) {
	t.Helper()
	select {
	case <-r.sendEnd:
	case <-time.After(10 * time.Second):
		_, on := queueView(r.f)
		t.Fatalf("%s: the sender is still blocked after %d tasks (parked on %q)", what, r.sent.Load(), on)
	}
}

// finish waits for the run to end and checks that every task was
// delivered exactly once.
func (r *boundRun) finish(t *testing.T, tasks []*Task) {
	t.Helper()
	select {
	case <-r.runEnd:
	case <-time.After(20 * time.Second):
		t.Fatal("farm did not terminate")
	}
	m := <-r.seen
	if len(m) != len(tasks) {
		t.Fatalf("%d distinct tasks delivered, want %d", len(m), len(tasks))
	}
	for _, task := range tasks {
		if m[task.ID] != 1 {
			t.Fatalf("task %d delivered %d times, want exactly once", task.ID, m[task.ID])
		}
	}
}

// TestQueueBound: with every worker's Fn gated shut, a sender offering
// four times the bound stalls once the queues are full, no queue ever
// holds more than the bound plus one envelope of tasks, and once the gate
// opens every task arrives exactly once — batched or not.
func TestQueueBound(t *testing.T) {
	for _, batch := range []int{1, 64} {
		t.Run(fmt.Sprintf("batch=%d", batch), func(t *testing.T) {
			defer leaktest.Check(t)()
			gate := make(chan struct{})
			f, err := NewFarm(FarmConfig{
				Name: "bound", Env: fastEnv(), RM: smpRM(8), InitialWorkers: 2,
				DispatchBatch: batch,
				Fn:            func(task *Task) *Task { <-gate; return task },
			})
			if err != nil {
				t.Fatal(err)
			}
			tasks := mkTasks(4*queueBound, 0)
			r := startBoundRun(t, f, tasks)

			// Sample the queues while they fill, until the dispatcher parks.
			peak := 0
			waitFor(t, func() bool {
				n, on := queueView(f)
				peak = max(peak, n)
				return on != ""
			})
			sent := r.sent.Load()
			time.Sleep(20 * time.Millisecond)
			n, on := queueView(f)
			peak = max(peak, n)
			if on == "" || r.sent.Load() != sent || sent >= int64(len(tasks)) {
				t.Fatalf("sender not held back: sent %d then %d of %d, parked on %q", sent, r.sent.Load(), len(tasks), on)
			}
			if ceiling := queueBound - 1 + batch; peak > ceiling {
				t.Fatalf("a queue held %d tasks, over the bound plus one envelope (%d)", peak, ceiling)
			}

			close(gate)
			r.waitSent(t, "gate open")
			r.finish(t, tasks)
		})
	}
}

// TestParkedPushWakes parks the dispatcher on a worker's full queue — that
// worker is gated, its peer runs free — and releases it with each
// reconfiguration actuator. Each must get the sender moving again and
// deliver every task exactly once, leaving no goroutine behind.
func TestParkedPushWakes(t *testing.T) {
	cases := []struct {
		name    string
		workers int
		// release runs while the dispatcher is parked on victim; after
		// the sender finishes, the gate opens and settle (if any) runs.
		release func(t *testing.T, r *boundRun, victim string)
		settle  func(t *testing.T, r *boundRun, victim string)
	}{
		{
			name: "KillWorker", workers: 2,
			release: func(t *testing.T, r *boundRun, victim string) {
				if err := r.f.KillWorker(victim); err != nil {
					t.Fatal(err)
				}
			},
			// The killed worker strands its queue; the live one stays on
			// past the stream's end as the recovery target.
			settle: func(t *testing.T, r *boundRun, victim string) {
				if _, err := r.f.RecoverWorker(victim); err != nil {
					t.Fatal(err)
				}
			},
		},
		{
			name: "RemoveWorker", workers: 2,
			release: func(t *testing.T, r *boundRun, victim string) {
				if id, err := r.f.RemoveWorker(); err != nil || id != victim {
					t.Fatalf("RemoveWorker = %q, %v; want %q", id, err, victim)
				}
			},
		},
		{
			name: "Rebalance", workers: 2,
			// Each rebalance halves the gated queue, so the dispatcher
			// runs until it is full again: repeat until the sender is done.
			release: func(t *testing.T, r *boundRun, _ string) {
				deadline := time.After(10 * time.Second)
				for {
					r.f.Rebalance()
					select {
					case <-r.sendEnd:
						return
					case <-deadline:
						t.Fatalf("sender still blocked after rebalancing (%d sent)", r.sent.Load())
					case <-time.After(time.Millisecond):
					}
				}
			},
		},
		{
			name: "MigrateWorker", workers: 2,
			release: func(t *testing.T, r *boundRun, victim string) {
				if _, err := r.f.MigrateWorker(victim, grid.Request{}); err != nil {
					t.Fatal(err)
				}
			},
		},
		{
			// The sole worker crashes with the dispatcher parked on it: the
			// refused push and the rest of the stream park in the farm
			// until a recovery worker joins and RecoverWorker hands it the
			// stranded queue.
			name: "RecoverWorker", workers: 1,
			release: func(t *testing.T, r *boundRun, victim string) {
				if err := r.f.KillWorker(victim); err != nil {
					t.Fatal(err)
				}
			},
			settle: func(t *testing.T, r *boundRun, victim string) {
				if _, err := r.f.AddRecoveryWorker(); err != nil {
					t.Fatal(err)
				}
				if n, err := r.f.RecoverWorker(victim); err != nil || n == 0 {
					t.Fatalf("RecoverWorker = %d, %v; want the stranded queue", n, err)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			defer leaktest.Check(t)()
			f, err := NewFarm(FarmConfig{
				Name: "wake", Env: fastEnv(), RM: smpRM(8), InitialWorkers: tc.workers,
				Dispatch: RoundRobin,
			})
			if err != nil {
				t.Fatal(err)
			}
			victim := fmt.Sprintf("wake.w%d", tc.workers-1)
			gate := make(chan struct{})
			var openGate sync.Once
			defer openGate.Do(func() { close(gate) })
			f.SetWorkerFault(func(id string, _ *Task) WorkerFault {
				if id == victim {
					<-gate
				}
				return WorkerFault{}
			})
			tasks := mkTasks(4*queueBound, 0)
			r := startBoundRun(t, f, tasks)
			// A burst can fill the free worker's queue too, but only the
			// gated one holds the dispatcher for good.
			r.waitParked(t, victim)
			tc.release(t, r, victim)
			r.waitSent(t, tc.name)
			openGate.Do(func() { close(gate) })
			if tc.settle != nil {
				tc.settle(t, r, victim)
			}
			r.finish(t, tasks)
		})
	}
}

// TestRestoreExceedsBound: the actuators place already-accepted tasks with
// restore, under Farm.mu, so they must never wait for room. With every
// worker gated and the dispatcher parked, RemoveWorker and Rebalance push
// the survivors' queues past the bound and still return at once.
func TestRestoreExceedsBound(t *testing.T) {
	defer leaktest.Check(t)()
	gate := make(chan struct{})
	f, err := NewFarm(FarmConfig{
		Name: "exceed", Env: fastEnv(), RM: smpRM(8), InitialWorkers: 3,
		Dispatch: RoundRobin,
		Fn:       func(task *Task) *Task { <-gate; return task },
	})
	if err != nil {
		t.Fatal(err)
	}
	tasks := mkTasks(4*queueBound, 0)
	r := startBoundRun(t, f, tasks)
	r.waitParked(t, "")

	within := func(what string, fn func()) {
		t.Helper()
		done := make(chan struct{})
		go func() { fn(); close(done) }()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			close(gate)
			t.Fatalf("%s blocked on a full queue", what)
		}
	}
	within("RemoveWorker", func() {
		if _, err := f.RemoveWorker(); err != nil {
			t.Error(err)
		}
	})
	within("Rebalance", f.Rebalance)
	if peak, _ := queueView(f); peak <= queueBound {
		t.Fatalf("largest queue holds %d tasks after redistribution, want more than the bound %d", peak, queueBound)
	}

	close(gate)
	r.waitSent(t, "gate open")
	r.finish(t, tasks)
}

// TestQueuePushWakesAtHalf: a push into a full queue waits, and pops wake
// it only once the queue is below half the bound — one wake per half
// queue, not one per task.
func TestQueuePushWakesAtHalf(t *testing.T) {
	q := newQueue()
	one := func() *envelope { return &envelope{tasks: []*Task{{ID: NextTaskID()}}} }
	for i := 0; i < queueBound; i++ {
		if !q.push(one()) {
			t.Fatal("push refused below the bound")
		}
	}
	pushed := make(chan bool)
	go func() { pushed <- q.push(one()) }()
	waitFor(t, func() bool { _, parked := queueState(q); return parked })
	for i := 0; i < queueBound/2; i++ {
		if _, ok := q.pop(); !ok {
			t.Fatal("pop failed")
		}
	}
	select {
	case <-pushed:
		t.Fatalf("push woke at %d queued tasks, before the queue fell below half the bound", q.len())
	case <-time.After(20 * time.Millisecond):
	}
	if _, ok := q.pop(); !ok {
		t.Fatal("pop failed")
	}
	select {
	case ok := <-pushed:
		if !ok {
			t.Fatal("woken push refused by an open queue")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("push still parked below half the bound")
	}

	// A parked push into a queue that closes is refused, not left waiting.
	for q.len() < queueBound {
		q.restore(one())
	}
	go func() { pushed <- q.push(one()) }()
	waitFor(t, func() bool { _, parked := queueState(q); return parked })
	q.close()
	select {
	case ok := <-pushed:
		if ok {
			t.Fatal("push into a closed queue accepted")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("parked push still waiting after the queue closed")
	}
}
