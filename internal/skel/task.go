// Package skel implements the algorithmic-skeleton runtime underneath the
// behavioural skeletons: stream sources and sinks, sequential stages,
// pipelines and task farms (the paper's functional replication pattern)
// built on goroutines and channels, with the dynamic reconfiguration
// mechanisms — add/remove worker, rebalance queues, throttle emission,
// switch a worker binding onto a secure codec — that the Autonomic
// Behaviour Controller exposes as actuators.
package skel

import (
	"context"
	"sync/atomic"
	"time"

	"repro/internal/simclock"
)

// Task is one stream element. Work is the nominal service time the task
// costs on a reference-speed core, in modelled time; the node a worker is
// placed on converts it into its own service time. Payload is the data the
// functional code — and the security codecs — operate on. Created is the
// wall-clock instant the task was emitted: task spans measure real latency
// from it, whatever clock the run's modelled time is on.
type Task struct {
	ID      uint64
	Payload []byte
	Work    time.Duration
	Created time.Time
}

// Clone returns a deep copy of the task (used by broadcast dispatch).
func (t *Task) Clone() *Task {
	cp := *t
	cp.Payload = append([]byte(nil), t.Payload...)
	return &cp
}

// Fn is the functional code of a stage: it transforms a task into its
// result. The runtime accounts for Work separately, so Fn should contain
// only the logical transformation. A nil Fn is the identity.
type Fn func(*Task) *Task

func applyFn(fn Fn, t *Task) *Task {
	if fn == nil {
		return t
	}
	return fn(t)
}

// Env carries the execution-environment knobs shared by all skeleton
// components of one application.
type Env struct {
	// Clock speaks modelled time: every duration the skeletons sleep or
	// measure is modelled (simclock.Scaled replays it faster). Nil means
	// the wall clock.
	Clock simclock.Clock
	// TimeScale, when > 0 and != 1, wraps Clock in simclock.Scaled; the
	// constructors fold it in through Modelled.
	TimeScale float64
}

// Modelled returns the Env with TimeScale folded into Clock and zeroed, so
// folding twice is a no-op. It is the only reader of TimeScale.
func (e Env) Modelled() Env {
	return Env{Clock: simclock.Scaled(simclock.Or(e.Clock), e.TimeScale)}
}

// taskIDs hands out process-wide unique task IDs.
var taskIDs atomic.Uint64

// NextTaskID returns a fresh task ID.
func NextTaskID() uint64 { return taskIDs.Add(1) }

// Stage is one stream-processing element: it consumes in, produces out and
// must close out when in is exhausted. Run blocks until done.
//
// Cancellation follows drain-on-cancel semantics: ctx reaching a Stage
// stops *intake* (the Source stops emitting and closes its output), while
// downstream stages keep draining the tasks already accepted until their
// input closes — no accepted task is dropped by a graceful shutdown.
type Stage interface {
	Name() string
	Run(ctx context.Context, in <-chan *Task, out chan<- *Task)
}
