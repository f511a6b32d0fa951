package skel

import (
	"sync"
	"sync/atomic"
)

// queue is the per-worker input queue of a farm. Unlike a channel it
// supports the reconfiguration actuators: draining for rebalance, stealing
// on worker removal, and length observation for the QueueVarianceBean.
//
// Storage is a slice with a head cursor rather than a reslice-on-pop
// ([1:]) deque: popping advances head and pushing compacts the consumed
// prefix back to the front before growing, so a queue whose length is
// bounded in steady state reuses one backing array forever — the 0
// allocs/op budget of the batched hot path counts every push.
type queue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	items  []*envelope
	head   int          // items[:head] have been popped
	size   atomic.Int64 // mirrors len(items)-head; readable without mu
	closed bool
	failed bool // the owning worker crashed; items are stranded until recovery
}

func newQueue() *queue {
	q := &queue{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// appendLocked adds one envelope, recycling the consumed prefix of the
// backing array instead of growing when possible. Callers hold q.mu.
func (q *queue) appendLocked(t *envelope) {
	if len(q.items) == cap(q.items) && q.head > 0 {
		n := copy(q.items, q.items[q.head:])
		for i := n; i < len(q.items); i++ {
			q.items[i] = nil
		}
		q.items = q.items[:n]
		q.head = 0
	}
	q.items = append(q.items, t)
	q.size.Add(1)
}

// push appends a task. Pushing to a closed or failed queue reports false
// and leaves the task with the caller (it must be re-dispatched elsewhere).
// Refusing failed queues matters now that pushes happen outside Farm.mu: a
// task sent to a worker that crashed — and whose stranded queue was already
// drained by RecoverWorker — would otherwise land in an orphaned queue and
// be lost.
func (q *queue) push(t *envelope) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed || q.failed {
		return false
	}
	q.appendLocked(t)
	q.cond.Signal()
	return true
}

// pop blocks until a task is available, the queue is closed and empty, or
// the queue has failed. On failure the remaining items stay stranded in
// the queue for the fault-tolerance manager to recover.
func (q *queue) pop() (*envelope, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.head == len(q.items) && !q.closed && !q.failed {
		q.cond.Wait()
	}
	if q.failed || q.head == len(q.items) {
		return nil, false
	}
	t := q.items[q.head]
	q.items[q.head] = nil
	q.head++
	if q.head == len(q.items) {
		q.items = q.items[:0]
		q.head = 0
	}
	q.size.Add(-1)
	return t, true
}

// close marks the queue closed; pending items remain poppable.
func (q *queue) close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
}

// reopen lifts close: the owner stays on as a recovery target, and the
// next close (RecoverWorker's) lets it drain and exit again.
func (q *queue) reopen() {
	q.mu.Lock()
	q.closed = false
	q.mu.Unlock()
}

// fail marks the owning worker crashed, waking it so it can terminate.
func (q *queue) fail() {
	q.mu.Lock()
	q.failed = true
	q.cond.Broadcast()
	q.mu.Unlock()
}

// restore re-inserts tasks that were already accepted into the farm (by
// rebalance or worker removal). Unlike push it succeeds even on a closed
// or failed queue: closing only forbids *new* input, while redistributed
// tasks must never be lost.
func (q *queue) restore(items ...*envelope) {
	if len(items) == 0 {
		return
	}
	q.mu.Lock()
	for _, t := range items {
		q.appendLocked(t)
	}
	q.cond.Broadcast()
	q.mu.Unlock()
}

// drain removes and returns every queued task (the rebalance actuator
// collects all queues and redistributes).
func (q *queue) drain() []*envelope {
	q.mu.Lock()
	defer q.mu.Unlock()
	items := append([]*envelope(nil), q.items[q.head:]...)
	for i := range q.items {
		q.items[i] = nil
	}
	q.items = q.items[:0]
	q.head = 0
	q.size.Add(-int64(len(items)))
	return items
}

// len returns the current queue length from the atomic mirror, without
// taking the queue lock. OnDemand dispatch compares every worker's length
// per task, so this read must not contend with the workers' pop loops; the
// value can be one update stale against a concurrent push/pop, which is
// harmless for scheduling and for the QueueVarianceBean.
func (q *queue) len() int {
	return int(q.size.Load())
}
