package skel

import (
	"sync"
	"sync/atomic"
)

// queueBound is the number of member tasks a worker queue holds before the
// dispatcher's push waits for room: the farm's flow control. It counts
// tasks, not envelopes, so a farm's memory in flight follows its degree
// whatever DispatchBatch is (a 64-task envelope weighs 64). A queue under
// the bound always accepts one more envelope, so no envelope is too large
// to enter, and a push leaves a queue at most queueBound-1 tasks plus one
// envelope.
const queueBound = 512

// queue is the per-worker input queue of a farm. Unlike a channel it
// supports the reconfiguration actuators: draining for rebalance, stealing
// on worker removal, and length observation for the QueueVarianceBean.
//
// It is bounded by queueBound member tasks. push waits while the queue is
// full; pop wakes it only once the queue has drained below half the
// bound, so a saturated dispatcher parks once per half-queue rather than
// once per task; close, fail and drain wake it at once, so a push into a
// removed, killed or migrated worker is refused and re-routed instead of
// waiting on a queue nobody pops. restore never waits: the actuators call
// it under Farm.mu, and tasks already accepted must always find a place.
// A full queue thus parks the dispatcher, a parked dispatcher stops
// receiving its input channel, and the producer feeding that channel
// blocks in turn: backpressure runs from out through the queues and in
// back to the producer.
//
// Storage is a slice with a head cursor rather than a reslice-on-pop
// ([1:]) deque: popping advances head and pushing compacts the consumed
// prefix back to the front before growing, so a queue whose length is
// bounded in steady state reuses one backing array forever — the 0
// allocs/op budget of the batched hot path counts every push.
type queue struct {
	mu    sync.Mutex
	cond  *sync.Cond // an envelope arrived, or the queue closed or failed
	room  *sync.Cond // a parked push may retry
	items []*envelope
	head  int          // items[:head] have been popped
	size  atomic.Int64 // mirrors len(items)-head; readable without mu
	// tasks counts the member tasks of the queued envelopes, the measure
	// queueBound applies to; size stays in envelopes, the unit of the
	// QueueLens sensor and of shortest-queue selection.
	tasks  int
	parked bool // a push waits on room
	closed bool
	failed bool // the owning worker crashed; items are stranded until recovery
}

func newQueue() *queue {
	q := &queue{}
	q.cond = sync.NewCond(&q.mu)
	q.room = sync.NewCond(&q.mu)
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
	q.tasks += len(t.tasks)
}

// wakePushLocked releases a parked push to re-check the queue. Callers
// hold q.mu.
func (q *queue) wakePushLocked() {
	if q.parked {
		q.parked = false
		q.room.Broadcast()
	}
}

// push appends an envelope, first waiting while the queue holds
// queueBound tasks or more. Pushing to a closed or failed queue — or to
// one that closes or fails while the push waits — reports false and
// leaves the envelope with the caller (it must be re-dispatched
// elsewhere). Refusing failed queues matters because pushes happen outside
// Farm.mu: a task sent to a worker that crashed — and whose stranded queue
// was already drained by RecoverWorker — would otherwise land in an
// orphaned queue and be lost. Only the dispatcher pushes, and it holds no
// farm lock while it waits.
func (q *queue) push(t *envelope) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.tasks >= queueBound && !q.closed && !q.failed {
		q.parked = true
		q.room.Wait()
	}
	if q.closed || q.failed {
		return false
	}
	q.appendLocked(t)
	q.cond.Signal()
	return true
}

// pop blocks until a task is available, the queue is closed and empty, or
// the queue has failed. On failure the remaining items stay stranded in
// the queue for the fault-tolerance manager to recover. A parked push is
// woken once the queue holds fewer than half of queueBound tasks.
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
	q.tasks -= len(t.tasks)
	if q.tasks < queueBound/2 {
		q.wakePushLocked()
	}
	return t, true
}

// close marks the queue closed; pending items remain poppable, and a
// parked push is refused.
func (q *queue) close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.wakePushLocked()
	q.mu.Unlock()
}

// reopen lifts close: the owner stays on as a recovery target, and the
// next close (RecoverWorker's) lets it drain and exit again.
func (q *queue) reopen() {
	q.mu.Lock()
	q.closed = false
	q.mu.Unlock()
}

// fail marks the owning worker crashed, waking it so it can terminate and
// refusing a parked push.
func (q *queue) fail() {
	q.mu.Lock()
	q.failed = true
	q.cond.Broadcast()
	q.wakePushLocked()
	q.mu.Unlock()
}

// restore re-inserts tasks that were already accepted into the farm (by
// rebalance or worker removal). Unlike push it succeeds even on a closed
// or failed queue, and it never waits for room, so it may take the queue
// past queueBound: closing only forbids *new* input, redistributed tasks
// must never be lost, and its callers hold Farm.mu.
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
// collects all queues and redistributes), waking a parked push.
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
	q.tasks = 0
	q.wakePushLocked()
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
