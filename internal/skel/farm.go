package skel

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/grid"
	"repro/internal/metrics"
	"repro/internal/security"
	"repro/internal/telemetry"
)

// DispatchPolicy selects how the farm's dispatcher (the S component of
// Fig. 2) routes tasks to workers.
type DispatchPolicy int

// Dispatch policies of the functional replication pattern.
const (
	// OnDemand sends each task to the worker with the shortest queue.
	OnDemand DispatchPolicy = iota
	// RoundRobin cycles through the workers.
	RoundRobin
	// Broadcast clones every task to every worker (the multicast stream
	// variant of functional replication).
	Broadcast
)

// Farm reconfiguration errors.
var (
	ErrLastWorker  = errors.New("skel: cannot remove the last worker")
	ErrStreamEnded = errors.New("skel: input stream already ended")
	ErrNoWorker    = errors.New("skel: no such worker")
)

// CollectPolicy selects how the farm's C component of Fig. 2 assembles
// worker results into the output stream. C runs on the workers: each
// emits the results it just computed (see Farm.emit).
type CollectPolicy int

// Collect policies of the functional replication pattern.
const (
	// Gather forwards every result as it completes (the task-farm
	// default; output order follows completion order).
	Gather CollectPolicy = iota
	// Reduce folds all results into a single output task emitted at end
	// of stream, using FarmConfig.Reduce (which must be associative and
	// commutative, since completion order is nondeterministic). It is
	// called under a lock, never concurrently with itself.
	Reduce
)

// FarmInstruments are the optional latency histograms of the farm's hot
// path, in wall-clock seconds. Dispatch covers the whole route of one task
// (snapshot, target selection, encode, queue push); Seal isolates the
// codec encode so the encryption share is visible on its own. Observation
// is atomic and allocation-free; a nil Instruments costs one predictable
// branch per task.
type FarmInstruments struct {
	Dispatch *metrics.Histogram
	Seal     *metrics.Histogram
}

// FarmConfig parameterizes a task farm.
type FarmConfig struct {
	Name string
	Env  Env
	// Fn is the worker function.
	Fn Fn
	// RM supplies worker placements; Recruit constrains them.
	RM      *grid.ResourceManager
	Recruit grid.Request
	// InitialWorkers is the starting parallelism degree (default 1).
	InitialWorkers int
	// Dispatch selects the scheduling policy (default OnDemand).
	Dispatch DispatchPolicy
	// DispatchNode is where the dispatcher runs; it anchors the
	// security policy's link checks. Optional.
	DispatchNode *grid.Node
	// Policy and Auditor hook the security substrate into the farm's
	// bindings. Optional; with a nil Policy no send requires securing.
	Policy  *security.Policy
	Auditor *security.Auditor
	// Collect selects how results reach the output stream (default
	// Gather); with Reduce, the Reduce function folds payloads pairwise.
	Collect CollectPolicy
	Reduce  ReduceFn
	// WorkOverride, when positive, makes every task cost this much in the
	// farm regardless of the task's own Work.
	WorkOverride time.Duration
	// Instruments receives dispatch/seal latency observations. Optional.
	Instruments *FarmInstruments
	// Network and HomeDomain, when both set, charge every task the latency
	// of the link between HomeDomain (where the dispatcher runs)
	// and the worker's domain, on top of the task's service time. Optional;
	// it makes link degradation between domains observable to the managers.
	// The charge applies to loopback workers only: remote workers pay the
	// real latency of their framed connection instead.
	Network    *grid.Network
	HomeDomain string
	// Executors supplies per-node transport sessions at recruitment time.
	// Nil (the default) keeps every worker in-process — zero change to the
	// loopback hot path. See ExecutorFactory.
	Executors ExecutorFactory
	// Selector constrains which workers the unified dispatch decision path
	// may route tasks to (labels, trust domain, the `local` escape hatch).
	// The zero value admits every worker.
	Selector Selector
	// DispatchBatch is the most tasks the dispatcher coalesces per worker
	// into one sealed envelope: one codec seal and one queue push per
	// envelope instead of per task. Target selection still runs per task
	// through the unified decision path, so routing semantics do not
	// depend on it; only the envelope granularity changes.
	// 0 or 1 (the default) sends every task as a one-task envelope through
	// the same path, with no flush deadline.
	DispatchBatch int
	// Tracer samples per-task spans of the hot path's stage-latency
	// decomposition (enqueue, route, seal, queue-wait, wire, exec, reseal,
	// result). Like Instruments it is nil-gated; unlike Instruments the
	// sampling decision gates every clock read, so an unsampled task pays
	// one branch and one hash — no timestamps, no allocations. Broadcast
	// dispatch is not traced (clones would multiply one task id across
	// every worker's ring).
	Tracer *telemetry.TaskTracer
}

// maxDispatchBatch bounds DispatchBatch so a misconfigured farm cannot
// build envelopes whose sealed form dwarfs the wire frame limit.
const maxDispatchBatch = 1024

// defaultBatchFlush bounds how long a partially filled batch may wait for
// more input before it is sealed and pushed anyway (wall-clock). Under
// saturation batches fill before the deadline and the timer never fires;
// under trickle load it caps the added latency.
const defaultBatchFlush = 500 * time.Microsecond

// envelope is one message on a worker binding: up to DispatchBatch tasks
// plus their sealed blob, produced by the codec the binding had at dispatch
// time. Envelopes are pooled: the hot path recycles them (and their wire
// buffers) through the size-classed envelope pools, so steady-state
// dispatch allocates nothing. Ownership is linear — an envelope is held by
// exactly one of: the dispatcher, a queue, or a worker's compute-and-emit
// step; whoever drops it calls putEnv (a delivered envelope: Farm.emit).
type envelope struct {
	// tasks are the member tasks, in wire order. Member payloads stay
	// plaintext here (compute replaces them only after a decode), so
	// actuators can split a batch back into re-sealed one-task envelopes
	// without touching the sealed bytes.
	tasks []*Task
	// wire is the sealed envelope blob (see batch.go for its layout).
	wire  []byte
	codec security.Codec
	// out collects the completed result tasks of one compute step, which
	// the worker then emits.
	out []*Task
	// span is the envelope's sampled trace record, nil for the unsampled
	// (overwhelming) majority. Ownership rides with the envelope: the
	// goroutine currently holding the envelope stamps stages; the emit
	// (or a fault path) publishes and detaches it.
	span *telemetry.Span
}

// Envelope size classes. Each class has its own pool, and an envelope
// travels with its sealed buffer, so a queued or pooled envelope holds a
// buffer sized to its own payload's class rather than to the largest
// payload the farm has seen. The bounds are 1, 8, 64 and 512 KiB: a class
// wastes at most its 8x ratio on an envelope, and a 64-task batch blob of
// a few hundred bytes per task stays in a bounded class.
const (
	envClasses    = 4
	envClassMin   = 1 << 10 // bound of class 0
	envClassShift = 3       // each bound is 8x the one below

	// MaxRetainedBuffer is the largest buffer the data plane keeps for
	// reuse: an envelope buffer, or a connection's frame buffer, that grew
	// past it is dropped once the message in flight is done with it.
	MaxRetainedBuffer = envClassMin << (envClassShift * (envClasses - 1))
)

var envPools [envClasses]sync.Pool

// envClass returns the size class of an n-byte sealed buffer: the first
// class whose bound is at least n, or the largest class.
func envClass(n int) int {
	c, bound := 0, envClassMin
	for n > bound && c < envClasses-1 {
		c++
		bound <<= envClassShift
	}
	return c
}

// getEnv returns a pooled envelope from the class of the sealed size the
// caller is about to write (payload or blob length plus codec overhead).
func getEnv(sealedSize int) *envelope {
	if e, ok := envPools[envClass(sealedSize)].Get().(*envelope); ok {
		return e
	}
	return new(envelope)
}

// ReuseBuffer returns buf emptied for reuse, or nil once it has grown past
// MaxRetainedBuffer: one large message must not pin its size in a buffer
// that lives on. The farm's envelope and scratch buffers and the wire
// transport's per-connection frame buffers all go through it.
func ReuseBuffer(buf []byte) []byte {
	if cap(buf) > MaxRetainedBuffer {
		return nil
	}
	return buf[:0]
}

// putEnv clears the envelope's references (so pooled envelopes never pin
// tasks or codecs) while keeping slice capacity, and files it under the
// class of its buffer's capacity; a buffer past the largest class is
// dropped.
func putEnv(e *envelope) {
	for i := range e.tasks {
		e.tasks[i] = nil
	}
	for i := range e.out {
		e.out[i] = nil
	}
	e.tasks = e.tasks[:0]
	e.out = e.out[:0]
	e.wire = ReuseBuffer(e.wire)
	e.codec = nil
	e.span = nil
	envPools[envClass(cap(e.wire))].Put(e)
}

// routeTable is the atomically-swapped immutable snapshot of the admitted
// worker set: copy-on-write routing state, rebuilt under Farm.mu only when
// membership or admission changes (add, remove, migrate, crash, recover,
// worker exit), read lock-free by the dispatcher on every task. A stale
// table is harmless by construction: a departed worker's queue refuses
// pushes, which re-enters the task through routeLocked's authoritative
// under-lock path, and a not-yet-visible worker is simply not picked until
// the next swap.
type routeTable struct {
	workers []*worker
}

var emptyRoutes = &routeTable{}

// worker is one W component of the farm.
type worker struct {
	id    string
	node  *grid.Node
	queue *queue

	// exec, when non-nil, executes this worker's envelopes in another
	// process (the remote transport); nil means loopback. Immutable after
	// construction; closed when the worker leaves the pool.
	exec Executor

	// codec is the binding codec, swapped atomically by the SECURE_BINDING
	// actuator so the dispatcher can snapshot it without any lock.
	codec atomic.Pointer[security.Codec]

	served atomic.Uint64
	exited bool // guarded by Farm.mu
	failed bool // guarded by Farm.mu: crashed, queue items stranded

	// plainBuf is the worker goroutine's reusable decode buffer for
	// loopback compute: the decoded plaintext of an envelope is consulted
	// and dropped there (the member tasks already hold the same bytes), so
	// steady-state decode allocates nothing. Touched only by runWorker.
	plainBuf []byte
}

func (w *worker) getCodec() security.Codec { return *w.codec.Load() }

func (w *worker) setCodec(c security.Codec) { w.codec.Store(&c) }

// closeExec releases the worker's transport session, if any. Idempotent
// (the Executor contract requires it); called whenever the worker leaves
// the pool for good.
func (w *worker) closeExec() {
	if w.exec != nil {
		_ = w.exec.Close()
	}
}

// Farm is the task-farm skeleton: a dispatcher and a reconfigurable pool of
// workers with private queues, each worker acting as its own collector. It
// implements Stage and exposes the actuator surface used by the ABC:
// AddWorker, RemoveWorker, Rebalance, SetCodec.
type Farm struct {
	cfg FarmConfig

	mu            sync.Mutex
	workers       []*worker
	nextID        int
	inputDone     bool
	active        int // workers whose goroutine is still running
	resultsClosed bool

	// pending parks accepted tasks that momentarily have no live worker to
	// go to — every worker crashed at once and recovery has not landed yet.
	// They are flushed (re-dispatched) as soon as a worker joins the pool,
	// and the result stream stays open while any task is parked, so a
	// correlated crash storm delays tasks instead of losing them.
	pending []*Task

	// routes is the lock-free routing snapshot; refreshRoutesLocked rebuilds
	// it under f.mu at every membership change.
	routes atomic.Pointer[routeTable]

	// everHadWorker and recruitFailed distinguish "recovery is coming" from
	// "the pool never existed" when routeLocked finds nobody to route to: a
	// farm whose every recruitment failed must drop-with-error and let the
	// run terminate instead of parking tasks forever.
	everHadWorker bool
	recruitFailed bool

	// sealBuf is the blob scratch of the seals made under mu (reroutes,
	// park flushes, batch splits); the dispatcher has its own.
	sealBuf []byte

	// out is Run's output stream, set before any task can reach a worker;
	// workers send their results on it directly. done closes with the
	// result stream (maybeCloseResultsLocked): no worker is left to emit.
	out  chan<- *Task
	done chan struct{}
	// accMu guards acc, the Reduce fold the workers emit into.
	accMu sync.Mutex
	acc   *Task

	arrival     *metrics.RateMeter
	departure   *metrics.RateMeter
	errs        chan error
	errsDropped atomic.Uint64 // reportErr overflow, surfaced via Stats
	hooks       hooks

	// workerFault, when non-nil, is consulted once per task before the
	// compute step — the chaos plane's injection point for worker panics
	// and stalls. Like FarmInstruments it is nil-gated: unused, it costs a
	// single predictable branch per task, and it sits on the worker side of
	// the farm so the dispatch hot path is untouched.
	workerFault atomic.Pointer[func(workerID string, t *Task) WorkerFault]
}

// NewFarm validates cfg and builds the farm (workers are recruited when
// Run starts).
func NewFarm(cfg FarmConfig) (*Farm, error) {
	if cfg.Name == "" {
		cfg.Name = "farm"
	}
	if cfg.RM == nil {
		return nil, errors.New("skel: farm needs a resource manager")
	}
	if cfg.InitialWorkers <= 0 {
		cfg.InitialWorkers = 1
	}
	if cfg.Collect == Reduce && cfg.Reduce == nil {
		return nil, errors.New("skel: Reduce collection needs a Reduce function")
	}
	if cfg.DispatchBatch > maxDispatchBatch {
		return nil, fmt.Errorf("skel: DispatchBatch %d exceeds the maximum %d", cfg.DispatchBatch, maxDispatchBatch)
	}
	if cfg.DispatchBatch < 1 {
		cfg.DispatchBatch = 1
	}
	cfg.Env = cfg.Env.Modelled()
	f := &Farm{
		cfg:       cfg,
		done:      make(chan struct{}),
		arrival:   metrics.NewRateMeter(cfg.Env.Clock, rateWindow),
		departure: metrics.NewRateMeter(cfg.Env.Clock, rateWindow),
		errs:      make(chan error, 16),
	}
	f.routes.Store(emptyRoutes)
	return f, nil
}

// refreshRoutesLocked rebuilds the lock-free routing snapshot from the
// current pool. Every membership or admission change calls it before
// releasing f.mu, so the dispatcher's next load observes the new set.
func (f *Farm) refreshRoutesLocked() {
	f.routes.Store(&routeTable{workers: f.admittedLocked(nil)})
}

// Name implements Stage.
func (f *Farm) Name() string { return f.cfg.Name }

// OnEvent registers fn to be called on the farm's violation-relevant
// edges — a worker crash and the end of the input stream. It returns the
// unsubscribe function. fn must not block; it may be invoked from any
// farm goroutine. Reconfiguration echoes (addWorker, rebalance, recover)
// deliberately do not fire: see the hooks type.
func (f *Farm) OnEvent(fn func()) (cancel func()) { return f.hooks.subscribe(fn) }

// Run implements Stage: it recruits the initial workers, dispatches the
// input stream and blocks until every result has been delivered. The farm
// drains on cancel: it dispatches until its input closes, then lets the
// workers finish their queues. Workers send on out directly, so a slow
// consumer holds them back with no buffer in between, and each worker
// queue holds about queueBound tasks: once a target's queue is full the
// dispatcher waits for room and stops receiving from in, so a slow
// consumer or a slow worker holds the producer back too. Run therefore
// needs out drained while in is still being fed.
func (f *Farm) Run(_ context.Context, in <-chan *Task, out chan<- *Task) {
	f.mu.Lock()
	f.out = out
	f.mu.Unlock()
	for i := 0; i < f.cfg.InitialWorkers; i++ {
		if _, err := f.AddWorker(nil); err != nil {
			f.reportErr(fmt.Errorf("skel: farm %s initial worker %d: %w", f.cfg.Name, i, err))
			break
		}
	}
	f.newDispatcher().run(in)
	f.endInput()
	<-f.done
	// Every worker has exited, so no emit is in flight and acc is final.
	if out != nil {
		if f.acc != nil {
			out <- f.acc
		}
		close(out)
	}
}

// sendRouted routes one already-accepted task through the unified decision
// path under f.mu: the dispatcher's branch for a snapshot with no
// admissible worker. See routeLocked.
func (f *Farm) sendRouted(t *Task) {
	f.mu.Lock()
	f.routeLocked(t)
	f.mu.Unlock()
}

// routeLocked places one already-accepted task on an admissible worker. If
// no admissible worker exists but a crashed one is still in the pool,
// recovery is coming (the crash edge has fired), so the task is parked
// until a worker joins; parked tasks keep the result stream open exactly
// like a crashed worker's stranded queue. Without any crashed worker
// nobody will be summoned — recruitment failed or the selector admits
// nothing — and the task is dropped with an error rather than deadlocking
// the run.
//
// The task is placed, not pushed: it was accepted into the farm already,
// so the closed gate that bars new input after the stream ends must not
// bounce it (a bounced task would park again with nobody left to flush
// it), and because a worker decides to exit under f.mu, the target picked
// here cannot retire before popping it. Callers hold f.mu.
func (f *Farm) routeLocked(t *Task) {
	avail := f.admittedLocked(nil)
	hasFailed := false
	for _, w := range f.workers {
		if w.failed {
			hasFailed = true
			break
		}
	}
	// An empty pool that never held a worker is not a crash in progress:
	// every recruitment failed, no crash edge ever fired, and no recovery
	// is coming. Parking here would strand the task in pending forever and
	// maybeCloseResultsLocked would hold the result stream open against a
	// recovery that cannot arrive — the whole run deadlocks. Drop with an
	// error instead so the stream can terminate.
	if len(avail) == 0 && len(f.workers) == 0 && !f.everHadWorker && f.recruitFailed {
		f.reportErr(fmt.Errorf("skel: farm %s dropped task %d: recruitment failed and no worker ever joined", f.cfg.Name, t.ID))
		return
	}
	// An empty pool parks too — it can only arise from a recovery that is
	// about to recruit (an unmanaged farm never removes its last worker),
	// and parked tasks hold the result stream open until the recruit lands.
	if len(avail) == 0 && (hasFailed || len(f.workers) == 0) {
		f.pending = append(f.pending, t)
		return
	}
	target := f.decideTarget(avail, nil)
	if target == nil {
		f.reportErr(fmt.Errorf("skel: farm %s dropped task %d: no admissible worker", f.cfg.Name, t.ID))
		return
	}
	// The task is re-sealed with the target's own binding codec.
	one := [1]*Task{t}
	if env := f.sealEnvelope(target, target.getCodec(), one[:], nil, &f.sealBuf); env != nil {
		target.queue.restore(env)
	}
}

// flushPendingLocked re-dispatches every parked task; provision calls it
// in the same critical section that makes a new worker dispatchable, so
// no stream end can close the newcomer's queue in between. Each task goes
// through the unified decision path again and is re-encoded with its new
// binding's codec, so a task parked during a crash storm cannot leave with
// a codec negotiated for a worker that no longer exists. Callers hold f.mu.
func (f *Farm) flushPendingLocked() {
	parked := f.pending
	f.pending = nil
	for _, t := range parked {
		f.routeLocked(t)
	}
}

// endInput marks the stream exhausted and lets workers drain and exit.
func (f *Farm) endInput() {
	f.mu.Lock()
	f.inputDone = true
	for _, w := range f.workers {
		w.queue.close()
	}
	f.maybeCloseResultsLocked()
	f.mu.Unlock()
	f.hooks.fire() // endStream edge: wake the managers immediately
}

// maybeCloseResultsLocked ends the result stream (closes done, which lets
// Run close out) once no worker is running, the input is exhausted AND no
// crashed worker still strands accepted tasks (those must be recovered,
// not dropped). Callers hold f.mu.
func (f *Farm) maybeCloseResultsLocked() {
	if f.active != 0 || !f.inputDone || f.resultsClosed {
		return
	}
	if len(f.pending) > 0 {
		return // parked tasks: wait for a worker to join and flush them
	}
	if f.strandedLocked() {
		return // stranded tasks: wait for RecoverWorker
	}
	f.resultsClosed = true
	close(f.done)
}

// strandedLocked reports whether a crashed worker in the pool still holds
// accepted tasks in its queue. Callers hold f.mu.
func (f *Farm) strandedLocked() bool {
	for _, w := range f.workers {
		if w.failed && w.queue.len() > 0 {
			return true
		}
	}
	return false
}

// inPoolLocked reports whether w is still a member of the pool (not
// removed, recovered away or replaced by a migration). Callers hold f.mu.
func (f *Farm) inPoolLocked(w *worker) bool {
	for _, x := range f.workers {
		if x == w {
			return true
		}
	}
	return false
}

// WorkerInfo describes one worker for monitoring and the security manager.
type WorkerInfo struct {
	ID       string
	Node     *grid.Node
	QueueLen int
	Served   int
	Secure   bool
	Failed   bool
	// Remote reports that the worker executes in another process over a
	// transport session instead of in-process.
	Remote bool
}

// Workers returns a snapshot of the current worker pool.
func (f *Farm) Workers() []WorkerInfo {
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]WorkerInfo, len(f.workers))
	for i, w := range f.workers {
		out[i] = WorkerInfo{
			ID:       w.id,
			Node:     w.node,
			QueueLen: w.queue.len(),
			Served:   int(w.served.Load()),
			Secure:   w.getCodec().Secure(),
			Failed:   w.failed,
			Remote:   w.exec != nil,
		}
	}
	return out
}

// FarmStats is the sensor snapshot the ABC publishes as beans.
type FarmStats struct {
	Workers       int
	QueueLens     []int
	ArrivalRate   float64 // tasks per modelled second
	DepartureRate float64 // tasks per modelled second
	QueueVariance float64
	InputDone     bool
	Dispatched    uint64
	Completed     uint64
	// ErrorsDropped counts runtime errors lost to a full Errors() buffer:
	// most harnesses never drain that channel, so silent overflow would
	// hide dropped-task errors from every observer.
	ErrorsDropped uint64
	// RemoteWorkers counts pool members executing over a transport session.
	RemoteWorkers int
}

// Stats returns the current sensor snapshot.
func (f *Farm) Stats() FarmStats {
	f.mu.Lock()
	lens := make([]int, len(f.workers))
	remote := 0
	for i, w := range f.workers {
		lens[i] = w.queue.len()
		if w.exec != nil {
			remote++
		}
	}
	workers := len(f.workers)
	done := f.inputDone
	f.mu.Unlock()
	return FarmStats{
		Workers:       workers,
		QueueLens:     lens,
		ArrivalRate:   f.arrival.Rate(),
		DepartureRate: f.departure.Rate(),
		QueueVariance: metrics.QueueImbalance(lens),
		InputDone:     done,
		Dispatched:    f.arrival.Total(),
		Completed:     f.departure.Total(),
		ErrorsDropped: f.errsDropped.Load(),
		RemoteWorkers: remote,
	}
}

// Errors exposes asynchronous runtime errors (codec failures, dropped
// tasks). The channel is buffered; overflow is counted and surfaced as
// FarmStats.ErrorsDropped rather than vanishing.
func (f *Farm) Errors() <-chan error { return f.errs }

func (f *Farm) reportErr(err error) {
	select {
	case f.errs <- err:
	default:
		f.errsDropped.Add(1)
	}
}
