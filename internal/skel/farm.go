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
	// BatchFlush bounds how long a partially filled batch may wait for
	// more input before it is sealed and pushed anyway (wall-clock; default
	// 500µs). Under saturation batches fill before the deadline and the
	// timer never fires; under trickle load it caps the added latency.
	BatchFlush time.Duration
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

// defaultBatchFlush is the flush-on-idle deadline when none is configured.
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

// WorkerFault describes a fault injected into one worker compute step.
type WorkerFault struct {
	// Stall delays the task by the given modelled duration first.
	Stall time.Duration
	// Panic makes the worker function panic (contained by runWorker).
	Panic bool
}

// SetWorkerFault installs (or, with nil, removes) the per-task fault hook.
func (f *Farm) SetWorkerFault(fn func(workerID string, t *Task) WorkerFault) {
	if fn == nil {
		f.workerFault.Store(nil)
		return
	}
	f.workerFault.Store(&fn)
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
	if cfg.BatchFlush <= 0 {
		cfg.BatchFlush = defaultBatchFlush
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
	f.routes.Store(&routeTable{workers: f.admittedLocked(nil, nil)})
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
		if _, err := f.AddWorker(); err != nil {
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

// emit is the C component of Fig. 2, run by the worker that computed env:
// it meters the departures, finishes the span, and forwards every result
// to the output stream, or under Reduce folds it into the accumulator
// that Run emits at end of stream. It recycles env.
func (f *Farm) emit(env *envelope) {
	f.departure.MarkN(len(env.out))
	f.collectSpan(env)
	if f.cfg.Collect == Reduce {
		f.accMu.Lock()
		for _, t := range env.out {
			if f.acc == nil {
				f.acc = t
			} else {
				f.acc.Payload = f.cfg.Reduce(f.acc.Payload, t.Payload)
			}
		}
		f.accMu.Unlock()
	} else if f.out != nil {
		for _, t := range env.out {
			f.out <- t
		}
	}
	putEnv(env)
}

// faultSpan publishes a partial span annotated with the fault that cut its
// task's normal path short (a park, a refused push, a remote link error, a
// contained panic). The retried task proceeds untraced — retry latency is
// the fault manager's story, and the published span records exactly the
// stages the task completed before the fault. Nil-safe.
func (f *Farm) faultSpan(sp *telemetry.Span, kind string) {
	if sp == nil {
		return
	}
	sp.Fault = kind
	f.cfg.Tracer.Publish(sp)
}

// collectSpan finishes an emitted envelope's span: the result stage ends
// at the worker's emit, one member span fans out per co-sampled member task
// other than the root, and the envelope span publishes into the ring and
// the stage histograms.
func (f *Farm) collectSpan(env *envelope) {
	sp := env.span
	if sp == nil {
		return
	}
	env.span = nil
	sp.Mark(telemetry.StageResult)
	tr := f.cfg.Tracer
	for _, t := range env.tasks {
		if t.ID != sp.TaskID && tr.Sampler().Decide(t.ID) {
			tr.PublishMember(sp, t.ID)
		}
	}
	tr.Publish(sp)
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
	avail := f.admittedLocked(nil, nil)
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

// flushPendingLocked re-dispatches every parked task; the add paths call
// it in the same critical section that makes a new worker dispatchable, so
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

// runWorker is one worker goroutine: pop, decode, compute, emit.
func (f *Farm) runWorker(w *worker) {
	for {
		env, ok := w.queue.pop()
		if !ok {
			// The queue looked closed and empty, but a concurrent
			// rebalance may have restored tasks into it; the check under
			// f.mu is authoritative because restores hold f.mu. A failed
			// worker always terminates, leaving its queue stranded.
			f.mu.Lock()
			if !w.failed && w.queue.len() > 0 {
				f.mu.Unlock()
				continue
			}
			if !w.failed && f.strandedLocked() && f.inPoolLocked(w) {
				// A crashed worker still strands accepted tasks, and
				// RecoverWorker needs a live worker to move them onto: stay
				// as that target until its close lets this worker go.
				w.queue.reopen()
				f.mu.Unlock()
				continue
			}
			w.exited = true
			w.node.Release()
			f.active--
			f.refreshRoutesLocked()
			f.maybeCloseResultsLocked()
			f.mu.Unlock()
			// Sole worker-termination path: every exit — drain, removal,
			// crash, migration retirement — releases the transport session
			// here, so a session can never outlive its worker.
			w.closeExec()
			return
		}
		if sp := env.span; sp != nil {
			sp.Mark(telemetry.StageQueueWait)
		}
		var crashed bool
		if w.exec != nil {
			crashed = f.computeRemote(w, env)
		} else {
			crashed = f.computeLocal(w, env)
		}
		if crashed {
			f.containPanic(w, env)
			continue // the failed queue makes the next pop report done
		}
		if n := len(env.out); n > 0 {
			w.served.Add(uint64(n))
			f.emit(env)
		} else {
			putEnv(env)
		}
	}
}

// computeLocal decodes and computes one envelope — every member task, in
// wire order. A panic in the worker function — or one injected by
// the fault hook — is contained here: it is reported as crashed instead of
// unwinding the process, and any partial results are discarded (env.out is
// cleared), so a recomputation after recovery re-derives every member's
// payload from the sealed wire bytes and emits each exactly once. The emit
// happens in the caller, outside the recover scope.
func (f *Farm) computeLocal(w *worker, env *envelope) (crashed bool) {
	env.out = env.out[:0]
	defer func() {
		if r := recover(); r != nil {
			crashed = true
			for i := range env.out {
				env.out[i] = nil
			}
			env.out = env.out[:0]
			f.reportErr(fmt.Errorf("skel: farm %s worker %s panicked on task %d: %v",
				f.cfg.Name, w.id, env.tasks[0].ID, r))
		}
	}()
	// The decode pays the binding codec's honest CPU cost and authenticates
	// the envelope — the security model charges both directions of a seal.
	// On the loopback plane the plaintext never left the process: env.tasks
	// still hold the exact payload bytes the dispatcher sealed (the decode
	// reproduces them bit for bit), so the decoded copy lands in a
	// worker-owned reusable buffer instead of escaping as a fresh
	// allocation per envelope. That buffer is what keeps steady-state
	// loopback dispatch at zero allocations per task. A Plain envelope
	// skips the decode: it would be a copy that cannot fail, authenticates
	// nothing and is thrown away.
	if _, isPlain := env.codec.(security.Plain); !isPlain {
		plain, err := security.AppendDecode(env.codec, w.plainBuf[:0], env.wire)
		if err != nil {
			f.faultSpan(env.span, "decode")
			env.span = nil
			f.reportErr(fmt.Errorf("skel: farm %s worker %s decode: %w", f.cfg.Name, w.id, err))
			return false
		}
		w.plainBuf = ReuseBuffer(plain)
	}
	if sp := env.span; sp != nil {
		// Loopback: reseal is the envelope decode, exec the member loop, and
		// the wire stage stays zero — no machine boundary was crossed.
		sp.Mark(telemetry.StageReseal)
	}
	for _, t := range env.tasks {
		work := t.Work
		if f.cfg.WorkOverride > 0 {
			work = f.cfg.WorkOverride
		}
		if f.memberFault(w, t) {
			panic(fmt.Sprintf("injected worker fault (task %d)", t.ID))
		}
		f.cfg.Env.Clock.Sleep(w.node.ServiceTime(work))
		if nw := f.cfg.Network; nw != nil && f.cfg.HomeDomain != "" {
			if lat := nw.LinkBetween(f.cfg.HomeDomain, w.node.Domain.Name).Latency; lat > 0 {
				f.cfg.Env.Clock.Sleep(lat)
			}
		}
		if res := applyFn(f.cfg.Fn, t); res != nil {
			env.out = append(env.out, res)
		}
	}
	if sp := env.span; sp != nil {
		sp.Mark(telemetry.StageExec)
	}
	return false
}

// memberFault consults the chaos plane's per-task fault hook before one
// member's compute step: it sleeps an injected stall and reports whether
// a panic was injected. Each compute body lands the panic its own way.
func (f *Farm) memberFault(w *worker, t *Task) (panics bool) {
	fp := f.workerFault.Load()
	if fp == nil {
		return false
	}
	fault := (*fp)(w.id, t)
	if fault.Stall > 0 {
		f.cfg.Env.Clock.Sleep(fault.Stall)
	}
	return fault.Panic
}

// computeRemote ships one envelope across the worker's transport session
// as one exec-batch round trip and blocks for the sealed result blob. The
// bytes handed to the session are exactly the bytes the binding codec
// produced at seal time — the transport never sees the plaintext — and the
// span's trace context rides inside them, so the workerd-side exec span
// shares this trace id. Any transport error (connection dropped, remote
// rejected the frame, result failed to authenticate) is mapped onto the
// worker-crash contract: the envelope strands on the worker's failed queue
// for the fault-tolerance manager to recover, because a broken link and a
// dead machine are the same fault. Unlike the loopback path there is no
// modelled link-latency charge: a remote worker pays the real latency of
// its framed connection.
//
// Member payloads are only overwritten once the whole result blob has
// authenticated and validated, so a crash mid-envelope leaves every
// member's plaintext pristine for recovery — exactly-once holds per member.
func (f *Farm) computeRemote(w *worker, env *envelope) (crashed bool) {
	env.out = env.out[:0]
	for _, t := range env.tasks {
		if f.memberFault(w, t) {
			// A remote worker cannot contain a panic in-process; the
			// injected fault lands as the crash it models.
			f.reportErr(fmt.Errorf("skel: farm %s worker %s injected fault on task %d",
				f.cfg.Name, w.id, t.ID))
			return true
		}
	}
	// A fault publishes the partial span and detaches it: the recovered
	// envelope retries untraced.
	sp := env.span
	fail := func(kind string, err error) bool {
		env.span = nil
		f.faultSpan(sp, kind)
		f.reportErr(fmt.Errorf("skel: farm %s worker %s remote exec of task %d (%d in envelope): %w",
			f.cfg.Name, w.id, env.tasks[0].ID, len(env.tasks), err))
		return true
	}
	sealedRes, execNanos, err := w.exec.ExecBatch(env.codec, env.wire)
	if err != nil {
		return fail("link", err)
	}
	if sp != nil {
		// Interval arithmetic across the clock boundary: the local round
		// trip splits into the remote-reported exec share and the wire
		// remainder — timestamps never cross machines.
		sp.MarkSplit(telemetry.StageWire, telemetry.StageExec, execNanos)
	}
	// A result that does not authenticate or validate is a link fault, not
	// a task fault: crash the worker so the envelope is recovered, never
	// emitted corrupt.
	blob, err := env.codec.Decode(sealedRes)
	if err != nil {
		return fail("auth", err)
	}
	if err := unpackResultInto(blob, env.tasks); err != nil {
		return fail("auth", err)
	}
	if sp != nil {
		sp.Mark(telemetry.StageReseal)
	}
	env.out = append(env.out, env.tasks...)
	return false
}

// containPanic turns a panicked worker into a crashed one, exactly as
// KillWorker would: the in-flight envelope is restored into the worker's
// own queue, the queue is failed so its tasks strand for the fault manager
// to recover, and the crash edge fires. The process never dies.
//
// A worker that has already been recovered — killed by the stall detector
// and drained by RecoverWorker while its task was still in flight, which a
// remote exec blocked in a link fault makes routine — is no longer in the
// pool, so restoring into its queue would strand the envelope invisibly.
// That late envelope is instead re-routed through the unified dispatch
// decision path, exactly like a parked task.
func (f *Farm) containPanic(w *worker, env *envelope) {
	// The crash annotates and publishes the partial span; the restored
	// envelope retries untraced (retry latency is the fault manager's story).
	f.faultSpan(env.span, "crash")
	env.span = nil
	f.mu.Lock()
	if !w.failed && !w.exited {
		w.failed = true
		w.queue.fail()
		f.refreshRoutesLocked()
	}
	if f.inPoolLocked(w) {
		// RecoverWorker drains under f.mu, so a restore landing here is
		// guaranteed a future drain. The envelope is restored intact;
		// RecoverWorker splits a batch back into tasks before redistribution.
		w.queue.restore(env)
		f.mu.Unlock()
		f.hooks.fire()
		return
	}
	// Late envelope: every member re-enters the unified decision path, one
	// task at a time (the envelope's sealed form belonged to the dead
	// binding).
	for _, t := range env.tasks {
		f.routeLocked(t)
	}
	f.mu.Unlock()
	f.hooks.fire()
	putEnv(env)
}

// newWorkerLocked builds a worker on the given node with the given binding
// codec. Callers hold f.mu (nextID is guarded by it).
func (f *Farm) newWorkerLocked(node *grid.Node, codec security.Codec) *worker {
	w := &worker{
		id:    fmt.Sprintf("%s.w%d", f.cfg.Name, f.nextID),
		node:  node,
		queue: newQueue(),
	}
	w.setCodec(codec)
	f.nextID++
	return w
}

// executorFor dials a transport session for the node through the
// configured factory. A nil factory — the loopback default — pins every
// worker in-process at zero cost. Callers must not hold f.mu: dialing is
// real network I/O.
func (f *Farm) executorFor(node *grid.Node) (Executor, error) {
	if f.cfg.Executors == nil {
		return nil, nil
	}
	return f.cfg.Executors(node)
}

// bindCodec installs c as w's binding codec. For a remote worker the new
// key must reach the workerd process before any task sealed with it can
// (the two-phase rekey crossing the wire inside a control frame sealed
// under the link's master codec), so the codec is pushed through the
// session first and the wrapper it returns — carrying the transport's key
// epoch — becomes the binding codec. Callers must not hold f.mu: the
// rekey is a real network write.
func (f *Farm) bindCodec(w *worker, c security.Codec) error {
	if w.exec != nil {
		wrapped, err := w.exec.Rekey(c)
		if err != nil {
			return err
		}
		c = wrapped
	}
	w.setCodec(c)
	return nil
}

// AddWorker recruits a node and adds a worker to the pool. It returns the
// new worker's ID. It is the ADD_EXECUTOR actuator.
func (f *Farm) AddWorker() (string, error) {
	return f.AddWorkerWithPrepare(nil)
}

// PrepareFunc runs between recruitment and the instant a new worker becomes
// dispatchable: it is the hook the two-phase multi-concern protocol of §3.2
// uses to let the security manager secure the binding *before* any task can
// reach the worker. setCodec installs the binding codec; returning an error
// aborts the addition and releases the recruited node.
type PrepareFunc func(id string, node *grid.Node, setCodec func(security.Codec)) error

// AddWorkerWithPrepare is AddWorker with a preparation phase.
func (f *Farm) AddWorkerWithPrepare(prepare PrepareFunc) (string, error) {
	return f.addWorker(prepare, false)
}

// AddRecoveryWorker recruits a worker even after the input stream has
// ended, for the sole purpose of processing tasks stranded by a crash. Its
// queue stays open until a subsequent RecoverWorker restores the stranded
// tasks into it and (post-stream) closes it, so the worker drains the
// recovered tasks and exits. It is the fault-tolerance manager's fallback
// when a crash leaves no live worker behind.
//
// Once the run has completed — the result stream is closed, meaning no
// stranded task can remain — it returns ErrStreamEnded: a worker recruited
// then would block forever on an open empty queue (goroutine + node leak)
// and any result it computed would be sent on the closed output stream.
func (f *Farm) AddRecoveryWorker() (string, error) {
	return f.AddRecoveryWorkerWithPrepare(nil)
}

// AddRecoveryWorkerWithPrepare is AddRecoveryWorker with the same
// preparation phase as AddWorkerWithPrepare, so recovery recruitment obeys
// the two-phase security protocol too: a replacement landing on an
// untrusted node gets its binding secured before any stranded task can
// reach it.
func (f *Farm) AddRecoveryWorkerWithPrepare(prepare PrepareFunc) (string, error) {
	return f.addWorker(prepare, true)
}

// addWorker is the body of both add paths: recruit, attach the transport
// session, run the prepare phase, then make the worker dispatchable and
// hand it any parked tasks in one critical section. A regular addition is
// refused once the input has ended, a recovery one only once the result
// stream has closed.
func (f *Farm) addWorker(prepare PrepareFunc, recovery bool) (string, error) {
	ended := func() bool {
		if recovery {
			return f.resultsClosed
		}
		return f.inputDone
	}
	f.mu.Lock()
	if ended() {
		f.mu.Unlock()
		return "", ErrStreamEnded
	}
	node, err := f.cfg.RM.Recruit(f.cfg.Recruit)
	if err != nil {
		f.recruitFailed = true
		f.mu.Unlock()
		return "", err
	}
	w := f.newWorkerLocked(node, security.Plain{})
	f.mu.Unlock()

	exec, err := f.executorFor(node)
	if err != nil {
		node.Release()
		return "", fmt.Errorf("skel: dial executor for %s: %w", w.id, err)
	}
	w.exec = exec

	if prepare != nil {
		// The worker is not yet visible to the dispatcher or RecoverWorker,
		// so the prepare phase (e.g. an SSL handshake) cannot race with task
		// sends. For a remote worker the codec install crosses the wire
		// (bindCodec); a failed rekey aborts the addition so a worker whose
		// binding the security manager could not secure never becomes
		// dispatchable — the two-phase guarantee holds across processes.
		var bindErr error
		setCodec := func(c security.Codec) {
			if err := f.bindCodec(w, c); err != nil && bindErr == nil {
				bindErr = err
			}
		}
		if err := prepare(w.id, node, setCodec); err != nil {
			node.Release()
			w.closeExec()
			return "", fmt.Errorf("skel: prepare for %s: %w", w.id, err)
		}
		if bindErr != nil {
			node.Release()
			w.closeExec()
			return "", fmt.Errorf("skel: prepare rekey for %s: %w", w.id, bindErr)
		}
	}

	f.mu.Lock()
	if ended() {
		f.mu.Unlock()
		node.Release()
		w.closeExec()
		return "", ErrStreamEnded
	}
	f.workers = append(f.workers, w)
	f.active++
	f.everHadWorker = true
	f.refreshRoutesLocked()
	f.flushPendingLocked()
	f.mu.Unlock()
	go f.runWorker(w)
	return w.id, nil
}

// RemoveWorker removes the most recently added worker, redistributing its
// queued tasks. It is the REMOVE_EXECUTOR actuator.
func (f *Farm) RemoveWorker() (string, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.workers) <= 1 {
		return "", ErrLastWorker
	}
	w := f.workers[len(f.workers)-1]
	if w.failed {
		return "", fmt.Errorf("skel: worker %s crashed; use RecoverWorker", w.id)
	}
	live := 0
	for _, other := range f.workers[:len(f.workers)-1] {
		if !other.exited && !other.failed {
			live++
		}
	}
	if live == 0 {
		return "", ErrLastWorker
	}
	f.workers = f.workers[:len(f.workers)-1]
	f.refreshRoutesLocked()
	orphans := f.splitEnvelopesLocked(w.queue.drain())
	w.queue.close()
	targets := f.restoreTargetsLocked(nil)
	for i, other := range targets {
		var share []*envelope
		for j := i; j < len(orphans); j += len(targets) {
			share = append(share, orphans[j])
		}
		other.queue.restore(share...)
	}
	return w.id, nil
}

// splitEnvelopesLocked flattens batch envelopes into one-task ones before
// redistribution: a batch's sealed blob was addressed to one binding, but
// redistribution scatters its members over many. Each member is re-sealed
// with the codec the batch was sealed with (payloads are still plaintext
// on the tasks), so every redistributed envelope carries one task and the
// codec it was sealed under. One-task envelopes pass through untouched.
// Callers hold f.mu.
func (f *Farm) splitEnvelopesLocked(envs []*envelope) []*envelope {
	split := false
	for _, env := range envs {
		if len(env.tasks) > 1 {
			split = true
			break
		}
	}
	if !split {
		return envs
	}
	out := make([]*envelope, 0, len(envs))
	for _, env := range envs {
		if len(env.tasks) <= 1 {
			out = append(out, env)
			continue
		}
		for i := range env.tasks {
			if one := f.sealEnvelope(nil, env.codec, env.tasks[i:i+1], nil, &f.sealBuf); one != nil {
				out = append(out, one)
			}
		}
		// A split batch's span cannot follow its members (they scatter over
		// many bindings); it publishes as a partial span annotated with the
		// redistribution that cut it short.
		f.faultSpan(env.span, "split")
		env.span = nil
		putEnv(env)
	}
	return out
}

// Rebalance redistributes every queued task evenly over the live workers.
// It is the BALANCE_LOAD actuator and, unlike new input, it also works
// after the stream has ended (the Fig. 4 rebalance at endStream).
func (f *Farm) Rebalance() {
	f.mu.Lock()
	defer f.mu.Unlock()
	var live []*worker
	for _, w := range f.workers {
		if !w.exited && !w.failed {
			live = append(live, w)
		}
	}
	targets := f.restoreTargetsLocked(nil)
	if len(targets) == 0 {
		return
	}
	var all []*envelope
	for _, w := range live {
		all = append(all, w.queue.drain()...)
	}
	all = f.splitEnvelopesLocked(all)
	for i, w := range targets {
		var share []*envelope
		for j := i; j < len(all); j += len(targets) {
			share = append(share, all[j])
		}
		w.queue.restore(share...)
	}
}

// KillWorker injects a crash fault into the named worker: it stops
// processing after its current task, its node is released, and its queued
// tasks remain stranded until RecoverWorker redistributes them. While
// stranded tasks exist the farm's output stream stays open, so a run with
// an unrecovered fault does not terminate — detecting and repairing this
// is the fault-tolerance manager's job.
func (f *Farm) KillWorker(workerID string) error {
	f.mu.Lock()
	for _, w := range f.workers {
		if w.id != workerID {
			continue
		}
		if w.failed || w.exited {
			f.mu.Unlock()
			return fmt.Errorf("skel: worker %s is already down", workerID)
		}
		w.failed = true
		w.queue.fail()
		f.refreshRoutesLocked()
		f.mu.Unlock()
		f.hooks.fire() // crash edge: wake the fault manager immediately
		return nil
	}
	f.mu.Unlock()
	return fmt.Errorf("%w: %s", ErrNoWorker, workerID)
}

// RecoverWorker repairs a crashed worker: its stranded tasks are
// redistributed over the live workers and the dead worker is removed from
// the pool. It is the fault-tolerance RECOVER actuator; replacing the lost
// capacity is a separate AddWorker decision.
func (f *Farm) RecoverWorker(workerID string) (recovered int, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	idx := -1
	var dead *worker
	for i, w := range f.workers {
		if w.id == workerID {
			idx, dead = i, w
			break
		}
	}
	if dead == nil {
		return 0, fmt.Errorf("%w: %s", ErrNoWorker, workerID)
	}
	if !dead.failed {
		return 0, fmt.Errorf("skel: worker %s has not failed", workerID)
	}
	live := f.restoreTargetsLocked(dead)
	orphans := f.splitEnvelopesLocked(dead.queue.drain())
	if len(orphans) > 0 && len(live) == 0 {
		// Nothing to recover onto: put the tasks back and refuse, so the
		// caller can AddWorker first.
		dead.queue.restore(orphans...)
		return 0, errors.New("skel: no live worker to recover onto")
	}
	for i, w := range live {
		var share []*envelope
		for j := i; j < len(orphans); j += len(live) {
			share = append(share, orphans[j])
		}
		w.queue.restore(share...)
	}
	f.workers = append(f.workers[:idx], f.workers[idx+1:]...)
	if f.inputDone {
		// Post-stream recovery targets (AddRecoveryWorker's, or a worker
		// that stayed on for a recovery) may have open queues; close every
		// live one so it drains the recovered tasks and exits — or stays on
		// again while another crashed worker still strands tasks.
		for _, w := range f.workers {
			if !w.failed && !w.exited {
				w.queue.close()
			}
		}
	}
	f.refreshRoutesLocked()
	f.maybeCloseResultsLocked()
	return len(orphans), nil
}

// MigrateWorker moves a worker to a freshly recruited node satisfying req
// (e.g. a faster or less loaded one): a replacement worker is created on
// the new node with the same binding codec, the queued tasks move over,
// and the old worker retires gracefully after its current task. It is the
// MIGRATE actuator behind the paper's "migration of poorly performing
// activities to faster execution resources" policy. It returns the new
// worker's ID.
func (f *Farm) MigrateWorker(workerID string, req grid.Request) (string, error) {
	f.mu.Lock()
	var old *worker
	for _, w := range f.workers {
		if w.id == workerID {
			old = w
			break
		}
	}
	if old == nil {
		f.mu.Unlock()
		return "", fmt.Errorf("%w: %s", ErrNoWorker, workerID)
	}
	if old.failed || old.exited {
		f.mu.Unlock()
		return "", fmt.Errorf("skel: worker %s is down; use RecoverWorker", workerID)
	}
	// The migration carries the binding codec observed here; a SetCodec
	// racing with the migration may land on the retiring worker and be
	// superseded, which is the same §3.2 reactive hazard SetCodec already
	// documents for in-flight envelopes.
	codec := old.getCodec()
	node, err := f.cfg.RM.Recruit(req)
	if err != nil {
		f.mu.Unlock()
		return "", err
	}
	f.mu.Unlock()

	// Dialing the replacement's session and re-keying it are real network
	// I/O, so both run off-lock; the pool is re-validated before the swap.
	exec, err := f.executorFor(node)
	if err != nil {
		node.Release()
		return "", fmt.Errorf("skel: migrate %s: %w", workerID, err)
	}
	if exec != nil {
		wrapped, err := exec.Rekey(codec)
		if err != nil {
			node.Release()
			_ = exec.Close()
			return "", fmt.Errorf("skel: migrate %s rekey: %w", workerID, err)
		}
		codec = wrapped
	}

	f.mu.Lock()
	idx := -1
	for i, w := range f.workers {
		if w == old {
			idx = i
			break
		}
	}
	if idx == -1 || old.failed || old.exited {
		// The worker crashed or left while we were dialing: abandon the
		// migration rather than resurrect it behind the fault manager's
		// back.
		f.mu.Unlock()
		node.Release()
		if exec != nil {
			_ = exec.Close()
		}
		return "", fmt.Errorf("skel: worker %s went down during migration", workerID)
	}
	fresh := f.newWorkerLocked(node, codec)
	fresh.exec = exec
	// Batch envelopes split on migration too, so every moved envelope
	// carries one task under the codec it was sealed with; the compute
	// bodies handle that cross-binding case (loopback decodes with the
	// carried codec, remote resolves a foreign codec by resealing).
	items := f.splitEnvelopesLocked(old.queue.drain())
	old.queue.close() // the old worker finishes its current task and exits
	fresh.queue.restore(items...)
	if f.inputDone {
		fresh.queue.close()
	}
	f.workers[idx] = fresh
	f.active++
	f.refreshRoutesLocked()
	f.mu.Unlock()
	go f.runWorker(fresh)
	return fresh.id, nil
}

// SetCodec rebinds a worker connection onto a (secure) codec. Subsequent
// sends to that worker use the new codec; in-flight envelopes — including
// a send that snapshotted its codec just before the rebind, since encoding
// runs outside f.mu — keep the one they were encoded with. That window is
// the §3.2 reactive hazard the two-phase protocol exists to avoid: securing
// a binding *before* the worker becomes dispatchable (PrepareFunc) is
// race-free, securing it reactively is not. It is the SECURE_BINDING
// actuator.
func (f *Farm) SetCodec(workerID string, c security.Codec) error {
	if c == nil {
		return errors.New("skel: nil codec")
	}
	f.mu.Lock()
	var target *worker
	for _, w := range f.workers {
		if w.id == workerID {
			target = w
			break
		}
	}
	f.mu.Unlock()
	if target == nil {
		return fmt.Errorf("%w: %s", ErrNoWorker, workerID)
	}
	// bindCodec runs off-lock: for a remote binding it writes the rekey
	// frame to the wire, and the actuator must not stall sensors behind
	// network I/O. If the worker vanishes concurrently the bind is
	// harmless (nobody dispatches to it any more) or surfaces as a rekey
	// error from the closing session.
	if err := f.bindCodec(target, c); err != nil {
		return fmt.Errorf("skel: rekey %s: %w", workerID, err)
	}
	return nil
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
