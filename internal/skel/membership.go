package skel

import (
	"errors"
	"fmt"

	"repro/internal/grid"
	"repro/internal/security"
)

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

// PrepareFunc runs between recruitment and the instant a new worker becomes
// dispatchable: it is the hook the two-phase multi-concern protocol of §3.2
// uses to let the security manager secure the binding *before* any task can
// reach the worker. setCodec installs the binding codec; returning an error
// aborts the addition and releases the recruited node.
type PrepareFunc func(id string, node *grid.Node, setCodec func(security.Codec)) error

// AddWorker recruits a node and adds a worker to the pool, running prepare
// (when non-nil) before the worker becomes dispatchable. It returns the new
// worker's ID. It is the ADD_EXECUTOR actuator, refused once the input has
// ended.
func (f *Farm) AddWorker(prepare PrepareFunc) (string, error) {
	return f.addWorker(prepare, false)
}

// AddRecoveryWorker is AddWorker for the sole purpose of processing tasks
// stranded by a crash, so it also works after the input stream has ended,
// and its prepare hook keeps recovery recruitment under the two-phase
// protocol too. Its queue stays open until a subsequent RecoverWorker
// restores the stranded tasks into it and (post-stream) closes it, so the
// worker drains the recovered tasks and exits. It is the fault-tolerance
// manager's fallback when a crash leaves no live worker behind.
//
// Once the run has completed — the result stream is closed, meaning no
// stranded task can remain — it returns ErrStreamEnded: a worker recruited
// then would block forever on an open empty queue (goroutine + node leak)
// and any result it computed would be sent on the closed output stream.
func (f *Farm) AddRecoveryWorker(prepare PrepareFunc) (string, error) {
	return f.addWorker(prepare, true)
}

// addWorker is the body of both add paths: the worker goes at the end of
// the pool, where RemoveWorker takes it back from. A regular addition is
// refused once the input has ended, a recovery one only once the result
// stream has closed (which implies the input ended).
func (f *Farm) addWorker(prepare PrepareFunc, recovery bool) (string, error) {
	admit := func() (security.Codec, error) {
		if f.resultsClosed || (f.inputDone && !recovery) {
			return nil, ErrStreamEnded
		}
		return nil, nil
	}
	return f.provision(f.cfg.Recruit, prepare, admit, func(w *worker) { f.workers = append(f.workers, w) })
}

// provision is the one provisioning step of every actuator that brings a
// worker in (AddWorker, AddRecoveryWorker, MigrateWorker). Under f.mu,
// admit vets the change and names the codec the worker starts from (nil
// keeps Plain, the zero epoch every session opens with), and a node is
// recruited under req. Off-lock — dialing, rekeys and the §3.2 handshake
// are real I/O — the transport session is dialed, the starting codec bound
// and the prepare hook run, so the binding is secured before any task can
// reach the worker, across processes too: a remote worker's codec install
// crosses the wire (bindCodec), and a failed rekey aborts the change. Back
// under f.mu, admit vets the change again (the pool may have moved
// meanwhile), place puts the worker in the pool, and the worker becomes
// dispatchable, takes any parked tasks and starts, all in one critical
// section, so no stream end can close its queue in between. Every failure
// releases the node and closes the session.
func (f *Farm) provision(req grid.Request, prepare PrepareFunc, admit func() (security.Codec, error), place func(*worker)) (string, error) {
	f.mu.Lock()
	start, err := admit()
	if err != nil {
		f.mu.Unlock()
		return "", err
	}
	node, err := f.cfg.RM.Recruit(req)
	if err != nil {
		f.recruitFailed = true
		f.mu.Unlock()
		return "", err
	}
	w := f.newWorkerLocked(node, security.Plain{})
	f.mu.Unlock()

	abort := func(err error) (string, error) {
		node.Release()
		w.closeExec()
		return "", err
	}
	exec, err := f.executorFor(node)
	if err != nil {
		return abort(fmt.Errorf("skel: dial executor for %s: %w", w.id, err))
	}
	w.exec = exec
	if start != nil {
		if err := f.bindCodec(w, start); err != nil {
			return abort(fmt.Errorf("skel: rekey %s: %w", w.id, err))
		}
	}
	if prepare != nil {
		// The worker is not yet visible to the dispatcher or RecoverWorker,
		// so the prepare phase (e.g. an SSL handshake) cannot race with task
		// sends.
		var bindErr error
		setCodec := func(c security.Codec) {
			if err := f.bindCodec(w, c); err != nil && bindErr == nil {
				bindErr = err
			}
		}
		if err := prepare(w.id, node, setCodec); err != nil {
			return abort(fmt.Errorf("skel: prepare for %s: %w", w.id, err))
		}
		if bindErr != nil {
			return abort(fmt.Errorf("skel: prepare rekey for %s: %w", w.id, bindErr))
		}
	}

	f.mu.Lock()
	if _, err := admit(); err != nil {
		f.mu.Unlock()
		return abort(err)
	}
	place(w)
	f.active++
	f.everHadWorker = true
	f.refreshRoutesLocked()
	f.flushPendingLocked()
	f.mu.Unlock()
	go f.runWorker(w)
	return w.id, nil
}

// lookupLocked returns the pool member with the given id and its index in
// the pool. Callers hold f.mu.
func (f *Farm) lookupLocked(workerID string) (int, *worker, error) {
	for i, w := range f.workers {
		if w.id == workerID {
			return i, w, nil
		}
	}
	return -1, nil, fmt.Errorf("%w: %s", ErrNoWorker, workerID)
}

// redistributeLocked is the one redistribution step of the actuators
// (RemoveWorker, Rebalance, RecoverWorker, MigrateWorker): it drains the
// queues of from, splits batch envelopes into one-task ones and deals them
// round-robin over targets, envelope i to targets[i%len(targets)]. restore
// never waits, so no actuator blocks under f.mu. It returns how many
// envelopes moved. Callers hold f.mu and pass a target whenever from holds
// tasks.
func (f *Farm) redistributeLocked(targets []*worker, from ...*worker) int {
	var all []*envelope
	for _, w := range from {
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
	return len(all)
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
	if len(f.liveLocked(w, Selector{})) == 0 {
		return "", ErrLastWorker
	}
	f.workers = f.workers[:len(f.workers)-1]
	f.refreshRoutesLocked()
	w.queue.close()
	f.redistributeLocked(f.restoreTargetsLocked(nil), w)
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
	if targets := f.restoreTargetsLocked(nil); len(targets) > 0 {
		f.redistributeLocked(targets, f.liveLocked(nil, Selector{})...)
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
	_, w, err := f.lookupLocked(workerID)
	if err == nil && (w.failed || w.exited) {
		err = fmt.Errorf("skel: worker %s is already down", workerID)
	}
	if err != nil {
		f.mu.Unlock()
		return err
	}
	w.failed = true
	w.queue.fail()
	f.refreshRoutesLocked()
	f.mu.Unlock()
	f.hooks.fire() // crash edge: wake the fault manager immediately
	return nil
}

// RecoverWorker repairs a crashed worker: its stranded tasks are
// redistributed over the live workers and the dead worker is removed from
// the pool. It is the fault-tolerance RECOVER actuator; replacing the lost
// capacity is a separate AddWorker decision.
func (f *Farm) RecoverWorker(workerID string) (recovered int, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	idx, dead, err := f.lookupLocked(workerID)
	if err != nil {
		return 0, err
	}
	if !dead.failed {
		return 0, fmt.Errorf("skel: worker %s has not failed", workerID)
	}
	live := f.restoreTargetsLocked(dead)
	if len(live) == 0 && dead.queue.len() > 0 {
		// Nothing to recover onto: leave the tasks stranded and refuse, so
		// the caller can AddWorker first.
		return 0, errors.New("skel: no live worker to recover onto")
	}
	recovered = f.redistributeLocked(live, dead)
	f.workers = append(f.workers[:idx], f.workers[idx+1:]...)
	if f.inputDone {
		// Post-stream recovery targets (AddRecoveryWorker's, or a worker
		// that stayed on for a recovery) may have open queues; close every
		// live one so it drains the recovered tasks and exits — or stays on
		// again while another crashed worker still strands tasks.
		for _, w := range f.liveLocked(nil, Selector{}) {
			w.queue.close()
		}
	}
	f.refreshRoutesLocked()
	f.maybeCloseResultsLocked()
	return recovered, nil
}

// MigrateWorker moves a worker to a freshly recruited node satisfying req
// (e.g. a faster or less loaded one): a replacement worker is provisioned
// on the new node starting from the old worker's binding codec, which the
// prepare hook (when non-nil) may upgrade — a worker that lands on an
// untrusted node is secured before its first task, as on any addition.
// The queued tasks move over, and the old worker retires gracefully after
// its current task. It is the MIGRATE actuator behind the paper's
// "migration of poorly performing activities to faster execution
// resources" policy. It returns the new worker's ID.
func (f *Farm) MigrateWorker(workerID string, req grid.Request, prepare PrepareFunc) (string, error) {
	var (
		idx int
		old *worker
	)
	// admit runs before recruitment and again before the swap: a worker
	// that crashed or left meanwhile abandons the migration rather than
	// being resurrected behind the fault manager's back.
	admit := func() (security.Codec, error) {
		var err error
		if idx, old, err = f.lookupLocked(workerID); err != nil {
			return nil, err
		}
		if old.failed || old.exited {
			return nil, fmt.Errorf("skel: worker %s is down; use RecoverWorker", workerID)
		}
		// The migration starts from the binding codec observed here; a
		// SetCodec racing with the migration may land on the retiring
		// worker and be superseded, which is the same §3.2 reactive hazard
		// SetCodec already documents for in-flight envelopes.
		return old.getCodec(), nil
	}
	return f.provision(req, prepare, admit, func(fresh *worker) {
		f.workers[idx] = fresh
		// The old worker finishes its current task and exits. Its batch
		// envelopes split on the way over, so every moved envelope carries
		// one task under the codec it was sealed with; the compute bodies
		// handle that cross-binding case (loopback decodes with the carried
		// codec, remote resolves a foreign codec by resealing).
		old.queue.close()
		f.redistributeLocked([]*worker{fresh}, old)
		if f.inputDone {
			fresh.queue.close()
		}
	})
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
	_, target, err := f.lookupLocked(workerID)
	f.mu.Unlock()
	if err != nil {
		return err
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
