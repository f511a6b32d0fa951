package skel

import (
	"fmt"
	"time"

	"repro/internal/security"
	"repro/internal/telemetry"
)

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
