package skel

import (
	"encoding/binary"
	"fmt"
	"slices"
	"time"

	"repro/internal/security"
	"repro/internal/telemetry"
)

// This file implements the farm's dispatch hot path. The dispatcher routes
// every task through decideTarget and coalesces up to DispatchBatch tasks
// per worker into one sealed envelope — one codec seal and one queue push
// per envelope — with a flush-on-idle deadline bounding latency under
// trickle load. An unbatched farm is the DispatchBatch 1 case of the same
// path: each task flushes as a one-task envelope the moment it is routed,
// and the deadline never arms.
//
// Envelope blob layout (plaintext; the whole blob is then sealed once by
// the binding codec):
//
//	trace context (17 bytes: uint64 traceID | uint64 spanID | flags)
//	uint32 count
//	count × { uint64 id | int64 work(ns) | uint32 len | payload }
//
// Result blob layout (sealed the same way on the return path):
//
//	uint32 count
//	count × { uint64 id | uint32 len | payload }
//
// All integers are big-endian, matching the wire package's framing. The
// trace context travels inside the seal because the blob is the envelope:
// whatever transport or queue it crosses, the sampled bit and trace id
// stay with the members, and an unsampled envelope pays 17 zero bytes.

// BatchEntry is one member of a decoded batch blob, as seen by the remote
// execution server.
type BatchEntry struct {
	ID      uint64
	Work    time.Duration
	Payload []byte
}

// appendBatchBlob packs the tasks into a batch blob appended onto dst.
// override, when positive, replaces every member's nominal work (the farm
// applies WorkOverride at pack time so the remote server needs no config).
// tc is the envelope's trace context (zero when unsampled).
func appendBatchBlob(dst []byte, tasks []*Task, override time.Duration, tc telemetry.TraceContext) []byte {
	dst = tc.AppendTo(dst)
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(tasks)))
	for _, t := range tasks {
		work := t.Work
		if override > 0 {
			work = override
		}
		dst = binary.BigEndian.AppendUint64(dst, t.ID)
		dst = binary.BigEndian.AppendUint64(dst, uint64(work))
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(t.Payload)))
		dst = append(dst, t.Payload...)
	}
	return dst
}

// errBlob reports a structurally invalid batch or result blob.
func errBlob(what string) error { return fmt.Errorf("skel: malformed batch %s blob", what) }

// ParseBatchBlob decodes a batch blob into its trace context and entries,
// appended onto dst (payloads are subslices of blob), so a server that
// keeps one entry slice per connection parses without allocating. It is
// the remote execution server's view of a batch frame; internal/wire and
// workerd use it.
func ParseBatchBlob(dst []BatchEntry, blob []byte) (telemetry.TraceContext, []BatchEntry, error) {
	if len(blob) < telemetry.TraceContextSize+4 {
		return telemetry.TraceContext{}, nil, errBlob("task")
	}
	tc, err := telemetry.ParseTraceContext(blob)
	if err != nil {
		return telemetry.TraceContext{}, nil, err
	}
	blob = blob[telemetry.TraceContextSize:]
	count := int(binary.BigEndian.Uint32(blob))
	if count < 0 || count > maxDispatchBatch {
		return tc, nil, errBlob("task")
	}
	entries := slices.Grow(dst, count)
	off := 4
	for i := 0; i < count; i++ {
		if len(blob)-off < 20 {
			return tc, nil, errBlob("task")
		}
		id := binary.BigEndian.Uint64(blob[off:])
		work := time.Duration(binary.BigEndian.Uint64(blob[off+8:]))
		n := int(binary.BigEndian.Uint32(blob[off+16:]))
		off += 20
		if n < 0 || len(blob)-off < n {
			return tc, nil, errBlob("task")
		}
		entries = append(entries, BatchEntry{ID: id, Work: work, Payload: blob[off : off+n : off+n]})
		off += n
	}
	if off != len(blob) {
		return tc, nil, errBlob("task")
	}
	return tc, entries, nil
}

// AppendBatchResult packs result entries (Work is ignored) into a result
// blob appended onto dst — the server-side counterpart of unpackResultInto.
func AppendBatchResult(dst []byte, results []BatchEntry) []byte {
	dst = binary.BigEndian.AppendUint32(dst, uint32(len(results)))
	for _, r := range results {
		dst = binary.BigEndian.AppendUint64(dst, r.ID)
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(r.Payload)))
		dst = append(dst, r.Payload...)
	}
	return dst
}

// unpackResultInto validates a whole result blob against the envelope's
// tasks and only then assigns the result payloads. The two-pass shape is
// deliberate: a blob that fails validation halfway must leave every member
// payload untouched, because the envelope strands for recovery and a later
// recompute would otherwise start from half-transformed payloads.
func unpackResultInto(blob []byte, tasks []*Task) error {
	if len(blob) < 4 {
		return errBlob("result")
	}
	count := int(binary.BigEndian.Uint32(blob))
	if count != len(tasks) {
		return fmt.Errorf("skel: batch result carries %d entries, envelope %d tasks", count, len(tasks))
	}
	off := 4
	for _, t := range tasks {
		if len(blob)-off < 12 {
			return errBlob("result")
		}
		id := binary.BigEndian.Uint64(blob[off:])
		n := int(binary.BigEndian.Uint32(blob[off+8:]))
		off += 12
		if id != t.ID {
			return fmt.Errorf("skel: batch result entry %d does not match envelope task %d", id, t.ID)
		}
		if n < 0 || len(blob)-off < n {
			return errBlob("result")
		}
		off += n
	}
	if off != len(blob) {
		return errBlob("result")
	}
	off = 4
	for _, t := range tasks {
		n := int(binary.BigEndian.Uint32(blob[off+8:]))
		off += 12
		t.Payload = blob[off : off+n : off+n]
		off += n
	}
	return nil
}

// ExecOne runs one sealed task payload through be's envelope round trip as
// a one-member batch blob: the Exec half of an Executor built on
// ExecBatch. The payload is opened with codec, packed under tc and sealed
// again with codec, and the member's result comes back re-sealed with
// codec, so the caller sees exactly the Executor.Exec contract. It
// allocates per call; the farm never takes this path.
func ExecOne(be BatchExecutor, tc telemetry.TraceContext, taskID uint64, work time.Duration, codec security.Codec, sealed []byte) ([]byte, int64, error) {
	plain, err := codec.Decode(sealed)
	if err != nil {
		return nil, 0, fmt.Errorf("skel: open task %d: %w", taskID, err)
	}
	tasks := []*Task{{ID: taskID, Work: work, Payload: plain}}
	blob, err := codec.Encode(appendBatchBlob(nil, tasks, 0, tc))
	if err != nil {
		return nil, 0, fmt.Errorf("skel: seal task %d: %w", taskID, err)
	}
	res, execNanos, err := be.ExecBatch(codec, blob)
	if err != nil {
		return nil, 0, err
	}
	if res, err = codec.Decode(res); err != nil {
		return nil, 0, fmt.Errorf("skel: open result of task %d: %w", taskID, err)
	}
	if err := unpackResultInto(res, tasks); err != nil {
		return nil, 0, err
	}
	if res, err = codec.Encode(tasks[0].Payload); err != nil {
		return nil, 0, fmt.Errorf("skel: seal result of task %d: %w", taskID, err)
	}
	return res, execNanos, nil
}

// dispatcher is the farm's S component for one Run. It buffers tasks per
// worker against the current routeTable snapshot and flushes a worker's
// buffer as one sealed envelope when it reaches DispatchBatch, when the
// flush deadline fires, when the route table is swapped (membership
// changed — the buffers are keyed by the old snapshot), or when the input
// closes. Its state belongs to the dispatcher goroutine alone.
type dispatcher struct {
	f        *Farm
	size     int // DispatchBatch, at least 1
	tbl      *routeTable
	pend     [][]*Task // parallel to tbl.workers
	buffered int
	rr       int    // round-robin cursor
	pack     []byte // reusable blob scratch: steady state allocates nothing
}

func (f *Farm) newDispatcher() *dispatcher {
	return &dispatcher{f: f, size: f.cfg.DispatchBatch}
}

// run dispatches the input stream until it closes.
func (d *dispatcher) run(in <-chan *Task) {
	f := d.f
	flushEvery := f.cfg.BatchFlush
	timer := time.NewTimer(flushEvery)
	if !timer.Stop() {
		<-timer.C
	}
	timerOn := false
	defer timer.Stop()
	for {
		var t *Task
		ok := true
		if timerOn {
			select {
			case t, ok = <-in:
			case <-timer.C:
				// The deadline flush: partial batches must not wait for
				// input that may never come. A fire with nothing buffered
				// (everything already flushed full) is a cheap no-op.
				timerOn = false
				d.syncRoutes()
				d.flushAll()
				continue
			}
		} else {
			// Nothing is buffered without an armed timer (every burst arms
			// it when tasks stay behind), so a plain receive suffices: at
			// DispatchBatch 1 the dispatcher never selects on the timer.
			t, ok = <-in
		}
		if !ok {
			d.flushAll()
			return
		}
		arrivals := 1
		d.dispatchOne(t)
		// Greedy drain: while input is immediately available, stay on the
		// cheap non-blocking path, and mark the arrival meter once per
		// burst instead of per task. Size-triggered flushes still happen
		// inside dispatchOne.
	drain:
		for {
			select {
			case t, ok := <-in:
				if !ok {
					f.arrival.MarkN(arrivals)
					d.flushAll()
					return
				}
				arrivals++
				d.dispatchOne(t)
				if arrivals == queueBound {
					// Under backpressure a saturated input never runs
					// dry and the burst never ends; the arrival sensor
					// must not wait for it.
					f.arrival.MarkN(arrivals)
					arrivals = 0
				}
			default:
				break drain
			}
		}
		f.arrival.MarkN(arrivals)
		if d.buffered > 0 && !timerOn {
			timer.Reset(flushEvery)
			timerOn = true
		}
	}
}

// syncRoutes re-reads the snapshot; on a swap the old buffers flush to
// their old (possibly departed — their queues refuse, the members re-route)
// targets and fresh buffers are built. Membership changes are rare, so the
// rebuild allocation is off the steady-state path.
func (d *dispatcher) syncRoutes() {
	cur := d.f.routes.Load()
	if cur == d.tbl {
		return
	}
	d.flushAll()
	d.tbl = cur
	if cap(d.pend) >= len(cur.workers) {
		d.pend = d.pend[:len(cur.workers)]
		for i := range d.pend {
			d.pend[i] = d.pend[i][:0]
		}
	} else {
		d.pend = make([][]*Task, len(cur.workers))
	}
}

// dispatchOne routes one task through the unified decision path, without
// any lock: the admitted set comes from the atomically-swapped routeTable,
// so the sensors (Stats, Workers) and the actuators never queue behind
// encryption — and the dispatcher never queues behind them.
func (d *dispatcher) dispatchOne(t *Task) {
	f := d.f
	var start time.Time
	ins := f.cfg.Instruments
	if ins != nil {
		start = time.Now()
	}
	d.syncRoutes()
	avail := d.tbl.workers
	if f.cfg.Dispatch == Broadcast {
		if len(avail) == 0 {
			f.sendRouted(t)
		} else {
			for i := range avail {
				d.buffer(i, t.Clone(), nil)
			}
		}
	} else {
		// A one-task envelope is traced from here, so its span keeps the
		// route stage; a batch span starts at flush (see flush). The
		// sampling decision precedes every clock read: an unsampled task
		// pays one branch and one integer hash, nothing else.
		var sp *telemetry.Span
		if tr := f.cfg.Tracer; tr != nil && d.size == 1 && tr.Sample(t.ID) {
			sp = tr.Start(t.ID)
			sp.MarkSince(telemetry.StageEnqueue, t.Created)
		}
		idx := f.decideTargetIndex(avail, &d.rr)
		if sp != nil {
			sp.Mark(telemetry.StageRoute)
		}
		if idx < 0 {
			f.faultSpan(sp, "parked")
			f.sendRouted(t)
		} else {
			d.buffer(idx, t, sp)
		}
	}
	if ins != nil {
		ins.Dispatch.ObserveDuration(time.Since(start))
	}
}

// buffer appends t to worker i's pending envelope and flushes it once
// full; sp is t's span when t is traced on its own.
func (d *dispatcher) buffer(i int, t *Task, sp *telemetry.Span) {
	d.pend[i] = append(d.pend[i], t)
	d.buffered++
	if len(d.pend[i]) >= d.size {
		d.flush(i, sp)
	}
}

func (d *dispatcher) flushAll() {
	for i := range d.pend {
		d.flush(i, nil)
	}
}

// flush seals worker i's buffered tasks into one envelope and pushes it,
// without holding f.mu. The binding codec is snapshotted per flush, so a
// concurrent SetCodec takes effect on the next envelope, and an envelope
// always carries the codec it was sealed with. On a refused push (the worker vanished between buffering and flush)
// every member re-enters the unified decision path and is re-sealed there:
// the envelope's codec belongs to the vanished worker's binding and must
// not follow its tasks to a different one. Under Broadcast the members are
// clones whose siblings were already delivered, so they are dropped
// instead — re-routing one would deliver a duplicate.
func (d *dispatcher) flush(i int, sp *telemetry.Span) {
	tasks := d.pend[i]
	if len(tasks) == 0 {
		return
	}
	f := d.f
	d.buffered -= len(tasks)
	d.pend[i] = tasks[:0]
	if d.size > 1 {
		sp = f.sampleBatch(tasks)
	}
	w := d.tbl.workers[i]
	env := f.sealEnvelope(w, w.getCodec(), tasks, sp, &d.pack)
	if env == nil || w.queue.push(env) {
		return
	}
	env.span = nil
	f.faultSpan(sp, "reroute")
	if f.cfg.Dispatch != Broadcast {
		f.mu.Lock()
		for _, t := range env.tasks {
			f.routeLocked(t)
		}
		f.mu.Unlock()
	}
	putEnv(env)
}

// sampleBatch draws every member's sampling decision (so sampled/skipped
// counts are invariant under the batching knob) and roots the envelope's
// one span at the first sampled member; the rest fan out as member spans
// when the envelope is emitted. Stage semantics for a batch span: enqueue
// covers the root member's buffering wait, route is folded into it (target
// selection ran per member, before the span existed), and the remaining
// stages are envelope-level.
func (f *Farm) sampleBatch(tasks []*Task) *telemetry.Span {
	tr := f.cfg.Tracer
	if tr == nil || f.cfg.Dispatch == Broadcast {
		return nil
	}
	var sp *telemetry.Span
	for _, t := range tasks {
		if tr.Sample(t.ID) && sp == nil {
			sp = tr.Start(t.ID)
			if len(tasks) > 1 {
				sp.Batch = len(tasks)
			}
			sp.MarkSince(telemetry.StageEnqueue, t.Created)
		}
	}
	return sp
}

// sealEnvelope is the farm's one seal: it packs tasks into an envelope
// blob in *scratch (the caller's reusable pack buffer) and seals the blob
// under codec into a pooled envelope from the class of its sealed size.
// w, when non-nil, is the worker the envelope is addressed to: the seal is
// timed, sp is stamped, and every member is audited in one record — leak
// accounting stays invariant under the batching knob. Splitting a batch
// for redistribution passes a nil w: its members were audited when they
// were first sent. It returns nil after reporting an encode error.
func (f *Farm) sealEnvelope(w *worker, codec security.Codec, tasks []*Task, sp *telemetry.Span, scratch *[]byte) *envelope {
	var tc telemetry.TraceContext
	if sp != nil {
		tc = sp.Context()
	}
	blob := appendBatchBlob((*scratch)[:0], tasks, f.cfg.WorkOverride, tc)
	env := getEnv(len(blob) + security.Overhead(codec))
	var sealStart time.Time
	ins := f.cfg.Instruments
	if w == nil {
		ins = nil
	}
	if ins != nil {
		sealStart = time.Now()
	}
	wire, err := security.AppendEncode(codec, env.wire[:0], blob)
	if ins != nil {
		ins.Seal.ObserveDuration(time.Since(sealStart))
	}
	*scratch = ReuseBuffer(blob)
	if err != nil {
		putEnv(env)
		f.faultSpan(sp, "encode")
		f.reportErr(fmt.Errorf("skel: farm %s seal of %d task(s) under %s: %w", f.cfg.Name, len(tasks), codec.Name(), err))
		return nil
	}
	env.tasks = append(env.tasks[:0], tasks...)
	env.wire = wire
	env.codec = codec
	env.span = sp
	if w == nil {
		return env
	}
	if sp != nil {
		sp.Mark(telemetry.StageSeal)
		sp.Node = w.id
		sp.Remote = w.exec != nil
	}
	if f.cfg.Auditor != nil {
		must := false
		if f.cfg.Policy != nil {
			must = f.cfg.Policy.RequireSecure(f.cfg.DispatchNode, w.node)
		}
		f.cfg.Auditor.RecordSends(w.id, len(tasks), must, codec.Secure())
	}
	return env
}
