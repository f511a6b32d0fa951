package skel

import (
	"encoding/binary"
	"fmt"
	"slices"
	"time"

	"repro/internal/security"
	"repro/internal/telemetry"
)

// This file implements the batched dispatch hot path: up to DispatchBatch
// tasks per worker coalesce into one sealed multi-task envelope — one codec
// seal, one queue push and one result-channel hop per batch — with a
// flush-on-idle deadline bounding latency under trickle load. Target
// selection still runs per task through decideTarget, so routing semantics
// are identical to unbatched dispatch.
//
// Batch blob layout (plaintext; the whole blob is then sealed once by the
// binding codec):
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
// trace context travels inside the seal (unlike a single exec frame, which
// carries it in the frame header) because a batch blob is the envelope:
// whatever transport or queue it crosses, the sampled bit and trace id
// stay with the members, and an unsampled batch pays 17 zero bytes.

// BatchExecutor is the optional batch extension of Executor: a transport
// session that implements it ships a whole sealed batch blob in one frame
// and returns the sealed result blob, amortizing framing and sealing the
// same way the loopback path does. Sessions without it fall back to
// member-by-member Exec.
type BatchExecutor interface {
	// ExecBatch runs one sealed batch blob remotely. sealed is the blob
	// encoded with the binding codec (passed alongside so the transport can
	// recover its key epoch); the result blob comes back sealed with the
	// same codec, along with the remote-measured execution nanoseconds for
	// the whole batch (remote clock; see Executor.Exec). The result is
	// valid only until the next call on the executor, as for Exec.
	ExecBatch(codec security.Codec, sealed []byte) (result []byte, execNanos int64, err error)
}

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

// unpackBatchInto decodes a batch blob in place: member payloads become
// subslices of blob (zero copies) assigned onto the envelope's tasks, which
// must match the blob's entries in order and ID.
func unpackBatchInto(blob []byte, tasks []*Task) error {
	if len(blob) < telemetry.TraceContextSize+4 {
		return errBlob("task")
	}
	blob = blob[telemetry.TraceContextSize:] // trace context: not needed in-process
	count := int(binary.BigEndian.Uint32(blob))
	if count != len(tasks) {
		return fmt.Errorf("skel: batch blob carries %d tasks, envelope %d", count, len(tasks))
	}
	off := 4
	for _, t := range tasks {
		if len(blob)-off < 20 {
			return errBlob("task")
		}
		id := binary.BigEndian.Uint64(blob[off:])
		n := int(binary.BigEndian.Uint32(blob[off+16:]))
		off += 20
		if id != t.ID {
			return fmt.Errorf("skel: batch blob entry %d does not match envelope task %d", id, t.ID)
		}
		if n < 0 || len(blob)-off < n {
			return errBlob("task")
		}
		t.Payload = blob[off : off+n : off+n]
		off += n
	}
	if off != len(blob) {
		return errBlob("task")
	}
	return nil
}

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

// runBatchedDispatcher is the DispatchBatch > 1 replacement for the plain
// per-task dispatch loop in Run. It buffers tasks per worker against the
// current routeTable snapshot and flushes a worker's buffer as one sealed
// batch envelope when it reaches DispatchBatch, when the flush deadline
// fires, when the route table is swapped (membership changed — the buffers
// are keyed by the old snapshot), or when the input closes.
func (f *Farm) runBatchedDispatcher(in <-chan *Task) {
	size := f.cfg.DispatchBatch
	flushEvery := f.cfg.BatchFlush

	var (
		tbl      *routeTable
		pend     [][]*Task // parallel to tbl.workers
		buffered int
	)
	timer := time.NewTimer(flushEvery)
	if !timer.Stop() {
		<-timer.C
	}
	timerOn := false
	defer timer.Stop()

	flushIdx := func(i int) {
		tasks := pend[i]
		if len(tasks) == 0 {
			return
		}
		buffered -= len(tasks)
		f.flushBatch(tbl.workers[i], tasks)
		pend[i] = tasks[:0]
	}
	flushAll := func() {
		for i := range pend {
			flushIdx(i)
		}
	}
	// syncRoutes re-reads the snapshot; on a swap the old buffers flush to
	// their old (possibly departed — their queues refuse, the members
	// re-route) targets and fresh buffers are built. Membership changes are
	// rare, so the rebuild allocation is off the steady-state path.
	syncRoutes := func() {
		cur := f.routes.Load()
		if cur == tbl {
			return
		}
		flushAll()
		tbl = cur
		if cap(pend) >= len(tbl.workers) {
			pend = pend[:len(tbl.workers)]
			for i := range pend {
				pend[i] = pend[i][:0]
			}
		} else {
			pend = make([][]*Task, len(tbl.workers))
		}
	}
	dispatchOne := func(t *Task) {
		var start time.Time
		ins := f.cfg.Instruments
		if ins != nil {
			start = time.Now()
		}
		syncRoutes()
		avail := tbl.workers
		if f.cfg.Dispatch == Broadcast {
			if len(avail) == 0 {
				f.sendRouted(t)
			} else {
				for i := range avail {
					pend[i] = append(pend[i], t.Clone())
					buffered++
					if len(pend[i]) >= size {
						flushIdx(i)
					}
				}
			}
		} else if idx := f.decideTargetIndex(avail, &f.rrIndex); idx < 0 {
			f.sendRouted(t)
		} else {
			pend[idx] = append(pend[idx], t)
			buffered++
			if len(pend[idx]) >= size {
				flushIdx(idx)
			}
		}
		if ins != nil {
			ins.Dispatch.ObserveDuration(time.Since(start))
		}
	}

	for {
		select {
		case t, ok := <-in:
			if !ok {
				flushAll()
				return
			}
			arrivals := 1
			dispatchOne(t)
			// Greedy drain: while input is immediately available, stay on
			// the cheap non-blocking path — no timer select, and the
			// arrival meter is marked once per burst instead of per task.
			// Size-triggered flushes still happen inside dispatchOne.
		drain:
			for {
				select {
				case t, ok := <-in:
					if !ok {
						f.arrival.MarkN(arrivals)
						flushAll()
						return
					}
					arrivals++
					dispatchOne(t)
				default:
					break drain
				}
			}
			f.arrival.MarkN(arrivals)
			if buffered > 0 && !timerOn {
				timer.Reset(flushEvery)
				timerOn = true
			}
		case <-timer.C:
			// The deadline flush: partial batches must not wait for input
			// that may never come. A fire with nothing buffered (everything
			// already flushed full) is a cheap no-op.
			timerOn = false
			syncRoutes()
			flushAll()
		}
	}
}

// flushBatch seals one worker's buffered tasks into a single batch envelope
// and pushes it. On a refused push (the worker vanished between buffering
// and flush) every member re-enters the unified decision path — except
// under Broadcast, where the members are clones whose siblings were already
// delivered, so they are dropped exactly like a refused single clone.
func (f *Farm) flushBatch(w *worker, tasks []*Task) {
	codec := w.getCodec()
	// Every member draws its own sampling decision (so sampled/skipped
	// counts are invariant under the batching knob), but the batch carries
	// at most one span — rooted at the first sampled member; the rest fan
	// out as child spans when the envelope is collected. Stage semantics
	// for a batch span: enqueue covers the root member's buffering wait,
	// route is folded into it (target selection ran per member, before the
	// span existed), and the remaining stages are envelope-level.
	var sp *telemetry.Span
	if tr := f.cfg.Tracer; tr != nil && f.cfg.Dispatch != Broadcast {
		for _, t := range tasks {
			if tr.Sample(t.ID) && sp == nil {
				sp = tr.Start(t.ID)
				sp.Batch = len(tasks)
				sp.MarkSince(telemetry.StageEnqueue, t.Created)
			}
		}
	}
	var tc telemetry.TraceContext
	if sp != nil {
		tc = sp.Context()
	}
	f.packBuf = appendBatchBlob(f.packBuf[:0], tasks, f.cfg.WorkOverride, tc)
	env := getEnv(len(f.packBuf) + security.Overhead(codec))
	var sealStart time.Time
	ins := f.cfg.Instruments
	if ins != nil {
		sealStart = time.Now()
	}
	wire, err := security.AppendEncode(codec, env.wire[:0], f.packBuf)
	if ins != nil {
		ins.Seal.ObserveDuration(time.Since(sealStart))
	}
	f.packBuf = ReuseBuffer(f.packBuf)
	if err != nil {
		putEnv(env)
		f.faultSpan(sp, "encode")
		f.reportErr(fmt.Errorf("skel: farm %s batch encode for %s: %w", f.cfg.Name, w.id, err))
		return
	}
	if sp != nil {
		sp.Mark(telemetry.StageSeal)
		sp.Node = w.id
		sp.Remote = w.exec != nil
	}
	env.tasks = append(env.tasks[:0], tasks...)
	env.wire = wire
	env.codec = codec
	env.batch = true
	env.span = sp
	if f.cfg.Auditor != nil {
		// One audit record per member task, not per frame: leak accounting
		// stays invariant under the batching knob, so the security
		// experiments compare across modes.
		must := false
		if f.cfg.Policy != nil {
			must = f.cfg.Policy.RequireSecure(f.cfg.DispatchNode, w.node)
		}
		for range tasks {
			f.cfg.Auditor.RecordSend(w.id, must, codec.Secure())
		}
	}
	if !w.queue.push(env) {
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
}
