package skel

import (
	"time"

	"repro/internal/grid"
	"repro/internal/security"
	"repro/internal/telemetry"
)

// Executor abstracts where a worker's compute step runs — the transport
// seam of the cross-process dispatch plane. A nil Executor on a worker
// means loopback: the envelope is decoded, slept and transformed
// in-process. A non-nil Executor ships the sealed envelope to another
// process (internal/wire implements it over a framed TCP connection) and
// blocks for the sealed result, so the bytes that cross the machine
// boundary are precisely the bytes the binding codec produced — the
// AES-GCM frames the security concern is about.
//
// The farm ships every envelope, one task or many, through ExecBatch.
// Exec is the one-task form for callers that hold a single sealed payload
// rather than a batch blob; no farm path calls it.
//
// Failure contract: any ExecBatch error (connection dropped, remote
// rejected the frame, result did not authenticate) is reported by the
// farm as a worker crash, which strands the worker's queue for the
// fault-tolerance manager to recover — a broken link and a dead machine
// are the same fault.
type Executor interface {
	BatchExecutor
	// Exec runs one task remotely: sealed is the payload encoded with the
	// binding codec, work the task's nominal service time, tc the
	// propagated trace context (the zero value for unsampled tasks). It
	// returns the result payload sealed with the same codec plus the
	// remote-measured execution nanoseconds, valid as for ExecBatch.
	Exec(tc telemetry.TraceContext, taskID uint64, work time.Duration, codec security.Codec, sealed []byte) (result []byte, execNanos int64, err error)
	// Rekey makes c the binding codec on the remote end before any task
	// sealed with it can arrive (the two-phase rekey across the wire: the
	// new key travels inside a control frame sealed under the link's
	// master codec). It returns the codec the farm must seal with from now
	// on — a wrapper carrying the transport's key epoch.
	Rekey(c security.Codec) (security.Codec, error)
	// Close releases the session. It must be idempotent.
	Close() error
}

// BatchExecutor is the envelope round trip of an Executor: one sealed
// batch blob out in one frame, the sealed result blob back.
type BatchExecutor interface {
	// ExecBatch runs one sealed batch blob remotely. sealed is the blob
	// encoded with the binding codec (passed alongside so the transport can
	// recover its key epoch); the result blob comes back sealed with the
	// same codec, along with the remote-measured execution nanoseconds for
	// the whole blob — reported in the remote clock and joined with the
	// local round trip by interval arithmetic, never by cross-machine
	// timestamp comparison. The result may alias the session's reusable
	// read buffer: it is valid only until the next call on the executor,
	// so the caller opens (or copies) it first.
	ExecBatch(codec security.Codec, sealed []byte) (result []byte, execNanos int64, err error)
}

// ExecutorFactory supplies per-node executors at recruitment time. It
// returns (nil, nil) for nodes that execute in-process — the loopback
// default — and a live session for nodes advertised by a remote workerd.
// An error aborts the worker addition and releases the recruited node.
type ExecutorFactory func(node *grid.Node) (Executor, error)

// Selector is the worker-admission constraint of the unified dispatch
// decision path (the RFC-010 worker-selector shape): a task may only be
// routed to workers whose placement satisfies it. The zero Selector
// admits every worker.
type Selector struct {
	// Labels admits only workers on nodes carrying every listed key/value
	// pair (subset match against grid.Node.Labels).
	Labels map[string]string
	// TrustedOnly admits only workers in trusted domains.
	TrustedOnly bool
	// Local is the escape hatch: admit only in-process (loopback) workers,
	// pinning the farm to the coordinator even when remote capacity is
	// registered.
	Local bool
}

// admits reports whether worker w may receive tasks under the selector.
func (s Selector) admits(w *worker) bool {
	if s.Local && w.exec != nil {
		return false
	}
	if s.TrustedOnly && !w.node.Domain.Trusted {
		return false
	}
	return w.node.HasLabels(s.Labels)
}

// decideTarget is the unified dispatch decision function: every task-send
// entry path routes through it — the dispatcher's streaming route, the
// reroute slow path when a target vanishes mid-send, park-flush after a
// crash storm, and post-recovery sends. avail must already be filtered to
// live, selector-admitted workers (admittedLocked); decideTarget only
// picks among them by policy. rr is the round-robin cursor to advance;
// only the dispatcher goroutine owns one, every other entry path passes
// nil and falls back to shortest-queue, which is always safe. A nil
// return means no admissible worker exists and the caller must park or
// drop the task. Broadcast callers fan out over avail themselves.
func (f *Farm) decideTarget(avail []*worker, rr *int) *worker {
	if i := f.decideTargetIndex(avail, rr); i >= 0 {
		return avail[i]
	}
	return nil
}

// decideTargetIndex is decideTarget returning the index into avail (-1 for
// none); the dispatcher needs the index to address its per-worker pending
// buffer, which is parallel to the routeTable snapshot.
func (f *Farm) decideTargetIndex(avail []*worker, rr *int) int {
	if len(avail) == 0 {
		return -1
	}
	if f.cfg.Dispatch == RoundRobin && rr != nil {
		// The cursor wraps instead of growing forever: an unbounded cursor
		// eventually overflows, the modulo of the negative value goes
		// negative, and the index is out of bounds. Normalizing first also
		// repairs a cursor seeded (or left) beyond the current pool size
		// without changing any in-range pick sequence.
		idx := *rr
		if idx < 0 || idx >= len(avail) {
			idx %= len(avail)
			if idx < 0 {
				idx += len(avail)
			}
		}
		*rr = (idx + 1) % len(avail)
		return idx
	}
	// OnDemand (and every non-dispatcher entry path): shortest queue, by
	// the lock-free length mirrors.
	best := 0
	for i := 1; i < len(avail); i++ {
		if avail[i].queue.len() < avail[best].queue.len() {
			best = i
		}
	}
	return best
}

// liveLocked returns the live pool members — neither crashed nor exited —
// other than skip (which may be nil) that sel admits; the zero Selector
// admits every live worker. Callers hold f.mu.
func (f *Farm) liveLocked(skip *worker, sel Selector) []*worker {
	var live []*worker
	for _, w := range f.workers {
		if w != skip && !w.failed && !w.exited && sel.admits(w) {
			live = append(live, w)
		}
	}
	return live
}

// admittedLocked returns the live workers the farm's selector admits,
// excluding skip (which may be nil). Callers hold f.mu.
func (f *Farm) admittedLocked(skip *worker) []*worker {
	return f.liveLocked(skip, f.cfg.Selector)
}

// restoreTargetsLocked picks the live workers eligible to receive
// redistributed envelopes (rebalance, remove, recover), excluding skip.
// Redistribution is a routing decision like any other, so it prefers
// selector-admitted workers; but if the selector admits no live worker the
// full live set is used — exactly-once outranks placement preference, and
// stranding recovered tasks on a constraint would deadlock the run.
// Callers hold f.mu.
func (f *Farm) restoreTargetsLocked(skip *worker) []*worker {
	if targets := f.admittedLocked(skip); len(targets) > 0 {
		return targets
	}
	return f.liveLocked(skip, Selector{})
}
