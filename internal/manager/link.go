// The manager link: the parent/child reporting channel of the P_spl
// hierarchy. Every child reports through a Link, so parking, in-order
// re-delivery and catch-up have one implementation whether the parent
// shares the process or not: an in-process parent is a localLink over its
// *Manager, a parent in another process a RemoteLink (remotelink.go)
// over internal/wire's sealed frames with lease-based failure detection
// and downtime catch-up.
package manager

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/trace"
)

// LinkState is the failure-detection state of a manager link, driven by
// heartbeat/lease expiry: up → suspect (a heartbeat missed, lease still
// live) → partitioned (lease expired) → reattached (a fresh attach
// succeeded; collapses back to up after catch-up completes).
type LinkState int32

// Link states.
const (
	LinkUp LinkState = iota
	LinkSuspect
	LinkPartitioned
	LinkReattached
)

// String implements fmt.Stringer.
func (s LinkState) String() string {
	switch s {
	case LinkSuspect:
		return "suspect"
	case LinkPartitioned:
		return "partitioned"
	case LinkReattached:
		return "reattached"
	default:
		return "up"
	}
}

// Link is the child side of a parent/child management channel. Deliver
// either hands the violation to the parent exactly once or returns an
// error, in which case the caller parks it in the manager's bounded
// violation buffer and re-delivers it at a later flush.
type Link interface {
	// Deliver sends one violation to the parent. An error means the
	// violation was NOT delivered: the link is down (or went down
	// mid-send), or the parent refused it with ErrParentBusy.
	Deliver(v Violation) error
	// Down reports whether the link is currently unusable for delivery.
	Down() bool
	// State returns the link's current failure-detection state.
	State() LinkState
	// TakeCatchUp returns and clears the number of catch-up MAPE cycles
	// owed after the latest reattach (0 when none is pending).
	TakeCatchUp() int
}

// ErrParentBusy is the refusal of a parent whose violation queue is full.
// It is backpressure, not a partition: the child parks the violation and
// re-delivers it at its next flush, and the link's state does not move.
var ErrParentBusy = errors.New("manager: parent violation queue full")

// SetLink installs the link to a parent in another process. Install
// before the control loop starts; a nil link (the default) reports to the
// in-process parent set by AttachChild.
func (m *Manager) SetLink(l Link) {
	m.mu.Lock()
	m.link = l
	m.mu.Unlock()
}

// Link returns the parent link: the installed one, else a localLink over
// the in-process parent, else nil at the root.
func (m *Manager) Link() Link {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.link == nil && m.parent != nil {
		return localLink{m.parent}
	}
	return m.link
}

// localLink is an in-process parent seen as a Link. Failure detection is
// the parent's crash flag; there is no lease and nothing to catch up,
// because a parent in the same process misses none of its child's cycles.
type localLink struct{ parent *Manager }

// Deliver enqueues v on the parent's violation queue.
func (l localLink) Deliver(v Violation) error {
	if l.Down() {
		return ErrLinkDown
	}
	return l.parent.deliver(v)
}

// Down reports whether the parent is crashed and not yet restored.
func (l localLink) Down() bool { return l.parent.Crashed() }

// State is partitioned while the parent is crashed, up otherwise.
func (l localLink) State() LinkState {
	if l.Down() {
		return LinkPartitioned
	}
	return LinkUp
}

// TakeCatchUp is always 0.
func (localLink) TakeCatchUp() int { return 0 }

// CycleSeq returns the manager's MAPE cycle counter: incremented once per
// completed RunOnce, checkpointed, and acknowledged by the parent endpoint
// as the watermark that sizes downtime catch-up.
func (m *Manager) CycleSeq() uint64 { return m.cycleSeq.Load() }

// AckedCycle returns the last MAPE cycle the parent acknowledged over the
// link (0 before the first ack).
func (m *Manager) AckedCycle() uint64 { return m.ackedCycle.Load() }

// setAckedCycle records the parent's watermark; called by the link on every
// acknowledged lease renewal or report.
func (m *Manager) setAckedCycle(seq uint64) {
	for {
		cur := m.ackedCycle.Load()
		if seq <= cur || m.ackedCycle.CompareAndSwap(cur, seq) {
			return
		}
	}
}

// CatchUpCycles returns how many catch-up MAPE cycles this manager has run
// after link reattaches.
func (m *Manager) CatchUpCycles() uint64 { return m.catchUpCycles.Load() }

// runCatchUp runs the catch-up cycles the link owes after a reattach:
// extra RunOnce iterations flagged CatchUp in their decision records, so
// the trace distinguishes a re-evaluation covering a partition window from
// a live cycle. Called by Run after each iteration; a no-op at the root
// and without a pending reattach.
func (m *Manager) runCatchUp(ctx context.Context) {
	l := m.Link()
	if l == nil {
		return
	}
	n := l.TakeCatchUp()
	if n <= 0 {
		return
	}
	m.event(trace.CatchUp, fmt.Sprintf("running %d catch-up cycles", n))
	for i := 0; i < n; i++ {
		if ctx != nil && ctx.Err() != nil {
			return
		}
		m.cycleCatchUp = true
		err := m.RunOnce()
		m.cycleCatchUp = false
		m.catchUpCycles.Add(1)
		if err != nil {
			m.log.Record(m.clock.Now(), m.cfg.Name, trace.Kind("error"), err.Error())
		}
	}
}

// catchUpBudget bounds the `all` catch-up policy: a manager partitioned
// for hours must not replay thousands of stale cycles — beyond the budget
// the oldest missed cycles are summarized by the freshest ones.
const catchUpBudget = 32

// CatchUpPolicy selects how many of the MAPE cycles missed during a
// partition are re-run on reattach.
type CatchUpPolicy int

// Catch-up policies.
const (
	// CatchUpLatest re-runs a single cycle: the freshest evidence wins,
	// buffered violations are coalesced to the newest per (From, Tag).
	CatchUpLatest CatchUpPolicy = iota
	// CatchUpSkip runs no catch-up cycles; buffered violations still flush
	// (exactly-once delivery is not a policy knob).
	CatchUpSkip
	// CatchUpAll re-runs every missed cycle up to catchUpBudget.
	CatchUpAll
)

// String implements fmt.Stringer.
func (p CatchUpPolicy) String() string {
	switch p {
	case CatchUpSkip:
		return "skip"
	case CatchUpAll:
		return "all"
	default:
		return "latest"
	}
}

// ParseCatchUpPolicy maps the flag spelling to a policy.
func ParseCatchUpPolicy(s string) (CatchUpPolicy, error) {
	switch s {
	case "skip":
		return CatchUpSkip, nil
	case "latest", "":
		return CatchUpLatest, nil
	case "all":
		return CatchUpAll, nil
	}
	return CatchUpLatest, fmt.Errorf("manager: unknown catch-up policy %q (want skip|latest|all)", s)
}

// owedCycles sizes the catch-up debt from the cycle counter and the
// parent's watermark under the given policy. The absolute difference
// covers both directions: a partitioned child ran ahead of the last ack,
// while a freshly restarted child process (counter reset to zero) finds
// the parent's watermark ahead of it — the dagu-style backfill case.
func owedCycles(p CatchUpPolicy, cycleSeq, acked uint64) int {
	diff := cycleSeq - acked
	if acked > cycleSeq {
		diff = acked - cycleSeq
	}
	if diff == 0 {
		return 0
	}
	switch p {
	case CatchUpSkip:
		return 0
	case CatchUpAll:
		if diff > catchUpBudget {
			return catchUpBudget
		}
		return int(diff)
	default:
		return 1
	}
}
