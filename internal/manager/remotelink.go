// The remote management plane: RemoteLink is the child half of a
// parent/child manager channel that crosses a process boundary, and
// ParentEndpoint is the parent half. The transport is a plain
// request/reply function — internal/wire's sealed mgmt frames in
// production (Factory.Mgmt / ServerConfig.Mgmt), a direct Handle call in
// tests and the chaos soak — so the failure-detection and catch-up logic
// is testable without sockets and the chaos plane can partition the link
// deterministically.
//
// Failure detection is lease-based: the link heartbeats the parent and
// every acknowledged exchange renews a lease. A missed heartbeat inside a
// live lease is `suspect` (a slow parent is not a dead parent); only
// lease expiry declares `partitioned`. Reattach runs bounded jittered
// retries (runtime.Retry), then flushes the violations buffered during
// the outage (exactly once — the parent endpoint dedups by causality id)
// and schedules catch-up MAPE cycles per the configured policy, sized by
// the gap between the child's cycle counter and the parent's acknowledged
// watermark.
package manager

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/abc"
	"repro/internal/contract"
	"repro/internal/grid"
	"repro/internal/runtime"
	"repro/internal/security"
	"repro/internal/simclock"
	"repro/internal/trace"
)

// ErrLinkDown is returned by a Link's Deliver while the link is down —
// parent crashed, link partitioned, or an exchange failed mid-flight; the
// manager parks the violation in its bounded buffer and re-delivers after
// reattach.
var ErrLinkDown = errors.New("manager: link down")

// mgmtMsg is one management-plane request. The wire layer ships it as an
// opaque sealed body; both ends of the link own this schema.
type mgmtMsg struct {
	Op    string `json:"op"`    // "lease" | "report" | "resplit" | "prepare"
	Child string `json:"child"` // reporting child manager name

	// lease / report
	CycleSeq  uint64     `json:"cycle_seq,omitempty"`
	Violation *Violation `json:"violation,omitempty"`

	// prepare (two-phase, GM → remote security participant)
	Cause   uint64 `json:"cause,omitempty"`
	Worker  string `json:"worker,omitempty"`
	Node    string `json:"node,omitempty"`
	Domain  string `json:"domain,omitempty"`
	Trusted bool   `json:"trusted,omitempty"`
}

// mgmtReply is the parent endpoint's answer.
type mgmtReply struct {
	OK  bool   `json:"ok"`
	Err string `json:"err,omitempty"`
	// Down marks a refusal because the participant manager is inside a
	// crash window — the caller maps it to abc.ErrManagerDown so the
	// two-phase abort path holds unchanged across the wire.
	Down bool `json:"down,omitempty"`
	// Acked is the parent's watermark for this child: the last MAPE cycle
	// it acknowledged before this exchange. At reattach the child sizes
	// its catch-up debt from it.
	Acked uint64 `json:"acked,omitempty"`
	// Dup marks a violation report suppressed by causality-id dedup (it
	// was already delivered — a flush raced a partition).
	Dup bool `json:"dup,omitempty"`
	// Busy marks a violation report refused because the parent's queue
	// is full: the child parks and re-sends it, the link stays up.
	Busy bool `json:"busy,omitempty"`
	// Contract is the re-split sub-contract in contract.Describe text.
	Contract string `json:"contract,omitempty"`
	// Prepare outcome: the binding codec crossing back rekey-style.
	CodecName string `json:"codec_name,omitempty"`
	CodecKey  []byte `json:"codec_key,omitempty"`
}

// MgmtTransport carries one management request to the parent and returns
// its reply. wire.Factory.Mgmt curried with an address is the TCP
// implementation; ParentEndpoint.Handle wrapped directly is the
// in-process one.
type MgmtTransport func(req []byte) ([]byte, error)

// RemoteLinkConfig parameterizes a RemoteLink.
type RemoteLinkConfig struct {
	// Child is the local manager whose parent lives across the link.
	Child *Manager
	// Transport is required.
	Transport MgmtTransport
	// Heartbeat paces lease renewal (clock time; default 50ms). Lease is
	// the failure-detection window (default 4×Heartbeat, so a parent slow
	// by 2× heartbeat jitter never trips a false partition).
	Heartbeat time.Duration
	Lease     time.Duration
	// Retry bounds one reattach round (default: Base Heartbeat/2, Max
	// Lease, Factor 2, 4 attempts, jitter seeded by Seed).
	Retry runtime.Backoff
	Seed  int64
	// Policy selects downtime catch-up sizing (default CatchUpLatest).
	Policy CatchUpPolicy
	// KeepContract stops the child from adopting the parent's P_spl
	// sub-contract at (re)attach. The resplit exchange still happens —
	// the parent's answer is simply not applied — for children managing
	// an independent concern whose contract is assigned locally.
	KeepContract bool
	// Clock, Log, Skew default to the child's.
	Clock simclock.Clock
	Log   *trace.Log
	Skew  *simclock.Tolerance
}

// RemoteLink is the child half of a cross-process manager link.
type RemoteLink struct {
	cfg   RemoteLinkConfig
	child *Manager
	clock simclock.Clock
	log   *trace.Log
	skew  *simclock.Tolerance
	retry runtime.Backoff

	state       atomic.Int32
	attached    atomic.Bool  // a first attach has succeeded
	leaseExpiry atomic.Int64 // unix nano on the link's clock
	catchUp     atomic.Int64 // cycles owed, consumed by TakeCatchUp
	reattaches  atomic.Uint64
	delivered   atomic.Uint64
	bufferedAt  atomic.Uint64 // deliveries refused while down (evidence of buffering)

	// chaos hooks: a partition window and one-shot drops, applied at the
	// exchange gate so they hit both transports identically.
	partUntil atomic.Int64
	drops     atomic.Int64

	// sendMu serializes exchanges so the heartbeat loop and a delivering
	// MAPE cycle cannot interleave frames on a shared session.
	sendMu sync.Mutex

	life runtime.Lifecycle
}

// NewRemoteLink validates cfg, installs the link on the child manager and
// returns it. Run (or Start) drives the heartbeat/lease loop.
func NewRemoteLink(cfg RemoteLinkConfig) (*RemoteLink, error) {
	if cfg.Child == nil {
		return nil, fmt.Errorf("manager: remote link needs a child manager")
	}
	if cfg.Transport == nil {
		return nil, fmt.Errorf("manager: remote link needs a transport")
	}
	if cfg.Heartbeat <= 0 {
		cfg.Heartbeat = 50 * time.Millisecond
	}
	if cfg.Lease <= 0 {
		cfg.Lease = 4 * cfg.Heartbeat
	}
	if cfg.Clock == nil {
		cfg.Clock = cfg.Child.clock
	}
	if cfg.Log == nil {
		cfg.Log = cfg.Child.log
	}
	if cfg.Skew == nil {
		cfg.Skew = cfg.Child.skew
	}
	retry := cfg.Retry
	if retry.Base <= 0 {
		retry = runtime.Backoff{
			Base: cfg.Heartbeat / 2, Max: cfg.Lease, Factor: 2, Attempts: 4,
			Jitter: 0.2,
		}
	}
	if retry.Clock == nil {
		retry.Clock = cfg.Clock
	}
	if retry.Rand == nil {
		retry.Rand = runtime.NewSeededJitter(cfg.Seed)
	}
	l := &RemoteLink{
		cfg: cfg, child: cfg.Child, clock: cfg.Clock, log: cfg.Log,
		skew: cfg.Skew, retry: retry,
	}
	l.state.Store(int32(LinkPartitioned)) // down until the first attach
	cfg.Child.SetLink(l)
	return l, nil
}

// State implements Link.
func (l *RemoteLink) State() LinkState { return LinkState(l.state.Load()) }

// Down implements Link: only a partitioned link refuses delivery —
// suspect still delivers (the lease is live, the parent may be slow).
func (l *RemoteLink) Down() bool { return l.State() == LinkPartitioned }

// TakeCatchUp implements Link: it returns and clears the catch-up debt,
// collapsing a reattached link back to up.
func (l *RemoteLink) TakeCatchUp() int {
	n := l.catchUp.Swap(0)
	// The transition was traced at reattach; nothing to log here.
	l.state.CompareAndSwap(int32(LinkReattached), int32(LinkUp))
	return int(n)
}

// Reattaches returns how many times the link re-established after a
// partition (repro_manager_link_reattach_total).
func (l *RemoteLink) Reattaches() uint64 { return l.reattaches.Load() }

// Child returns the manager this link carries reports for.
func (l *RemoteLink) Child() *Manager { return l.child }

// Delivered returns how many violations crossed the link.
func (l *RemoteLink) Delivered() uint64 { return l.delivered.Load() }

// BufferedWhileDown returns how many deliveries the link refused because
// it was partitioned — each one was parked in the manager's buffer.
func (l *RemoteLink) BufferedWhileDown() uint64 { return l.bufferedAt.Load() }

// InjectPartition makes every exchange fail for the window (the chaos
// plane's managerPartition actuator; window is wall/clock time on the
// link's clock).
func (l *RemoteLink) InjectPartition(window time.Duration) {
	l.partUntil.Store(l.clock.Now().Add(window).UnixNano())
}

// InjectDrop makes the next n exchanges fail (the managerLinkDrop
// actuator: a cut connection, not a window).
func (l *RemoteLink) InjectDrop(n int) {
	if n > 0 {
		l.drops.Add(int64(n))
	}
}

// exchange runs one request/reply over the transport, applying the chaos
// gate first so injected faults hit the TCP and in-process transports
// identically.
func (l *RemoteLink) exchange(msg mgmtMsg) (mgmtReply, error) {
	var rep mgmtReply
	if l.clock.Now().UnixNano() < l.partUntil.Load() {
		return rep, fmt.Errorf("%w: injected partition", ErrLinkDown)
	}
	for {
		n := l.drops.Load()
		if n <= 0 {
			break
		}
		if l.drops.CompareAndSwap(n, n-1) {
			return rep, fmt.Errorf("%w: injected drop", ErrLinkDown)
		}
	}
	body, err := json.Marshal(msg)
	if err != nil {
		return rep, err
	}
	l.sendMu.Lock()
	raw, err := l.cfg.Transport(body)
	l.sendMu.Unlock()
	if err != nil {
		return rep, err
	}
	if err := json.Unmarshal(raw, &rep); err != nil {
		return rep, fmt.Errorf("manager: malformed mgmt reply: %w", err)
	}
	return rep, nil
}

// Deliver implements Link: one violation report to the parent. A
// successful exchange renews the lease (a report proves liveness as well
// as a heartbeat does), a busy refusal included; any failure degrades the
// link and returns an error so the manager buffers.
func (l *RemoteLink) Deliver(v Violation) error {
	if l.Down() {
		l.bufferedAt.Add(1)
		return ErrLinkDown
	}
	rep, err := l.exchange(mgmtMsg{
		Op: "report", Child: l.child.Name(),
		CycleSeq: l.child.CycleSeq(), Violation: &v,
	})
	if err == nil && !rep.OK && !rep.Busy {
		err = errors.New(rep.Err)
	}
	if err != nil {
		l.bufferedAt.Add(1)
		l.degrade(err)
		return fmt.Errorf("%w: %v", ErrLinkDown, err)
	}
	l.renewLease()
	l.child.setAckedCycle(l.child.CycleSeq())
	if rep.Busy {
		return ErrParentBusy
	}
	if !rep.Dup {
		l.delivered.Add(1)
	}
	return nil
}

// renewLease arms the failure-detection window after an acknowledged
// exchange.
func (l *RemoteLink) renewLease() {
	l.leaseExpiry.Store(l.clock.Now().Add(l.cfg.Lease).UnixNano())
}

// leaseExpired applies the skew tolerance: a lease stamped a few
// milliseconds "ahead" by clock disagreement is not expired.
func (l *RemoteLink) leaseExpired() bool {
	exp := l.leaseExpiry.Load()
	if exp == 0 {
		return true
	}
	return l.skew.Expired(time.Unix(0, exp), l.clock.Now())
}

// degrade moves the link down one step after a failed exchange: suspect
// while the lease lives, partitioned once it expired.
func (l *RemoteLink) degrade(cause error) {
	if l.State() == LinkPartitioned {
		return
	}
	if !l.leaseExpired() {
		if l.state.CompareAndSwap(int32(LinkUp), int32(LinkSuspect)) ||
			l.state.CompareAndSwap(int32(LinkReattached), int32(LinkSuspect)) {
			l.log.Record(l.clock.Now(), l.child.Name(), trace.LinkSuspect, cause.Error())
		}
		return
	}
	prev := l.state.Swap(int32(LinkPartitioned))
	if LinkState(prev) != LinkPartitioned {
		l.log.Record(l.clock.Now(), l.child.Name(), trace.LinkDown,
			"lease expired: "+cause.Error())
	}
}

// attach runs one lease exchange and, on success, performs the
// attach/reattach bookkeeping: catch-up sizing from the parent's
// watermark, contract re-split, state transition.
func (l *RemoteLink) attach() error {
	prev := l.State()
	seq := l.child.CycleSeq()
	rep, err := l.exchange(mgmtMsg{Op: "lease", Child: l.child.Name(), CycleSeq: seq})
	if err != nil {
		l.degrade(err)
		return err
	}
	if !rep.OK {
		err := errors.New(rep.Err)
		l.degrade(err)
		return err
	}
	l.renewLease()
	// The very first successful attach of a fresh child (nothing to catch
	// up on either side) is plain; any later recovery from partitioned is
	// a reattach — and so is a restarted child process finding the parent
	// holding a watermark for its name.
	firstAttach := !l.attached.Swap(true) && rep.Acked == 0
	switch {
	case prev == LinkPartitioned && !firstAttach:
		// Reattach after a partition (or a process restart that left the
		// parent holding a watermark): size the catch-up debt from the
		// acknowledged watermark, re-split the contract, flag the state.
		owed := owedCycles(l.cfg.Policy, seq, rep.Acked)
		l.catchUp.Store(int64(owed))
		l.reattaches.Add(1)
		l.state.Store(int32(LinkReattached))
		l.log.Record(l.clock.Now(), l.child.Name(), trace.LinkUp,
			fmt.Sprintf("reattached (policy %s, %d catch-up cycles owed)", l.cfg.Policy, owed))
		l.resplit()
	case prev == LinkPartitioned:
		l.state.Store(int32(LinkUp))
		l.log.Record(l.clock.Now(), l.child.Name(), trace.LinkUp, "attached")
		l.resplit()
	case prev == LinkSuspect:
		l.state.Store(int32(LinkUp))
		l.log.Record(l.clock.Now(), l.child.Name(), trace.LinkUp, "heartbeat recovered")
	}
	l.child.setAckedCycle(seq)
	return nil
}

// resplit asks the parent for this child's current sub-contract (P_spl
// over the live topology, exactly like the in-process re-attachment in
// Restore) and installs it. Best-effort: a partition racing the request
// leaves the old contract in force until the next reattach.
func (l *RemoteLink) resplit() {
	rep, err := l.exchange(mgmtMsg{Op: "resplit", Child: l.child.Name()})
	if err != nil || !rep.OK || rep.Contract == "" || l.cfg.KeepContract {
		return
	}
	c, err := contract.Parse(rep.Contract)
	if err != nil {
		l.log.Record(l.clock.Now(), l.child.Name(), trace.Kind("error"),
			"resplit: "+err.Error())
		return
	}
	if c.Describe() != l.child.Contract().Describe() {
		_ = l.child.AssignContract(c)
	}
}

// Run drives the heartbeat/lease loop until ctx is canceled. While the
// link is up (or suspect) it heartbeats every Heartbeat; once partitioned
// it runs bounded jittered reattach rounds via runtime.Retry, waiting one
// heartbeat between rounds — partitions are survivable, so the loop never
// gives up, but each round's attempts and backoff are bounded.
func (l *RemoteLink) Run(ctx context.Context) error {
	if ctx == nil {
		ctx = context.Background()
	}
	ticker := l.clock.NewTicker(l.cfg.Heartbeat)
	defer ticker.Stop()
	for {
		if l.State() == LinkPartitioned {
			_ = runtime.Retry(ctx, l.retry, func() error {
				if err := ctx.Err(); err != nil {
					return err
				}
				return l.attach()
			}, nil)
		} else {
			_ = l.attach() // a failure already degraded the link
		}
		select {
		case <-ctx.Done():
			return nil
		case <-ticker.C():
		}
	}
}

// Start launches Run on a background goroutine; Stop terminates it.
func (l *RemoteLink) Start() { l.life.Start(l.Run) }

// Stop terminates the heartbeat loop and waits for it to exit.
func (l *RemoteLink) Stop() { _ = l.life.Stop() }

// ---------------------------------------------------------------------------
// Parent side.

// ParentEndpointConfig parameterizes a ParentEndpoint.
type ParentEndpointConfig struct {
	// Parent receives the remote children's violations on its ordinary
	// violation queue, exactly as in-process children deliver.
	Parent *Manager
	// Security, when set, answers remote two-phase prepares.
	Security *SecurityManager
	// Lease is the window after which a silent child counts as
	// partitioned (default 4×50ms, the RemoteLink default).
	Lease time.Duration
	// Clock, Log, Skew default to the parent's.
	Clock simclock.Clock
	Log   *trace.Log
	Skew  *simclock.Tolerance
}

// childLease is the endpoint's per-child failure-detection state.
type childLease struct {
	lastSeen time.Time
	acked    uint64 // last acknowledged MAPE cycle (the watermark)
	seen     map[uint64]struct{}
}

// ParentEndpoint is the parent half of the remote management plane: the
// handler behind wire.ServerConfig.Mgmt (or a direct in-process
// transport). It tracks per-child leases and delivery watermarks, dedups
// violation reports by causality id so a reattach flush delivers exactly
// once, and answers contract re-splits and two-phase prepares.
type ParentEndpoint struct {
	cfg ParentEndpointConfig

	mu       sync.Mutex
	children map[string]*childLease

	delivered  atomic.Uint64 // violations handed to the parent manager
	duplicates atomic.Uint64 // reports suppressed by CauseID dedup
	reattaches atomic.Uint64 // leases renewed after an expiry gap
}

// NewParentEndpoint validates cfg and builds the endpoint.
func NewParentEndpoint(cfg ParentEndpointConfig) (*ParentEndpoint, error) {
	if cfg.Parent == nil {
		return nil, fmt.Errorf("manager: parent endpoint needs a parent manager")
	}
	if cfg.Lease <= 0 {
		cfg.Lease = 200 * time.Millisecond
	}
	if cfg.Clock == nil {
		cfg.Clock = cfg.Parent.clock
	}
	if cfg.Log == nil {
		cfg.Log = cfg.Parent.log
	}
	if cfg.Skew == nil {
		cfg.Skew = cfg.Parent.skew
	}
	return &ParentEndpoint{cfg: cfg, children: map[string]*childLease{}}, nil
}

// Delivered returns how many remote violations reached the parent.
func (e *ParentEndpoint) Delivered() uint64 { return e.delivered.Load() }

// Duplicates returns how many reports the causality-id dedup suppressed.
func (e *ParentEndpoint) Duplicates() uint64 { return e.duplicates.Load() }

// Reattaches returns how many child leases were renewed after expiring —
// the parent-side repro_manager_link_reattach_total.
func (e *ParentEndpoint) Reattaches() uint64 { return e.reattaches.Load() }

// UniqueCauses returns how many distinct causality ids the endpoint has
// delivered across all children. With decision tracing on (every report
// carries a cause), Delivered() == UniqueCauses() is the exactly-once
// invariant in counter form.
func (e *ParentEndpoint) UniqueCauses() uint64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	var n uint64
	for _, c := range e.children {
		n += uint64(len(c.seen))
	}
	return n
}

// Children returns the names of the children the endpoint has seen.
func (e *ParentEndpoint) Children() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]string, 0, len(e.children))
	for name := range e.children {
		out = append(out, name)
	}
	return out
}

// ChildPartitioned reports whether child's lease has expired (skew
// tolerant) — the parent-side view of the link state.
func (e *ParentEndpoint) ChildPartitioned(child string) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	c := e.children[child]
	if c == nil {
		return true
	}
	return e.cfg.Skew.Elapsed(c.lastSeen, e.cfg.Clock.Now()) > e.cfg.Lease
}

// Handle processes one management request and returns the reply, both as
// the opaque bytes the wire layer seals. It is wire.ServerConfig.Mgmt.
func (e *ParentEndpoint) Handle(req []byte) []byte {
	var msg mgmtMsg
	if err := json.Unmarshal(req, &msg); err != nil {
		return marshalReply(mgmtReply{Err: "malformed request: " + err.Error()})
	}
	var rep mgmtReply
	switch msg.Op {
	case "lease":
		rep = e.lease(msg)
	case "report":
		rep = e.report(msg)
	case "resplit":
		rep = e.resplit(msg)
	case "prepare":
		rep = e.prepare(msg)
	default:
		rep = mgmtReply{Err: fmt.Sprintf("unknown op %q", msg.Op)}
	}
	return marshalReply(rep)
}

func marshalReply(rep mgmtReply) []byte {
	b, err := json.Marshal(rep)
	if err != nil {
		return []byte(`{"ok":false,"err":"reply marshal failed"}`)
	}
	return b
}

// touch renews child's lease and returns its record plus the watermark
// held *before* this exchange (the value reattach sizing needs), counting
// a renewal across an expiry gap as a reattach.
func (e *ParentEndpoint) touch(child string, seq uint64) (rec *childLease, prevAcked uint64) {
	now := e.cfg.Clock.Now()
	e.mu.Lock()
	c := e.children[child]
	if c == nil {
		c = &childLease{seen: map[uint64]struct{}{}}
		e.children[child] = c
	} else if e.cfg.Skew.Elapsed(c.lastSeen, now) > e.cfg.Lease {
		e.reattaches.Add(1)
		e.mu.Unlock()
		e.cfg.Log.Record(now, e.cfg.Parent.Name(), trace.LinkUp,
			fmt.Sprintf("child %s reattached", child))
		e.mu.Lock()
	}
	prev := c.acked
	c.lastSeen = now
	if seq > 0 {
		c.acked = seq
	}
	e.mu.Unlock()
	return c, prev
}

// lease handles a heartbeat/lease renewal.
func (e *ParentEndpoint) lease(msg mgmtMsg) mgmtReply {
	_, prev := e.touch(msg.Child, msg.CycleSeq)
	return mgmtReply{OK: true, Acked: prev}
}

// report handles one violation report: causality-id dedup, then delivery
// onto the parent's ordinary violation queue. Dedup, enqueue and the cause
// record happen under one lock: a report the full queue refuses leaves no
// trace — not counted, its cause not recorded, so the retry is not taken
// for a duplicate — and is answered Busy.
func (e *ParentEndpoint) report(msg mgmtMsg) mgmtReply {
	if msg.Violation == nil {
		return mgmtReply{Err: "report without violation"}
	}
	c, prev := e.touch(msg.Child, msg.CycleSeq)
	v := *msg.Violation
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, dup := c.seen[v.CauseID]; dup { // cause 0 is never recorded
		e.duplicates.Add(1)
		return mgmtReply{OK: true, Dup: true, Acked: prev}
	}
	if err := e.cfg.Parent.deliver(v); err != nil {
		return mgmtReply{Err: err.Error(), Busy: true, Acked: prev}
	}
	if v.CauseID != 0 {
		c.seen[v.CauseID] = struct{}{}
	}
	e.delivered.Add(1)
	return mgmtReply{OK: true, Acked: prev}
}

// resplit answers with the child's sub-contract derived from the parent's
// live contract (P_spl), serialized as contract.Describe text. Remote
// children all receive the same single-child split: the parent's local
// split policy over one slot, or the live contract verbatim without one.
func (e *ParentEndpoint) resplit(msg mgmtMsg) mgmtReply {
	e.touch(msg.Child, msg.CycleSeq)
	p := e.cfg.Parent
	c := p.Contract()
	if c == nil {
		return mgmtReply{OK: true}
	}
	if _, bestEffort := c.(contract.BestEffort); bestEffort {
		// A best-effort parent imposes nothing: the child keeps whatever
		// contract it was assigned locally instead of having it clobbered
		// by an always-satisfied split.
		return mgmtReply{OK: true}
	}
	if split := p.cfg.Policy.Split; split != nil {
		if subs, err := split(c, 1); err == nil && len(subs) == 1 && subs[0] != nil {
			return mgmtReply{OK: true, Contract: subs[0].Describe()}
		}
	}
	return mgmtReply{OK: true, Contract: c.Describe()}
}

// prepare answers a remote two-phase prepare: the GM's intent crossed the
// wire, the local security participant secures the binding, and the
// codec's key material returns inside the already-sealed mgmt reply —
// the rekey-frame shape, one layer up.
func (e *ParentEndpoint) prepare(msg mgmtMsg) mgmtReply {
	if e.cfg.Security == nil {
		return mgmtReply{Err: "no security participant at this endpoint"}
	}
	node := grid.NewNode(msg.Node, grid.Domain{Name: msg.Domain, Trusted: msg.Trusted}, 1, 1)
	var codec security.Codec
	err := e.cfg.Security.prepareWorker(msg.Cause, msg.Worker, node,
		func(c security.Codec) { codec = c })
	if err != nil {
		return mgmtReply{Err: err.Error(), Down: errors.Is(err, abc.ErrManagerDown)}
	}
	rep := mgmtReply{OK: true, CodecName: security.PlainName}
	if aes, ok := codec.(*security.AESGCM); ok {
		rep.CodecName = security.AESGCMName
		rep.CodecKey = aes.Key()
	}
	return rep
}

// ---------------------------------------------------------------------------
// Remote two-phase participant.

// RemoteParticipant adapts a RemoteLink into the GM's SecurityParticipant
// seam: prepares travel the management link as sealed frames, a
// partitioned link maps to abc.ErrManagerDown, so the GM's abort +
// bounded re-issue machinery holds unchanged across processes.
type RemoteParticipant struct {
	name  string
	link  *RemoteLink
	clock simclock.Clock
}

// NewRemoteParticipant builds a participant over an established link.
func NewRemoteParticipant(name string, link *RemoteLink) *RemoteParticipant {
	if name == "" {
		name = "AM_sec/remote"
	}
	return &RemoteParticipant{name: name, link: link, clock: link.clock}
}

// Name implements SecurityParticipant.
func (p *RemoteParticipant) Name() string { return p.name }

// Available implements SecurityParticipant: a partitioned link is a down
// participant.
func (p *RemoteParticipant) Available() bool { return !p.link.Down() }

// prepareWorker implements SecurityParticipant over the link.
func (p *RemoteParticipant) prepareWorker(cause uint64, id string, node *grid.Node, setCodec func(security.Codec)) error {
	if p.link.Down() {
		return fmt.Errorf("participant %s: preparing %s: %w", p.name, id, abc.ErrManagerDown)
	}
	rep, err := p.link.exchange(mgmtMsg{
		Op: "prepare", Child: p.link.child.Name(), Cause: cause,
		Worker: id, Node: node.ID, Domain: node.Domain.Name, Trusted: node.Domain.Trusted,
	})
	if err != nil {
		p.link.degrade(err)
		return fmt.Errorf("participant %s: preparing %s: %w", p.name, id, abc.ErrManagerDown)
	}
	if !rep.OK {
		if rep.Down {
			return fmt.Errorf("participant %s: preparing %s: %w", p.name, id, abc.ErrManagerDown)
		}
		return fmt.Errorf("participant %s: preparing %s: %s", p.name, id, rep.Err)
	}
	p.link.renewLease()
	if rep.CodecName == security.AESGCMName {
		codec, err := security.NewAESGCM(rep.CodecKey, p.clock, 0)
		if err != nil {
			return fmt.Errorf("participant %s: rebuilding codec for %s: %v", p.name, id, err)
		}
		setCodec(codec)
	}
	return nil
}
