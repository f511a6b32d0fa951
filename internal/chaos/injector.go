package chaos

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/abc"
	"repro/internal/grid"
	"repro/internal/metrics"
	"repro/internal/simclock"
	"repro/internal/skel"
	"repro/internal/trace"
)

// ErrInjectedActuator marks an actuator failure injected by the chaos
// plane. It is transient: the abc.Guard's retry policy is allowed to absorb
// it if the fault window closes in time.
var ErrInjectedActuator = errors.New("chaos: injected actuator failure")

// ErrInjectedRecruit marks a transient injected recruitment failure
// (retryable, unlike an injected outage which wraps grid.ErrExhausted).
var ErrInjectedRecruit = errors.New("chaos: injected flaky recruitment")

// Targets binds an Injector to the system under test. Farm is mandatory;
// every other target is optional and its faults are skipped when absent.
type Targets struct {
	Farm *skel.Farm
	// Exec receives the actuator fault hook.
	Exec *abc.FarmABC
	// RM receives the recruitment fault hook.
	RM *grid.ResourceManager
	// Nodes are external-load spike candidates (typically the platform's).
	Nodes []*grid.Node
	// Network plus the LinkA–LinkB domain pair locate the link to degrade.
	Network      *grid.Network
	LinkA, LinkB string
	// Clock is the clock the plan's modelled times run on, the managers'
	// (nil: the wall clock).
	Clock simclock.Clock
	// Log, when set, records every applied fault (source "CHAOS").
	Log *trace.Log
	// Health reports whether the system currently meets its contract; it
	// is polled after each storm to measure recovery.
	Health func() bool
	// MTTR receives one observation per recovered storm: the modelled
	// seconds from the end of the storm until Health turned true.
	MTTR *metrics.Histogram
	// MaxRecover bounds the post-storm recovery wait in modelled time
	// (default 60s). A storm whose recovery exceeds it counts as
	// unrecovered — an invariant violation in the soak harness.
	MaxRecover time.Duration
	// Managers are the management-plane victims of the manager fault
	// kinds. Victims are picked round-robin in slice order across all
	// manager events, so coverage is deterministic per plan: list them in
	// a fixed order. Durations passed to the closures are modelled time,
	// the time of the managers' clock.
	Managers []ManagerTarget
	// Remote binds the cross-process dispatch plane's link as a victim of
	// the remote fault kinds. Nil (the loopback default) skips them.
	Remote *RemoteTarget
	// MgrLink binds a remote management link (a manager.RemoteLink in
	// practice) as a victim of the manager-link fault kinds. Nil skips
	// them.
	MgrLink *MgrLinkTarget
}

// RemoteTarget binds a remote dispatch link (an internal/wire.Factory in
// practice, expressed as closures so chaos stays transport-agnostic) as a
// chaos victim. Durations passed to the closures are WALL time: the wire
// plane runs on real connections, so the injector hands it the plan's
// modelled windows through simclock.BaseDuration.
type RemoteTarget struct {
	Name string
	// Drop severs every live framed connection now; returns how many died.
	Drop func() int
	// Delay adds latency to every exec starting within the window.
	Delay func(latency, window time.Duration)
	// Partition stalls all traffic for the window.
	Partition func(window time.Duration)
}

// MgrLinkTarget binds a remote management link as a chaos victim.
// Durations passed to Partition are modelled time: the link's lease
// machinery runs on the managers' clock, which is the injector's.
type MgrLinkTarget struct {
	Name string
	// Partition makes every management exchange fail for the window; the
	// child's lease expires and violations buffer until reattach.
	Partition func(window time.Duration)
	// Drop fails the next n exchanges outright (a cut connection).
	Drop func(n int)
}

// ManagerTarget binds one management loop as a chaos victim. Crash is
// mandatory for the slot to be usable; Panic and Stall are optional —
// when the loop cannot express them the injector falls back to Crash, so
// every manager event lands on its victim.
type ManagerTarget struct {
	Name string
	// Crash kills the loop; window is the modelled down-window for
	// participants that refuse requests until their restart completes
	// (loop-style managers may ignore it — their downtime is the
	// supervisor's backoff). Returns false when undeliverable.
	Crash func(window time.Duration) bool
	// Panic makes the loop panic mid-cycle (supervisor converts).
	Panic func() bool
	// Stall freezes the loop for the modelled duration d.
	Stall func(d time.Duration) bool
}

// Report summarizes one Injector.Run. Applied counts can depend on runtime
// state (a crash event finds no live worker and is skipped), so replay
// assertions should compare Plan.ByKind plus the invariant verdicts, not
// Applied.
type Report struct {
	Applied     map[Kind]int
	Skipped     map[Kind]int
	Storms      int
	Recovered   int // storms whose Health returned within MaxRecover
	Unrecovered int
}

// Injector executes fault plans against its targets. The windowed faults
// (actuator, recruitment) work through nil-gated hooks installed at
// construction and removed by Close; crash/load/link faults act directly
// on the target objects, restoring state when their window expires.
type Injector struct {
	t     Targets
	clock simclock.Clock

	// fault windows as clock unix-nanos, read by the hooks.
	actFailUntil       atomic.Int64
	actSlowUntil       atomic.Int64
	actDelay           atomic.Int64 // modelled ns
	recruitFlakyUntil  atomic.Int64
	recruitOutageUntil atomic.Int64

	// one-shot worker faults, consumed by the farm's per-task hook.
	pendingPanics atomic.Int32
	pendingStalls atomic.Int32
	stallDur      atomic.Int64 // modelled ns

	injectedActs     atomic.Uint64
	injectedRecruits atomic.Uint64
	injectedMgr      atomic.Uint64

	// mgrRR is the round-robin cursor over Targets.Managers; advanced on
	// every manager fault event (even skipped ones), keeping victim
	// selection a pure function of the plan.
	mgrRR int

	wg     sync.WaitGroup // window-restore goroutines
	closed chan struct{}
}

// NewInjector installs the chaos hooks on the targets and returns the
// injector. Call Close to uninstall them and wait for restores.
func NewInjector(t Targets) *Injector {
	if t.MaxRecover <= 0 {
		t.MaxRecover = 60 * time.Second
	}
	in := &Injector{t: t, clock: simclock.Or(t.Clock), closed: make(chan struct{})}
	if t.Farm != nil {
		t.Farm.SetWorkerFault(in.workerFault)
	}
	if t.Exec != nil {
		t.Exec.SetExecuteFault(in.execFault)
	}
	if t.RM != nil {
		t.RM.SetRecruitFault(in.recruitFault)
	}
	return in
}

// Close removes the hooks and waits for outstanding window restores.
func (in *Injector) Close() {
	select {
	case <-in.closed:
	default:
		close(in.closed)
	}
	if in.t.Farm != nil {
		in.t.Farm.SetWorkerFault(nil)
	}
	if in.t.Exec != nil {
		in.t.Exec.SetExecuteFault(nil)
	}
	if in.t.RM != nil {
		in.t.RM.SetRecruitFault(nil)
	}
	in.wg.Wait()
}

// InjectedActuatorFailures returns how many Execute calls the plane vetoed.
func (in *Injector) InjectedActuatorFailures() uint64 { return in.injectedActs.Load() }

// InjectedRecruitFailures returns how many recruitments the plane vetoed.
func (in *Injector) InjectedRecruitFailures() uint64 { return in.injectedRecruits.Load() }

// InjectedManagerFaults returns how many manager faults were delivered.
func (in *Injector) InjectedManagerFaults() uint64 { return in.injectedMgr.Load() }

// nextManager returns the next manager victim round-robin, advancing the
// cursor unconditionally so selection depends only on the plan.
func (in *Injector) nextManager() *ManagerTarget {
	if len(in.t.Managers) == 0 {
		return nil
	}
	t := &in.t.Managers[in.mgrRR%len(in.t.Managers)]
	in.mgrRR++
	return t
}

// TakeOne atomically consumes one pending one-shot fault from c, reporting
// whether there was one. Fault hooks outside the injector share it.
func TakeOne(c *atomic.Int32) bool {
	for {
		v := c.Load()
		if v <= 0 {
			return false
		}
		if c.CompareAndSwap(v, v-1) {
			return true
		}
	}
}

// workerFault is the farm's per-task hook.
func (in *Injector) workerFault(string, *skel.Task) skel.WorkerFault {
	if TakeOne(&in.pendingPanics) {
		return skel.WorkerFault{Panic: true}
	}
	if TakeOne(&in.pendingStalls) {
		return skel.WorkerFault{Stall: time.Duration(in.stallDur.Load())}
	}
	return skel.WorkerFault{}
}

// execFault is the ABC's Execute hook.
func (in *Injector) execFault(op string) error {
	now := in.clock.Now().UnixNano()
	if now < in.actFailUntil.Load() {
		in.injectedActs.Add(1)
		return fmt.Errorf("%w: %s", ErrInjectedActuator, op)
	}
	if now < in.actSlowUntil.Load() {
		in.clock.Sleep(time.Duration(in.actDelay.Load()))
	}
	return nil
}

// recruitFault is the resource manager's Recruit hook.
func (in *Injector) recruitFault(grid.Request) error {
	now := in.clock.Now().UnixNano()
	if now < in.recruitOutageUntil.Load() {
		in.injectedRecruits.Add(1)
		return fmt.Errorf("chaos: injected recruitment outage: %w", grid.ErrExhausted)
	}
	if now < in.recruitFlakyUntil.Load() {
		in.injectedRecruits.Add(1)
		return ErrInjectedRecruit
	}
	return nil
}

// openWindow extends the given fault window to now + modelled d.
func (in *Injector) openWindow(w *atomic.Int64, d time.Duration) {
	until := in.clock.Now().Add(d).UnixNano()
	for {
		cur := w.Load()
		if cur >= until || w.CompareAndSwap(cur, until) {
			return
		}
	}
}

// after runs fn once the modelled window d has elapsed (or immediately on
// Close), always executing fn so injected state is restored.
func (in *Injector) after(d time.Duration, fn func()) {
	in.wg.Add(1)
	go func() {
		defer in.wg.Done()
		select {
		case <-in.closed:
		case <-in.clock.After(d):
		}
		fn()
	}()
}

// pickWorker returns the first live worker by ID order (deterministic
// given the farm state), or "" when none is live.
func (in *Injector) pickWorker() (string, *grid.Node) {
	ws := in.t.Farm.Workers()
	sort.Slice(ws, func(i, j int) bool { return ws[i].ID < ws[j].ID })
	for _, w := range ws {
		if !w.Failed {
			return w.ID, w.Node
		}
	}
	return "", nil
}

func (in *Injector) record(ev Event, detail string) {
	if in.t.Log == nil {
		return
	}
	in.t.Log.Record(in.clock.Now(), "CHAOS", trace.Kind(string(ev.Kind)), detail)
}

// apply executes one fault event. It returns false when the event had no
// viable target and was skipped.
func (in *Injector) apply(ev Event) bool {
	switch ev.Kind {
	case WorkerCrash:
		id, node := in.pickWorker()
		if id == "" {
			return false
		}
		if err := in.t.Farm.KillWorker(id); err != nil {
			return false
		}
		in.record(ev, fmt.Sprintf("%s on %s", id, node.ID))
	case WorkerPanic:
		in.pendingPanics.Add(1)
		in.record(ev, "next task panics")
	case WorkerStall:
		in.stallDur.Store(int64(time.Duration(ev.Param * float64(time.Second))))
		in.pendingStalls.Add(1)
		in.record(ev, fmt.Sprintf("next task stalls %.1fs", ev.Param))
	case ExtLoad:
		_, node := in.pickWorker()
		if node == nil {
			if len(in.t.Nodes) == 0 {
				return false
			}
			node = in.t.Nodes[0]
		}
		n := node
		n.SetExternalLoad(ev.Param)
		in.after(ev.Dur, func() { n.SetExternalLoad(0) })
		in.record(ev, fmt.Sprintf("%s load=%.2f for %v", n.ID, ev.Param, ev.Dur))
	case LinkDegrade:
		if in.t.Network == nil || in.t.LinkA == "" || in.t.LinkB == "" {
			return false
		}
		nw, a, b := in.t.Network, in.t.LinkA, in.t.LinkB
		orig := nw.LinkBetween(a, b)
		nw.SetLink(a, b, grid.Link{
			Latency: orig.Latency + time.Duration(ev.Param)*time.Millisecond,
			Private: orig.Private,
		})
		in.after(ev.Dur, func() { nw.SetLink(a, b, orig) })
		in.record(ev, fmt.Sprintf("%s<->%s +%.0fms for %v", a, b, ev.Param, ev.Dur))
	case RecruitFlaky:
		if in.t.RM == nil {
			return false
		}
		in.openWindow(&in.recruitFlakyUntil, ev.Dur)
		in.record(ev, fmt.Sprintf("for %v", ev.Dur))
	case RecruitOutage:
		if in.t.RM == nil {
			return false
		}
		in.openWindow(&in.recruitOutageUntil, ev.Dur)
		in.record(ev, fmt.Sprintf("for %v", ev.Dur))
	case ActuatorFail:
		if in.t.Exec == nil {
			return false
		}
		in.openWindow(&in.actFailUntil, ev.Dur)
		in.record(ev, fmt.Sprintf("for %v", ev.Dur))
	case ActuatorSlow:
		if in.t.Exec == nil {
			return false
		}
		in.actDelay.Store(int64(time.Duration(ev.Param * float64(time.Millisecond))))
		in.openWindow(&in.actSlowUntil, ev.Dur)
		in.record(ev, fmt.Sprintf("+%.0fms for %v", ev.Param, ev.Dur))
	case ManagerCrash:
		t := in.nextManager()
		if t == nil || t.Crash == nil || !t.Crash(ev.Dur) {
			return false
		}
		in.injectedMgr.Add(1)
		in.record(ev, fmt.Sprintf("%s down %v", t.Name, ev.Dur))
	case ManagerPanic:
		t := in.nextManager()
		if t == nil {
			return false
		}
		// Loops that cannot panic fall back to a crash: the event must
		// land on its victim either way.
		switch {
		case t.Panic != nil && t.Panic():
			in.record(ev, t.Name)
		case t.Crash != nil && t.Crash(0):
			in.record(ev, t.Name+" (as crash)")
		default:
			return false
		}
		in.injectedMgr.Add(1)
	case ManagerStall:
		t := in.nextManager()
		if t == nil {
			return false
		}
		d := time.Duration(ev.Param * float64(time.Second))
		switch {
		case t.Stall != nil && t.Stall(d):
			in.record(ev, fmt.Sprintf("%s stalls %.1fs", t.Name, ev.Param))
		case t.Crash != nil && t.Crash(0):
			in.record(ev, t.Name+" (as crash)")
		default:
			return false
		}
		in.injectedMgr.Add(1)
	case RemoteDrop:
		if in.t.Remote == nil || in.t.Remote.Drop == nil {
			return false
		}
		n := in.t.Remote.Drop()
		in.record(ev, fmt.Sprintf("%s cut %d connections", in.t.Remote.Name, n))
	case RemoteDelay:
		if in.t.Remote == nil || in.t.Remote.Delay == nil {
			return false
		}
		lat := time.Duration(ev.Param * float64(time.Millisecond))
		in.t.Remote.Delay(lat, simclock.BaseDuration(in.clock, ev.Dur))
		in.record(ev, fmt.Sprintf("%s +%.0fms for %v", in.t.Remote.Name, ev.Param, ev.Dur))
	case RemotePartition:
		if in.t.Remote == nil || in.t.Remote.Partition == nil {
			return false
		}
		in.t.Remote.Partition(simclock.BaseDuration(in.clock, ev.Dur))
		in.record(ev, fmt.Sprintf("%s partitioned %v", in.t.Remote.Name, ev.Dur))
	case ManagerPartition:
		if in.t.MgrLink == nil || in.t.MgrLink.Partition == nil {
			return false
		}
		in.t.MgrLink.Partition(ev.Dur)
		in.record(ev, fmt.Sprintf("%s partitioned %v", in.t.MgrLink.Name, ev.Dur))
	case ManagerLinkDrop:
		if in.t.MgrLink == nil || in.t.MgrLink.Drop == nil {
			return false
		}
		in.t.MgrLink.Drop(2)
		in.record(ev, fmt.Sprintf("%s dropped 2 exchanges", in.t.MgrLink.Name))
	default:
		return false
	}
	return true
}

// Run drives the plan to completion: each storm's events fire at their
// modelled offsets, then — when a Health probe is configured — recovery is
// polled and the storm's MTTR observed. Run blocks until the plan is done
// or ctx is canceled, then waits for all fault windows to restore.
func (in *Injector) Run(ctx context.Context, p Plan) Report {
	rep := Report{Applied: map[Kind]int{}, Skipped: map[Kind]int{}}
	elapsed := time.Duration(0) // modelled time since run start
	defer in.wg.Wait()
	for _, storm := range p.Storms {
		for _, ev := range storm.Events {
			if ev.At > elapsed {
				if !in.sleep(ctx, ev.At-elapsed) {
					return rep
				}
				elapsed = ev.At
			}
			if in.apply(ev) {
				rep.Applied[ev.Kind]++
			} else {
				rep.Skipped[ev.Kind]++
			}
		}
		rep.Storms++
		if in.t.Health == nil {
			continue
		}
		// The storm has fully landed; measure how long the management
		// plane needs to re-establish the contract.
		recovered := false
		var waited time.Duration
		const probe = 250 * time.Millisecond // modelled
		for waited < in.t.MaxRecover {
			if in.t.Health() {
				recovered = true
				break
			}
			if !in.sleep(ctx, probe) {
				return rep
			}
			waited += probe
			elapsed += probe
		}
		if recovered {
			rep.Recovered++
			if in.t.MTTR != nil {
				in.t.MTTR.Observe(waited.Seconds())
			}
		} else {
			rep.Unrecovered++
		}
	}
	return rep
}

// sleep waits a modelled duration, reporting false on cancelation.
func (in *Injector) sleep(ctx context.Context, d time.Duration) bool {
	select {
	case <-ctx.Done():
		return false
	case <-in.clock.After(d):
		return true
	}
}
