package manager

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/abc"
	"repro/internal/contract"
	"repro/internal/grid"
	"repro/internal/rules"
	"repro/internal/runtime"
	"repro/internal/security"
	"repro/internal/simclock"
	"repro/internal/skel"
	"repro/internal/trace"
)

func TestCheckpointRestoreRoundtrip(t *testing.T) {
	ctrl := &stub{}
	m, log := newTestManager(t, "AM", ctrl, nil, Policy{})
	want := contract.ThroughputRange{Lo: 0.3, Hi: 0.7}
	if err := m.AssignContract(want); err != nil {
		t.Fatal(err)
	}
	if _, ok := m.LastCheckpoint(); ok {
		t.Fatal("checkpoint exists before any MAPE cycle")
	}
	ctrl.setSnap(contract.Snapshot{Throughput: 0.5})
	if err := m.RunOnce(); err != nil {
		t.Fatal(err)
	}
	cp, ok := m.LastCheckpoint()
	if !ok {
		t.Fatal("no checkpoint after RunOnce")
	}
	if cp.Contract.Describe() != want.Describe() || cp.State != Active {
		t.Fatalf("checkpoint = %+v", cp)
	}

	m.Crash()
	if !m.Crashed() {
		t.Fatal("Crashed() = false after Crash")
	}
	if _, ok := m.Contract().(contract.BestEffort); !ok {
		t.Fatalf("crash kept the contract: %v", m.Contract())
	}
	if _, ok := m.LastCheckpoint(); !ok {
		t.Fatal("crash wiped the durable checkpoint")
	}

	if err := m.Restore(cp); err != nil {
		t.Fatal(err)
	}
	if m.Crashed() {
		t.Fatal("Crashed() = true after Restore")
	}
	if m.Contract().Describe() != want.Describe() {
		t.Fatalf("restored contract = %v, want %v", m.Contract(), want)
	}
	if log.Count("AM", trace.Crashed) != 1 || log.Count("AM", trace.Restored) != 1 {
		t.Fatalf("crash/restore events missing:\n%s", log.Timeline())
	}
}

func TestRestoreRebasesWarmUpRemainder(t *testing.T) {
	ctrl := &stub{}
	log := trace.NewLog()
	clock := simclock.NewManual(time.Unix(0, 0))
	m, err := New(Config{
		Name: "AM", Clock: clock, Period: time.Second,
		Controller: ctrl, Log: log, WarmUp: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	m.AssignContract(contract.MinThroughput(0.5))
	clock.Advance(6 * time.Second)
	m.RunOnce() // checkpoint with 4s of warm-up outstanding
	cp, _ := m.LastCheckpoint()
	if cp.WarmUpRemaining != 4*time.Second {
		t.Fatalf("WarmUpRemaining = %v, want 4s", cp.WarmUpRemaining)
	}
	m.Crash()
	clock.Advance(time.Second)
	if err := m.Restore(cp); err != nil {
		t.Fatal(err)
	}
	// The restored manager observes exactly the checkpointed remainder,
	// not the full original window.
	if got := m.WarmUp(); got != 4*time.Second {
		t.Fatalf("restored warm-up window = %v, want 4s", got)
	}
}

// TestRestoreReattachesViaParentResplit: the parent's live contract — not
// the checkpointed sub-contract — is authoritative after a child restart.
func TestRestoreReattachesViaParentResplit(t *testing.T) {
	split := func(c contract.Contract, n int) ([]contract.Contract, error) {
		out := make([]contract.Contract, n)
		for i := range out {
			out[i] = c
		}
		return out, nil
	}
	parent, _ := newTestManager(t, "P", &stub{}, nil, Policy{Split: split})
	child, _ := newTestManager(t, "C", &stub{}, nil, Policy{})
	parent.AttachChild(child)

	oldC := contract.MinThroughput(0.4)
	if err := parent.AssignContract(oldC); err != nil {
		t.Fatal(err)
	}
	if err := child.RunOnce(); err != nil { // checkpoint carries the old sub
		t.Fatal(err)
	}
	cp, _ := child.LastCheckpoint()
	if cp.Contract.Describe() != oldC.Describe() {
		t.Fatalf("checkpointed sub = %v", cp.Contract)
	}

	newC := contract.MinThroughput(0.9) // contract moved on while child was down
	if err := parent.AssignContract(newC); err != nil {
		t.Fatal(err)
	}
	child.Crash()
	if err := child.Restore(cp); err != nil {
		t.Fatal(err)
	}
	if child.Contract().Describe() != newC.Describe() {
		t.Fatalf("restored child contract = %v, want the parent's re-split %v",
			child.Contract(), newC)
	}
}

func TestViolationBufferedWhileParentDown(t *testing.T) {
	parent, _ := newTestManager(t, "P", &stub{}, nil, Policy{})
	child, _ := newTestManager(t, "C", &stub{}, nil, Policy{})
	parent.AttachChild(child)
	if err := parent.RunOnce(); err != nil { // seed the parent checkpoint
		t.Fatal(err)
	}

	parent.Crash()
	child.reportViolation(rules.TagNotEnoughTasks, contract.Snapshot{Throughput: 0.1})
	if got := child.BufferedViolations(); got != 1 {
		t.Fatalf("BufferedViolations = %d, want 1", got)
	}
	select {
	case v := <-parent.violations:
		t.Fatalf("violation %v delivered to a crashed parent", v)
	default:
	}

	cp, _ := parent.LastCheckpoint()
	if err := parent.Restore(cp); err != nil {
		t.Fatal(err)
	}
	child.flushBuffered(false)
	select {
	case v := <-parent.violations:
		if v.From != "C" || v.Tag != rules.TagNotEnoughTasks {
			t.Fatalf("flushed violation = %+v", v)
		}
	default:
		t.Fatal("buffered violation not re-delivered after parent recovery")
	}
	if got := child.BufferedViolations(); got != 0 {
		t.Fatalf("buffer not drained: %d", got)
	}
}

func TestViolationBufferDedupeAndDropOldest(t *testing.T) {
	m, _ := newTestManager(t, "C", &stub{}, nil, Policy{})

	// Duplicate causality ids coalesce: re-raising the same violation every
	// cycle of a long outage must not flush distinct evidence out.
	m.bufferViolation(Violation{From: "C", CauseID: 7})
	m.bufferViolation(Violation{From: "C", CauseID: 7})
	if got := m.BufferedViolations(); got != 1 {
		t.Fatalf("duplicate CauseID buffered twice: %d", got)
	}

	// Overflow of *distinct* causes drops oldest-first and counts the
	// drops (distinct tags: same-tag re-raises coalesce, tested below).
	for i := 0; i < violBufCap+2; i++ {
		m.bufferViolation(Violation{
			From: "C", Tag: fmt.Sprintf("tag%d", i), CauseID: uint64(100 + i),
		})
	}
	if got := m.BufferedViolations(); got != violBufCap {
		t.Fatalf("buffer size = %d, want cap %d", got, violBufCap)
	}
	if got := m.ViolationDrops(); got != 3 { // the CauseID=7 entry plus two overflow
		t.Fatalf("ViolationDrops = %d, want 3", got)
	}
	m.mu.Lock()
	oldest := m.violBuf[0].CauseID
	newest := m.violBuf[len(m.violBuf)-1].CauseID
	m.mu.Unlock()
	if oldest != 102 || newest != uint64(100+violBufCap+1) {
		t.Fatalf("drop order wrong: oldest=%d newest=%d", oldest, newest)
	}
}

// TestSupervisedRestartRestoresContract is the self-healing round trip end
// to end: a supervised control loop is killed by an injected crash, the
// supervisor restarts it, and the restarted loop replays its checkpoint so
// the contract is enforced again.
func TestSupervisedRestartRestoresContract(t *testing.T) {
	ctrl := &stub{}
	ctrl.setSnap(contract.Snapshot{Throughput: 1.0})
	m, log := newTestManager(t, "AM", ctrl, nil, Policy{})
	want := contract.MinThroughput(0.5)
	if err := m.AssignContract(want); err != nil {
		t.Fatal(err)
	}
	if err := m.RunOnce(); err != nil { // seed the checkpoint
		t.Fatal(err)
	}
	m.SetSupervision(runtime.SupervisorConfig{
		Backoff: runtime.Backoff{Base: time.Millisecond, Jitter: -1},
	})
	var fire atomic.Bool
	fire.Store(true)
	m.SetRunFault(func() RunFault {
		if fire.CompareAndSwap(true, false) {
			return RunFault{Crash: true}
		}
		return RunFault{}
	})

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- m.RunTree(ctx) }()

	deadline := time.Now().Add(5 * time.Second)
	for {
		if m.Supervisor().Restarts() >= 1 && !m.Crashed() &&
			m.Contract().Describe() == want.Describe() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("restart never healed: restarts=%d crashed=%v contract=%v\n%s",
				m.Supervisor().Restarts(), m.Crashed(), m.Contract(), log.Timeline())
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("supervised tree exit: %v", err)
	}
	if m.Supervisor().LastCause() == "" {
		t.Fatal("LastCause empty after a restart")
	}
	if log.Count("AM", trace.Crashed) == 0 || log.Count("AM", trace.Restarted) == 0 ||
		log.Count("AM", trace.Restored) == 0 {
		t.Fatalf("self-healing events missing:\n%s", log.Timeline())
	}
}

// TestTwoPhaseAbortAndReissue kills the security participant between
// intent and commit: the coordinator must abort (rolling the prepared
// worker back, so no plaintext binding survives) and re-issue the intent
// once the participant is back.
func TestTwoPhaseAbortAndReissue(t *testing.T) {
	plat := grid.NewTwoDomainGrid(0, 4)
	f, err := skel.NewFarm(skel.FarmConfig{
		Name: "f", Env: skel.Env{TimeScale: 1000}, RM: plat.RM, InitialWorkers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	fa := abc.NewFarmABC(f, nil)
	log := trace.NewLog()
	clock := simclock.NewManual(time.Unix(0, 0))
	sec, err := NewSecurityManager(SecurityConfig{
		Clock: clock, Log: log, Policy: security.Policy{Network: plat.Network},
	})
	if err != nil {
		t.Fatal(err)
	}
	gm, err := NewGeneralManager("GM", sec, log, clock, TwoPhase)
	if err != nil {
		t.Fatal(err)
	}
	gm.Coordinate(fa)

	in := make(chan *skel.Task)
	out := make(chan *skel.Task, 16)
	go func() {
		for range out {
		}
	}()
	go f.Run(context.Background(), in, out)
	defer close(in)
	deadline := time.Now().Add(5 * time.Second)
	for len(f.Workers()) < 1 {
		if time.Now().After(deadline) {
			t.Fatal("farm never started")
		}
		time.Sleep(time.Millisecond)
	}

	// Participant dies; the next ADD aborts between intent and commit.
	sec.FailFor(10 * time.Second)
	if _, err := fa.Execute(rules.OpAddExecutor); !errors.Is(err, abc.ErrManagerDown) {
		t.Fatalf("Execute with participant down: err = %v, want ErrManagerDown", err)
	}
	if len(f.Workers()) != 1 {
		t.Fatalf("aborted add left %d workers, want the rollback to 1", len(f.Workers()))
	}
	if gm.AbortedIntents() != 1 || gm.PendingIntents() != 1 {
		t.Fatalf("aborted=%d pending=%d, want 1/1", gm.AbortedIntents(), gm.PendingIntents())
	}
	if log.Count("GM", trace.Intent) != 1 || log.Count("GM", trace.Aborted) != 1 {
		t.Fatalf("abort events missing:\n%s", log.Timeline())
	}

	// Still down: re-issue must refuse to run.
	if n := gm.ReissueOnce(); n != 0 {
		t.Fatalf("ReissueOnce with participant down committed %d", n)
	}

	// Participant recovers; the pending intent is re-driven through the
	// full intent -> prepare -> commit ladder.
	clock.Advance(11 * time.Second)
	if !sec.Available() {
		t.Fatal("participant still down after its window")
	}
	if n := gm.ReissueOnce(); n != 1 {
		t.Fatalf("ReissueOnce after recovery committed %d, want 1", n)
	}
	if gm.ReissuedIntents() != 1 || gm.PendingIntents() != 0 {
		t.Fatalf("reissued=%d pending=%d, want 1/0", gm.ReissuedIntents(), gm.PendingIntents())
	}
	if log.Count("GM", trace.Reissued) != 1 || log.Count("GM", trace.Committed) != 1 {
		t.Fatalf("re-issue events missing:\n%s", log.Timeline())
	}
	workers := fa.Workers()
	if len(workers) != 2 {
		t.Fatalf("workers after re-issue = %d, want 2", len(workers))
	}
	// The worker added through the two-phase path must never be plaintext
	// on the untrusted domain: the aborted one was rolled back before it
	// could receive a task, the re-issued one prepared before first
	// dispatch. (The initial worker predates the prepare hook — the farm
	// spawned it before Coordinate existed — so it is out of scope here.)
	secured := 0
	for _, w := range workers {
		if w.Secure {
			secured++
		}
	}
	if secured < 1 {
		t.Fatalf("re-issued worker is plaintext on an untrusted node:\n%s", log.Timeline())
	}
	// Idempotence: nothing pending, nothing re-issued twice.
	if n := gm.ReissueOnce(); n != 0 {
		t.Fatalf("second ReissueOnce committed %d, want 0", n)
	}
}

// TestSecurityUnavailablePrepareInstallsNothing: a down participant must
// refuse the prepare outright — no codec may reach the binding, and the
// down-window must clear on the participant's own clock.
func TestSecurityUnavailablePrepareInstallsNothing(t *testing.T) {
	plat := grid.NewTwoDomainGrid(0, 2)
	log := trace.NewLog()
	clock := simclock.NewManual(time.Unix(0, 0))
	sec, err := NewSecurityManager(SecurityConfig{
		Clock: clock, Log: log, Policy: security.Policy{Network: plat.Network},
	})
	if err != nil {
		t.Fatal(err)
	}
	var node *grid.Node
	for _, n := range plat.RM.Nodes() {
		node = n
		break
	}
	sec.FailFor(10 * time.Second)
	if sec.Crashes() != 1 {
		t.Fatalf("Crashes = %d", sec.Crashes())
	}
	installed := false
	err = sec.prepareWorker(0, "w9", node, func(security.Codec) { installed = true })
	if !errors.Is(err, abc.ErrManagerDown) {
		t.Fatalf("err = %v, want ErrManagerDown", err)
	}
	if installed {
		t.Fatal("codec installed by a down manager")
	}
	if n := sec.RunOnce(); n != 0 {
		t.Fatalf("reactive scan ran while down: %d", n)
	}
	clock.Advance(11 * time.Second)
	if err := sec.prepareWorker(0, "w9", node, func(security.Codec) { installed = true }); err != nil {
		t.Fatalf("prepare after recovery: %v", err)
	}
	if !installed {
		t.Fatal("recovered manager installed no codec on the untrusted node")
	}
}

// TestViolationBufferCoalescesSameTagReRaises is the regression test for
// the long-partition starvation bug: every MAPE cycle of an outage
// re-raises a standing violation under a fresh causality id, and before
// coalescing those re-raises marched through the bounded buffer evicting
// every *distinct* older cause silently. Now same-(From, Tag) re-raises
// fold onto their first buffered entry — original CauseID kept, evidence
// refreshed — and genuine evictions are counted and traced.
func TestViolationBufferCoalescesSameTagReRaises(t *testing.T) {
	m, log := newTestManager(t, "C", &stub{}, nil, Policy{})

	// A distinct early cause that the old behavior would have evicted.
	m.bufferViolation(Violation{From: "C", Tag: rules.TagTooMuchTasks, CauseID: 1})

	// violBufCap+8 re-raises of the same tag, each with a fresh CauseID —
	// the shape a real outage produces.
	for i := 0; i < violBufCap+8; i++ {
		m.bufferViolation(Violation{
			From: "C", Tag: rules.TagNotEnoughTasks, CauseID: uint64(10 + i),
			Snapshot: contract.Snapshot{ParDegree: i},
		})
	}

	if got := m.BufferedViolations(); got != 2 {
		t.Fatalf("buffer size = %d, want 2 (one per distinct cause)", got)
	}
	if got := m.ViolationDrops(); got != 0 {
		t.Fatalf("ViolationDrops = %d, want 0: nothing should have been evicted", got)
	}
	m.mu.Lock()
	early, coalesced := m.violBuf[0], m.violBuf[1]
	m.mu.Unlock()
	if early.CauseID != 1 {
		t.Fatalf("distinct early cause evicted: buffer head cause=%d", early.CauseID)
	}
	if coalesced.CauseID != 10 {
		t.Fatalf("coalesced entry lost its original CauseID: %d, want 10", coalesced.CauseID)
	}
	if coalesced.Snapshot.ParDegree != violBufCap+7 {
		t.Fatalf("coalesced entry carries stale evidence: pardegree=%d", coalesced.Snapshot.ParDegree)
	}

	// Genuine evictions (distinct tags beyond the cap) are traced, not
	// silent: one violDropped event per evicted cause.
	for i := 0; i < violBufCap; i++ {
		m.bufferViolation(Violation{
			From: "C", Tag: fmt.Sprintf("distinct%d", i), CauseID: uint64(1000 + i),
		})
	}
	wantDrops := 2 // cap 64, had 2, added 64 distinct
	if got := m.ViolationDrops(); got != uint64(wantDrops) {
		t.Fatalf("ViolationDrops = %d, want %d", got, wantDrops)
	}
	if got := log.Count("C", trace.ViolDropped); got != wantDrops {
		t.Fatalf("violDropped trace events = %d, want %d", got, wantDrops)
	}
}

// overQueue is more violations than a parent's 256-slot queue holds, with
// an overflow that fits the child's 64-slot buffer.
const overQueue = 300

// raiseDistinct escalates n violations from child, each with its own tag
// and causality id, outside any MAPE cycle.
func raiseDistinct(child *Manager, n int) {
	for i := 0; i < n; i++ {
		child.cycleCause = uint64(i + 1)
		child.Escalate(fmt.Sprintf("tag%d", i), contract.Snapshot{})
	}
}

// TestFreshRaiseQueuesBehindParked: a violation raised while an older one
// is still parked goes out behind it, even when the parent has drained
// its queue since the older one was refused and no child cycle has
// flushed the buffer in between. The parent must handle them in raise
// order.
func TestFreshRaiseQueuesBehindParked(t *testing.T) {
	var handled []string
	parent, _ := newTestManager(t, "P", &stub{}, nil, Policy{
		OnChildViolation: func(_ *Manager, v Violation) { handled = append(handled, v.Tag) },
	})
	child, _ := newTestManager(t, "C", &stub{}, nil, Policy{})
	parent.AttachChild(child)

	fill := cap(parent.violations)
	raiseDistinct(child, fill)
	child.cycleCause = uint64(fill + 1)
	child.Escalate("A", contract.Snapshot{})
	if got := child.BufferedViolations(); got != 1 {
		t.Fatalf("A parked %d violations behind a full queue, want 1", got)
	}
	if err := parent.RunOnce(); err != nil { // drains the queue; A stays parked
		t.Fatal(err)
	}
	child.cycleCause = uint64(fill + 2)
	child.Escalate("B", contract.Snapshot{})
	for _, m := range []*Manager{parent, child, parent} {
		if err := m.RunOnce(); err != nil {
			t.Fatal(err)
		}
	}
	if len(handled) != fill+2 {
		t.Fatalf("parent handled %d violations, want %d", len(handled), fill+2)
	}
	if got := handled[fill:]; got[0] != "A" || got[1] != "B" {
		t.Fatalf("parent handled %v after the fill, want [A B]: a fresh raise overtook a parked one", got)
	}
	if n := child.BufferedViolations(); n != 0 {
		t.Fatalf("buffer holds %d violations after the drain, want 0", n)
	}
}

// TestFullParentQueueParksViolations: a parent whose queue is full refuses
// a report instead of dropping it. The child parks the overflow without
// taking the parent for down, and re-delivers it once the parent drains,
// so every violation is handled exactly once.
func TestFullParentQueueParksViolations(t *testing.T) {
	handled := 0
	parent, _ := newTestManager(t, "P", &stub{}, nil, Policy{
		OnChildViolation: func(*Manager, Violation) { handled++ },
	})
	child, _ := newTestManager(t, "C", &stub{}, nil, Policy{})
	parent.AttachChild(child)

	raiseDistinct(child, overQueue)
	if got, want := child.BufferedViolations(), overQueue-cap(parent.violations); got != want {
		t.Fatalf("parked %d violations, want %d", got, want)
	}
	if st := child.Link().State(); st != LinkUp {
		t.Fatalf("link state under a full queue = %v, want up", st)
	}

	for _, m := range []*Manager{parent, child, parent} {
		if err := m.RunOnce(); err != nil {
			t.Fatal(err)
		}
	}
	if handled != overQueue || child.Escalations() != overQueue {
		t.Fatalf("handled %d of %d escalations, want %d", handled, child.Escalations(), overQueue)
	}
	if child.BufferedViolations() != 0 || child.ViolationDrops() != 0 {
		t.Fatalf("buffered=%d dropped=%d after drain, want 0/0",
			child.BufferedViolations(), child.ViolationDrops())
	}
}
