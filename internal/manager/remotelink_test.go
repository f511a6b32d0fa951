package manager

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/abc"
	"repro/internal/contract"
	"repro/internal/grid"
	"repro/internal/rules"
	"repro/internal/security"
	"repro/internal/simclock"
	"repro/internal/skel"
	"repro/internal/trace"
	"repro/internal/wire"
)

// newLinkedPair builds a child manager linked to a parent manager's
// endpoint over an in-process transport on a shared manual clock.
func newLinkedPair(t *testing.T, policy CatchUpPolicy) (*Manager, *Manager, *ParentEndpoint, *RemoteLink, *simclock.Manual, *trace.Log) {
	t.Helper()
	clock := simclock.NewManual(time.Unix(0, 0))
	log := trace.NewLog()
	mk := func(name string) *Manager {
		m, err := New(Config{
			Name: name, Clock: clock, Period: time.Second,
			Controller: &stub{}, Log: log,
		})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	parent := mk("P")
	child := mk("C")
	ep, err := NewParentEndpoint(ParentEndpointConfig{
		Parent: parent, Lease: 200 * time.Millisecond, Clock: clock, Log: log,
	})
	if err != nil {
		t.Fatal(err)
	}
	link, err := NewRemoteLink(RemoteLinkConfig{
		Child:     child,
		Transport: func(req []byte) ([]byte, error) { return ep.Handle(req), nil },
		Heartbeat: 50 * time.Millisecond, Lease: 200 * time.Millisecond,
		Clock: clock, Log: log, Policy: policy,
	})
	if err != nil {
		t.Fatal(err)
	}
	return child, parent, ep, link, clock, log
}

func TestRemoteLinkAttachAndDeliver(t *testing.T) {
	child, parent, ep, link, _, _ := newLinkedPair(t, CatchUpLatest)
	if !link.Down() || link.State() != LinkPartitioned {
		t.Fatalf("fresh link state = %v, want partitioned until first attach", link.State())
	}
	if err := link.attach(); err != nil {
		t.Fatal(err)
	}
	if link.State() != LinkUp {
		t.Fatalf("state after attach = %v, want up", link.State())
	}
	if link.Reattaches() != 0 {
		t.Fatal("first attach must not count as a reattach")
	}

	child.Escalate(rules.TagNotEnoughTasks, contract.Snapshot{Throughput: 0.1})
	select {
	case v := <-parent.violations:
		if v.From != "C" || v.Tag != rules.TagNotEnoughTasks {
			t.Fatalf("delivered violation = %+v", v)
		}
	default:
		t.Fatal("violation did not cross the link")
	}
	if ep.Delivered() != 1 || link.Delivered() != 1 {
		t.Fatalf("delivered counters = endpoint %d, link %d", ep.Delivered(), link.Delivered())
	}
}

// TestRemoteLinkSlowParentNoFalsePartition is the lease-vs-slow-parent
// guarantee: a parent slow by up to 2× heartbeat jitter (missing single
// heartbeats inside a live lease) degrades the link to suspect, never to
// partitioned; only lease expiry declares a partition.
func TestRemoteLinkSlowParentNoFalsePartition(t *testing.T) {
	_, _, _, link, clock, log := newLinkedPair(t, CatchUpLatest)
	if err := link.attach(); err != nil {
		t.Fatal(err)
	}
	// Four heartbeat rounds of a parent answering every other beat: each
	// failure lands well inside the 200ms lease renewed by the preceding
	// success.
	for i := 0; i < 4; i++ {
		clock.Advance(50 * time.Millisecond)
		link.InjectDrop(1)
		if err := link.attach(); err == nil {
			t.Fatal("dropped heartbeat reported success")
		}
		if got := link.State(); got != LinkSuspect {
			t.Fatalf("state after missed heartbeat = %v, want suspect", got)
		}
		clock.Advance(50 * time.Millisecond)
		if err := link.attach(); err != nil {
			t.Fatal(err)
		}
		if got := link.State(); got != LinkUp {
			t.Fatalf("state after recovered heartbeat = %v, want up", got)
		}
	}
	if link.Reattaches() != 0 {
		t.Fatalf("reattaches = %d after slow-but-alive parent, want 0", link.Reattaches())
	}
	if log.Count("C", trace.LinkDown) != 0 {
		t.Fatalf("slow parent was declared partitioned:\n%s", log.Timeline())
	}

	// Now silence the parent past the lease: partition is declared once,
	// and the next successful attach is a reattach.
	link.InjectDrop(64)
	for i := 0; i < 5; i++ {
		clock.Advance(50 * time.Millisecond)
		_ = link.attach()
	}
	if got := link.State(); got != LinkPartitioned {
		t.Fatalf("state after lease expiry = %v, want partitioned", got)
	}
	if log.Count("C", trace.LinkDown) != 1 {
		t.Fatalf("LinkDown events = %d, want 1", log.Count("C", trace.LinkDown))
	}
	link.drops.Store(0)
	if err := link.attach(); err != nil {
		t.Fatal(err)
	}
	if link.Reattaches() != 1 || link.State() != LinkReattached {
		t.Fatalf("reattach not recorded: n=%d state=%v", link.Reattaches(), link.State())
	}
}

// TestRemoteLinkExactlyOnceAcrossPartition: violations raised during a
// partition are buffered, flushed after reattach, and delivered to the
// parent exactly once even when a flush races a re-delivery.
func TestRemoteLinkExactlyOnceAcrossPartition(t *testing.T) {
	child, parent, ep, link, clock, log := newLinkedPair(t, CatchUpLatest)
	if err := link.attach(); err != nil {
		t.Fatal(err)
	}

	// Three MAPE cycles while attached: the parent's watermark follows.
	for i := 0; i < 3; i++ {
		if err := child.RunOnce(); err != nil {
			t.Fatal(err)
		}
	}
	clock.Advance(50 * time.Millisecond)
	if err := link.attach(); err != nil { // lease renewal acks cycle 3
		t.Fatal(err)
	}

	// Partition the link for longer than the lease and raise violations:
	// every one parks in the bounded buffer.
	link.InjectPartition(400 * time.Millisecond)
	v1 := Violation{From: "C", Tag: rules.TagNotEnoughTasks, CauseID: 7, When: clock.Now()}
	v2 := Violation{From: "C", Tag: rules.TagTooMuchTasks, CauseID: 9, When: clock.Now()}
	if err := link.Deliver(v1); !errors.Is(err, ErrLinkDown) {
		t.Fatalf("Deliver during partition = %v, want ErrLinkDown", err)
	}
	child.bufferViolation(v1)
	child.bufferViolation(v2)
	clock.Advance(250 * time.Millisecond)
	_ = link.attach() // lease expired inside the partition window
	if link.State() != LinkPartitioned {
		t.Fatalf("state = %v, want partitioned", link.State())
	}
	// Two more cycles run blind during the partition (flushBuffered keeps
	// the buffer while the link is down).
	for i := 0; i < 2; i++ {
		if err := child.RunOnce(); err != nil {
			t.Fatal(err)
		}
	}
	if child.BufferedViolations() != 2 {
		t.Fatalf("buffered = %d, want 2", child.BufferedViolations())
	}

	// Heal, reattach: catch-up owed under `latest` is exactly one cycle.
	clock.Advance(200 * time.Millisecond)
	if err := link.attach(); err != nil {
		t.Fatal(err)
	}
	if link.Reattaches() != 1 {
		t.Fatalf("reattaches = %d, want 1", link.Reattaches())
	}
	child.runCatchUp(context.Background())
	if got := child.CatchUpCycles(); got != 1 {
		t.Fatalf("catch-up cycles = %d, want 1 (policy latest)", got)
	}
	if log.Count("C", trace.CatchUp) != 1 {
		t.Fatalf("CatchUp events = %d, want 1:\n%s", log.Count("C", trace.CatchUp), log.Timeline())
	}
	if child.BufferedViolations() != 0 {
		t.Fatalf("buffered = %d after reattach flush, want 0", child.BufferedViolations())
	}

	// The flush delivered both causes once; a raced re-delivery of an
	// already-flushed cause is suppressed by the endpoint, not re-applied.
	if ep.Delivered() != 2 || ep.Duplicates() != 0 {
		t.Fatalf("endpoint delivered=%d dup=%d, want 2/0", ep.Delivered(), ep.Duplicates())
	}
	if err := link.Deliver(v1); err != nil {
		t.Fatal(err)
	}
	if ep.Delivered() != 2 || ep.Duplicates() != 1 {
		t.Fatalf("after duplicate: delivered=%d dup=%d, want 2/1", ep.Delivered(), ep.Duplicates())
	}
	got := 0
	for {
		ok := false
		select {
		case v := <-parent.violations:
			ok = true
			if v.CauseID != 7 && v.CauseID != 9 {
				t.Fatalf("unexpected cause %d at parent", v.CauseID)
			}
		default:
		}
		if !ok {
			break
		}
		got++
	}
	if got != 2 {
		t.Fatalf("parent received %d violations, want exactly 2", got)
	}
}

// TestRemoteLinkCatchUpPolicies: skip runs nothing, all replays every
// missed cycle up to the budget.
func TestRemoteLinkCatchUpPolicies(t *testing.T) {
	for _, tc := range []struct {
		policy CatchUpPolicy
		cycles int
		want   uint64
	}{
		{CatchUpSkip, 5, 0},
		{CatchUpAll, 5, 5},
		{CatchUpAll, catchUpBudget + 20, catchUpBudget},
	} {
		child, _, _, link, clock, _ := newLinkedPair(t, tc.policy)
		if err := link.attach(); err != nil {
			t.Fatal(err)
		}
		link.InjectPartition(400 * time.Millisecond)
		clock.Advance(250 * time.Millisecond)
		_ = link.attach()
		for i := 0; i < tc.cycles; i++ {
			if err := child.RunOnce(); err != nil {
				t.Fatal(err)
			}
		}
		clock.Advance(200 * time.Millisecond)
		if err := link.attach(); err != nil {
			t.Fatal(err)
		}
		child.runCatchUp(context.Background())
		if got := child.CatchUpCycles(); got != tc.want {
			t.Fatalf("policy %s, %d missed cycles: catch-up = %d, want %d",
				tc.policy, tc.cycles, got, tc.want)
		}
	}
}

func TestOwedCycles(t *testing.T) {
	for _, tc := range []struct {
		p          CatchUpPolicy
		seq, acked uint64
		want       int
	}{
		{CatchUpLatest, 10, 10, 0},
		{CatchUpLatest, 14, 10, 1},
		{CatchUpSkip, 14, 10, 0},
		{CatchUpAll, 14, 10, 4},
		{CatchUpAll, 0, 9, 9},                // restarted child: parent ahead
		{CatchUpAll, 1000, 0, catchUpBudget}, // budget bound
	} {
		if got := owedCycles(tc.p, tc.seq, tc.acked); got != tc.want {
			t.Fatalf("owedCycles(%s, %d, %d) = %d, want %d", tc.p, tc.seq, tc.acked, got, tc.want)
		}
	}
	if _, err := ParseCatchUpPolicy("bogus"); err == nil {
		t.Fatal("bogus policy accepted")
	}
	for s, want := range map[string]CatchUpPolicy{"": CatchUpLatest, "skip": CatchUpSkip, "latest": CatchUpLatest, "all": CatchUpAll} {
		got, err := ParseCatchUpPolicy(s)
		if err != nil || got != want {
			t.Fatalf("ParseCatchUpPolicy(%q) = %v, %v", s, got, err)
		}
	}
}

// TestRemoteTwoPhaseReattachReissue: a two-phase prepare travels the
// management link; while the link is partitioned the intent aborts on the
// usual ErrManagerDown path, and after reattach the GM re-issues it over
// the wire and the worker comes up secured by the codec shipped back in
// the prepare reply.
func TestRemoteTwoPhaseReattachReissue(t *testing.T) {
	plat := grid.NewTwoDomainGrid(0, 4)
	f, _ := skel.NewFarm(skel.FarmConfig{
		Name: "f", Env: skel.Env{TimeScale: 1000}, RM: plat.RM, InitialWorkers: 1,
	})
	fa := abc.NewFarmABC(f, nil)
	log := trace.NewLog()
	sec, _ := NewSecurityManager(SecurityConfig{
		Log: log, Policy: security.Policy{Network: plat.Network},
	})

	// Parent process: root manager + security participant behind the
	// endpoint. Child process: a sentinel manager, the link, and the GM
	// driving the farm through a RemoteParticipant.
	child, parent, ep, link, clock, _ := newLinkedPair(t, CatchUpLatest)
	_ = parent
	ep.cfg.Security = sec
	if err := link.attach(); err != nil {
		t.Fatal(err)
	}
	gm, err := NewGeneralManager("GM", nil, log, child.clock, TwoPhase)
	if err != nil {
		t.Fatal(err)
	}
	gm.SetParticipant(NewRemoteParticipant("AM_sec/remote", link))
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

	// Partition mid-protocol: the in-flight intent aborts with
	// ErrManagerDown and is recorded for re-issue.
	link.InjectPartition(400 * time.Millisecond)
	clock.Advance(250 * time.Millisecond)
	_ = link.attach() // expire the lease: link now partitioned
	if !link.Down() {
		t.Fatalf("link state = %v, want partitioned", link.State())
	}
	if _, err := fa.Execute(rules.OpAddExecutor); !errors.Is(err, abc.ErrManagerDown) {
		t.Fatalf("Execute during partition = %v, want ErrManagerDown", err)
	}
	if log.Count("GM", trace.Aborted) != 1 || gm.PendingIntents() != 1 {
		t.Fatalf("abort not recorded: aborted=%d pending=%d:\n%s",
			log.Count("GM", trace.Aborted), gm.PendingIntents(), log.Timeline())
	}
	if gm.ReissueOnce() != 0 {
		t.Fatal("re-issue ran against a partitioned participant")
	}

	// Heal and reattach: the bounded re-issue drives the full ladder over
	// the wire and commits.
	clock.Advance(200 * time.Millisecond)
	if err := link.attach(); err != nil {
		t.Fatal(err)
	}
	if gm.ReissueOnce() != 1 {
		t.Fatalf("re-issue failed:\n%s", log.Timeline())
	}
	if gm.ReissuedIntents() != 1 || gm.PendingIntents() != 0 {
		t.Fatalf("reissued=%d pending=%d", gm.ReissuedIntents(), gm.PendingIntents())
	}
	secure := 0
	for _, w := range fa.Workers() {
		if w.Secure {
			secure++
		}
	}
	if secure < 1 {
		t.Fatalf("no secure worker after remote two-phase re-issue:\n%s", log.Timeline())
	}
	if log.Count("GM", trace.Reissued) != 1 {
		t.Fatalf("Reissued events = %d, want 1", log.Count("GM", trace.Reissued))
	}
}

// linkFlapStress drives a child manager and its link loop under repeated
// injected drops and partitions, then heals and asserts convergence: link
// up, buffer drained, every buffered violation delivered exactly once.
// Run with -race it doubles as the link-flap race test.
func linkFlapStress(t *testing.T, mkTransport func(t *testing.T, ep *ParentEndpoint) MgmtTransport) {
	log := trace.NewLog()
	clock := simclock.NewReal()
	mk := func(name string) *Manager {
		m, err := New(Config{
			Name: name, Clock: clock, Period: 2 * time.Millisecond,
			Controller: &stub{}, Log: log,
		})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	parent := mk("P")
	child := mk("C")
	ep, err := NewParentEndpoint(ParentEndpointConfig{
		Parent: parent, Lease: 40 * time.Millisecond, Clock: clock, Log: log,
	})
	if err != nil {
		t.Fatal(err)
	}
	link, err := NewRemoteLink(RemoteLinkConfig{
		Child: child, Transport: mkTransport(t, ep),
		Heartbeat: 5 * time.Millisecond, Lease: 40 * time.Millisecond,
		Clock: clock, Log: log, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); _ = child.Run(ctx) }()
	go func() { defer wg.Done(); _ = link.Run(ctx) }()

	// Drain the parent's violation queue, counting per cause.
	causes := map[uint64]int{}
	var causesMu sync.Mutex
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case v := <-parent.violations:
				causesMu.Lock()
				causes[v.CauseID]++
				causesMu.Unlock()
			case <-ctx.Done():
				return
			}
		}
	}()

	// Flap the link while violations stream: drops, partitions, and raises
	// interleave from separate goroutines.
	const raises = 50
	for i := 1; i <= raises; i++ {
		switch i % 10 {
		case 3:
			link.InjectDrop(2)
		case 7:
			link.InjectPartition(25 * time.Millisecond)
		}
		v := Violation{From: "C", Tag: rules.TagNotEnoughTasks, CauseID: uint64(i), When: clock.Now()}
		if link.Deliver(v) != nil {
			child.bufferViolation(v)
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Heal and wait for convergence.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if link.State() == LinkUp && child.BufferedViolations() == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no convergence: state=%v buffered=%d", link.State(), child.BufferedViolations())
		}
		time.Sleep(5 * time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // let the drain goroutine catch up
	cancel()
	wg.Wait()

	causesMu.Lock()
	defer causesMu.Unlock()
	for c, n := range causes {
		if n != 1 {
			t.Fatalf("cause %d delivered %d times, want exactly once", c, n)
		}
	}
	if len(causes) == 0 || ep.Delivered() == 0 {
		t.Fatal("nothing crossed the link during the stress")
	}
	if link.Reattaches() == 0 {
		t.Fatal("stress never partitioned the link")
	}
}

func TestRemoteLinkFlapStressInProcess(t *testing.T) {
	linkFlapStress(t, func(t *testing.T, ep *ParentEndpoint) MgmtTransport {
		return func(req []byte) ([]byte, error) { return ep.Handle(req), nil }
	})
}

func TestRemoteLinkFlapStressWire(t *testing.T) {
	linkFlapStress(t, func(t *testing.T, ep *ParentEndpoint) MgmtTransport {
		psk := []byte("0123456789abcdef0123456789abcdef")
		srv, err := wire.NewServer(wire.ServerConfig{
			PSK:   psk,
			Hello: wire.Hello{Name: "parent", Domain: "local", Cores: 1, Speed: 1},
			Mgmt:  func(req []byte) []byte { return ep.Handle(req) },
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := srv.Listen("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = srv.Close() })
		fac, err := wire.NewFactory(psk, time.Second)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(fac.CloseControls)
		addr := srv.Addr()
		return func(req []byte) ([]byte, error) { return fac.Mgmt(addr, req) }
	})
}

// TestRemoteFullParentQueueParksViolations is the remote face of the
// full-queue refusal: the endpoint answers Busy without counting the
// report or recording its cause, the link stays up, and the parked
// reports cross at the child's next flush — handled == Delivered() ==
// UniqueCauses(), nothing lost and nothing taken for a duplicate.
func TestRemoteFullParentQueueParksViolations(t *testing.T) {
	child, parent, ep, link, _, _ := newLinkedPair(t, CatchUpLatest)
	handled := 0
	parent.cfg.Policy.OnChildViolation = func(*Manager, Violation) { handled++ }
	if err := link.attach(); err != nil {
		t.Fatal(err)
	}

	raiseDistinct(child, overQueue)
	queued := uint64(cap(parent.violations))
	if ep.Delivered() != queued || ep.UniqueCauses() != queued {
		t.Fatalf("before drain: delivered=%d unique=%d, want %d (the queue size)",
			ep.Delivered(), ep.UniqueCauses(), queued)
	}
	if got := uint64(child.BufferedViolations()); got != overQueue-queued {
		t.Fatalf("parked %d violations, want %d", got, overQueue-queued)
	}
	if st := link.State(); st != LinkUp {
		t.Fatalf("link state under a full queue = %v, want up", st)
	}

	for _, m := range []*Manager{parent, child, parent} {
		if err := m.RunOnce(); err != nil {
			t.Fatal(err)
		}
	}
	if uint64(handled) != ep.Delivered() || ep.Delivered() != ep.UniqueCauses() || handled != overQueue {
		t.Fatalf("handled=%d delivered=%d unique=%d, want all %d",
			handled, ep.Delivered(), ep.UniqueCauses(), overQueue)
	}
	if ep.Duplicates() != 0 || child.BufferedViolations() != 0 || child.ViolationDrops() != 0 {
		t.Fatalf("dup=%d buffered=%d dropped=%d, want 0/0/0",
			ep.Duplicates(), child.BufferedViolations(), child.ViolationDrops())
	}
	if st := link.State(); st != LinkUp {
		t.Fatalf("link state after drain = %v, want up", st)
	}
}
