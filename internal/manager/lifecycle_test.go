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
	"repro/internal/runtime/leaktest"
	"repro/internal/skel"
	"repro/internal/trace"
)

// lifecycler is the Start/Stop/Run surface shared by every manager kind.
type lifecycler interface {
	Start()
	Stop()
	Run(ctx context.Context) error
}

// lifecycleCase is one manager under test: its lifecycle surface and the
// flag its loop holds while running.
type lifecycleCase struct {
	m       lifecycler
	running *atomic.Bool
}

func newLifecycleManagers(t *testing.T) map[string]lifecycleCase {
	t.Helper()
	log := trace.NewLog()
	farm, err := skel.NewFarm(skel.FarmConfig{
		Name: "lc", Env: skel.Env{TimeScale: 200}, RM: grid.NewSMP(4).RM, InitialWorkers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	fa := abc.NewFarmABC(farm, nil)
	am, err := New(Config{Name: "AM_lc", Controller: fa, Log: log, Period: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]lifecycleCase{"manager": {am, &am.running}}
	for name, c := range newConcernLoops(t, log) {
		cases[name] = lifecycleCase{c.m, &c.loop.running}
	}
	return cases
}

// concernCase is one concern manager under test: its lifecycle surface,
// the loop it embeds, and a piece of the concern's own state that an
// injected crash must not wipe (set plants it, check verifies it).
type concernCase struct {
	m     lifecycler
	loop  *loop
	set   func()
	check func() error
}

// newConcernLoops builds the four concern managers on a 1ms period.
func newConcernLoops(t *testing.T, log *trace.Log) map[string]concernCase {
	t.Helper()
	ft, err := NewFaultManager(FaultConfig{Log: log, Period: time.Millisecond, RM: grid.NewSMP(4).RM})
	if err != nil {
		t.Fatal(err)
	}
	mig, err := NewMigrationManager(MigrationConfig{Log: log, Period: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	sec, err := NewSecurityManager(SecurityConfig{Log: log, Period: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	gm, err := NewGeneralManager("GM_lc", sec, log, nil, Reactive)
	if err != nil {
		t.Fatal(err)
	}
	gm.SetPeriod(time.Millisecond)
	want := func(what string, got, want int) error {
		if got != want {
			return fmt.Errorf("%s = %d after restart, want %d", what, got, want)
		}
		return nil
	}
	return map[string]concernCase{
		"fault": {ft, &ft.loop,
			func() { ft.chargeCrash("w0", "n0") },
			func() error {
				ft.mu.Lock()
				defer ft.mu.Unlock()
				return want("crash charges of n0", ft.nodeCrashes["n0"], 1)
			}},
		"migration": {mig, &mig.loop,
			func() { mig.mu.Lock(); mig.migrated = 3; mig.mu.Unlock() },
			func() error { return want("migrations", mig.Migrated(), 3) }},
		"security": {sec, &sec.loop,
			func() { sec.mu.Lock(); sec.secured = 2; sec.mu.Unlock() },
			func() error { return want("secured bindings", sec.Secured(), 2) }},
		// Reactive mode: the GM never re-issues, so the pending intent stays.
		"general": {gm, &gm.loop,
			func() { gm.recordAbort(&abc.FarmABC{}) },
			func() error { return want("pending intents", gm.PendingIntents(), 1) }},
	}
}

func waitRunning(t *testing.T, running *atomic.Bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !running.Load() {
		if time.Now().After(deadline) {
			t.Fatal("loop never came up")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestManagerLifecycleIdempotence drives every manager kind through
// double-Start, double-Stop and restart, checking that the lifecycle is
// idempotent, that a second concurrent Run is refused, and that no
// goroutine outlives Stop.
func TestManagerLifecycleIdempotence(t *testing.T) {
	for name, c := range newLifecycleManagers(t) {
		m := c.m
		running := c.running
		t.Run(name, func(t *testing.T) {
			defer leaktest.Check(t)()
			m.Start()
			m.Start() // second Start: no-op, no second loop
			waitRunning(t, running)
			if err := m.Run(context.Background()); err == nil {
				t.Fatal("concurrent Run while started: want error, got nil")
			}
			m.Stop()
			m.Stop() // second Stop: no-op
			if running.Load() {
				t.Fatal("loop still running after Stop")
			}
			// Restart after Stop must work.
			m.Start()
			m.Stop()
		})
	}
}

// TestManagerLifecycleStartStopCycles hammers Start/Stop to catch leaked
// loop goroutines or lost wake subscriptions across restarts.
func TestManagerLifecycleStartStopCycles(t *testing.T) {
	for name, c := range newLifecycleManagers(t) {
		m := c.m
		t.Run(name, func(t *testing.T) {
			defer leaktest.Check(t)()
			for i := 0; i < 10; i++ {
				m.Start()
				m.Stop()
			}
		})
	}
}

// TestConcernLoopCrashKeepsState checks the injected-crash path every
// concern loop shares: after InjectCrash the next wake ends Run with
// ErrInjectedCrash (logged once as a crash), and the restarted loop runs
// on with the concern's state intact.
func TestConcernLoopCrashKeepsState(t *testing.T) {
	log := trace.NewLog()
	for name, c := range newConcernLoops(t, log) {
		c := c
		t.Run(name, func(t *testing.T) {
			defer leaktest.Check(t)()
			c.set()
			if !c.loop.InjectCrash() {
				t.Fatal("InjectCrash refused")
			}
			done := make(chan error, 1)
			go func() { done <- c.m.Run(context.Background()) }()
			select {
			case err := <-done:
				if !errors.Is(err, ErrInjectedCrash) {
					t.Fatalf("Run after InjectCrash = %v, want ErrInjectedCrash", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("injected crash never ended Run")
			}
			if n := log.Count(c.loop.Name(), trace.Crashed); n != 1 {
				t.Fatalf("%d crash records, want 1", n)
			}

			// The restart: the flag was consumed, so the loop keeps cycling
			// until it is canceled.
			ctx, cancel := context.WithCancel(context.Background())
			go func() { done <- c.m.Run(ctx) }()
			waitRunning(t, &c.loop.running)
			time.Sleep(10 * time.Millisecond) // several 1ms cycles
			cancel()
			if err := <-done; err != nil {
				t.Fatalf("restarted Run = %v, want nil", err)
			}
			if err := c.check(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestManagerRunTreeSupervises checks RunTree: all loops in the hierarchy
// run under one group and cancelation tears the whole tree down.
func TestManagerRunTreeSupervises(t *testing.T) {
	defer leaktest.Check(t)()
	log := trace.NewLog()
	newAM := func(name string) *Manager {
		farm, err := skel.NewFarm(skel.FarmConfig{
			Name: name, Env: skel.Env{TimeScale: 200}, RM: grid.NewSMP(4).RM, InitialWorkers: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		m, err := New(Config{Name: name, Controller: abc.NewFarmABC(farm, nil), Log: log, Period: time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	root := newAM("AM_root")
	child := newAM("AM_child")
	root.AttachChild(child)

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- root.RunTree(ctx) }()

	// Both loops must come up under the one group.
	deadline := time.Now().Add(5 * time.Second)
	for !root.running.Load() || !child.running.Load() {
		if time.Now().After(deadline) {
			t.Fatal("tree loops never came up")
		}
		time.Sleep(time.Millisecond)
	}
	// A second direct Run on a supervised loop is refused.
	if err := root.Run(context.Background()); err == nil {
		t.Fatal("concurrent Run on supervised manager: want error, got nil")
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("RunTree = %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("RunTree did not return after cancel")
	}

	// Contract checks still work after shutdown (nothing torn down that
	// shouldn't be).
	if err := root.AssignContract(contract.MinThroughput(0.1)); err != nil {
		t.Fatal(err)
	}
}
