package core

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/contract"
	"repro/internal/grid"
	"repro/internal/manager"
	"repro/internal/runtime/leaktest"
	"repro/internal/trace"
)

// newConcernApp builds a farm app carrying every concern manager: the GM,
// AM_sec, AM_ft and AM_mig.
func newConcernApp(t *testing.T, mode manager.CoordinationMode) *App {
	t.Helper()
	app, err := NewFarmApp(FarmAppConfig{
		Name:               "concerns",
		Env:                fastEnv(400),
		Platform:           grid.NewTwoDomainGrid(4, 4),
		Tasks:              100000, // far more than complete before cancel
		TaskWork:           time.Second,
		SourceInterval:     100 * time.Millisecond,
		InitialWorkers:     2,
		Contract:           contract.MinThroughput(0.1),
		Limits:             manager.FarmLimits{MaxWorkers: 4},
		Period:             time.Second,
		WithSecurity:       true,
		Coordination:       mode,
		WithFaultTolerance: true,
		WithMigration:      true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return app
}

// TestConcernLoopsRestartUnderSupervision crashes every concern loop once
// during RunContext and checks that each one, AM_sec's reactive scan
// included, is restarted exactly once by its own supervisor.
func TestConcernLoopsRestartUnderSupervision(t *testing.T) {
	for _, mode := range []manager.CoordinationMode{manager.TwoPhase, manager.Reactive} {
		mode := mode
		t.Run(mode.String(), func(t *testing.T) {
			defer leaktest.Check(t)()
			app := newConcernApp(t, mode)
			names := []string{app.GM.Name(), app.Security.Name(), app.Fault.Name(), app.Migration.Name()}
			// The flags hold until each loop's first wake.
			app.GM.InjectCrash()
			app.Security.InjectCrash()
			app.Fault.InjectCrash()
			app.Migration.InjectCrash()

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			restarted := make(chan error, 1)
			go func() {
				defer cancel()
				deadline := time.Now().Add(10 * time.Second)
				for _, name := range names {
					for app.Supervisors[name].Restarts() == 0 {
						if time.Now().After(deadline) {
							restarted <- fmt.Errorf("%s never restarted", name)
							return
						}
						time.Sleep(time.Millisecond)
					}
				}
				restarted <- nil
			}()
			if _, err := app.RunContext(ctx); err != nil {
				t.Fatal(err)
			}
			if err := <-restarted; err != nil {
				t.Fatalf("%v:\n%s", err, app.Log.Timeline())
			}
			for _, name := range names {
				if n := app.Supervisors[name].Restarts(); n != 1 {
					t.Errorf("%s restarted %d times, want 1", name, n)
				}
				if n := app.Log.Count(name, trace.Restarted); n != 1 {
					t.Errorf("%s logged %d restarts, want 1", name, n)
				}
			}
		})
	}
}

// TestManagersViewConcerns pins the /managers concern rows, in order, for
// every coordination mode.
func TestManagersViewConcerns(t *testing.T) {
	for mode, want := range map[manager.CoordinationMode][]string{
		manager.TwoPhase: {"GM coordination two-phase", "AM_sec security active",
			"AM_ft faultTolerance active", "AM_mig migration active"},
		manager.Reactive: {"GM coordination reactive", "AM_sec security active",
			"AM_ft faultTolerance active", "AM_mig migration active"},
		manager.Unmanaged: {"GM coordination unmanaged", "AM_sec security active",
			"AM_ft faultTolerance active", "AM_mig migration active"},
	} {
		var got []string
		for _, n := range newConcernApp(t, mode).managersView().Concerns {
			got = append(got, n.Name+" "+n.Concern+" "+n.State)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Errorf("%s: concerns = %q, want %q", mode, got, want)
		}
	}
}
