package core

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/component"
	"repro/internal/contract"
	"repro/internal/grid"
	"repro/internal/manager"
	"repro/internal/runtime/leaktest"
	"repro/internal/simclock"
	"repro/internal/skel"
	"repro/internal/trace"
)

func fastEnv(scale float64) skel.Env {
	return skel.Env{Clock: simclock.NewReal(), TimeScale: scale}
}

func TestParseExpr(t *testing.T) {
	cases := map[string]string{
		"seq":                       "seq",
		"farm(seq)":                 "farm(seq)",
		"pipe(seq, farm(seq), seq)": "pipe(seq,farm(seq),seq)",
		"pipeline(seq,seq)":         "pipe(seq,seq)",
		"farm( pipe( seq , seq ) )": "farm(pipe(seq,seq))",
		"FARM(SEQ)":                 "farm(seq)",
		"pipe(pipe(seq,seq),seq)":   "pipe(pipe(seq,seq),seq)",
		"sequential":                "seq",
	}
	for src, want := range cases {
		spec, err := ParseExpr(src)
		if err != nil {
			t.Fatalf("ParseExpr(%q): %v", src, err)
		}
		if spec.String() != want {
			t.Fatalf("ParseExpr(%q) = %s, want %s", src, spec, want)
		}
	}
}

func TestParseExprErrors(t *testing.T) {
	for _, src := range []string{
		"", "blob", "farm", "farm(", "farm()", "farm(seq", "pipe()",
		"pipe(seq,)", "seq extra", "farm(seq))",
	} {
		if _, err := ParseExpr(src); err == nil {
			t.Errorf("ParseExpr(%q) accepted", src)
		}
	}
}

func TestMustParseExprPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustParseExpr("nope")
}

func TestSpecNormalize(t *testing.T) {
	spec := MustParseExpr("pipe(pipe(seq,farm(seq)),pipe(seq))").Normalize()
	if spec.String() != "pipe(seq,farm(seq),seq)" {
		t.Fatalf("normalized = %s", spec)
	}
	if spec.Stages() != 3 {
		t.Fatalf("Stages = %d", spec.Stages())
	}
	one := MustParseExpr("pipe(seq)").Normalize()
	if one.Kind != SeqPattern {
		t.Fatalf("single-stage pipe = %s", one)
	}
}

func TestPatternKindString(t *testing.T) {
	if SeqPattern.String() != "seq" || FarmPattern.String() != "farm" || PipePattern.String() != "pipe" {
		t.Fatal("pattern names wrong")
	}
}

// TestFarmAppReachesContract is the FIG3 shape in miniature: a task farm
// with a single AM and a minimum-throughput contract; the manager must add
// workers until the measured throughput crosses the contract.
func TestFarmAppReachesContract(t *testing.T) {
	defer leaktest.Check(t)()
	env := fastEnv(400)
	app, err := NewFarmApp(FarmAppConfig{
		Name:           "fig3mini",
		Env:            env,
		Platform:       grid.NewSMP(10),
		Tasks:          120,
		TaskWork:       5 * time.Second,         // one worker: 0.2/s
		SourceInterval: 1200 * time.Millisecond, // 0.83/s offered
		InitialWorkers: 1,
		Contract:       contract.MinThroughput(0.6), // needs >= 3 workers
		Limits:         manager.FarmLimits{MaxWorkers: 8},
		Period:         2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := app.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 120 {
		t.Fatalf("completed %d/120", res.Completed)
	}
	if res.Log.Count("AM_F", trace.AddWorker) == 0 {
		t.Fatalf("no addWorker events:\n%s", res.Log.Timeline())
	}
	if res.Throughput.Max() < 0.6 {
		t.Fatalf("throughput never reached the contract: max %.3f", res.Throughput.Max())
	}
	if res.Workers.Max() < 3 {
		t.Fatalf("parallelism degree never grew: max %.0f", res.Workers.Max())
	}
	// The staircase must be monotone while ramping: the manager should not
	// remove workers in a pure lower-bound contract run.
	if res.Log.Count("AM_F", trace.RemWorker) != 0 {
		t.Fatalf("unexpected remWorker:\n%s", res.Log.Timeline())
	}
}

// fig4Stages is the Fig. 4 body behind the producer: farm(filter) then
// the consumer.
func fig4Stages() []StageSpec {
	return []StageSpec{
		{Name: "filter", Kind: StageFarm, Work: 14 * time.Second, Workers: 3,
			Limits: manager.FarmLimits{MaxWorkers: 9}},
		{Name: "consumer", Kind: StageSeq, Work: 200 * time.Millisecond},
	}
}

// TestPipelineAppFig4Shape is the FIG4 narrative in miniature: the
// hierarchy must produce notEnough -> raiseViol -> incRate, then addWorker,
// and endStream at the end, with the throughput entering the contract
// stripe. AM_A's reactions come from the pipe rule file.
func TestPipelineAppFig4Shape(t *testing.T) {
	env := fastEnv(400)
	app, err := NewStreamApp(StreamAppConfig{
		Name:           "fig4mini",
		Env:            env,
		Platform:       grid.NewSMP(12),
		Tasks:          100,
		SourceInterval: 5 * time.Second, // 0.2/s: below the 0.3 bound
		Stages:         fig4Stages(),
		Contract:       contract.ThroughputRange{Lo: 0.3, Hi: 0.7},
		Period:         5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if app.RootManager.Engine() == nil {
		t.Fatal("AM_A has no rule engine")
	}
	res, err := app.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 100 {
		t.Fatalf("completed %d/100", res.Completed)
	}
	log := res.Log
	// Phase 1: the farm reports it is starving, the application manager
	// raises the producer rate.
	if log.Count("AM_F", trace.NotEnough) == 0 {
		t.Fatalf("no notEnough events:\n%s", log.Timeline())
	}
	if log.Count("AM_F", trace.RaiseViol) == 0 {
		t.Fatalf("no raiseViol events:\n%s", log.Timeline())
	}
	if log.Count("AM_A", trace.IncRate) == 0 {
		t.Fatalf("no incRate events:\n%s", log.Timeline())
	}
	// Phase 2: with enough input pressure the farm grows.
	if log.Count("AM_F", trace.AddWorker) == 0 {
		t.Fatalf("no addWorker events:\n%s", log.Timeline())
	}
	// Phase 3: stream end is detected exactly once by AM_A.
	if got := log.Count("AM_A", trace.EndStream); got != 1 {
		t.Fatalf("endStream events = %d, want 1:\n%s", got, log.Timeline())
	}
	// The throughput must have entered the contract stripe.
	if res.Throughput.Max() < 0.3 {
		t.Fatalf("throughput never entered the stripe: max %.3f", res.Throughput.Max())
	}
	// Ordering: first notEnough precedes first addWorker (the paper's
	// phase structure).
	ne, _ := log.FirstOf("AM_F", trace.NotEnough)
	aw, ok := log.FirstOf("AM_F", trace.AddWorker)
	if !ok || aw.T.Before(ne.T) {
		t.Fatalf("addWorker before notEnough:\n%s", log.Timeline())
	}
	// The incRate reaction must precede the first addWorker too.
	ir, _ := log.FirstOf("AM_A", trace.IncRate)
	if aw.T.Before(ir.T) {
		t.Fatalf("addWorker before incRate:\n%s", log.Timeline())
	}
	// Resource accounting: producer + consumer + initial workers = 5
	// (the first sample may land just after the first addWorker).
	if first := res.Cores.Points()[0]; first.V < 5 || first.V > 6 {
		t.Fatalf("initial cores = %v, want ~5", first.V)
	}
	if res.Cores.Max() <= 5 {
		t.Fatalf("resources never grew: max %v", res.Cores.Max())
	}
}

func TestPipelineAppComponentTree(t *testing.T) {
	env := fastEnv(1000)
	app, err := NewStreamApp(StreamAppConfig{
		Name: "tree", Env: env, Platform: grid.NewSMP(8), Tasks: 1,
		SourceInterval: time.Second, Stages: fig4Stages(),
	})
	if err != nil {
		t.Fatal(err)
	}
	root := app.ComponentTree()
	if root == nil {
		t.Fatal("no component tree")
	}
	var names []string
	component.Visit(root, func(c component.Component) { names = append(names, c.Name()) })
	if len(names) != 4 {
		t.Fatalf("component tree = %v, want pipe + 3 stages", names)
	}
	if _, ok := root.Membrane().NF("manager"); !ok {
		t.Fatal("membrane has no manager NF interface")
	}
	if _, ok := root.Membrane().NF("abc"); !ok {
		t.Fatal("membrane has no abc NF interface")
	}
	if len(app.Root.Children) != 3 {
		t.Fatalf("BS children = %d", len(app.Root.Children))
	}
	// Manager hierarchy mirrors the BS tree.
	if len(app.RootManager.Children()) != 3 {
		t.Fatalf("manager children = %d", len(app.RootManager.Children()))
	}
	// Consume the stream so goroutines do not leak.
	if _, err := app.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestFarmAppValidation(t *testing.T) {
	if _, err := NewFarmApp(FarmAppConfig{}); err == nil {
		t.Fatal("farm app without clock accepted")
	}
	if _, err := NewStreamApp(StreamAppConfig{
		Env:      fastEnv(100),
		Platform: &grid.Platform{RM: grid.NewResourceManager(), Network: grid.NewNetwork()},
		Stages:   fig4Stages(),
	}); err == nil {
		t.Fatal("pipeline app on empty platform accepted")
	}
}

func TestAppContractWithoutManager(t *testing.T) {
	a := &App{}
	if err := a.Contract(contract.BestEffort{}); err == nil {
		t.Fatal("contract on unmanaged app accepted")
	}
	if _, err := a.Run(); err == nil {
		t.Fatal("running an unassembled app accepted")
	}
	if a.ComponentTree() != nil {
		t.Fatal("unassembled app has a component tree")
	}
}

func TestBuildFromExpr(t *testing.T) {
	env := fastEnv(1000)
	fcfg := FarmAppConfig{Env: env, Platform: grid.NewSMP(8), Tasks: 1, TaskWork: time.Millisecond}
	scfg := func() StreamAppConfig {
		return StreamAppConfig{Env: env, Platform: grid.NewSMP(8), Tasks: 1,
			SourceInterval: time.Millisecond,
			Stages: []StageSpec{
				{Kind: StageFarm, Work: time.Millisecond, Workers: 2},
				{Kind: StageSeq, Work: time.Millisecond},
			}}
	}

	app, err := BuildFromExpr("farm(seq)", fcfg, scfg())
	if err != nil {
		t.Fatal(err)
	}
	if app.RootManager.Name() != "AM_F" {
		t.Fatalf("farm app root manager = %s", app.RootManager.Name())
	}
	if _, err := app.Run(); err != nil {
		t.Fatal(err)
	}

	// Every pipe stage after the source gets its own manager; a second
	// farm stage runs under AM_F1.
	for expr, want := range map[string][]string{
		"pipe(seq, farm(seq), seq)":       {"AM_P", "AM_F", "AM_S1"},
		"pipe(seq, farm(seq), farm(seq))": {"AM_P", "AM_F", "AM_F1"},
		"pipe(seq, seq)":                  {"AM_P", "AM_S0"},
	} {
		app, err := BuildFromExpr(expr, fcfg, scfg())
		if err != nil {
			t.Fatalf("BuildFromExpr(%q): %v", expr, err)
		}
		if app.RootManager.Name() != "AM_A" {
			t.Fatalf("%s: root manager = %s", expr, app.RootManager.Name())
		}
		var got []string
		for _, c := range app.RootManager.Children() {
			got = append(got, c.Name())
		}
		if strings.Join(got, ",") != strings.Join(want, ",") {
			t.Fatalf("%s: managers = %v, want %v", expr, got, want)
		}
		res, err := app.Run()
		if err != nil {
			t.Fatalf("%s: %v", expr, err)
		}
		if res.Completed != 1 {
			t.Fatalf("%s: completed %d/1", expr, res.Completed)
		}
		for _, m := range want {
			if res.Log.Count(m, trace.NewContr) == 0 {
				t.Fatalf("%s: %s never received a contract:\n%s", expr, m, res.Log.Timeline())
			}
		}
	}

	for _, expr := range []string{
		"seq",                           // nothing to manage
		"farm(pipe(seq,seq))",           // farm over pipeline unsupported
		"pipe(farm(seq),seq)",           // the source must be seq
		"pipe(seq,farm(pipe(seq,seq)))", // farm over a pipeline stage
		"pipe(farm(farm(seq)))",         // nested farm
		"garbage(",
	} {
		if _, err := BuildFromExpr(expr, fcfg, scfg()); err == nil {
			t.Errorf("BuildFromExpr(%q) accepted", expr)
		}
	}
}

// TestMultiConcernTwoPhaseNoLeaks checks the §3.2 invariant: with the
// two-phase protocol, workers recruited in untrusted_ip_domain_A never
// receive a plaintext message.
func TestMultiConcernTwoPhaseNoLeaks(t *testing.T) {
	env := fastEnv(400)
	app, err := NewFarmApp(FarmAppConfig{
		Name:           "sec2pc",
		Env:            env,
		Platform:       grid.NewTwoDomainGrid(2, 6),
		Tasks:          150,
		TaskWork:       4 * time.Second,
		SourceInterval: 800 * time.Millisecond,
		InitialWorkers: 2,
		Contract: contract.Conjunction{
			contract.SecureComms{},
			contract.MinThroughput(0.9),
		},
		Limits:       manager.FarmLimits{MaxWorkers: 8},
		Period:       2 * time.Second,
		WithSecurity: true,
		Coordination: manager.TwoPhase,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := app.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 150 {
		t.Fatalf("completed %d/150", res.Completed)
	}
	if app.Auditor.Leaks() != 0 {
		t.Fatalf("two-phase protocol leaked %d plaintext messages", app.Auditor.Leaks())
	}
	// The farm must have grown into the untrusted domain (otherwise the
	// scenario is vacuous) and those bindings must be secured.
	untrusted := 0
	for _, w := range app.FarmABC.Workers() {
		if !w.Node.Domain.Trusted {
			untrusted++
			if !w.Secure {
				t.Fatalf("untrusted worker %s not secured", w.ID)
			}
		}
	}
	if untrusted == 0 {
		t.Fatalf("farm never grew into the untrusted domain:\n%s", res.Log.Timeline())
	}
	if res.Log.Count("GM", trace.Intent) == 0 || res.Log.Count("GM", trace.Committed) == 0 {
		t.Fatalf("two-phase events missing:\n%s", res.Log.Timeline())
	}
	if app.Auditor.Secured() == 0 {
		t.Fatal("no secured messages recorded")
	}
}

// TestMultiConcernReactiveLeaks checks the converse: the naive scheme
// exposes at least one plaintext message before the security manager
// reacts.
func TestMultiConcernReactiveLeaks(t *testing.T) {
	env := fastEnv(400)
	app, err := NewFarmApp(FarmAppConfig{
		Name:           "secnaive",
		Env:            env,
		Platform:       grid.NewTwoDomainGrid(0, 8), // all workers untrusted
		Tasks:          150,
		TaskWork:       4 * time.Second,
		SourceInterval: 800 * time.Millisecond,
		InitialWorkers: 2,
		Contract:       contract.MinThroughput(0.9),
		Limits:         manager.FarmLimits{MaxWorkers: 8},
		Period:         2 * time.Second,
		WithSecurity:   true,
		Coordination:   manager.Reactive,
		SecurityPeriod: 10 * time.Second, // wide hazard window: leaks guaranteed
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := app.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 150 {
		t.Fatalf("completed %d/150", res.Completed)
	}
	if app.Auditor.Leaks() == 0 {
		t.Fatalf("reactive scheme leaked nothing — the §3.2 hazard did not reproduce:\n%s",
			res.Log.Timeline())
	}
	// Eventually the security manager secures everything.
	if app.Security.Secured() == 0 {
		t.Fatal("security manager never acted")
	}
}

// TestRunContextCancelDrains exercises the graceful-shutdown path: midway
// through the stream the run context is canceled; the source must stop
// emitting, the stages must drain every accepted task (no loss, no hang),
// the managers must tear down, and the partial result must be returned.
func TestRunContextCancelDrains(t *testing.T) {
	defer leaktest.Check(t)()
	env := fastEnv(400)
	app, err := NewFarmApp(FarmAppConfig{
		Name:           "cancel",
		Env:            env,
		Platform:       grid.NewSMP(8),
		Tasks:          100000, // far more than can complete before cancel
		TaskWork:       time.Second,
		SourceInterval: 100 * time.Millisecond,
		InitialWorkers: 2,
		Contract:       contract.MinThroughput(0.1),
		Limits:         manager.FarmLimits{MaxWorkers: 4},
		Period:         time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		deadline := time.Now().Add(10 * time.Second)
		for app.Sink.Consumed() < 10 {
			if time.Now().After(deadline) {
				break
			}
			time.Sleep(time.Millisecond)
		}
		cancel()
	}()
	res, err := app.RunContext(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed == 0 {
		t.Fatal("canceled run completed nothing")
	}
	if res.Completed >= 100000 {
		t.Fatal("cancel did not stop the intake")
	}
	// Drain-on-cancel: everything emitted was consumed, nothing dropped.
	if got, want := res.Completed, app.Source.Emitted(); got != want {
		t.Fatalf("completed %d of %d emitted: accepted tasks were dropped", got, want)
	}
}

// TestRunContextPreCanceled checks that an already-canceled context still
// yields a well-formed (empty) result rather than a hang or a nil deref.
func TestRunContextPreCanceled(t *testing.T) {
	defer leaktest.Check(t)()
	env := fastEnv(400)
	app, err := NewFarmApp(FarmAppConfig{
		Name: "precancel", Env: env, Platform: grid.NewSMP(4), Tasks: 50,
		TaskWork: time.Second, SourceInterval: 100 * time.Millisecond,
		InitialWorkers: 1, Contract: contract.MinThroughput(0.1),
		Period: time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := app.RunContext(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 0 {
		t.Fatalf("pre-canceled run completed %d tasks", res.Completed)
	}
}

// TestPipeExprFinalThroughput: a pipe application's final snapshot is
// taken when the sink finishes, not after the grace window. The pipe's
// grace (3 × a 5 s period) outlasts the 10 s rate window, so a snapshot
// taken after it read a throughput of 0 for every pipe expression.
func TestPipeExprFinalThroughput(t *testing.T) {
	env := fastEnv(1000)
	app, err := BuildFromExpr("pipe(seq, farm(seq), seq)",
		FarmAppConfig{Env: env, Platform: grid.NewSMP(8), Tasks: 1, TaskWork: time.Millisecond},
		StreamAppConfig{Env: env, Platform: grid.NewSMP(8), Tasks: 12,
			SourceInterval: 500 * time.Millisecond, Period: 5 * time.Second,
			Stages: []StageSpec{
				{Kind: StageFarm, Work: time.Second, Workers: 2},
				{Kind: StageSeq, Work: time.Millisecond},
			}})
	if err != nil {
		t.Fatal(err)
	}
	res, err := app.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 12 {
		t.Fatalf("completed %d/12", res.Completed)
	}
	if res.Final.Throughput <= 0 {
		t.Fatalf("final throughput %.3f tasks/s, want > 0", res.Final.Throughput)
	}
}

// TestMigrationSecuresUntrustedDestination checks the §3.2 invariant on the
// MIGRATE actuator: a worker moved off an overloaded trusted node onto an
// untrusted one goes through the two-phase prepare like any new worker, so
// its binding is secured before its first task and nothing leaks.
func TestMigrationSecuresUntrustedDestination(t *testing.T) {
	platform := grid.NewTwoDomainGrid(1, 4)
	for _, n := range platform.RM.Nodes() {
		if n.Domain.Trusted {
			n.SetExternalLoad(0.9) // the initial worker's node: migrate off it
		}
	}
	app, err := NewFarmApp(FarmAppConfig{
		Name:           "migsec",
		Env:            fastEnv(400),
		Platform:       platform,
		Tasks:          80,
		TaskWork:       time.Second,
		SourceInterval: 200 * time.Millisecond,
		InitialWorkers: 1,
		Limits:         manager.FarmLimits{MaxWorkers: 1},
		WithSecurity:   true,
		Coordination:   manager.TwoPhase,
		WithMigration:  true,
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := app.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 80 {
		t.Fatalf("completed %d/80", res.Completed)
	}
	if app.Migration.Migrated() == 0 {
		t.Fatalf("no worker migrated:\n%s", res.Log.Timeline())
	}
	if n := app.Auditor.Leaks(); n != 0 {
		t.Fatalf("migration onto an untrusted node leaked %d of %d sends:\n%s",
			n, app.Auditor.Total(), res.Log.Timeline())
	}
	if app.Auditor.Secured() == 0 {
		t.Fatal("no secured send recorded after the migration")
	}
}
