package manager

import (
	"context"
	"testing"
	"time"

	"repro/internal/abc"
	"repro/internal/contract"
	"repro/internal/grid"
	"repro/internal/rules"
	"repro/internal/security"
	"repro/internal/simclock"
	"repro/internal/skel"
	"repro/internal/telemetry"
	"repro/internal/trace"
)

func hasEvent(r telemetry.DecisionRecord, kind trace.Kind) bool {
	for _, e := range r.Events {
		if e.Kind == string(kind) {
			return true
		}
	}
	return false
}

// TestDecisionTraceCausalChain replays the Fig. 4 narrative on a manual
// clock as a causal chain: the farm stage manager AM_F senses a starving
// stream, its CheckInterArrivalRateLow rule raises notEnoughTasks, and
// the application manager AM_A's ReactNotEnough rule answers with incRate
// — and both decision records carry the same causality id.
func TestDecisionTraceCausalChain(t *testing.T) {
	clock := simclock.NewManual(time.Date(2009, 5, 25, 10, 0, 0, 0, time.UTC))
	log := trace.NewLog()
	tracer := telemetry.NewTracer(0)

	parent, err := NewRuleDrivenPipelineManager("AM_A", &stub{}, nil, 0, 0, log, clock, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	childCtrl := &stub{}
	child, err := New(Config{
		Name: "AM_F", Concern: "performance", Clock: clock, Period: time.Second,
		Controller: childCtrl, Log: log,
		Engine: rules.NewFarmEngine(rules.FarmConstants(0.6, 1.2, 1, 8, 4)),
	})
	if err != nil {
		t.Fatal(err)
	}
	parent.AttachChild(child)
	parent.SetTracer(tracer)
	child.SetTracer(tracer)

	// Arrival rate 0.3 is below the contract's low level 0.6: only
	// CheckInterArrivalRateLow can fire, raising notEnoughTasks.
	childCtrl.setBeans([]rules.Bean{
		rules.NewBean(rules.BeanArrivalRate, rules.Num(0.3)),
		rules.NewBean(rules.BeanDepartureRate, rules.Num(0.7)),
		rules.NewBean(rules.BeanNumWorker, rules.Num(2)),
		rules.NewBean(rules.BeanQueueVariance, rules.Num(1)),
	})
	childCtrl.setSnap(contract.Snapshot{Throughput: 0.3, ArrivalRate: 0.3})

	if err := child.RunOnce(); err != nil {
		t.Fatal(err)
	}
	clock.Advance(time.Second)
	if err := parent.RunOnce(); err != nil {
		t.Fatal(err)
	}

	byMgr := tracer.LastByManager()
	childRec, ok := byMgr["AM_F"]
	if !ok {
		t.Fatal("no decision record for AM_F")
	}
	parentRec, ok := byMgr["AM_A"]
	if !ok {
		t.Fatal("no decision record for AM_A")
	}

	if childRec.Cause == 0 {
		t.Fatal("child violation decision has no causality id")
	}
	if parentRec.Cause != childRec.Cause {
		t.Fatalf("cause ids differ: child=%d parent=%d", childRec.Cause, parentRec.Cause)
	}
	if !hasEvent(childRec, trace.RaiseViol) {
		t.Fatalf("child record lacks raiseViol: %+v", childRec.Events)
	}
	if !hasEvent(parentRec, trace.IncRate) {
		t.Fatalf("parent record lacks incRate: %+v", parentRec.Events)
	}
	chain := tracer.ByCause(childRec.Cause)
	if len(chain) != 2 || chain[0].Manager != "AM_F" || chain[1].Manager != "AM_A" {
		t.Fatalf("ByCause chain = %+v", chain)
	}

	// The manual clock pins the decision timestamps.
	if !childRec.T.Equal(time.Date(2009, 5, 25, 10, 0, 0, 0, time.UTC)) {
		t.Fatalf("child decision timestamp = %v", childRec.T)
	}
	if !parentRec.T.Equal(time.Date(2009, 5, 25, 10, 0, 1, 0, time.UTC)) {
		t.Fatalf("parent decision timestamp = %v", parentRec.T)
	}

	// The child's plan phase recorded a verdict for every rule, with the
	// firing rule marked and the silent ones explained.
	if len(childRec.Rules) != len(child.Engine().Rules()) {
		t.Fatalf("recorded %d rule verdicts for %d rules",
			len(childRec.Rules), len(child.Engine().Rules()))
	}
	fired := 0
	for _, rv := range childRec.Rules {
		if rv.Fired {
			fired++
			if rv.Rule != "CheckInterArrivalRateLow" {
				t.Fatalf("unexpected fired rule %q", rv.Rule)
			}
			if rv.Failed != "" {
				t.Fatalf("fired rule carries failing pattern %q", rv.Failed)
			}
		} else if rv.Failed == "" {
			t.Fatalf("silent rule %q has no failing pattern", rv.Rule)
		}
	}
	if fired != 1 {
		t.Fatalf("%d rules fired, want 1", fired)
	}
	if childRec.Actions[0].Op != rules.OpRaiseViolation {
		t.Fatalf("child actions = %+v", childRec.Actions)
	}
	if parentRec.Actions[0].Op != string(trace.IncRate) {
		t.Fatalf("parent actions = %+v", parentRec.Actions)
	}
	// AM_A's plan phase records its own rule verdicts: ReactNotEnough is
	// the one that fired, under the child's cause id.
	var parentFired []string
	for _, rv := range parentRec.Rules {
		if rv.Fired {
			parentFired = append(parentFired, rv.Rule)
		}
	}
	if len(parentFired) != 1 || parentFired[0] != "ReactNotEnough" {
		t.Fatalf("AM_A fired %v, want [ReactNotEnough]", parentFired)
	}
	for _, ph := range []int64{childRec.Phases.Sense, childRec.Phases.Analyze,
		childRec.Phases.Plan, childRec.Phases.Act} {
		if ph < 0 {
			t.Fatalf("negative phase duration: %+v", childRec.Phases)
		}
	}
}

// TestDecisionTraceTwoPhaseChain verifies that one causality id spans the
// whole §3.2 two-phase interaction: the GM's intent, the security
// manager's prepared, and the GM's committed records chain together.
func TestDecisionTraceTwoPhaseChain(t *testing.T) {
	plat := grid.NewTwoDomainGrid(0, 4)
	f, _ := skel.NewFarm(skel.FarmConfig{
		Name: "f", Env: skel.Env{TimeScale: 1000}, RM: plat.RM, InitialWorkers: 1,
	})
	fa := abc.NewFarmABC(f, nil)
	log := trace.NewLog()
	sec, _ := NewSecurityManager(SecurityConfig{
		Log: log, Policy: security.Policy{Network: plat.Network},
	})
	gm, _ := NewGeneralManager("GM", sec, log, nil, TwoPhase)
	tracer := telemetry.NewTracer(0)
	gm.SetTracer(tracer)
	gm.Coordinate(fa)

	in := make(chan *skel.Task)
	out := make(chan *skel.Task, 16)
	go func() {
		for range out {
		}
	}()
	go f.Run(context.Background(), in, out)
	deadline := time.Now().Add(5 * time.Second)
	for len(f.Workers()) < 1 {
		if time.Now().After(deadline) {
			t.Fatal("farm never started")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := fa.Execute(rules.OpAddExecutor); err != nil {
		t.Fatal(err)
	}
	close(in)

	// Find the intent record for the Execute-driven add and walk its
	// chain. (Run's own worker spawns may have produced earlier chains.)
	var cause uint64
	for _, r := range tracer.Last(0) {
		if r.Manager == "GM" && hasEvent(r, trace.Intent) {
			cause = r.Cause
		}
	}
	if cause == 0 {
		t.Fatal("no GM intent record with a causality id")
	}
	chain := tracer.ByCause(cause)
	if len(chain) != 3 {
		t.Fatalf("two-phase chain has %d records, want 3: %+v", len(chain), chain)
	}
	if chain[0].Manager != "GM" || !hasEvent(chain[0], trace.Intent) {
		t.Fatalf("chain[0] is not the GM intent: %+v", chain[0])
	}
	if chain[1].Manager != "AM_sec" || !hasEvent(chain[1], trace.Prepared) {
		t.Fatalf("chain[1] is not the AM_sec prepare: %+v", chain[1])
	}
	if len(chain[1].Actions) != 1 || chain[1].Actions[0].Op != "SECURE_BINDING" {
		t.Fatalf("prepare actions = %+v", chain[1].Actions)
	}
	if chain[2].Manager != "GM" || !hasEvent(chain[2], trace.Committed) {
		t.Fatalf("chain[2] is not the GM commit: %+v", chain[2])
	}
	if chain[1].Concern != "security" || chain[0].Concern != "coordination" {
		t.Fatalf("concerns = %q/%q", chain[0].Concern, chain[1].Concern)
	}
}
