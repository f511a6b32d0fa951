package manager

import (
	"testing"
	"time"

	"repro/internal/abc"
	"repro/internal/contract"
	"repro/internal/rules"
	"repro/internal/simclock"
	"repro/internal/skel"
	"repro/internal/trace"
)

func newRuleDrivenAMA(t *testing.T) (*Manager, *Manager, *skel.Source, *trace.Log) {
	t.Helper()
	log := trace.NewLog()
	clock := simclock.NewReal()
	src := skel.NewSource("prod", skel.Env{TimeScale: 1000}, 100, 10*time.Second, nil)
	srcABC := abc.NewSourceABC(src)
	amP, err := NewSourceManager("AM_P", srcABC, log, clock, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	amA, err := NewRuleDrivenPipelineManager("AM_A", &stub{}, amP, 2.0, 0.84, log, clock, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	amA.AttachChild(amP)
	return amA, amP, src, log
}

func TestRuleDrivenPipelineIncRate(t *testing.T) {
	amA, amP, src, log := newRuleDrivenAMA(t)

	// Deliver a notEnough violation and run one MAPE cycle: the
	// ReactNotEnough rule must fire the incRate mechanism.
	amA.deliver(Violation{From: "AM_F", Tag: rules.TagNotEnoughTasks,
		Snapshot: contract.Snapshot{ArrivalRate: 0.1}})
	if err := amA.RunOnce(); err != nil {
		t.Fatal(err)
	}
	if log.Count("AM_A", trace.IncRate) != 1 {
		t.Fatalf("incRate missing:\n%s", log.Timeline())
	}
	tr, ok := amP.Contract().(contract.ThroughputRange)
	if !ok || tr.Lo != 0.2 {
		t.Fatalf("producer contract = %v, want lo=0.2", amP.Contract())
	}
	if src.Interval() != 5*time.Second {
		t.Fatalf("source interval = %v, want 5s", src.Interval())
	}

	// Compounding across cycles, capped at 0.84.
	for i := 0; i < 4; i++ {
		amA.deliver(Violation{Tag: rules.TagNotEnoughTasks,
			Snapshot: contract.Snapshot{ArrivalRate: 0.1}})
		amA.RunOnce()
	}
	if tr := amP.Contract().(contract.ThroughputRange); tr.Lo != 0.84 {
		t.Fatalf("capped rate = %v, want 0.84", tr.Lo)
	}
}

// TestRuleDrivenPipelineFirstIncRateNeverSlowsProducer checks the first
// reaction of a fresh AM_A: the farm's rate meter still reads 0 and
// nothing has been requested, so the base must be the producer's own
// emission rate (every 5s = 0.2 tasks/s), raised by the default step 1.3.
func TestRuleDrivenPipelineFirstIncRateNeverSlowsProducer(t *testing.T) {
	log := trace.NewLog()
	clock := simclock.NewReal()
	src := skel.NewSource("prod", skel.Env{TimeScale: 1000}, 100, 5*time.Second, nil)
	amP, err := NewSourceManager("AM_P", abc.NewSourceABC(src), log, clock, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	amA, err := NewRuleDrivenPipelineManager("AM_A", &stub{}, amP, 0, 0, log, clock, time.Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	amA.AttachChild(amP)
	amA.deliver(Violation{From: "AM_F", Tag: rules.TagNotEnoughTasks})
	if err := amA.RunOnce(); err != nil {
		t.Fatal(err)
	}
	tr, ok := amP.Contract().(contract.ThroughputRange)
	if !ok || tr.Lo < 0.26-1e-9 {
		t.Fatalf("first incRate asked the producer for %v, want >= 0.26 (0.2 × 1.3):\n%s",
			amP.Contract(), log.Timeline())
	}
}

func TestRuleDrivenPipelineDecRate(t *testing.T) {
	amA, amP, _, log := newRuleDrivenAMA(t)
	amA.deliver(Violation{Tag: rules.TagTooMuchTasks,
		Snapshot: contract.Snapshot{ArrivalRate: 0.8}})
	if err := amA.RunOnce(); err != nil {
		t.Fatal(err)
	}
	if log.Count("AM_A", trace.DecRate) != 1 {
		t.Fatalf("decRate missing:\n%s", log.Timeline())
	}
	if tr := amP.Contract().(contract.ThroughputRange); tr.Lo != 0.4 {
		t.Fatalf("decRate target = %v, want 0.8/2", tr.Lo)
	}
}

func TestRuleDrivenPipelineEndStream(t *testing.T) {
	amA, _, _, log := newRuleDrivenAMA(t)
	done := Violation{Tag: rules.TagNotEnoughTasks,
		Snapshot: contract.Snapshot{StreamDone: true}}
	amA.deliver(done)
	amA.RunOnce()
	// Further notEnough reports after the end are ignored (no incRate,
	// no second endStream).
	amA.deliver(done)
	amA.RunOnce()
	amA.deliver(Violation{Tag: rules.TagNotEnoughTasks,
		Snapshot: contract.Snapshot{ArrivalRate: 0.1}})
	amA.RunOnce()
	if got := log.Count("AM_A", trace.EndStream); got != 1 {
		t.Fatalf("endStream events = %d, want 1:\n%s", got, log.Timeline())
	}
	if log.Count("AM_A", trace.IncRate) != 0 {
		t.Fatalf("incRate after endStream:\n%s", log.Timeline())
	}
}

// TestPipelineCoordinatorIncDecRate checks AM_A's coordination of the
// producer step by step: notEnough raises the requested rate, repeated
// notEnough compounds from the requested rate (not from the lagging
// measured arrival rate), and tooMuch lowers it.
func TestPipelineCoordinatorIncDecRate(t *testing.T) {
	amA, amP, src, log := newRuleDrivenAMA(t)
	react := func(tag string, arrival float64) {
		t.Helper()
		amA.deliver(Violation{From: "AM_F", Tag: tag,
			Snapshot: contract.Snapshot{ArrivalRate: arrival}})
		if err := amA.RunOnce(); err != nil {
			t.Fatal(err)
		}
	}

	react(rules.TagNotEnoughTasks, 0.1)
	if log.Count("AM_A", trace.IncRate) != 1 {
		t.Fatalf("incRate missing:\n%s", log.Timeline())
	}
	tr, ok := amP.Contract().(contract.ThroughputRange)
	if !ok || tr.Lo != 0.2 {
		t.Fatalf("producer contract = %v, want lo=0.2", amP.Contract())
	}
	if src.Interval() != 5*time.Second {
		t.Fatalf("source interval = %v, want 5s (rate 0.2)", src.Interval())
	}

	// 0.2 -> 0.4 at step 2.
	react(rules.TagNotEnoughTasks, 0.1)
	if tr := amP.Contract().(contract.ThroughputRange); tr.Lo != 0.4 {
		t.Fatalf("compounded rate = %v, want 0.4", tr.Lo)
	}

	react(rules.TagTooMuchTasks, 0.8)
	if log.Count("AM_A", trace.DecRate) != 1 {
		t.Fatalf("decRate missing:\n%s", log.Timeline())
	}
	if tr := amP.Contract().(contract.ThroughputRange); tr.Lo != 0.4 {
		t.Fatalf("decRate target = %v, want 0.8/2=0.4", tr.Lo)
	}
}

// TestPipelineCoordinatorEndStream checks that two end-of-stream reports
// queued for the same cycle end the stream once and raise no rate.
func TestPipelineCoordinatorEndStream(t *testing.T) {
	amA, _, _, log := newRuleDrivenAMA(t)
	done := Violation{Tag: rules.TagNotEnoughTasks,
		Snapshot: contract.Snapshot{StreamDone: true}}
	amA.deliver(done)
	amA.deliver(done)
	if err := amA.RunOnce(); err != nil {
		t.Fatal(err)
	}
	if got := log.Count("AM_A", trace.EndStream); got != 1 {
		t.Fatalf("endStream must be logged exactly once, got %d:\n%s", got, log.Timeline())
	}
	if log.Count("AM_A", trace.IncRate) != 0 {
		t.Fatalf("incRate after endStream:\n%s", log.Timeline())
	}
}

func TestPipeRuleSourceParses(t *testing.T) {
	e := rules.NewPipeEngine()
	if len(e.Rules()) != 3 {
		t.Fatalf("pipe rules = %d", len(e.Rules()))
	}
	// Salience: end-of-stream rule first.
	if e.Rules()[0].Name != "ReactEndOfStream" {
		t.Fatalf("priority order wrong: %s first", e.Rules()[0].Name)
	}
}
