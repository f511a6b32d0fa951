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
)

// stub is a scriptable abc.Controller.
type stub struct {
	mu    sync.Mutex
	snap  contract.Snapshot
	beans []rules.Bean
	ops   []string
	fail  error
}

func (s *stub) Beans() []rules.Bean {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.beans
}

func (s *stub) Snapshot() contract.Snapshot {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.snap
}

func (s *stub) Execute(op string) (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.fail != nil {
		return "", s.fail
	}
	s.ops = append(s.ops, op)
	return "ok", nil
}

func (s *stub) setSnap(sn contract.Snapshot) {
	s.mu.Lock()
	s.snap = sn
	s.mu.Unlock()
}

func (s *stub) setBeans(bs []rules.Bean) {
	s.mu.Lock()
	s.beans = bs
	s.mu.Unlock()
}

func (s *stub) executed() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, len(s.ops))
	copy(out, s.ops)
	return out
}

func newTestManager(t *testing.T, name string, ctrl abc.Controller, engine *rules.Engine, pol Policy) (*Manager, *trace.Log) {
	t.Helper()
	log := trace.NewLog()
	return newTestManagerWithLog(t, name, ctrl, engine, pol, log), log
}

func newTestManagerWithLog(t *testing.T, name string, ctrl abc.Controller, engine *rules.Engine, pol Policy, log *trace.Log) *Manager {
	t.Helper()
	m, err := New(Config{
		Name: name, Clock: simclock.NewReal(), Period: time.Millisecond,
		Controller: ctrl, Engine: engine, Policy: pol, Log: log,
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestNewValidation(t *testing.T) {
	log := trace.NewLog()
	ctrl := &stub{}
	cases := []Config{
		{Controller: ctrl, Log: log},  // no name
		{Name: "m", Log: log},         // no controller
		{Name: "m", Controller: ctrl}, // no log
	}
	for i, cfg := range cases {
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	m, err := New(Config{Name: "m", Controller: ctrl, Log: log})
	if err != nil {
		t.Fatal(err)
	}
	if m.State() != Active {
		t.Fatal("fresh manager must be active")
	}
	if _, ok := m.Contract().(contract.BestEffort); !ok {
		t.Fatalf("default contract = %v", m.Contract())
	}
}

func TestRunOnceLogsVerdicts(t *testing.T) {
	ctrl := &stub{}
	m, log := newTestManager(t, "AM", ctrl, nil, Policy{})
	m.AssignContract(contract.ThroughputRange{Lo: 0.3, Hi: 0.7})

	ctrl.setSnap(contract.Snapshot{Throughput: 0.1})
	m.RunOnce()
	if log.Count("AM", trace.ContrLow) != 1 {
		t.Fatalf("contrLow not logged:\n%s", log.Timeline())
	}
	ctrl.setSnap(contract.Snapshot{Throughput: 0.9})
	m.RunOnce()
	if log.Count("AM", trace.ContrHigh) != 1 {
		t.Fatalf("contrHigh not logged:\n%s", log.Timeline())
	}
	ctrl.setSnap(contract.Snapshot{Throughput: 0.5})
	m.RunOnce()
	if log.Count("AM", trace.ContrLow) != 1 || log.Count("AM", trace.ContrHigh) != 1 {
		t.Fatal("satisfied snapshot logged a violation")
	}
}

func TestRulesDriveActuators(t *testing.T) {
	ctrl := &stub{}
	engine := rules.NewFarmEngine(rules.FarmConstants(0.3, 0.7, 1, 8, 4))
	m, log := newTestManager(t, "AM_F", ctrl, engine, Policy{})
	// departure low, arrival fine -> ADD_EXECUTOR + BALANCE_LOAD
	ctrl.setBeans([]rules.Bean{
		rules.NewBean(rules.BeanArrivalRate, rules.Num(0.5)),
		rules.NewBean(rules.BeanDepartureRate, rules.Num(0.1)),
		rules.NewBean(rules.BeanNumWorker, rules.Num(2)),
		rules.NewBean(rules.BeanQueueVariance, rules.Num(0)),
	})
	if err := m.RunOnce(); err != nil {
		t.Fatal(err)
	}
	ops := ctrl.executed()
	if len(ops) != 2 || ops[0] != rules.OpAddExecutor || ops[1] != rules.OpBalanceLoad {
		t.Fatalf("ops = %v", ops)
	}
	if log.Count("AM_F", trace.AddWorker) != 1 || log.Count("AM_F", trace.Rebalance) != 1 {
		t.Fatalf("events missing:\n%s", log.Timeline())
	}
	if m.State() != Active {
		t.Fatal("manager with local action must be active")
	}
}

func TestViolationReportingAndPassive(t *testing.T) {
	child := &stub{}
	engine := rules.NewFarmEngine(rules.FarmConstants(0.3, 0.7, 1, 8, 4))
	var got []Violation
	parentCtrl := &stub{}
	parent, _ := newTestManager(t, "AM_A", parentCtrl, nil, Policy{
		OnChildViolation: func(m *Manager, v Violation) { got = append(got, v) },
	})
	m, log := newTestManager(t, "AM_F", child, engine, Policy{})
	parent.AttachChild(m)
	if m.Parent() != parent || len(parent.Children()) != 1 {
		t.Fatal("hierarchy wiring broken")
	}

	// arrival too low -> notEnoughTasks violation, manager goes passive
	child.setBeans([]rules.Bean{
		rules.NewBean(rules.BeanArrivalRate, rules.Num(0.1)),
		rules.NewBean(rules.BeanDepartureRate, rules.Num(0.1)),
		rules.NewBean(rules.BeanNumWorker, rules.Num(2)),
		rules.NewBean(rules.BeanQueueVariance, rules.Num(0)),
	})
	child.setSnap(contract.Snapshot{Throughput: 0.1, ArrivalRate: 0.1})
	m.RunOnce()
	if m.State() != Passive {
		t.Fatal("violation-only cycle must enter passive mode")
	}
	if log.Count("AM_F", trace.NotEnough) != 1 || log.Count("AM_F", trace.RaiseViol) != 1 {
		t.Fatalf("events missing:\n%s", log.Timeline())
	}
	if log.Count("AM_F", trace.EnterPass) != 1 {
		t.Fatal("enterPassive not logged")
	}

	// The parent drains it on its next cycle.
	parent.RunOnce()
	if len(got) != 1 || got[0].Tag != rules.TagNotEnoughTasks || got[0].From != "AM_F" {
		t.Fatalf("parent got %v", got)
	}

	// Local action becomes possible again -> re-enter active.
	child.setBeans([]rules.Bean{
		rules.NewBean(rules.BeanArrivalRate, rules.Num(0.5)),
		rules.NewBean(rules.BeanDepartureRate, rules.Num(0.1)),
		rules.NewBean(rules.BeanNumWorker, rules.Num(2)),
		rules.NewBean(rules.BeanQueueVariance, rules.Num(0)),
	})
	m.RunOnce()
	if m.State() != Active {
		t.Fatal("local action must re-activate the manager")
	}
	if log.Count("AM_F", trace.EnterActive) != 1 {
		t.Fatal("enterActive not logged")
	}
}

func TestFailedActuatorRaisesViolation(t *testing.T) {
	ctrl := &stub{fail: errors.New("no resources")}
	engine := rules.NewFarmEngine(rules.FarmConstants(0.3, 0.7, 1, 8, 4))
	m, log := newTestManager(t, "AM_F", ctrl, engine, Policy{})
	ctrl.setBeans([]rules.Bean{
		rules.NewBean(rules.BeanArrivalRate, rules.Num(0.5)),
		rules.NewBean(rules.BeanDepartureRate, rules.Num(0.1)),
		rules.NewBean(rules.BeanNumWorker, rules.Num(2)),
		rules.NewBean(rules.BeanQueueVariance, rules.Num(0)),
	})
	if err := m.RunOnce(); err != nil {
		t.Fatal(err)
	}
	if log.Count("AM_F", trace.RaiseViol) == 0 {
		t.Fatalf("failed actuator must raise a violation:\n%s", log.Timeline())
	}
	if m.State() != Passive {
		t.Fatal("manager with no applicable plan must be passive")
	}
}

func TestAssignContractPropagation(t *testing.T) {
	parentCtrl, c1, c2 := &stub{}, &stub{}, &stub{}
	parent, log := newTestManager(t, "AM_A", parentCtrl, nil, Policy{
		Split: func(c contract.Contract, n int) ([]contract.Contract, error) {
			return contract.SplitPipeline(c, n, nil)
		},
	})
	child1 := newTestManagerWithLog(t, "AM_P", c1, nil, Policy{}, log)
	child2 := newTestManagerWithLog(t, "AM_C", c2, nil, Policy{}, log)
	parent.AttachChild(child1)
	parent.AttachChild(child2)

	tr := contract.ThroughputRange{Lo: 0.3, Hi: 0.7}
	if err := parent.AssignContract(tr); err != nil {
		t.Fatal(err)
	}
	if child1.Contract() != tr || child2.Contract() != tr {
		t.Fatalf("children contracts = %v / %v", child1.Contract(), child2.Contract())
	}
	if log.Count("", trace.NewContr) != 3 {
		t.Fatalf("newContract events = %d, want 3", log.Count("", trace.NewContr))
	}
	if err := parent.AssignContract(nil); err == nil {
		t.Fatal("nil contract accepted")
	}
}

func TestFarmManagerRebuildsEngineFromContract(t *testing.T) {
	plat := grid.NewSMP(8)
	f, _ := skel.NewFarm(skel.FarmConfig{Name: "f", Env: skel.Env{TimeScale: 1000}, RM: plat.RM})
	a := abc.NewFarmABC(f, nil)
	log := trace.NewLog()
	m, err := NewFarmManager("AM_F", a, log, simclock.NewReal(), time.Millisecond, FarmLimits{})
	if err != nil {
		t.Fatal(err)
	}
	e1 := m.Engine()
	if e1 == nil {
		t.Fatal("farm manager needs a default engine")
	}
	m.AssignContract(contract.ThroughputRange{Lo: 0.3, Hi: 0.7})
	e2 := m.Engine()
	if e2 == e1 {
		t.Fatal("contract did not re-parameterize the engine")
	}
	lo, _ := e2.Constants().Lookup("FARM_LOW_PERF_LEVEL")
	if lo.AsStr() != "0.3" {
		t.Fatalf("engine lo = %v", lo)
	}
}

func TestManagerStartStopLoop(t *testing.T) {
	ctrl := &stub{}
	m, log := newTestManager(t, "AM", ctrl, nil, Policy{})
	m.AssignContract(contract.ThroughputRange{Lo: 1, Hi: 2})
	ctrl.setSnap(contract.Snapshot{Throughput: 0})
	m.Start()
	m.Start() // idempotent
	deadline := time.Now().Add(5 * time.Second)
	for log.Count("AM", trace.ContrLow) < 3 {
		if time.Now().After(deadline) {
			t.Fatal("loop never ran")
		}
		time.Sleep(time.Millisecond)
	}
	m.Stop()
	m.Stop() // idempotent
	n := log.Count("AM", trace.ContrLow)
	time.Sleep(20 * time.Millisecond)
	if log.Count("AM", trace.ContrLow) != n {
		t.Fatal("loop still running after Stop")
	}
}

func TestStartStopTree(t *testing.T) {
	parent, _ := newTestManager(t, "A", &stub{}, nil, Policy{})
	child, _ := newTestManager(t, "B", &stub{}, nil, Policy{})
	parent.AttachChild(child)
	parent.StartTree()
	parent.StopTree() // must not hang
}

func TestAttachChildSelfAndNil(t *testing.T) {
	m, _ := newTestManager(t, "A", &stub{}, nil, Policy{})
	m.AttachChild(nil)
	m.AttachChild(m)
	if len(m.Children()) != 0 {
		t.Fatal("self/nil attach must be ignored")
	}
}

func TestSecurityManagerPrepareWorker(t *testing.T) {
	plat := grid.NewTwoDomainGrid(1, 1)
	log := trace.NewLog()
	sec, err := NewSecurityManager(SecurityConfig{
		Log: log, Policy: security.Policy{Network: plat.Network},
	})
	if err != nil {
		t.Fatal(err)
	}
	var trusted, untrusted *grid.Node
	for _, n := range plat.RM.Nodes() {
		if n.Domain.Trusted {
			trusted = n
		} else {
			untrusted = n
		}
	}
	var installed security.Codec
	set := func(c security.Codec) { installed = c }

	if err := sec.PrepareWorker("w0", trusted, set); err != nil {
		t.Fatal(err)
	}
	if installed != nil {
		t.Fatal("trusted node must not be secured")
	}
	if err := sec.PrepareWorker("w1", untrusted, set); err != nil {
		t.Fatal(err)
	}
	if installed == nil || !installed.Secure() {
		t.Fatal("untrusted node must get a secure codec")
	}
	if sec.Secured() != 1 {
		t.Fatalf("Secured = %d", sec.Secured())
	}
	if log.Count("AM_sec", trace.Secured) != 1 || log.Count("AM_sec", trace.Prepared) != 1 {
		t.Fatalf("events missing:\n%s", log.Timeline())
	}
}

func TestSecurityManagerValidation(t *testing.T) {
	if _, err := NewSecurityManager(SecurityConfig{}); err == nil {
		t.Fatal("security manager without log accepted")
	}
}

func TestSecurityManagerReactiveLoop(t *testing.T) {
	plat := grid.NewTwoDomainGrid(0, 4)
	f, _ := skel.NewFarm(skel.FarmConfig{
		Name: "f", Env: skel.Env{TimeScale: 1000}, RM: plat.RM, InitialWorkers: 2,
	})
	in := make(chan *skel.Task)
	out := make(chan *skel.Task, 16)
	go func() {
		for range out {
		}
	}()
	go f.Run(context.Background(), in, out)
	deadline := time.Now().Add(5 * time.Second)
	for len(f.Workers()) < 2 {
		if time.Now().After(deadline) {
			t.Fatal("farm never started")
		}
		time.Sleep(time.Millisecond)
	}
	fa := abc.NewFarmABC(f, nil)
	log := trace.NewLog()
	sec, _ := NewSecurityManager(SecurityConfig{
		Log: log, Policy: security.Policy{Network: plat.Network}, Period: time.Millisecond,
	})
	sec.Watch(fa)
	if n := sec.RunOnce(); n != 2 {
		t.Fatalf("reactive cycle secured %d bindings, want 2", n)
	}
	for _, w := range fa.Workers() {
		if !w.Secure {
			t.Fatalf("worker %s still insecure", w.ID)
		}
	}
	if n := sec.RunOnce(); n != 0 {
		t.Fatalf("idempotent re-scan secured %d more", n)
	}
	sec.Start()
	sec.Start()
	sec.Stop()
	sec.Stop()
	close(in)
}

func TestGeneralManagerModes(t *testing.T) {
	log := trace.NewLog()
	sec, _ := NewSecurityManager(SecurityConfig{Log: log})
	if _, err := NewGeneralManager("GM", nil, log, nil, Reactive); err == nil {
		t.Fatal("reactive without security manager accepted")
	}
	// Two-phase without a local security manager is allowed: the
	// participant may arrive later via SetParticipant (a remote link).
	if bare, err := NewGeneralManager("GM", nil, log, nil, TwoPhase); err != nil {
		t.Fatalf("two-phase with deferred participant rejected: %v", err)
	} else if bare.Participant() != nil {
		t.Fatal("participant should be unset without a security manager")
	}
	if _, err := NewGeneralManager("GM", nil, nil, nil, Unmanaged); err == nil {
		t.Fatal("GM without log accepted")
	}
	gm, err := NewGeneralManager("", sec, log, nil, Unmanaged)
	if err != nil {
		t.Fatal(err)
	}
	if gm.Name() != "GM" || gm.Mode() != Unmanaged {
		t.Fatalf("gm = %s/%v", gm.Name(), gm.Mode())
	}
	for _, m := range []CoordinationMode{TwoPhase, Reactive, Unmanaged} {
		if m.String() == "" {
			t.Fatal("mode string empty")
		}
	}
}

func TestGeneralManagerTwoPhaseCoordinate(t *testing.T) {
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
	if log.Count("GM", trace.Intent) != 1 || log.Count("GM", trace.Committed) != 1 {
		t.Fatalf("two-phase events missing:\n%s", log.Timeline())
	}
	secure := 0
	for _, w := range fa.Workers() {
		if w.Secure {
			secure++
		}
	}
	// The initial worker was added before Coordinate's prepare existed
	// only if Run spawned it first; the one added through Execute must be
	// secure.
	if secure < 1 {
		t.Fatalf("no secure worker after two-phase add:\n%s", log.Timeline())
	}
	close(in)
}

// TestDeepHierarchyEscalation exercises the §3.1 management tree of
// farm(pipeline(seq, farm(seq), seq)): the inner farm's violation reaches
// the inner pipeline manager, which coordinates its descendants and
// reports to the AM of the outer, top-level farm.
func TestDeepHierarchyEscalation(t *testing.T) {
	log := trace.NewLog()
	var topGot []Violation
	top := newTestManagerWithLog(t, "AM_farmTop", &stub{}, nil, Policy{
		OnChildViolation: func(m *Manager, v Violation) { topGot = append(topGot, v) },
	}, log)
	pipe := newTestManagerWithLog(t, "AM_pipe", &stub{}, nil, Policy{
		OnChildViolation: func(m *Manager, v Violation) {
			// The inner pipeline cannot create input pressure itself:
			// escalate to the outer farm manager.
			m.Escalate(v.Tag, v.Snapshot)
		},
		Split: func(c contract.Contract, n int) ([]contract.Contract, error) {
			return contract.SplitPipeline(c, n, nil)
		},
	}, log)
	seq1 := newTestManagerWithLog(t, "AM_s1", &stub{}, nil, Policy{}, log)
	innerFarmCtrl := &stub{}
	innerFarm := newTestManagerWithLog(t, "AM_farmIn", innerFarmCtrl,
		rules.NewFarmEngine(rules.FarmConstants(0.3, 0.7, 1, 8, 4)), Policy{}, log)
	seq2 := newTestManagerWithLog(t, "AM_s2", &stub{}, nil, Policy{}, log)

	top.AttachChild(pipe)
	pipe.AttachChild(seq1)
	pipe.AttachChild(innerFarm)
	pipe.AttachChild(seq2)

	// Contract flows down three levels: farm split gives the pipe a
	// best-effort contract; the pipe splits that over its stages.
	if err := top.AssignContract(contract.ThroughputRange{Lo: 0.3, Hi: 0.7}); err != nil {
		t.Fatal(err)
	}
	if _, ok := seq1.Contract().(contract.BestEffort); !ok {
		t.Fatalf("leaf contract = %v, want best-effort via farm split", seq1.Contract())
	}

	// The inner farm starves: its violation must bubble to the top.
	innerFarmCtrl.setBeans([]rules.Bean{
		rules.NewBean(rules.BeanArrivalRate, rules.Num(0.1)),
		rules.NewBean(rules.BeanDepartureRate, rules.Num(0.1)),
		rules.NewBean(rules.BeanNumWorker, rules.Num(2)),
		rules.NewBean(rules.BeanQueueVariance, rules.Num(0)),
	})
	if err := innerFarm.RunOnce(); err != nil {
		t.Fatal(err)
	}
	if err := pipe.RunOnce(); err != nil {
		t.Fatal(err)
	}
	if err := top.RunOnce(); err != nil {
		t.Fatal(err)
	}
	if len(topGot) != 1 || topGot[0].From != "AM_pipe" || topGot[0].Tag != rules.TagNotEnoughTasks {
		t.Fatalf("top-level manager got %v", topGot)
	}
	// Both levels logged the violation report.
	if log.Count("AM_farmIn", trace.RaiseViol) != 1 || log.Count("AM_pipe", trace.RaiseViol) != 1 {
		t.Fatalf("raiseViol chain broken:\n%s", log.Timeline())
	}
}

func TestWarmUpSuppressesRules(t *testing.T) {
	ctrl := &stub{}
	engine := rules.NewFarmEngine(rules.FarmConstants(0.3, 0.7, 1, 8, 4))
	log := trace.NewLog()
	clock := simclock.NewManual(time.Date(2009, 5, 25, 0, 0, 0, 0, time.UTC))
	m, err := New(Config{
		Name: "AM_F", Clock: clock, Controller: ctrl, Engine: engine,
		Log: log, WarmUp: 10 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	m.AssignContract(contract.ThroughputRange{Lo: 0.3, Hi: 0.7})
	ctrl.setBeans([]rules.Bean{
		rules.NewBean(rules.BeanArrivalRate, rules.Num(0.5)),
		rules.NewBean(rules.BeanDepartureRate, rules.Num(0.1)),
		rules.NewBean(rules.BeanNumWorker, rules.Num(2)),
		rules.NewBean(rules.BeanQueueVariance, rules.Num(0)),
	})
	ctrl.setSnap(contract.Snapshot{Throughput: 0.1})

	// Within warm-up: verdicts logged, no actuators fired.
	m.RunOnce()
	if len(ctrl.executed()) != 0 {
		t.Fatalf("rules fired during warm-up: %v", ctrl.executed())
	}
	if log.Count("AM_F", trace.ContrLow) != 1 {
		t.Fatal("verdict logging must stay on during warm-up")
	}

	// After warm-up: the same readings trigger the actuators.
	clock.Advance(11 * time.Second)
	m.RunOnce()
	if len(ctrl.executed()) == 0 {
		t.Fatal("rules did not fire after warm-up")
	}
	if m.WarmUp() != 10*time.Second {
		t.Fatalf("WarmUp = %v", m.WarmUp())
	}
	m.SetWarmUp(time.Minute)
	if m.WarmUp() != time.Minute {
		t.Fatal("SetWarmUp did not apply")
	}
}

func TestStateString(t *testing.T) {
	if Active.String() != "active" || Passive.String() != "passive" {
		t.Fatal("state strings wrong")
	}
}

func TestThroughputBounds(t *testing.T) {
	lo, hi := throughputBounds(contract.ThroughputRange{Lo: 1, Hi: 2})
	if lo != 1 || hi != 2 {
		t.Fatal("direct bounds wrong")
	}
	lo, hi = throughputBounds(contract.Conjunction{contract.SecureComms{}, contract.ThroughputRange{Lo: 3, Hi: 4}})
	if lo != 3 || hi != 4 {
		t.Fatal("conjunction bounds wrong")
	}
	lo, _ = throughputBounds(contract.BestEffort{})
	if lo != 0 {
		t.Fatal("best effort bounds wrong")
	}
}
