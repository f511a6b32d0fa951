package main

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/abc"
	"repro/internal/contract"
	"repro/internal/grid"
	"repro/internal/manager"
	"repro/internal/metrics"
	"repro/internal/rules"
	"repro/internal/security"
	"repro/internal/skel"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/wire"
)

const (
	// degree is the farm's parallelism degree on every workload: one
	// worker per core of the 2-core machine the reference figures come
	// from.
	degree = 2
	// satTasks is the size of one saturation round.
	satTasks = 10000
	// cadence is the period of the driven MAPE cycles.
	cadence = 2 * time.Millisecond
	// spareCores is the core count of each in-process node. A removed
	// worker releases its core only once its last result has been taken
	// off the farm's output, so while the collector is held up (a host
	// stall) every cycle leaves one more core taken; this many cover about
	// two seconds of cycles.
	spareCores = 512
)

// spec is one workload. Every workload is the same behavioural skeleton —
// a farm, its Fig. 5 rule-driven manager, and that manager's parent across
// a wire management link — and they differ in what the data plane crosses
// and in what the manager's rules make it do each cycle.
type spec struct {
	name string
	// tcp runs the workers on wire.Servers on 127.0.0.1, reached through
	// wire.Factory; otherwise they run in-process.
	tcp bool
	// batch is FarmConfig.DispatchBatch.
	batch int
	// secure installs AES-GCM on every binding under a policy that marks
	// the workers' domain untrusted.
	secure bool
	sizes  []sizeClass
	// rate is the fixed open-loop offered rate in tasks/s.
	rate float64
	// reconfig selects rule constants that make every cycle remove a
	// worker and rebalance; the benchmark then restores the degree through
	// the ADD_EXECUTOR actuator. Without it every cycle only escalates.
	reconfig bool
}

var specs = []spec{
	{name: "loopback-single", secure: true, sizes: mixedSizes, rate: 50000},
	{name: "tcp-batched", tcp: true, batch: 64, secure: true, sizes: mixedSizes, rate: 40000},
	{name: "managed-reconfig", sizes: smallSizes, rate: 50000, reconfig: true},
}

func findSpec(name string) (*spec, error) {
	for i := range specs {
		if specs[i].name == name {
			return &specs[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// ruleConstants parameterizes the Fig. 5 rule file so that every cycle does
// the same work whatever the measured rates. Escalate-only: no rate is
// below +Inf, so CheckInterArrivalRateLow raises notEnoughTasks and nothing
// else fires. Reconfigure: every rate exceeds -1, so
// CheckInterArrivalRateHigh raises tooMuchTasks and CheckRateHigh removes a
// worker and rebalances while the degree exceeds the minimum of 1.
func ruleConstants(reconfig bool) rules.Constants {
	inf := math.Inf(1)
	if !reconfig {
		return rules.FarmConstants(inf, inf, 1, degree, inf)
	}
	c := rules.FarmConstants(0, 0, 1, degree, inf)
	c["FARM_HIGH_PERF_LEVEL"] = rules.Num(-1)
	return c
}

// firedPerCycle is how many rules every cycle fires under ruleConstants.
func firedPerCycle(reconfig bool) int {
	if reconfig {
		return 2
	}
	return 1
}

// parentABC is the parent manager's controller: the application level
// senses nothing of its own and has no mechanism; it only reacts to its
// child's violations.
type parentABC struct{}

func (parentABC) Beans() []rules.Bean            { return nil }
func (parentABC) Snapshot() contract.Snapshot    { return contract.Snapshot{} }
func (parentABC) Execute(string) (string, error) { return "", abc.ErrUnsupported }

// instruments are the histograms attached in the traced run.
type instruments struct {
	farm     skel.FarmInstruments
	actuator *metrics.Histogram
	tasks    *telemetry.TaskTracer
}

// stack is one built instance of a workload: servers, factories, farm,
// managers, link and the result collector.
type stack struct {
	spec *spec
	gen  *taskGen
	rec  *recorder    // nil in the untraced run
	ins  *instruments // nil in the untraced run

	servers []*wire.Server
	execF   *wire.Factory // nil on loopback
	mgmtF   *wire.Factory
	farm    *skel.Farm
	ctl     abc.Controller
	auditor *security.Auditor

	child, parent *manager.Manager
	endpoint      *manager.ParentEndpoint
	link          *manager.RemoteLink
	decisions     *telemetry.Tracer
	handled       atomic.Uint64

	in      chan *skel.Task
	runDone chan struct{}
	col     *collector
	sent    uint64 // tasks sent; owned by the generating goroutine
}

// build assembles one stack, ready for its first task. It is the set-up
// that setup_s times.
func build(sp *spec, gen *taskGen, rec *recorder, ins *instruments, decisionDepth int) (st *stack, err error) {
	st = &stack{spec: sp, gen: gen, rec: rec, ins: ins}
	defer func() {
		if err != nil {
			st.close()
			st = nil
		}
	}()
	psk := wire.DerivePSK("farmbench")
	home := grid.NewNode("home", grid.Domain{Name: "home", Trusted: true}, 1, 1)
	edge := grid.Domain{Name: "edge", Trusted: false}

	var nodes []*grid.Node
	if sp.tcp {
		for i := 0; i < degree; i++ {
			hello := wire.Hello{Name: fmt.Sprintf("edge%d", i), Domain: edge.Name, Cores: 1, Speed: 1}
			srv, err := st.listen(wire.ServerConfig{PSK: psk, Hello: hello, Fn: gen.xf.apply})
			if err != nil {
				return st, err
			}
			nodes = append(nodes, wire.NodeFromHello(srv.Addr(), hello))
		}
		if st.execF, err = wire.NewFactory(psk, 5*time.Second); err != nil {
			return st, err
		}
	} else {
		// Spare cores let ADD_EXECUTOR recruit while removed workers still
		// hold their slots (see spareCores).
		for i := 0; i < degree; i++ {
			nodes = append(nodes, grid.NewNode(fmt.Sprintf("edge%d", i), edge, spareCores, 1))
		}
	}

	st.auditor = security.NewAuditor()
	xf := gen.xf
	cfg := skel.FarmConfig{
		Name:           "farm",
		Env:            skel.Env{TimeScale: 1},
		Fn:             func(t *skel.Task) *skel.Task { t.Payload = xf.apply(t.Payload); return t },
		RM:             grid.NewResourceManager(nodes...),
		InitialWorkers: degree,
		DispatchNode:   home,
		Auditor:        st.auditor,
		DispatchBatch:  sp.batch,
	}
	if sp.secure {
		cfg.Policy = &security.Policy{}
	}
	if st.execF != nil {
		cfg.Executors = st.execF.Executor
		if rec != nil {
			cfg.Executors = func(n *grid.Node) (skel.Executor, error) {
				e, err := st.execF.Executor(n)
				if e == nil || err != nil {
					return e, err
				}
				return &timedExecutor{inner: e, rec: rec}, nil
			}
		}
	}
	if ins != nil {
		cfg.Instruments = &ins.farm
		cfg.Tracer = ins.tasks
	}
	if st.farm, err = skel.NewFarm(cfg); err != nil {
		return st, err
	}
	st.in = make(chan *skel.Task, 1024)
	out := make(chan *skel.Task, 1024)
	st.runDone = make(chan struct{})
	st.col = newCollector(newChecker(gen), rec)
	go st.col.run(out)
	go func() {
		st.farm.Run(context.Background(), st.in, out)
		close(st.runDone)
	}()
	if err := waitFor(func() bool { return len(st.farm.Workers()) == degree }); err != nil {
		return st, fmt.Errorf("workers never came up: %w", err)
	}
	if sp.secure {
		key := make([]byte, 32)
		fill(key, gen.seed^0xae5)
		for _, w := range st.farm.Workers() {
			if err := st.farm.SetCodec(w.ID, security.MustAESGCM(key, nil, 0)); err != nil {
				return st, err
			}
		}
	}

	// The management plane: the farm's manager reports to its parent over
	// sealed wire management frames.
	fabc := abc.NewFarmABC(st.farm, st.auditor)
	st.ctl = fabc
	if rec != nil {
		st.ctl = &timedController{inner: fabc, rec: rec}
	}
	if ins != nil {
		fabc.SetActuatorHistogram(ins.actuator)
	}
	if st.child, err = manager.New(manager.Config{
		Name: "farm-am", Concern: "performance", Controller: st.ctl,
		Engine: rules.New(rules.MustParse(rules.FarmRuleSource), ruleConstants(sp.reconfig)),
		Log:    trace.NewBoundedLog(256),
	}); err != nil {
		return st, err
	}
	// Decision tracing gives every violation a causality id, which is what
	// the parent endpoint's exactly-once accounting (UniqueCauses) counts.
	st.decisions = telemetry.NewTracer(decisionDepth)
	st.child.SetTracer(st.decisions)
	if st.parent, err = manager.New(manager.Config{
		Name: "app-am", Concern: "performance", Controller: parentABC{},
		Log: trace.NewBoundedLog(256),
		Policy: manager.Policy{OnChildViolation: func(*manager.Manager, manager.Violation) {
			st.handled.Add(1)
		}},
	}); err != nil {
		return st, err
	}
	if st.endpoint, err = manager.NewParentEndpoint(manager.ParentEndpointConfig{
		Parent: st.parent, Lease: time.Hour,
	}); err != nil {
		return st, err
	}
	mgmtSrv, err := st.listen(wire.ServerConfig{PSK: psk,
		Hello: wire.Hello{Name: "parent", Domain: "home", Trusted: true, Cores: 1, Speed: 1},
		Mgmt:  st.endpoint.Handle})
	if err != nil {
		return st, err
	}
	if st.mgmtF, err = wire.NewFactory(psk, 5*time.Second); err != nil {
		return st, err
	}
	addr := mgmtSrv.Addr()
	var transport manager.MgmtTransport = func(req []byte) ([]byte, error) { return st.mgmtF.Mgmt(addr, req) }
	if rec != nil {
		transport = timedTransport(transport, rec)
	}
	// An hour-long heartbeat keeps the lease loop silent once attached: the
	// only exchanges in the timed phases are the cycles' violation reports.
	if st.link, err = manager.NewRemoteLink(manager.RemoteLinkConfig{
		Child: st.child, Transport: transport, Heartbeat: time.Hour, KeepContract: true,
	}); err != nil {
		return st, err
	}
	st.link.Start()
	if err := waitFor(func() bool { return st.link.State() == manager.LinkUp }); err != nil {
		return st, fmt.Errorf("management link never attached: %w", err)
	}
	return st, nil
}

func (st *stack) listen(cfg wire.ServerConfig) (*wire.Server, error) {
	srv, err := wire.NewServer(cfg)
	if err != nil {
		return nil, err
	}
	st.servers = append(st.servers, srv)
	return srv, srv.Listen("127.0.0.1:0")
}

// waitFor polls cond until it holds. Set-up steps finish in microseconds
// to milliseconds, so it polls with pause, not time.Sleep, whose
// granularity would dominate setup_s; and it does not spin, which would
// keep the network poller from waking the goroutines it waits for.
func waitFor(cond func() bool) error {
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("timed out")
		}
		pause(20 * time.Microsecond)
	}
	return nil
}

// send hands the next task to the farm.
func (st *stack) send(created time.Time) {
	st.sent++
	t := &skel.Task{ID: st.sent, Payload: st.gen.payload(st.sent), Created: created}
	if st.rec == nil {
		st.in <- t
		return
	}
	start := time.Now()
	st.in <- t
	st.rec.add("gen.send", t.ID, st.rec.next(), 0, start, time.Now())
}

// close ends the input stream, waits for the farm to drain and releases
// every connection and goroutine the stack started. Safe on a partially
// built stack.
func (st *stack) close() {
	if st.in != nil {
		close(st.in)
		<-st.runDone
		<-st.col.finished
	}
	if st.link != nil {
		st.link.Stop()
	}
	if st.mgmtF != nil {
		st.mgmtF.CloseControls()
	}
	for _, s := range st.servers {
		_ = s.Close()
	}
}

// cycle drives one child MAPE cycle, restores the degree on the
// reconfiguring workload, and lets the parent drain its violation queue.
// It checks the schedule after each step and returns the child's RunOnce
// wall time.
func (st *stack) cycle(n uint64) (time.Duration, error) {
	var rootSeq, runSeq uint64
	if st.rec != nil {
		rootStart := time.Now()
		rootSeq, runSeq = st.rec.next(), st.rec.next()
		st.rec.cycle.Store(n)
		st.rec.open.Store(runSeq)
		defer func() {
			st.rec.add("cycle", n, rootSeq, 0, rootStart, time.Now())
			st.rec.open.Store(0)
		}()
	}
	escBefore, handledBefore := st.child.Escalations(), st.handled.Load()

	start := time.Now()
	err := st.child.RunOnce()
	dur := time.Since(start)
	if st.rec != nil {
		st.rec.add("manager.runonce", n, runSeq, rootSeq, start, start.Add(dur))
		st.rec.open.Store(rootSeq)
	}
	if err != nil {
		return dur, err
	}
	want := degree
	if st.spec.reconfig {
		want = degree - 1
	}
	if got := st.farm.Stats().Workers; got != want {
		return dur, fmt.Errorf("cycle %d: degree %d after the rules, want %d", n, got, want)
	}
	if st.spec.reconfig {
		if _, err := st.ctl.Execute(rules.OpAddExecutor); err != nil {
			return dur, fmt.Errorf("cycle %d: restore: %w", n, err)
		}
		if got := st.farm.Stats().Workers; got != degree {
			return dur, fmt.Errorf("cycle %d: degree %d after restore, want %d", n, got, degree)
		}
	}
	pstart := time.Now()
	err = st.parent.RunOnce()
	if st.rec != nil {
		st.rec.add("manager.parent_runonce", n, st.rec.next(), rootSeq, pstart, time.Now())
	}
	if err != nil {
		return dur, err
	}
	if esc, handled := st.child.Escalations()-escBefore, st.handled.Load()-handledBefore; esc != 1 || handled != 1 {
		return dur, fmt.Errorf("cycle %d: %d escalations and %d handled by the parent, want 1 and 1", n, esc, handled)
	}
	return dur, nil
}

// collector is the generator's collecting goroutine: it checks every
// result, records open-loop latencies and lets the generator wait for a
// given number of results.
type collector struct {
	chk *checker
	rec *recorder

	// olFirst and olLast delimit the ids of the timed open-loop tasks,
	// whose latencies the collector records (none while olFirst is 0).
	olFirst, olLast atomic.Uint64

	mu        sync.Mutex
	cond      *sync.Cond
	n         uint64 // results collected
	target    uint64
	reachedAt time.Time       // when n reached target
	lat       []time.Duration // open-loop latencies

	finished chan struct{}
}

func newCollector(chk *checker, rec *recorder) *collector {
	c := &collector{chk: chk, rec: rec, finished: make(chan struct{})}
	c.cond = sync.NewCond(&c.mu)
	return c
}

func (c *collector) run(out <-chan *skel.Task) {
	defer close(c.finished)
	for t := range out {
		start := time.Now()
		c.chk.result(t.ID, t.Payload)
		now := time.Now()
		if c.rec != nil {
			c.rec.add("gen.receive", t.ID, c.rec.next(), 0, start, now)
		}
		first, last := c.olFirst.Load(), c.olLast.Load()
		c.mu.Lock()
		if first != 0 && t.ID >= first && t.ID <= last {
			c.lat = append(c.lat, now.Sub(t.Created))
		}
		c.n++
		if c.n == c.target {
			c.reachedAt = now
			c.cond.Broadcast()
		}
		c.mu.Unlock()
	}
}

// expect sets the result count the next wait blocks for. Call it before
// sending the tasks that reach it, so reachedAt is the collection time of
// the last of them.
func (c *collector) expect(n uint64) {
	c.mu.Lock()
	c.target = n
	c.mu.Unlock()
}

// wait blocks until the expected count has been collected and returns when
// the last result arrived.
func (c *collector) wait() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.n < c.target {
		c.cond.Wait()
	}
	return c.reachedAt
}
