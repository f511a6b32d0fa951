package experiments

import (
	"context"
	"fmt"
	"io"
	gort "runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chaos"
	"repro/internal/contract"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/manager"
	"repro/internal/metrics"
	"repro/internal/rules"
	"repro/internal/skel"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// ChaosOptions parameterizes the chaos soak on top of the shared Options.
type ChaosOptions struct {
	// Seed drives the deterministic fault plan (default 1).
	Seed int64
	// Storms is the number of fault bursts (default 3).
	Storms int
	// MaxRecover bounds the post-storm recovery wait in modelled time
	// (default 60s); exceeding it marks the storm unrecovered, an
	// invariant violation.
	MaxRecover time.Duration
	// Remote runs the soak with a live cross-process dispatch plane:
	// RemoteWorkers in-process workerd servers on localhost join the
	// untrusted domain's pool, the fault plan extends to the remote-link
	// taxonomy (drop, delay, partition on the framed connections), and the
	// soak invariants additionally cover recovery from severed links —
	// stranded envelopes re-dispatched, replacement recruitment re-dialing.
	Remote bool
	// RemoteWorkers is the number of workerd endpoints (default 2).
	RemoteWorkers int
	// Batch > 1 runs the soak with the farm's batched dispatch hot path
	// (DispatchBatch). The invariants are identical — exactly-once, zero
	// leaks, recovery — only the envelope granularity changes; the summary
	// gains a batch marker so batched goldens never collide with unbatched
	// ones.
	Batch int
	// ManagerLinks runs the soak with a remote management plane: a
	// sentinel child manager whose contract is permanently violated
	// reports to the root manager over a manager.RemoteLink, the fault
	// plan extends to the manager-link taxonomy (partition, drop), and
	// the soak invariants additionally assert that no violation raised
	// during a partition goes permanently unnoticed (buffer drained,
	// catch-up ran) and that each one reached the parent exactly once.
	ManagerLinks bool
}

func (c ChaosOptions) normalized() ChaosOptions {
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Storms <= 0 {
		c.Storms = 3
	}
	if c.MaxRecover <= 0 {
		c.MaxRecover = 60 * time.Second
	}
	if c.RemoteWorkers <= 0 {
		c.RemoteWorkers = 2
	}
	return c
}

// ChaosSummary is the deterministic digest of one soak run: it contains
// only seed-derived values (the plan) and invariant verdicts, never
// wall-clock measurements or runtime-dependent counts, so two runs with
// the same seed must render it byte-identically.
type ChaosSummary struct {
	Seed        int64
	Fingerprint string
	Tasks       int
	Storms      int
	// Remote records that the plan covered the remote-link taxonomy; it
	// widens the canonical "plan:" line, so a remote golden never collides
	// with a loopback one.
	Remote bool
	// Batch records the DispatchBatch the soak ran with (0/1 = off). When
	// on it marks the canonical header line, so a batched golden never
	// collides with an unbatched one — and an unbatched summary renders
	// byte-identically to the pre-batching format.
	Batch int
	// ManagerLinks records that the plan covered the manager-link
	// taxonomy; it widens the plan and invariant lines, so a manager-link
	// golden never collides with any other.
	ManagerLinks bool
	ByKind       map[chaos.Kind]int

	Lost          int
	Duplicates    int
	Leaks         uint64
	Unrecovered   int
	GoroutineLeak bool
	MTTRSampled   bool
	// ManagerHealed: at least one management loop was killed and
	// supervised back to life (restart count and manager-MTTR histogram
	// both non-zero). Every plan schedules manager faults, so a run that
	// never restarts a manager means the self-healing plane is not wired.
	ManagerHealed bool
	// ReissueBounded: the GM never re-issued more two-phase intents than
	// it aborted — the at-most-once guarantee of the abort/reissue path.
	ReissueBounded bool
	// LinkCaughtUp (manager-link runs): the link partitioned and
	// reattached at least once, catch-up cycles ran, and the sentinel's
	// violation buffer drained — no violation went permanently unnoticed
	// because its manager was partitioned.
	LinkCaughtUp bool
	// LinkExactlyOnce (manager-link runs): every violation the parent
	// endpoint accepted carried a distinct causality id — a reattach
	// flush racing a live delivery never double-applied a cause.
	LinkExactlyOnce bool
}

// String renders the summary in a canonical byte-stable form.
func (s ChaosSummary) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "chaos seed=%d fingerprint=%s tasks=%d storms=%d",
		s.Seed, s.Fingerprint, s.Tasks, s.Storms)
	if s.Batch > 1 {
		fmt.Fprintf(&b, " batch=%d", s.Batch)
	}
	b.WriteString("\n")
	b.WriteString("plan:")
	kinds := chaos.Kinds()
	if s.Remote {
		kinds = append(kinds, chaos.RemoteKinds()...)
	}
	if s.ManagerLinks {
		kinds = append(kinds, chaos.ManagerLinkKinds()...)
	}
	for _, k := range kinds {
		fmt.Fprintf(&b, " %s=%d", k, s.ByKind[k])
	}
	b.WriteString("\n")
	fmt.Fprintf(&b, "invariants: lost=%d dups=%d leaks=%d unrecovered=%d goroutine_leak=%v mttr_sampled=%v manager_healed=%v reissue_bounded=%v",
		s.Lost, s.Duplicates, s.Leaks, s.Unrecovered, s.GoroutineLeak, s.MTTRSampled,
		s.ManagerHealed, s.ReissueBounded)
	if s.ManagerLinks {
		fmt.Fprintf(&b, " link_caught_up=%v link_exactly_once=%v", s.LinkCaughtUp, s.LinkExactlyOnce)
	}
	b.WriteString("\n")
	return b.String()
}

// Invariants returns the violated soak invariants, empty when the run was
// clean.
func (s ChaosSummary) Invariants() []string {
	var v []string
	if s.Lost != 0 {
		v = append(v, fmt.Sprintf("%d tasks lost (want exactly-once collection)", s.Lost))
	}
	if s.Duplicates != 0 {
		v = append(v, fmt.Sprintf("%d tasks collected more than once", s.Duplicates))
	}
	if s.Leaks != 0 {
		v = append(v, fmt.Sprintf("%d plaintext sends to untrusted nodes", s.Leaks))
	}
	if s.Unrecovered != 0 {
		v = append(v, fmt.Sprintf("%d storms without contract recovery", s.Unrecovered))
	}
	if s.GoroutineLeak {
		v = append(v, "goroutines leaked across the run")
	}
	if !s.MTTRSampled {
		v = append(v, "MTTR histogram is empty (no recovery was measured)")
	}
	if !s.ManagerHealed {
		v = append(v, "no management loop was restarted (self-healing not exercised)")
	}
	if !s.ReissueBounded {
		v = append(v, "GM re-issued more intents than it aborted (at-most-once broken)")
	}
	if s.ManagerLinks {
		if !s.LinkCaughtUp {
			v = append(v, "a partitioned manager's violations went unnoticed (no reattach/catch-up or buffer not drained)")
		}
		if !s.LinkExactlyOnce {
			v = append(v, "a violation crossed the manager link more than once (exactly-once broken)")
		}
	}
	return v
}

// ChaosResult is the full outcome of one soak run.
type ChaosResult struct {
	*core.Result
	Plan    chaos.Plan
	Report  chaos.Report
	Summary ChaosSummary
	MTTR    *metrics.Histogram
	// ActuatorFailures is AM_F's count of actuator operations that failed
	// after the hardened path's retries.
	ActuatorFailures uint64
	// InjectedActuator and InjectedRecruit count the faults the plane
	// actually delivered through the hooks.
	InjectedActuator uint64
	InjectedRecruit  uint64
	// InjectedManager counts delivered manager faults; ManagerRestarts the
	// supervised restarts they caused across every management loop.
	InjectedManager uint64
	ManagerRestarts uint64
	// AbortedIntents / ReissuedIntents trace the GM's two-phase abort
	// path: topology intents rolled back because the security participant
	// was down, and their re-issues after its recovery.
	AbortedIntents  uint64
	ReissuedIntents uint64
	// Tracer is the run's decision tracer, for JSONL export of the MAPE
	// decision trace (the CI artifact).
	Tracer *telemetry.Tracer
	// TaskTracer is the run's task-span tracer (rate 1, plan-seeded).
	// SpansPublished / FaultSpans are its run-dependent diagnostics: total
	// spans retired and how many carried a fault annotation (an envelope
	// caught mid-flight by an injected fault). They are deliberately NOT
	// part of the golden — timing decides which spans a storm catches.
	TaskTracer     *telemetry.TaskTracer
	SpansPublished uint64
	FaultSpans     uint64
	// FarmErrors are the asynchronous farm errors drained after the run
	// (dropped tasks, codec failures) — the first place to look when the
	// exactly-once invariant is violated.
	FarmErrors []string
	// RemoteStats snapshots the wire factory's transport counters after a
	// remote run (zero value on loopback runs): dials count the initial
	// recruitments plus every re-dial after an injected drop.
	RemoteStats wire.StatsSnapshot
	// Manager-link diagnostics (zero on runs without ManagerLinks):
	// run-dependent counters of the remote management plane — timing
	// decides how many violations a partition window catches, so they
	// stay out of the golden.
	LinkReattaches    uint64
	LinkCatchUpCycles uint64
	LinkDelivered     uint64
	LinkDuplicates    uint64
	LinkBufferedDown  uint64
}

// ChaosSoak is the robustness acceptance harness: a secured two-domain
// farm app with fault tolerance attached runs a stream long enough to
// outlast a seeded chaos plan covering the whole fault taxonomy. After the
// run it checks the soak invariants — every task collected exactly once,
// zero plaintext on untrusted links, every storm recovered within bound
// (MTTR histogram non-empty), no goroutine leaks — and returns the
// deterministic summary two same-seed runs must agree on byte for byte.
func ChaosSoak(ctx context.Context, opts Options, copts ChaosOptions) (*ChaosResult, error) {
	copts = copts.normalized()
	if ctx == nil {
		ctx = context.Background()
	}
	env := opts.env()

	plan := chaos.NewPlan(copts.Seed, chaos.StormConfig{
		Storms:              copts.Storms,
		IncludeRemote:       copts.Remote,
		IncludeManagerLinks: copts.ManagerLinks,
	})

	// The stream must outlast the plan (plus recovery probes), or late
	// storms would hit an already-drained farm: warmup 10s + 40s per storm
	// (the default span+quiet) + 30s margin, all modelled.
	const interval = 250 * time.Millisecond
	planSpan := 10*time.Second + time.Duration(copts.Storms)*(40*time.Second)
	tasks := opts.Tasks
	if tasks <= 0 {
		tasks = int((planSpan+30*time.Second)/interval) + 1
	}

	con := contract.Conjunction{contract.SecureComms{}, contract.MinThroughput(1.2)}
	platform := grid.NewTwoDomainGrid(4, 12)

	// With the remote plane on, workerd endpoints join the untrusted
	// domain's pool: the security concern must seal their bindings exactly
	// as it does for simulated untrusted nodes, except the seal now crosses
	// a real localhost connection. The servers start before the goroutine
	// baseline so their accept loops do not count as a leak.
	var factory *wire.Factory
	var servers []*wire.Server
	if copts.Remote {
		psk := wire.DerivePSK("chaos-soak")
		untrusted := platform.Domains[1]
		var remoteNodes []*grid.Node
		for i := 0; i < copts.RemoteWorkers; i++ {
			srv, err := wire.NewServer(wire.ServerConfig{
				PSK: psk,
				Hello: wire.Hello{
					Name:    fmt.Sprintf("edge%d", i),
					Domain:  untrusted.Name,
					Trusted: untrusted.Trusted,
					Cores:   2,
					Speed:   1.0,
					Labels:  map[string]string{"zone": "edge"},
				},
				Clock: env.Clock,
			})
			if err != nil {
				return nil, err
			}
			if err := srv.Listen("127.0.0.1:0"); err != nil {
				return nil, err
			}
			servers = append(servers, srv)
		}
		defer func() {
			for _, srv := range servers {
				srv.Close()
			}
		}()
		f, err := wire.NewFactory(psk, 5*time.Second)
		if err != nil {
			return nil, err
		}
		factory = f
		for _, srv := range servers {
			node, err := factory.Probe(srv.Addr())
			if err != nil {
				return nil, err
			}
			remoteNodes = append(remoteNodes, node)
		}
		platform.RM = grid.NewResourceManager(append(platform.RM.Nodes(), remoteNodes...)...)
	}

	// Exactly-once accounting: the sink function sees every collected task.
	var seenMu sync.Mutex
	seen := map[uint64]int{}
	baseline := gort.NumGoroutine()

	var execFactory skel.ExecutorFactory
	if factory != nil {
		execFactory = factory.Executor
	}
	app, err := core.NewFarmApp(core.FarmAppConfig{
		Name:           "chaos",
		Executors:      execFactory,
		Env:            env,
		Platform:       platform,
		Tasks:          tasks,
		TaskWork:       2 * time.Second,
		SourceInterval: interval, // 4 tasks/s offered
		Payload:        256,
		SinkFn: func(t *skel.Task) *skel.Task {
			seenMu.Lock()
			seen[t.ID]++
			seenMu.Unlock()
			return t
		},
		ChargeLinkLatency:  true,
		InitialWorkers:     3,
		Contract:           con,
		Limits:             manager.FarmLimits{MaxWorkers: 14},
		Period:             time.Second,
		SamplePeriod:       time.Second,
		WithSecurity:       true,
		Coordination:       manager.TwoPhase,
		Handshake:          200 * time.Millisecond,
		WithFaultTolerance: true,
		FaultPeriod:        500 * time.Millisecond,
		FaultSuspectAfter:  6 * time.Second,
		ActuatorTimeout:    10 * time.Second,
		JitterSeed:         copts.Seed,
		DispatchBatch:      copts.Batch,
		// Task tracing runs at rate 1 under the soak: the sampler is seeded
		// from the plan seed, so a same-seed replay samples the same task
		// ids, and every fault the plane injects into an in-flight envelope
		// surfaces as a fault-annotated span. Spans are passive — the golden
		// (schedule + summary) stays byte-identical with tracing on.
		TraceSample: 1,
		TraceSeed:   uint64(copts.Seed),
	})
	if err != nil {
		return nil, err
	}
	if err := enableTelemetry(app, opts); err != nil {
		return nil, err
	}

	mttr := metrics.NewHistogram(metrics.ExpBuckets(0.25, 2, 10))
	app.Telemetry().AddHistogram("repro_chaos_mttr_seconds",
		"Modelled seconds from storm end to contract recovery.", nil, mttr)

	fa := app.FarmABC
	health := func() bool {
		snap := fa.Snapshot()
		return snap.StreamDone || con.Check(snap).OK()
	}

	// Management-plane victims, in fixed order so the injector's
	// round-robin selection stays a pure function of the plan: the
	// performance root (exercising checkpoint/restore), the fault-tolerance
	// loop, the two-phase security participant (a down-window, so intents
	// prepared against it abort) and the GM coordinator. Durations are
	// modelled, the time of the app clock.
	var amfCrash, amfPanic atomic.Int32
	var amfStall atomic.Int64 // pending stall, modelled ns
	app.RootManager.SetRunFault(func() manager.RunFault {
		f := manager.RunFault{Stall: time.Duration(amfStall.Swap(0))}
		switch {
		case chaos.TakeOne(&amfPanic):
			f.Panic = true
		case chaos.TakeOne(&amfCrash):
			f.Crash = true
		}
		return f
	})
	mgrs := []chaos.ManagerTarget{
		{
			Name:  app.RootManager.Name(),
			Crash: func(time.Duration) bool { amfCrash.Add(1); return true },
			Panic: func() bool { amfPanic.Add(1); return true },
			Stall: func(d time.Duration) bool { amfStall.Store(int64(d)); return true },
		},
		{
			Name:  app.Fault.Name(),
			Crash: func(time.Duration) bool { return app.Fault.InjectCrash() },
		},
		{
			Name: app.Security.Name(),
			Crash: func(w time.Duration) bool {
				if w <= 0 {
					w = 2 * time.Second
				}
				app.Security.FailFor(w)
				return true
			},
		},
		{
			Name:  app.GM.Name(),
			Crash: func(time.Duration) bool { return app.GM.InjectCrash() },
		},
	}

	var remoteTarget *chaos.RemoteTarget
	if factory != nil {
		remoteTarget = &chaos.RemoteTarget{
			Name:      "wire",
			Drop:      factory.InjectDrop,
			Delay:     factory.InjectDelay,
			Partition: factory.InjectPartition,
		}
	}

	// The remote management plane under test: a sentinel child manager
	// whose throughput contract can never be satisfied (its controller
	// reports a permanently starved snapshot), linked to the root manager
	// over a RemoteLink. Every sentinel MAPE cycle escalates a violation
	// across the link; injected partitions expire its lease, park the
	// violations in the bounded buffer, and reattach must flush them
	// exactly once and run catch-up cycles.
	var mgrLinkTarget *chaos.MgrLinkTarget
	var sentinel *manager.Manager
	var linkEp *manager.ParentEndpoint
	var mlink *manager.RemoteLink
	var sentinelStop func()
	if copts.ManagerLinks {
		sentinel, err = manager.New(manager.Config{
			Name: "AM_edge", Concern: "performance", Clock: env.Clock,
			Period: time.Second, Controller: linkSentinel{}, Log: app.Log,
			Policy: manager.Policy{
				OnVerdict: func(m *manager.Manager, v contract.Verdict, snap contract.Snapshot) {
					if !v.OK() {
						m.Escalate(rules.TagNotEnoughTasks, snap)
					}
				},
			},
		})
		if err != nil {
			return nil, err
		}
		sentinel.SetTracer(app.Tracer())
		if err := sentinel.AssignContract(contract.MinThroughput(0.5)); err != nil {
			return nil, err
		}
		linkEp, err = manager.NewParentEndpoint(manager.ParentEndpointConfig{
			Parent: app.RootManager, Lease: time.Second,
			Clock: env.Clock, Log: app.Log,
		})
		if err != nil {
			return nil, err
		}
		mlink, err = manager.NewRemoteLink(manager.RemoteLinkConfig{
			Child:     sentinel,
			Transport: func(req []byte) ([]byte, error) { return linkEp.Handle(req), nil },
			Heartbeat: 250 * time.Millisecond, Lease: time.Second,
			Clock: env.Clock, Log: app.Log, Seed: copts.Seed,
			// The sentinel manages its own edge concern: its locally
			// assigned contract must survive the parent's P_spl answer.
			KeepContract: true,
		})
		if err != nil {
			return nil, err
		}
		app.AttachManagerLink(mlink)
		app.AttachManagerEndpoint(linkEp)
		sctx, scancel := context.WithCancel(ctx)
		var swg sync.WaitGroup
		swg.Add(2)
		go func() { defer swg.Done(); _ = sentinel.Run(sctx) }()
		go func() { defer swg.Done(); _ = mlink.Run(sctx) }()
		sentinelStop = func() { scancel(); swg.Wait() }
		mgrLinkTarget = &chaos.MgrLinkTarget{
			Name:      "mgrlink",
			Partition: mlink.InjectPartition,
			Drop:      mlink.InjectDrop,
		}
	}

	inj := chaos.NewInjector(chaos.Targets{
		Farm:       fa.Farm(),
		Remote:     remoteTarget,
		Exec:       fa,
		RM:         platform.RM,
		Nodes:      platform.RM.Nodes(),
		Network:    platform.Network,
		LinkA:      platform.Domains[0].Name,
		LinkB:      platform.Domains[1].Name,
		Clock:      env.Clock,
		Log:        app.Log,
		Health:     health,
		MTTR:       mttr,
		MaxRecover: copts.MaxRecover,
		Managers:   mgrs,
		MgrLink:    mgrLinkTarget,
	})

	injCtx, cancelInj := context.WithCancel(ctx)
	var rep chaos.Report
	injDone := make(chan struct{})
	go func() {
		defer close(injDone)
		rep = inj.Run(injCtx, plan)
	}()

	res, err := app.RunContext(ctx)
	// The stream outlasts the plan by construction, so by the time the run
	// returns the injector has normally finished; cancel covers early
	// stream exits and unrecovered storms stuck in their probe loop.
	cancelInj()
	<-injDone
	inj.Close()
	if sentinelStop != nil {
		sentinelStop()
	}
	if err != nil {
		return nil, err
	}

	// Let transient goroutines (drained stages, restore timers) exit
	// before judging leaks.
	leaked := false
	for i := 0; i < 100; i++ {
		if gort.NumGoroutine() <= baseline+2 {
			break
		}
		time.Sleep(10 * time.Millisecond)
		if i == 99 {
			leaked = true
		}
	}

	seenMu.Lock()
	distinct := len(seen)
	collected := 0
	for _, n := range seen {
		collected += n
	}
	seenMu.Unlock()

	var leaks uint64
	if app.Auditor != nil {
		leaks = app.Auditor.Leaks()
	}
	var restarts uint64
	for _, s := range app.Supervisors {
		restarts += s.Restarts()
	}
	mgrMTTRSampled := app.ManagerMTTR() != nil && app.ManagerMTTR().Count() > 0
	linkCaughtUp, linkExactlyOnce := false, false
	if copts.ManagerLinks {
		linkCaughtUp = mlink.Reattaches() > 0 && sentinel.CatchUpCycles() > 0 &&
			sentinel.BufferedViolations() == 0
		linkExactlyOnce = linkEp.Delivered() > 0 && linkEp.Delivered() == linkEp.UniqueCauses()
	}
	summary := ChaosSummary{
		Seed:            copts.Seed,
		Fingerprint:     plan.Fingerprint(),
		Tasks:           tasks,
		Storms:          copts.Storms,
		Remote:          copts.Remote,
		Batch:           copts.Batch,
		ByKind:          plan.ByKind(),
		Lost:            tasks - distinct,
		Duplicates:      collected - distinct,
		Leaks:           leaks,
		Unrecovered:     rep.Unrecovered,
		GoroutineLeak:   leaked,
		MTTRSampled:     mttr.Count() > 0,
		ManagerHealed:   restarts > 0 && mgrMTTRSampled,
		ReissueBounded:  app.GM.ReissuedIntents() <= app.GM.AbortedIntents(),
		ManagerLinks:    copts.ManagerLinks,
		LinkCaughtUp:    linkCaughtUp,
		LinkExactlyOnce: linkExactlyOnce,
	}

	var farmErrs []string
drainErrs:
	for {
		select {
		case e := <-fa.Farm().Errors():
			farmErrs = append(farmErrs, e.Error())
		default:
			break drainErrs
		}
	}

	out := &ChaosResult{
		Result:           res,
		Plan:             plan,
		Report:           rep,
		Summary:          summary,
		MTTR:             mttr,
		InjectedActuator: inj.InjectedActuatorFailures(),
		InjectedRecruit:  inj.InjectedRecruitFailures(),
		InjectedManager:  inj.InjectedManagerFaults(),
		ManagerRestarts:  restarts,
		AbortedIntents:   app.GM.AbortedIntents(),
		ReissuedIntents:  app.GM.ReissuedIntents(),
		Tracer:           app.Tracer(),
		TaskTracer:       app.TaskTracer(),
		FarmErrors:       farmErrs,
	}
	if tt := app.TaskTracer(); tt != nil {
		out.SpansPublished = tt.Ring().Published()
		out.FaultSpans = tt.Ring().Faults()
	}
	if app.RootManager != nil {
		out.ActuatorFailures = app.RootManager.ActuatorFailures()
	}
	if factory != nil {
		out.RemoteStats = factory.Snapshot()
	}
	if copts.ManagerLinks {
		out.LinkReattaches = mlink.Reattaches()
		out.LinkCatchUpCycles = sentinel.CatchUpCycles()
		out.LinkDelivered = linkEp.Delivered()
		out.LinkDuplicates = linkEp.Duplicates()
		out.LinkBufferedDown = mlink.BufferedWhileDown()
	}
	if opts.Out != nil {
		writeChaos(opts.Out, out)
	}
	return out, nil
}

// Golden renders the replay-identity artifact of a soak run: the full
// fault schedule plus the canonical summary, both pure functions of the
// seed and the invariant verdicts. Two same-seed runs must produce this
// byte-identically; CI diffs it against the committed goldens.
func (r *ChaosResult) Golden() string {
	var b strings.Builder
	for _, line := range r.Plan.Schedule() {
		b.WriteString(line)
		b.WriteString("\n")
	}
	b.WriteString(r.Summary.String())
	return b.String()
}

// linkSentinel is the sentinel child's controller: a permanently starved
// snapshot, so every MAPE cycle violates the sentinel's throughput
// contract and escalates over the manager link.
type linkSentinel struct{}

func (linkSentinel) Beans() []rules.Bean            { return nil }
func (linkSentinel) Snapshot() contract.Snapshot    { return contract.Snapshot{} }
func (linkSentinel) Execute(string) (string, error) { return "", nil }

// writeChaos renders the soak outcome.
func writeChaos(w io.Writer, r *ChaosResult) {
	fmt.Fprintf(w, "== chaos soak ==\n")
	for _, line := range r.Plan.Schedule() {
		fmt.Fprintf(w, "  %s\n", line)
	}
	fmt.Fprint(w, r.Summary)
	kinds := chaos.Kinds()
	if r.Summary.Remote {
		kinds = append(kinds, chaos.RemoteKinds()...)
	}
	if r.Summary.ManagerLinks {
		kinds = append(kinds, chaos.ManagerLinkKinds()...)
	}
	applied := make([]string, 0, len(r.Report.Applied))
	for _, k := range kinds {
		if n := r.Report.Applied[k]; n > 0 {
			applied = append(applied, fmt.Sprintf("%s=%d", k, n))
		}
	}
	sort.Strings(applied)
	fmt.Fprintf(w, "applied: %s\n", strings.Join(applied, " "))
	// Run-dependent diagnostics: unlike the schedule and the summary above,
	// these counts depend on what the live system was doing inside each
	// fault window and may differ between same-seed runs.
	fmt.Fprintf(w, "diagnostics: completed=%d recovered=%d/%d mttr_samples=%d actuator_failures=%d injected: act=%d recruit=%d mgr=%d\n",
		r.Completed, r.Report.Recovered, r.Report.Storms, r.MTTR.Count(),
		r.ActuatorFailures, r.InjectedActuator, r.InjectedRecruit, r.InjectedManager)
	fmt.Fprintf(w, "self-healing: restarts=%d intents aborted=%d reissued=%d\n",
		r.ManagerRestarts, r.AbortedIntents, r.ReissuedIntents)
	fmt.Fprintf(w, "tracing: spans=%d fault_spans=%d\n", r.SpansPublished, r.FaultSpans)
	if r.Summary.Remote {
		fmt.Fprintf(w, "remote link: dials=%d execs=%d rekeys=%d frames=%d drops=%d\n",
			r.RemoteStats.Dials, r.RemoteStats.Execs, r.RemoteStats.Rekeys,
			r.RemoteStats.FramesOut, r.RemoteStats.Drops)
	}
	if r.Summary.ManagerLinks {
		fmt.Fprintf(w, "manager link: reattaches=%d catchup=%d delivered=%d dup_suppressed=%d buffered_down=%d\n",
			r.LinkReattaches, r.LinkCatchUpCycles, r.LinkDelivered,
			r.LinkDuplicates, r.LinkBufferedDown)
	}
	for _, e := range r.FarmErrors {
		fmt.Fprintf(w, "farm error: %s\n", e)
	}
	if v := r.Summary.Invariants(); len(v) > 0 {
		for _, line := range v {
			fmt.Fprintf(w, "VIOLATION: %s\n", line)
		}
	} else {
		fmt.Fprintf(w, "all soak invariants hold\n")
	}
}
