package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/contract"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/manager"
	"repro/internal/skel"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// DispatchOptions parameterizes a coordinator run over live workerd
// endpoints: the cross-process counterpart of the simulated two-domain
// experiments. The coordinator probes every address, registers the
// advertised nodes with the resource manager next to its own trusted local
// cores, and runs the standard secured, fault-tolerant farm app — remote
// capacity is recruited, sealed, rekeyed and recovered through exactly the
// same management plane as simulated capacity.
type DispatchOptions struct {
	// Workers are the workerd dial addresses (at least one).
	Workers []string
	// PSK is the shared link secret; both ends derive the 32-byte master
	// key from it (wire.DerivePSK).
	PSK string
	// Tasks is the stream length (default 200); TaskWork the modelled
	// per-task service time (default 2s).
	Tasks    int
	TaskWork time.Duration
	// LocalCores sizes the coordinator's own trusted pool (default 2).
	// The farm starts on local cores and grows onto the workerd nodes when
	// the contract demands it.
	LocalCores int
	// Selector constrains the unified dispatch decision path: label
	// requirements, trusted-only, or the Local escape hatch that pins every
	// task to in-process workers even while remote nodes are registered.
	Selector skel.Selector
	// TraceSample > 0 turns on task tracing at one span per TraceSample
	// tasks (1 = every task), seeds the deterministic sampler with
	// TraceSeed, and installs the /cluster aggregation endpoint that
	// scrapes every workerd's tracing state over the control plane.
	TraceSample uint64
	TraceSeed   uint64
	// MgmtListen, when set, hosts the remote management plane: a
	// manager.ParentEndpoint over the app's root manager served on this
	// address behind a wire.Server (":0" for an ephemeral port). Remote
	// child managers — workerds started with -parent — report violations,
	// receive P_spl sub-contracts and run two-phase prepares against it
	// over sealed management frames.
	MgmtListen string
}

func (d DispatchOptions) normalized() (DispatchOptions, error) {
	if len(d.Workers) == 0 {
		return d, fmt.Errorf("experiments: dispatch needs at least one workerd address")
	}
	if d.PSK == "" {
		return d, fmt.Errorf("experiments: dispatch needs a link PSK")
	}
	if d.Tasks <= 0 {
		d.Tasks = 200
	}
	if d.TaskWork <= 0 {
		d.TaskWork = 2 * time.Second
	}
	if d.LocalCores <= 0 {
		d.LocalCores = 2
	}
	return d, nil
}

// DispatchResult is the outcome of one coordinator run.
type DispatchResult struct {
	*core.Result
	// Nodes are the workerd advertisements that joined the pool.
	Nodes []*grid.Node
	// RemoteStats snapshots the transport counters: proof that tasks
	// crossed the wire (Execs — exec round trips, one per frame, so a
	// batch counts once) sealed under shipped bindings (Rekeys).
	RemoteStats wire.StatsSnapshot
	// RemoteWorkers is the farm's remote-worker count at end of run.
	RemoteWorkers int
	// SecurityTotal / SecuritySecured / SecurityLeaks are the auditor's
	// verdict: Leaks must be zero — no plaintext send on a binding the
	// policy requires sealed, local or remote.
	SecurityTotal   uint64
	SecuritySecured uint64
	SecurityLeaks   uint64
	// Tracer exposes the MAPE decision trace for JSONL export.
	Tracer *telemetry.Tracer
	// TaskTracer exposes the task-span plane (nil unless TraceSample > 0);
	// Cluster is the end-of-run merged cluster report, the same view
	// /cluster serves live.
	TaskTracer *telemetry.TaskTracer
	Cluster    *telemetry.ClusterReport
	// MgmtAddr is the bound management-plane address (empty unless
	// MgmtListen was set); MgmtDelivered / MgmtDuplicates the endpoint's
	// exactly-once counters at end of run.
	MgmtAddr       string
	MgmtDelivered  uint64
	MgmtDuplicates uint64
}

// RemoteFarm runs the coordinator side of the cross-process dispatch
// plane: probe the workerd fleet, assemble a platform whose resource pool
// mixes local trusted cores with the advertised remote nodes (public links
// between the coordinator's domain and each remote trust domain), and run
// the secured two-phase farm app over it. Placement goes through the
// unified dispatch decision path under opts.Selector.
func RemoteFarm(ctx context.Context, opts Options, dopts DispatchOptions) (*DispatchResult, error) {
	dopts, err := dopts.normalized()
	if err != nil {
		return nil, err
	}
	if ctx == nil {
		ctx = context.Background()
	}
	env := opts.env()

	factory, err := wire.NewFactory(wire.DerivePSK(dopts.PSK), 10*time.Second)
	if err != nil {
		return nil, err
	}

	local := grid.Domain{Name: "coordinator.local", Trusted: true}
	nw := grid.NewNetwork()
	nw.SetLink(local.Name, local.Name, grid.Link{Private: true})
	var nodes []*grid.Node
	for i := 0; i < dopts.LocalCores; i++ {
		nodes = append(nodes, grid.NewNode(fmt.Sprintf("c%02d", i), local, 1, 1.0))
	}
	domains := []grid.Domain{local}
	seen := map[string]bool{local.Name: true}
	var remotes []*grid.Node
	for _, addr := range dopts.Workers {
		node, err := factory.Probe(addr)
		if err != nil {
			return nil, fmt.Errorf("experiments: probing workerd %s: %w", addr, err)
		}
		if !seen[node.Domain.Name] {
			seen[node.Domain.Name] = true
			domains = append(domains, node.Domain)
			// The coordinator reaches every remote trust domain over a
			// public link: the security policy will demand sealing unless
			// the workerd advertised a trusted domain AND the link were
			// private, which a real TCP hop never is.
			nw.SetLink(local.Name, node.Domain.Name, grid.Link{Latency: 2 * time.Millisecond})
		}
		nodes = append(nodes, node)
		remotes = append(remotes, node)
	}
	platform := &grid.Platform{
		Domains: domains,
		Network: nw,
		RM:      grid.NewResourceManager(nodes...),
	}

	maxWorkers := 0
	for _, n := range nodes {
		maxWorkers += n.Cores
	}
	app, err := core.NewFarmApp(core.FarmAppConfig{
		Name:               "dispatch",
		Env:                env,
		Platform:           platform,
		Tasks:              dopts.Tasks,
		TaskWork:           dopts.TaskWork,
		SourceInterval:     250 * time.Millisecond,
		Payload:            256,
		ChargeLinkLatency:  true,
		InitialWorkers:     dopts.LocalCores,
		Contract:           contract.Conjunction{contract.SecureComms{}, contract.MinThroughput(1.2)},
		Limits:             manager.FarmLimits{MaxWorkers: maxWorkers},
		Period:             time.Second,
		SamplePeriod:       time.Second,
		WithSecurity:       true,
		Coordination:       manager.TwoPhase,
		Handshake:          200 * time.Millisecond,
		WithFaultTolerance: true,
		FaultPeriod:        500 * time.Millisecond,
		Executors:          factory.Executor,
		Selector:           dopts.Selector,
		TraceSample:        dopts.TraceSample,
		TraceSeed:          dopts.TraceSeed,
	})
	if err != nil {
		return nil, err
	}
	var cluster func() telemetry.ClusterReport
	if dopts.TraceSample > 0 {
		// The /cluster view: the coordinator's own node report merged with
		// every workerd's, scraped over the wire control plane (a sealed
		// stats frame per node, not an HTTP fan-out). Best-effort: an
		// unreachable workerd becomes an Errors entry, not a failed page.
		addrs := append([]string(nil), dopts.Workers...)
		cluster = func() telemetry.ClusterReport {
			reports := []telemetry.NodeReport{
				telemetry.BuildNodeReport("coordinator", app.TaskTracer(), 256),
			}
			var errs []string
			for _, addr := range addrs {
				raw, err := factory.Scrape(addr)
				if err != nil {
					errs = append(errs, fmt.Sprintf("scrape %s: %v", addr, err))
					continue
				}
				rep, err := telemetry.ParseNodeReport(raw)
				if err != nil {
					errs = append(errs, fmt.Sprintf("scrape %s: %v", addr, err))
					continue
				}
				reports = append(reports, rep)
			}
			merged := telemetry.MergeReports(reports...)
			merged.Errors = append(merged.Errors, errs...)
			return merged
		}
		app.Telemetry().SetClusterFunc(cluster)
		defer factory.CloseControls()
	}
	var mgmtEp *manager.ParentEndpoint
	var mgmtSrv *wire.Server
	if dopts.MgmtListen != "" {
		mgmtEp, err = manager.NewParentEndpoint(manager.ParentEndpointConfig{
			Parent: app.RootManager, Security: app.Security,
			Clock: env.Clock, Log: app.Log,
		})
		if err != nil {
			return nil, err
		}
		app.AttachManagerEndpoint(mgmtEp)
		mgmtSrv, err = wire.NewServer(wire.ServerConfig{
			PSK: wire.DerivePSK(dopts.PSK),
			Hello: wire.Hello{
				Name: "coordinator", Domain: local.Name, Trusted: true,
				Cores: dopts.LocalCores, Speed: 1,
			},
			Mgmt: mgmtEp.Handle,
		})
		if err != nil {
			return nil, err
		}
		if err := mgmtSrv.Listen(dopts.MgmtListen); err != nil {
			return nil, fmt.Errorf("experiments: management plane: %w", err)
		}
		defer mgmtSrv.Close()
	}
	if err := enableTelemetry(app, opts); err != nil {
		return nil, err
	}

	// Sample the remote-worker gauge while the farm is live: at end of run
	// the workers have drained away, so the peak is the evidence that
	// placement actually crossed the process boundary.
	stop := make(chan struct{})
	peakCh := make(chan int, 1)
	go func() {
		peak := 0
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				peakCh <- peak
				return
			case <-tick.C:
				if n := app.FarmABC.Farm().Stats().RemoteWorkers; n > peak {
					peak = n
				}
			}
		}
	}()

	res, err := app.RunContext(ctx)
	close(stop)
	remoteWorkers := <-peakCh
	if err != nil {
		return nil, err
	}

	out := &DispatchResult{
		Result:        res,
		Nodes:         remotes,
		RemoteStats:   factory.Snapshot(),
		RemoteWorkers: remoteWorkers,
		Tracer:        app.Tracer(),
		TaskTracer:    app.TaskTracer(),
	}
	if cluster != nil {
		rep := cluster()
		out.Cluster = &rep
	}
	if mgmtSrv != nil {
		out.MgmtAddr = mgmtSrv.Addr()
		out.MgmtDelivered = mgmtEp.Delivered()
		out.MgmtDuplicates = mgmtEp.Duplicates()
	}
	if app.Auditor != nil {
		out.SecurityTotal = app.Auditor.Total()
		out.SecuritySecured = app.Auditor.Secured()
		out.SecurityLeaks = app.Auditor.Leaks()
	}
	if opts.Out != nil {
		writeDispatch(opts.Out, out, dopts)
	}
	return out, nil
}

// writeDispatch renders the coordinator run outcome.
func writeDispatch(w io.Writer, r *DispatchResult, dopts DispatchOptions) {
	fmt.Fprintf(w, "== cross-process dispatch ==\n")
	for _, n := range r.Nodes {
		fmt.Fprintf(w, "workerd %s: domain=%s trusted=%v cores=%d addr=%s\n",
			n.ID, n.Domain.Name, n.Domain.Trusted, n.Cores, n.Label(wire.LabelAddr))
	}
	fmt.Fprintf(w, "completed: %d tasks (peak remote workers %d)\n", r.Completed, r.RemoteWorkers)
	fmt.Fprintf(w, "remote link: dials=%d execs=%d rekeys=%d frames=%d drops=%d\n",
		r.RemoteStats.Dials, r.RemoteStats.Execs, r.RemoteStats.Rekeys,
		r.RemoteStats.FramesOut, r.RemoteStats.Drops)
	fmt.Fprintf(w, "security: sends=%d secured=%d leaks=%d\n",
		r.SecurityTotal, r.SecuritySecured, r.SecurityLeaks)
	if r.MgmtAddr != "" {
		fmt.Fprintf(w, "management plane: addr=%s delivered=%d dup_suppressed=%d\n",
			r.MgmtAddr, r.MgmtDelivered, r.MgmtDuplicates)
	}
	if r.Cluster != nil {
		fmt.Fprintf(w, "tracing: %d node(s), %d span(s) retained\n",
			len(r.Cluster.Nodes), clusterSpanCount(r.Cluster))
		for _, stage := range telemetry.StageNames {
			if s, ok := r.Cluster.Stages[stage]; ok {
				fmt.Fprintf(w, "  stage %-10s count=%-6d p50=%.6fs p99=%.6fs\n",
					stage, s.Count, s.P50, s.P99)
			}
		}
		for _, e := range r.Cluster.Errors {
			fmt.Fprintf(w, "  scrape error: %s\n", e)
		}
	}
}

func clusterSpanCount(c *telemetry.ClusterReport) int {
	n := 0
	for _, node := range c.Nodes {
		n += len(node.Spans)
	}
	return n
}
