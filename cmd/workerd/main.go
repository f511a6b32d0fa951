// Command workerd is the remote end of the cross-process dispatch plane:
// a standalone worker daemon serving the framed TCP protocol of
// internal/wire. On every connection it advertises its identity — node
// name, trust domain, capacity, free-form placement labels — sealed under
// the link's pre-shared master key, then executes sealed task envelopes:
// binding codecs arrive in rekey frames (key material never crosses in
// clear), payloads are opened with the epoch codec they were sealed under,
// the modelled work is slept on a clock -scale times faster than the wall
// clock (-scale 0 sleeps none), and the result returns under the
// same seal. Unauthenticated or malformed frames cut the connection:
// fail-secure, never fail-open.
//
// Usage:
//
//	workerd -psk SECRET [-listen ADDR] [-name N] [-domain D] [-trusted]
//	        [-cores N] [-speed F] [-labels k=v,k=v] [-scale N]
//	        [-timeout D] [-telemetry ADDR] [-trace-spans=BOOL]
//	        [-parent ADDR] [-catchup skip|latest|all]
//
// -parent ADDR joins the remote management plane: a local manager
// monitoring this workerd's served-exec rate reports violations to the
// coordinator's -mgmt endpoint over a lease-based RemoteLink (sealed
// management frames on the same wire protocol). While the coordinator is
// unreachable the link degrades up → suspect → partitioned, violations
// park in a bounded buffer, and after the partition heals they flush
// exactly once; -catchup picks how many blind MAPE cycles to make up
// (skip none, latest one, all of them bounded).
//
// The daemon runs until SIGINT/SIGTERM (graceful: in-flight execs finish,
// listener closes) or until -timeout expires. -telemetry serves /metrics
// with the served/rejected frame counters plus the per-frame dispatch and
// seal latency histograms, and /spans with the workerd-side task spans.
// With -trace-spans (on by default) the daemon joins cluster-wide task
// tracing: exec frames whose trace context carries the coordinator's
// sampled bit get a workerd-side span under the same trace id, and the
// coordinator scrapes them (with the stage histograms) over the wire's
// sealed stats frame into its /cluster view.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"repro/cmd/internal/flags"
	"repro/internal/contract"
	"repro/internal/manager"
	"repro/internal/metrics"
	"repro/internal/rules"
	"repro/internal/simclock"
	"repro/internal/skel"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/wire"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:7070", "address to serve the framed dispatch protocol on")
	psk := flag.String("psk", "", "shared link secret; must match the coordinator's (required)")
	name := flag.String("name", "workerd0", "node name advertised in the handshake")
	domain := flag.String("domain", "edge.remote", "trust domain advertised in the handshake")
	trusted := flag.Bool("trusted", false, "advertise the domain as trusted (default: untrusted, so bindings are sealed)")
	cores := flag.Int("cores", 2, "core slots advertised in the handshake")
	speed := flag.Float64("speed", 1.0, "relative core speed advertised in the handshake")
	labels := flag.String("labels", "", "comma-separated k=v placement labels advertised in the handshake")
	scale := flag.Float64("scale", 200, "time scale: modelled seconds of exec-frame work slept per wall-clock second (0 = sleep no work)")
	traceSpans := flag.Bool("trace-spans", true, "record a workerd-side span for exec frames the coordinator sampled")
	parent := flag.String("parent", "", "coordinator management-plane address (-mgmt): run a local manager reporting over a RemoteLink")
	catchup := flag.String("catchup", "latest", "downtime catch-up policy after a partition heals: skip, latest or all")
	timeout := flags.RegisterTimeout()
	telemetryAddr := flags.RegisterTelemetry()
	flag.Parse()

	if *psk == "" {
		fmt.Fprintln(os.Stderr, "workerd: -psk is required")
		os.Exit(1)
	}
	labelMap, err := flags.ParseLabels(*labels)
	if err != nil {
		fmt.Fprintln(os.Stderr, "workerd:", err)
		os.Exit(1)
	}

	farmIns := &skel.FarmInstruments{
		Dispatch: metrics.NewLatencyHistogram(),
		Seal:     metrics.NewLatencyHistogram(),
	}
	var tracer *telemetry.TaskTracer
	if *traceSpans {
		// Rate 1: the sampling decision is the coordinator's (the sampled
		// bit in each frame's trace context); the workerd tracer only
		// records what arrives already sampled.
		tracer = telemetry.NewTaskTracer(0, 1, 0)
	}
	var work simclock.Clock // nil: -scale 0 sleeps no work
	if *scale > 0 {
		work = simclock.NewScaledReal(*scale)
	}
	nodeName := *name
	srv, err := wire.NewServer(wire.ServerConfig{
		PSK: wire.DerivePSK(*psk),
		Hello: wire.Hello{
			Name:    *name,
			Domain:  *domain,
			Trusted: *trusted,
			Cores:   *cores,
			Speed:   *speed,
			Labels:  labelMap,
		},
		Clock:       work,
		Log:         log.New(os.Stderr, "workerd: ", log.LstdFlags),
		Instruments: farmIns,
		Tracer:      tracer,
		Stats: func() []byte {
			b, err := telemetry.BuildNodeReport(nodeName, tracer, 256).Encode()
			if err != nil {
				return []byte("{}")
			}
			return b
		},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "workerd:", err)
		os.Exit(1)
	}
	if err := srv.Listen(*listen); err != nil {
		fmt.Fprintln(os.Stderr, "workerd:", err)
		os.Exit(1)
	}
	fmt.Printf("workerd %s: serving on %s (domain %s, %d cores, labels %s)\n",
		*name, srv.Addr(), *domain, *cores, *labels)

	ctx, cancel := flags.Context(*timeout)
	defer cancel()

	// Remote management plane: a local manager monitoring this workerd's
	// served-exec rate reports to the coordinator's parent endpoint over a
	// RemoteLink. Violations raised while the coordinator is unreachable
	// park in the bounded buffer and flush exactly once after reattach;
	// the -catchup policy sizes the extra MAPE cycles run to make up for
	// the blind window. A freshly restarted workerd sees the parent's old
	// acknowledgement watermark and runs catch-up on its first attach.
	var mgmtLink *manager.RemoteLink
	var mgmtMgr *manager.Manager
	if *parent != "" {
		pol, err := manager.ParseCatchUpPolicy(*catchup)
		if err != nil {
			fmt.Fprintln(os.Stderr, "workerd:", err)
			os.Exit(1)
		}
		mgmtLog := trace.NewLog()
		mgmtMgr, err = manager.New(manager.Config{
			Name: "AM_" + *name, Concern: "performance",
			Clock: &simclock.Real{}, Period: time.Second,
			Controller: &servedRate{srv: srv, clock: &simclock.Real{}},
			Log:        mgmtLog,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "workerd:", err)
			os.Exit(1)
		}
		fac, err := wire.NewFactory(wire.DerivePSK(*psk), 10*time.Second)
		if err != nil {
			fmt.Fprintln(os.Stderr, "workerd:", err)
			os.Exit(1)
		}
		defer fac.CloseControls()
		addr := *parent
		mgmtLink, err = manager.NewRemoteLink(manager.RemoteLinkConfig{
			Child:  mgmtMgr,
			Policy: pol,
			Transport: func(req []byte) ([]byte, error) {
				return fac.Mgmt(addr, req)
			},
			Heartbeat: 500 * time.Millisecond, Lease: 2 * time.Second,
			Clock: &simclock.Real{}, Log: mgmtLog,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "workerd:", err)
			os.Exit(1)
		}
		go func() { _ = mgmtMgr.Run(ctx) }()
		go func() { _ = mgmtLink.Run(ctx) }()
		fmt.Printf("workerd %s: management link to %s (catch-up policy %s)\n", *name, addr, pol)
	}

	if *telemetryAddr != "" {
		reg := telemetry.NewRegistry()
		reg.AddCounter("repro_workerd_served_total",
			"Exec frames served by this workerd.", nil,
			func() float64 { return float64(srv.Served()) })
		reg.AddCounter("repro_workerd_rejected_total",
			"Connections cut after unauthenticated or malformed frames.", nil,
			func() float64 { return float64(srv.Rejected()) })
		reg.AddHistogram("repro_farm_dispatch_seconds",
			"Whole-frame handling latency per exec frame (decode, work, seal, reply).",
			nil, farmIns.Dispatch)
		reg.AddHistogram("repro_farm_seal_seconds",
			"Result encode share of the frame path.", nil, farmIns.Seal)
		reg.SetTaskTracer(tracer) // no-op when -trace-spans=false
		if mgmtLink != nil {
			l, m := mgmtLink, mgmtMgr
			lbl := telemetry.Labels{"manager": m.Name()}
			reg.AddGauge("repro_manager_link_state",
				"Manager-link failure-detection state: 0 up, 1 suspect, 2 partitioned, 3 reattached.",
				lbl, func() float64 { return float64(l.State()) })
			reg.AddCounter("repro_manager_link_reattach_total",
				"Times the manager link re-established after a partition.",
				lbl, func() float64 { return float64(l.Reattaches()) })
			reg.AddCounter("repro_manager_catchup_cycles_total",
				"Downtime catch-up MAPE cycles run after link reattach.",
				lbl, func() float64 { return float64(m.CatchUpCycles()) })
			reg.AddGauge("repro_manager_buffered_violations",
				"Violations parked in the bounded buffer while the parent is unreachable.",
				lbl, func() float64 { return float64(m.BufferedViolations()) })
		}
		tsrv := telemetry.NewServer(*telemetryAddr, reg)
		if err := tsrv.Listen(); err != nil {
			fmt.Fprintln(os.Stderr, "workerd:", err)
			os.Exit(1)
		}
		fmt.Printf("workerd %s: telemetry on %s\n", *name, tsrv.Addr())
		go func() { _ = tsrv.Run(ctx) }()
	}

	<-ctx.Done()
	srv.Close()
	fmt.Printf("workerd %s: served %d execs, rejected %d peers\n",
		*name, srv.Served(), srv.Rejected())
	if mgmtLink != nil {
		fmt.Printf("workerd %s: mgmt link state=%s reattaches=%d catch-up cycles=%d buffered=%d\n",
			*name, mgmtLink.State(), mgmtLink.Reattaches(),
			mgmtMgr.CatchUpCycles(), mgmtMgr.BufferedViolations())
	}
}

// servedRate adapts the wire server's served-exec counter into the
// contract snapshot a local manager monitors: throughput is the exec rate
// since the previous MAPE cycle, in execs per wall-clock second.
type servedRate struct {
	srv   *wire.Server
	clock simclock.Clock
	last  uint64
	lastT time.Time
}

func (c *servedRate) Beans() []rules.Bean { return nil }

func (c *servedRate) Snapshot() contract.Snapshot {
	now := c.clock.Now()
	served := c.srv.Served()
	var rate float64
	if !c.lastT.IsZero() {
		if dt := now.Sub(c.lastT).Seconds(); dt > 0 {
			rate = float64(served-c.last) / dt
		}
	}
	c.last, c.lastT = served, now
	return contract.Snapshot{Throughput: rate}
}

func (c *servedRate) Execute(op string) (string, error) { return "", nil }
