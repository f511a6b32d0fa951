package repro

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/contract"
	"repro/internal/experiments"
	"repro/internal/grid"
	"repro/internal/metrics"
	"repro/internal/rules"
	"repro/internal/security"
	"repro/internal/simclock"
	"repro/internal/skel"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/wire"
)

// Each evaluation artefact of the paper has a bench that regenerates it
// (go test -bench=. -benchmem). The harness benches report the figure's
// headline quantities as custom metrics; absolute wall-times depend on the
// time scale and are not comparable with the paper's testbed, but the
// shapes (who converges, what leaks) are asserted by the test suite.

const benchScale = 500

// BenchmarkFig3SingleManagerFarm regenerates Fig. 3: a single AM driving a
// task farm to a 0.6 task/s contract.
func BenchmarkFig3SingleManagerFarm(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig3(context.Background(), experiments.Options{Scale: benchScale, Tasks: 120})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Throughput.Max(), "peak-tasks/s")
		b.ReportMetric(res.Workers.Max(), "peak-workers")
		b.ReportMetric(float64(res.Log.Count("AM_F", trace.AddWorker)), "addWorker-events")
	}
}

// BenchmarkFig4HierarchicalPipeline regenerates Fig. 4: the four-manager
// hierarchy on the three-stage pipeline under the 0.3-0.7 contract.
func BenchmarkFig4HierarchicalPipeline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Fig4(context.Background(), experiments.Options{Scale: benchScale, Tasks: 120})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Throughput.Max(), "peak-tasks/s")
		b.ReportMetric(float64(res.Log.Count("AM_A", trace.IncRate)), "incRate-events")
		b.ReportMetric(float64(res.Log.Count("AM_F", trace.AddWorker)), "addWorker-events")
		b.ReportMetric(res.Cores.Max(), "peak-cores")
	}
}

// BenchmarkExtLoadAdaptation regenerates the §4.2 external-load narrative.
func BenchmarkExtLoadAdaptation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.ExtLoad(context.Background(), experiments.Options{Scale: benchScale, Tasks: 150})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.AddsAfterSpike), "adds-after-spike")
		b.ReportMetric(float64(res.WorkersAfter-res.WorkersBefore), "pool-growth")
	}
}

// BenchmarkMultiConcernTwoPhase regenerates the §3.2 comparison: leaks and
// throughput under two-phase, reactive and unmanaged coordination.
func BenchmarkMultiConcernTwoPhase(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.MultiConcern(context.Background(), experiments.Options{Scale: benchScale, Tasks: 120})
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range res.Rows {
			b.ReportMetric(float64(row.Leaks), row.Mode.String()+"-leaks")
		}
	}
}

// BenchmarkFaultRecovery regenerates the EXT-FT experiment: crash
// injection, stranded-task recovery and worker replacement under contract.
func BenchmarkFaultRecovery(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.FaultTolerance(context.Background(), experiments.Options{Scale: benchScale, Tasks: 120})
		if err != nil {
			b.Fatal(err)
		}
		if res.Completed != 120 {
			b.Fatalf("lost tasks: %d/120", res.Completed)
		}
		b.ReportMetric(float64(res.Injected), "crashes")
		b.ReportMetric(float64(res.Recovered), "recovered")
	}
}

// BenchmarkFarmizeStage regenerates the EXT-FARMIZE comparison (§4.2
// outlook: pipeline stage transformed into a farm).
func BenchmarkFarmizeStage(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Farmize(context.Background(), experiments.Options{Scale: benchScale, Tasks: 100})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Rows[0].SteadyMean, "seq-steady-tp")
		b.ReportMetric(res.Rows[1].SteadyMean, "farmized-steady-tp")
	}
}

// BenchmarkMigrationVsAdd regenerates the EXT-MIG ablation (§3 migration
// policy vs. pool growth under external load).
func BenchmarkMigrationVsAdd(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Migration(context.Background(), experiments.Options{Scale: benchScale, Tasks: 150})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Rows[0].PeakCores, "add-peak-cores")
		b.ReportMetric(res.Rows[1].PeakCores, "migrate-peak-cores")
		b.ReportMetric(float64(res.Rows[1].Migrations), "migrations")
	}
}

// BenchmarkInitialDegree regenerates the EXT-INIT ablation (model-based
// initial parallelism degree vs. reactive ramp-up).
func BenchmarkInitialDegree(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.InitialDegree(context.Background(), experiments.Options{Scale: benchScale, Tasks: 100})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Rows[0].TimeToContract.Seconds(), "cold-ttc-s")
		b.ReportMetric(res.Rows[1].TimeToContract.Seconds(), "model-ttc-s")
	}
}

// BenchmarkShedOverprovision regenerates the EXT-SHED experiment
// (CheckRateHigh shedding an overprovisioned farm).
func BenchmarkShedOverprovision(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.Shed(context.Background(), experiments.Options{Scale: benchScale, Tasks: 120})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Removals), "remWorker-events")
		b.ReportMetric(float64(res.FinalWorkers), "final-workers")
	}
}

// BenchmarkContractSplit regenerates the P_spl demonstration and measures
// the splitting heuristics themselves.
func BenchmarkContractSplit(b *testing.B) {
	c := contract.Conjunction{contract.SecureComms{}, contract.ThroughputRange{Lo: 0.3, Hi: 0.7}}
	for i := 0; i < b.N; i++ {
		if _, err := contract.SplitPipeline(c, 5, []float64{1, 2, 3, 2, 1}); err != nil {
			b.Fatal(err)
		}
		if _, err := contract.SplitFarm(c, 16); err != nil {
			b.Fatal(err)
		}
	}
}

// --- ablation micro-benches for the design choices DESIGN.md calls out ---

// BenchmarkRuleEngineCycle measures one MAPE plan phase: a full Fig. 5
// rule-set evaluation against a four-bean working memory.
func BenchmarkRuleEngineCycle(b *testing.B) {
	engine := rules.NewFarmEngine(rules.FarmConstants(0.3, 0.7, 1, 16, 4))
	mem := []rules.Bean{
		rules.NewBean(rules.BeanArrivalRate, rules.Num(0.5)),
		rules.NewBean(rules.BeanDepartureRate, rules.Num(0.2)),
		rules.NewBean(rules.BeanNumWorker, rules.Num(4)),
		rules.NewBean(rules.BeanQueueVariance, rules.Num(1)),
	}
	eff := rules.EffectorFunc(func(string, *rules.Activation) error { return nil })
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := engine.Cycle(mem, eff); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRuleParse measures parsing the Fig. 5 rule file.
func BenchmarkRuleParse(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := rules.Parse(rules.FarmRuleSource); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSecureVsPlainCodec quantifies the SSL-vs-plain cost asymmetry
// that drives the §3.2 conflict (and the paper's earlier "cost of
// security" studies): AES-GCM round trip vs. plain copy on a 4 KiB
// payload.
func BenchmarkSecureVsPlainCodec(b *testing.B) {
	payload := make([]byte, 4096)
	b.Run("plain", func(b *testing.B) {
		var c security.Plain
		b.SetBytes(int64(len(payload)))
		for i := 0; i < b.N; i++ {
			wire, _ := c.Encode(payload)
			if _, err := c.Decode(wire); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("aes-gcm", func(b *testing.B) {
		c := security.MustAESGCM(security.NewRandomKey(), nil, 0)
		b.SetBytes(int64(len(payload)))
		for i := 0; i < b.N; i++ {
			wire, _ := c.Encode(payload)
			if _, err := c.Decode(wire); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkFarmDispatch measures the skeleton runtime itself: stream
// throughput of a farm with zero-work tasks (pure plumbing overhead).
func BenchmarkFarmDispatch(b *testing.B) {
	env := skel.Env{TimeScale: 1}
	f, err := skel.NewFarm(skel.FarmConfig{
		Name: "bench", Env: env, RM: grid.NewSMP(8).RM, InitialWorkers: 4,
	})
	if err != nil {
		b.Fatal(err)
	}
	in := make(chan *skel.Task, 1024)
	out := make(chan *skel.Task, 1024)
	go f.Run(context.Background(), in, out)
	drained := make(chan struct{})
	go func() {
		for range out {
		}
		close(drained)
	}()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in <- &skel.Task{ID: uint64(i)}
	}
	b.StopTimer()
	close(in)
	<-drained
}

// BenchmarkRateMeter measures the sensor hot path. Mark must be O(1) and
// allocation-free in steady state (run with -benchmem): every dispatched
// and every completed task crosses it, so it bounds farm throughput.
func BenchmarkRateMeter(b *testing.B) {
	b.Run("mark", func(b *testing.B) {
		m := metrics.NewRateMeter(simclock.NewReal(), time.Second)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.Mark()
		}
	})
	b.Run("mark+rate", func(b *testing.B) {
		m := metrics.NewRateMeter(simclock.NewReal(), time.Second)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.Mark()
			if i%16 == 0 {
				_ = m.Rate()
			}
		}
	})
}

// benchFarm starts a farm with nWorkers zero-work workers, a drained output
// and (optionally) AES-GCM codecs on every binding. It returns the input
// channel and a cleanup that ends the stream and waits for the drain.
func benchFarm(b *testing.B, nWorkers int, secure bool, ins *skel.FarmInstruments) (*skel.Farm, chan *skel.Task, func()) {
	b.Helper()
	f, err := skel.NewFarm(skel.FarmConfig{
		Name: "bench", Env: skel.Env{TimeScale: 1}, RM: grid.NewSMP(2 * nWorkers).RM,
		InitialWorkers: nWorkers, Instruments: ins,
	})
	if err != nil {
		b.Fatal(err)
	}
	in := make(chan *skel.Task, 1024)
	out := make(chan *skel.Task, 1024)
	go f.Run(context.Background(), in, out)
	drained := make(chan struct{})
	go func() {
		for range out {
		}
		close(drained)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for len(f.Workers()) < nWorkers {
		if time.Now().After(deadline) {
			b.Fatal("workers never came up")
		}
		time.Sleep(time.Millisecond)
	}
	if secure {
		key := security.NewRandomKey()
		for _, w := range f.Workers() {
			if err := f.SetCodec(w.ID, security.MustAESGCM(key, nil, 0)); err != nil {
				b.Fatal(err)
			}
		}
	}
	return f, in, func() {
		close(in)
		<-drained
	}
}

// BenchmarkFarmDispatchCodec measures dispatcher throughput with 4 KiB
// payloads through plain vs AES-GCM binding codecs — the hot path whose
// encode cost must not serialize sensors and actuators on Farm.mu.
func BenchmarkFarmDispatchCodec(b *testing.B) {
	for _, mode := range []struct {
		name   string
		secure bool
		ins    bool
	}{{"plain", false, false}, {"aes-gcm", true, false}, {"aes-gcm+telemetry", true, true}} {
		b.Run(mode.name, func(b *testing.B) {
			var ins *skel.FarmInstruments
			if mode.ins {
				ins = &skel.FarmInstruments{
					Dispatch: metrics.NewLatencyHistogram(),
					Seal:     metrics.NewLatencyHistogram(),
				}
			}
			_, in, cleanup := benchFarm(b, 4, mode.secure, ins)
			payload := make([]byte, 4096)
			b.SetBytes(int64(len(payload)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				in <- &skel.Task{ID: uint64(i + 1), Payload: payload}
			}
			b.StopTimer()
			cleanup()
		})
	}
}

// BenchmarkFarmStatsUnderLoad measures Stats() latency while the dispatcher
// is pumping AES-GCM-encoded 4 KiB tasks: the MAPE monitor phase reads this
// sensor mid-stream, so it must not queue behind payload encryption.
func BenchmarkFarmStatsUnderLoad(b *testing.B) {
	f, in, cleanup := benchFarm(b, 4, true, nil)
	stop := make(chan struct{})
	fed := make(chan struct{})
	go func() {
		defer close(fed)
		payload := make([]byte, 4096)
		for i := uint64(1); ; i++ {
			select {
			case <-stop:
				return
			case in <- &skel.Task{ID: i, Payload: payload}:
			}
		}
	}()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = f.Stats()
	}
	b.StopTimer()
	close(stop)
	<-fed
	cleanup()
}

// BenchmarkHistogramObserve measures the telemetry histogram hot path.
// Every MAPE phase, dispatch and seal crosses Observe, so it must be
// allocation-free (run with -benchmem to confirm 0 allocs/op).
func BenchmarkHistogramObserve(b *testing.B) {
	h := metrics.NewLatencyHistogram()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.Observe(float64(i%1000) * 1e-6)
	}
	b.StopTimer()
	if allocs := testing.AllocsPerRun(1000, func() { h.Observe(5e-4) }); allocs != 0 {
		b.Fatalf("Observe allocates %v per op", allocs)
	}
}

// BenchmarkEventLog measures trace recording (managers log on the control
// path, so this must stay cheap).
func BenchmarkEventLog(b *testing.B) {
	log := trace.NewLog()
	now := time.Now()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		log.Record(now, "AM_F", trace.ContrLow, "tp=0.1")
	}
	io.Discard.Write(nil)
}

// --- dispatch hot-path saturation (the PR7 throughput work) ---

// satHello advertises one workerd node for the TCP saturation benches.
func satHello(name string) wire.Hello {
	return wire.Hello{Name: name, Domain: "edge.remote", Trusted: true, Cores: 8, Speed: 1.0}
}

// runFarmSaturation drives a farm flat out with 256 B payloads and reports
// sustained end-to-end tasks/s plus p50/p99 completion latency (sampled
// every 1024th task; the sampled payload is 8 bytes longer and carries its
// send timestamp). The farm is saturated by construction: the producer
// never blocks on anything but the farm itself, and the clock stops only
// after the last result has been collected.
func runFarmSaturation(b *testing.B, tcp, secure bool, batch int, traceRate uint64) {
	cfg := skel.FarmConfig{
		Name:           "sat",
		Env:            skel.Env{TimeScale: 1},
		InitialWorkers: 4,
		DispatchBatch:  batch,
	}
	if traceRate > 0 {
		cfg.Tracer = telemetry.NewTaskTracer(1, traceRate, 0)
	}
	if tcp {
		psk := make([]byte, 32)
		var nodes []*grid.Node
		for i := 0; i < 2; i++ {
			srv, err := wire.NewServer(wire.ServerConfig{PSK: psk, Hello: satHello(fmt.Sprintf("sat%d", i))})
			if err != nil {
				b.Fatal(err)
			}
			if err := srv.Listen("127.0.0.1:0"); err != nil {
				b.Fatal(err)
			}
			defer srv.Close()
			nodes = append(nodes, wire.NodeFromHello(srv.Addr(), satHello(fmt.Sprintf("sat%d", i))))
		}
		factory, err := wire.NewFactory(psk, 5*time.Second)
		if err != nil {
			b.Fatal(err)
		}
		cfg.RM = grid.NewResourceManager(nodes...)
		cfg.Executors = factory.Executor
	} else {
		cfg.RM = grid.NewSMP(8).RM
	}
	f, err := skel.NewFarm(cfg)
	if err != nil {
		b.Fatal(err)
	}
	in := make(chan *skel.Task, 4096)
	out := make(chan *skel.Task, 4096)
	go f.Run(context.Background(), in, out)
	hist := metrics.NewLatencyHistogram()
	drained := make(chan struct{})
	go func() {
		for t := range out {
			if len(t.Payload) == 264 {
				sent := int64(binary.BigEndian.Uint64(t.Payload))
				hist.Observe(time.Since(time.Unix(0, sent)).Seconds())
			}
		}
		close(drained)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for len(f.Workers()) < cfg.InitialWorkers {
		if time.Now().After(deadline) {
			b.Fatal("workers never came up")
		}
		time.Sleep(time.Millisecond)
	}
	if secure {
		key := security.NewRandomKey()
		for _, w := range f.Workers() {
			if err := f.SetCodec(w.ID, security.MustAESGCM(key, nil, 0)); err != nil {
				b.Fatal(err)
			}
		}
	}
	base := make([]byte, 256)
	b.SetBytes(int64(len(base)))
	b.ResetTimer()
	start := time.Now()
	for i := 0; i < b.N; i++ {
		t := &skel.Task{ID: uint64(i + 1), Payload: base}
		if i&1023 == 0 {
			p := make([]byte, 264)
			binary.BigEndian.PutUint64(p, uint64(time.Now().UnixNano()))
			t.Payload = p
		}
		in <- t
	}
	close(in)
	<-drained
	elapsed := time.Since(start)
	b.StopTimer()
	b.ReportMetric(float64(b.N)/elapsed.Seconds(), "tasks/s")
	snap := hist.Snapshot()
	b.ReportMetric(snap.Quantile(0.5)*1e6, "p50-µs")
	b.ReportMetric(snap.Quantile(0.99)*1e6, "p99-µs")
}

// BenchmarkFarmSaturation is the end-to-end saturation grid of the batched
// dispatch hot path: loopback and framed-TCP transports, plain and AES-GCM
// bindings, batching off (the PR6 baseline shape) and on. tasks/s is
// sustained completion throughput; p50/p99 are end-to-end latencies at
// saturation, where queueing — the price batching pays for throughput — is
// part of the number.
func BenchmarkFarmSaturation(b *testing.B) {
	for _, tr := range []struct {
		name string
		tcp  bool
	}{{"loopback", false}, {"tcp", true}} {
		for _, sec := range []struct {
			name   string
			secure bool
		}{{"plain", false}, {"aes-gcm", true}} {
			for _, batch := range []int{0, 64} {
				b.Run(fmt.Sprintf("%s/%s/batch=%d", tr.name, sec.name, batch), func(b *testing.B) {
					runFarmSaturation(b, tr.tcp, sec.secure, batch, 0)
				})
			}
		}
	}
}

// BenchmarkFarmSaturationTraced re-runs the loopback AES-GCM saturation
// corner with task tracing attached at two sampling rates: 1/1024 (the
// production default, must stay within 2% of the untraced figure) and 1/16
// (the heavy-introspection setting, where span recording is measurable by
// design). The untraced baseline lives in BenchmarkFarmSaturation.
func BenchmarkFarmSaturationTraced(b *testing.B) {
	for _, rate := range []uint64{1024, 16} {
		for _, batch := range []int{0, 64} {
			b.Run(fmt.Sprintf("loopback/aes-gcm/batch=%d/sample=%d", batch, rate), func(b *testing.B) {
				runFarmSaturation(b, false, true, batch, rate)
			})
		}
	}
}

// BenchmarkFarmDispatchSteadyState measures allocations on the loopback
// AES-GCM dispatch path in steady state: tasks are pre-built outside the
// timed region and the envelope/buffer pools are warmed first, so what
// remains is the farm's own per-task cost. With batching on, the one
// decode-per-batch amortizes below one allocation per task — the reported
// figure must be 0 allocs/op (CI greps for it).
//
// The mixed case sends the repository benchmark's payload mix unbatched —
// 256 B 90 %, 4 KiB 8 %, 16 KiB 2 % — so the size-classed envelope pools
// are held to the same 0 allocs/op when payload sizes change from task to
// task. The plain case keeps the bindings on security.Plain, unbatched at
// 256 B: the path whose decode the worker skips.
func BenchmarkFarmDispatchSteadyState(b *testing.B) {
	for _, batch := range []int{0, 64} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			runSteadyState(b, batch, nil, fixedPayload, true)
		})
	}
	b.Run("mixed", func(b *testing.B) {
		runSteadyState(b, 0, nil, mixedPayload, true)
	})
	b.Run("plain", func(b *testing.B) {
		runSteadyState(b, 0, nil, fixedPayload, false)
	})
}

var (
	payload256 = make([]byte, 256)
	payload4K  = make([]byte, 4<<10)
	payload16K = make([]byte, 16<<10)
)

// fixedPayload gives every task 256 bytes.
func fixedPayload(uint64) []byte { return payload256 }

// mixedPayload deals the benchmark's payload mix by task id: out of every
// 50 tasks, one carries 16 KiB and four carry 4 KiB.
func mixedPayload(id uint64) []byte {
	switch id % 50 {
	case 0:
		return payload16K
	case 1, 2, 3, 4:
		return payload4K
	}
	return payload256
}

// BenchmarkFarmDispatchSteadyStateTraced is the same steady-state workload
// with task tracing attached at 1/1024 sampling: the unsampled hot path is
// one branch plus one hash, and the sampled 0.1% amortize through the span
// pool, so the reported figure must stay 0 allocs/op (CI greps for it).
func BenchmarkFarmDispatchSteadyStateTraced(b *testing.B) {
	for _, batch := range []int{0, 64} {
		b.Run(fmt.Sprintf("batch=%d", batch), func(b *testing.B) {
			runSteadyState(b, batch, telemetry.NewTaskTracer(1, 1024, 0), fixedPayload, true)
		})
	}
}

// runSteadyState drives the steady-state workload; aes rebinds every
// worker onto AES-GCM, and without it the bindings stay security.Plain.
func runSteadyState(b *testing.B, batch int, tracer *telemetry.TaskTracer, payload func(id uint64) []byte, aes bool) {
	f, err := skel.NewFarm(skel.FarmConfig{
		Name: "steady", Env: skel.Env{TimeScale: 1}, RM: grid.NewSMP(8).RM,
		InitialWorkers: 4, DispatchBatch: batch, Tracer: tracer,
	})
	if err != nil {
		b.Fatal(err)
	}
	in := make(chan *skel.Task, 4096)
	out := make(chan *skel.Task, 4096)
	go f.Run(context.Background(), in, out)
	var done atomic.Uint64
	drained := make(chan struct{})
	go func() {
		for range out {
			done.Add(1)
		}
		close(drained)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for len(f.Workers()) < 4 {
		if time.Now().After(deadline) {
			b.Fatal("workers never came up")
		}
		time.Sleep(time.Millisecond)
	}
	if aes {
		key := security.NewRandomKey()
		for _, w := range f.Workers() {
			if err := f.SetCodec(w.ID, security.MustAESGCM(key, nil, 0)); err != nil {
				b.Fatal(err)
			}
		}
	}
	// Warm the pools: envelopes, wire buffers, queue rings — and with a
	// tracer attached, the span pool — all reach steady-state capacity here.
	const warm = 4096
	warmTasks := make([]skel.Task, warm)
	for i := range warmTasks {
		id := uint64(i + 1)
		warmTasks[i] = skel.Task{ID: id, Payload: payload(id)}
		in <- &warmTasks[i]
	}
	for done.Load() < warm {
		time.Sleep(time.Millisecond)
	}
	tasks := make([]skel.Task, b.N)
	var bytes int64
	for i := range tasks {
		id := uint64(warm + i + 1)
		tasks[i] = skel.Task{ID: id, Payload: payload(id)}
		bytes += int64(len(tasks[i].Payload))
	}
	b.SetBytes(bytes / int64(b.N))
	b.ReportAllocs()
	b.ResetTimer()
	for i := range tasks {
		in <- &tasks[i]
	}
	close(in)
	<-drained
	b.StopTimer()
}
