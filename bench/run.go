package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"

	"repro/internal/metrics"
	"repro/internal/security"
	"repro/internal/skel"
	"repro/internal/telemetry"
)

const (
	// setups is how many times a run builds its stack; setup_s is the
	// median. All but the last stack are torn down again. A set-up takes
	// about a millisecond and single ones vary by half or more, so the
	// median needs many.
	setups = 25
	// minSatRounds is the fewest saturation rounds a run makes, however
	// short --seconds is.
	minSatRounds = 3
	// tracedSatRounds and tracedOpenLoopTasks bound the traced run, whose
	// every task leaves spans in memory: span rings sized to the budget
	// drop nothing.
	tracedSatRounds     = 2
	tracedOpenLoopTasks = 40000
	// refTasks is the length of the ref.serial_tps loop.
	refTasks = 20000
	// outDir holds the traced run's span files (ignored by git).
	outDir = ".bench_out"
)

// metric is one printed figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is one workload run: the checks' verdict, the operation counts
// and every figure measured, end to end and per layer.
type outcome struct {
	correct           bool
	attempted, failed uint64
	problems, notes   []string
	e2e               map[string]metric
	layer             map[string]metric
}

// note records something the reader of the figures should know that is
// not a failed check.
func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// runWorkload builds the workload's stack, drives its timed phases for
// about the given duration and checks everything it got back.
func runWorkload(sp *spec, seed uint64, seconds float64, traced bool) (*outcome, error) {
	o := &outcome{e2e: map[string]metric{}, layer: map[string]metric{}}
	gen := newTaskGen(seed, sp.sizes)
	budget := time.Duration(seconds * float64(time.Second))
	olTasks := int(sp.rate * 0.7 * budget.Seconds())
	var rec *recorder
	var ins *instruments
	decisionDepth := 64
	if traced {
		olTasks = min(olTasks, tracedOpenLoopTasks)
		cycles := int(budget/cadence) + 16
		tasks := setups + olTasks/14 + olTasks + tracedSatRounds*satTasks
		rec = newRecorder(3*tasks + 8*cycles)
		ins = &instruments{
			farm: skel.FarmInstruments{
				Dispatch: metrics.NewLatencyHistogram(),
				Seal:     metrics.NewLatencyHistogram(),
			},
			actuator: metrics.NewLatencyHistogram(),
			tasks:    telemetry.NewTaskTracer(seed, 1, tasks+1024),
		}
		decisionDepth = cycles
	}

	// Set-up, several times: each ends when the stack's first task is
	// accepted by the farm's input.
	var setupS []float64
	var st *stack
	for i := 0; i < setups; i++ {
		start := time.Now()
		s, err := build(sp, gen, rec, ins, decisionDepth)
		if err != nil {
			return nil, fmt.Errorf("%s: set-up: %w", sp.name, err)
		}
		s.col.expect(1)
		s.send(time.Now())
		setupS = append(setupS, time.Since(start).Seconds())
		s.col.wait()
		if i < setups-1 {
			s.close()
			o.attempted += s.sent
			o.failed += s.col.chk.failed(s.sent)
			continue
		}
		st = s
	}

	// Warm-up, untimed: open-loop tasks at the workload's rate fill pools
	// and caches without leaving the heap a saturation round leaves.
	st.openLoop(olTasks/14, false)

	// Timed phases.
	samp := startSampler(st, traced)
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	cpu0 := cpuTimes()
	before := snapshotInstruments(st)
	timedFirst, timedStart := st.sent+1, time.Now()

	stagesBefore := st.ins.stageSnapshots()
	drv := startCycles(st)
	late := st.openLoop(olTasks, true)
	drv.stop()
	samp.endSegment()
	stagesAfter := st.ins.stageSnapshots()

	var tps []float64
	var sendWaits []time.Duration
	satEnd := time.Now().Add(budget / 4)
	for r := 0; r < minSatRounds || time.Now().Before(satEnd); r++ {
		if traced && r >= tracedSatRounds {
			break
		}
		tps = append(tps, st.saturationRound(&sendWaits))
		samp.endSegment()
	}
	cpu1 := cpuTimes()
	runtime.ReadMemStats(&ms1)
	after := snapshotInstruments(st)
	samp.stop()
	timedTasks := st.sent - timedFirst + 1

	// Checks, while the stack is still up.
	o.attempted += st.sent + drv.cycles
	o.failed += st.col.chk.failed(st.sent) + drv.failures
	for _, err := range st.col.chk.errs {
		o.problem("%v", err)
	}
	for _, err := range drv.errs {
		o.problem("%v", err)
	}
	if err := checkSecurity(sp.secure, st.sent, st.auditor); err != nil {
		o.problem("%v", err)
	}
	if sp.tcp {
		var served uint64
		for _, s := range st.servers[:degree] {
			served += s.Served()
		}
		if err := checkRemote(st.farm.Stats().RemoteWorkers, served, st.sent); err != nil {
			o.problem("%v", err)
		}
	}
	link := linkCounts{
		escalations: st.child.Escalations(), handled: st.handled.Load(),
		delivered: st.endpoint.Delivered(), unique: st.endpoint.UniqueCauses(),
		duplicates: st.endpoint.Duplicates(), reattaches: st.link.Reattaches(),
	}
	if err := link.check(); err != nil {
		o.problem("%v", err)
	}
	if got, want := firedRules(st), float64(firedPerCycle(sp.reconfig)); got != want {
		o.problem("rules: %.3f fired per cycle, the schedule fires %.0f", got, want)
	}
	stats := st.farm.Stats()
	st.close()
	o.correct = o.failed == 0 && len(o.problems) == 0

	cpu := (cpu1.user + cpu1.sys) - (cpu0.user + cpu0.sys)
	o.e2e["setup_s"] = metric{median(setupS), "s"}
	o.e2e["throughput_tps"] = metric{median(tps), "tasks/s"}
	o.e2e["latency_p50_us"] = metric{us(quantile(st.col.lat, 0.50)), "us"}
	o.e2e["latency_p99_us"] = metric{us(windowedP99(st.col.lat)), "us"}
	o.e2e["cpu_us_per_task"] = metric{cpu.Seconds() * 1e6 / float64(timedTasks), "us"}
	o.e2e["peak_heap_mb"] = metric{samp.peakHeapMiB(), "MiB"}
	o.e2e["mape_cycle_p50_us"] = metric{us(quantile(drv.durs, 0.50)), "us"}
	o.e2e["mape_cycle_p99_us"] = metric{us(windowedP99(drv.durs)), "us"}
	if len(st.col.lat) < minWindow || len(drv.durs) < minWindow {
		o.note("open-loop phase short: %d latency and %d cycle samples, a p99 with ten beyond it needs %d",
			len(st.col.lat), len(drv.durs), minWindow)
	}
	if !traced {
		return o, nil
	}

	// Per-layer figures of the traced run.
	L := func(name string, v float64, unit string) { o.layer[name] = metric{v, unit} }
	L("gen.late_p99_us", us(quantile(late, 0.99)), "us")
	L("gen.send_wait_p50_us", us(quantile(sendWaits, 0.50)), "us")
	L("gen.send_wait_p99_us", us(quantile(sendWaits, 0.99)), "us")
	dispatch := diffHist(after.dispatch, before.dispatch)
	seal := diffHist(after.seal, before.seal)
	L("skel.dispatch_p50_us", histUS(dispatch, 0.50), "us")
	L("skel.dispatch_p99_us", histUS(dispatch, 0.99), "us")
	L("skel.tasks_per_envelope", float64(timedTasks)/float64(max(seal.Count, 1)), "ratio")
	L("skel.queue_len_max", float64(samp.maxQueue), "count")
	L("skel.errors_dropped", float64(stats.ErrorsDropped), "count")
	L("skel.stats_p50_us", us(quantile(rec.durations("abc.snapshot", timedStart), 0.50)), "us")
	L("security.seal_p50_us", histUS(seal, 0.50), "us")
	L("security.seal_p99_us", histUS(seal, 0.99), "us")
	L("security.secured_per_task", float64(st.auditor.Secured())/float64(st.sent), "ratio")
	// The stage decomposition covers the open-loop tasks: it attributes
	// their latency, which saturation queueing would swamp.
	for i, name := range telemetry.StageNames {
		h := diffHist(stagesAfter[i], stagesBefore[i])
		if h.Count == 0 {
			continue // a stage this workload's path does not cross
		}
		L("stage."+name+".p50_us", histUS(h, 0.50), "us")
		L("stage."+name+".p99_us", histUS(h, 0.99), "us")
	}
	L("telemetry.spans_dropped", float64(ins.tasks.Ring().Dropped()), "count")
	wsnap := st.mgmtF.Snapshot()
	if st.execF != nil {
		e := st.execF.Snapshot()
		wsnap.Dials += e.Dials
		wsnap.Rekeys += e.Rekeys
		wsnap.FramesOut += e.FramesOut
		execs := append(rec.durations("wire.exec", timedStart), rec.durations("wire.exec_batch", timedStart)...)
		L("wire.exec_rtt_p50_us", us(quantile(execs, 0.50)), "us")
		L("wire.exec_rtt_p99_us", us(quantile(execs, 0.99)), "us")
		L("wire.tasks_per_frame", float64(st.sent)/float64(e.FramesOut-e.Rekeys), "ratio")
		// StatsSnapshot.Execs, next to the tasks that crossed: it counts
		// exec frames, so batched runs show it far below the task count.
		L("wire.execs", float64(e.Execs), "count")
	}
	L("wire.frames_out", float64(wsnap.FramesOut), "count")
	L("wire.dials", float64(wsnap.Dials), "count")
	L("wire.rekeys", float64(wsnap.Rekeys), "count")
	mgmt := rec.durations("wire.mgmt", timedStart)
	L("wire.mgmt_rtt_p50_us", us(quantile(mgmt, 0.50)), "us")
	L("wire.mgmt_rtt_p99_us", us(quantile(mgmt, 0.99)), "us")
	L("manager.sense_p50_us", histUS(diffHist(after.sense, before.sense), 0.50), "us")
	L("manager.analyze_p50_us", histUS(diffHist(after.analyze, before.analyze), 0.50), "us")
	L("manager.plan_p50_us", histUS(diffHist(after.plan, before.plan), 0.50), "us")
	act := diffHist(after.act, before.act)
	L("manager.execute_p50_us", histUS(act, 0.50), "us")
	L("manager.execute_p99_us", histUS(act, 0.99), "us")
	self := rec.selfTimes()
	L("manager.self_p50_us", us(quantile(self["manager.runonce"], 0.50)), "us")
	L("manager.escalations", float64(link.escalations), "count")
	L("manager.parent_handled", float64(link.handled), "count")
	L("manager.link_delivered", float64(link.delivered), "count")
	L("manager.link_duplicates", float64(link.duplicates), "count")
	L("manager.link_reattaches", float64(link.reattaches), "count")
	if actuator := diffHist(after.actuator, before.actuator); actuator.Count > 0 {
		L("abc.actuator_p50_us", histUS(actuator, 0.50), "us")
		L("abc.actuator_p99_us", histUS(actuator, 0.99), "us")
	}
	L("rules.fired_per_cycle", firedRules(st), "ratio")
	L("go.gc_cycles", float64(ms1.NumGC-ms0.NumGC), "count")
	L("go.gc_pause_ms", float64(ms1.PauseTotalNs-ms0.PauseTotalNs)/1e6, "ms")
	L("go.alloc_bytes_per_task", float64(ms1.TotalAlloc-ms0.TotalAlloc)/float64(timedTasks), "B")
	L("go.goroutines_max", float64(samp.maxGoroutines), "count")
	L("proc.cpu_user_s", (cpu1.user - cpu0.user).Seconds(), "s")
	L("proc.cpu_sys_s", (cpu1.sys - cpu0.sys).Seconds(), "s")
	L("ref.serial_tps", serialReference(gen), "tasks/s")
	for name, ds := range self {
		L("self."+name+".p50_us", us(quantile(ds, 0.50)), "us")
	}
	dir := filepath.Join(outDir, sp.name)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if err := rec.writeJSONL(filepath.Join(dir, "spans.jsonl")); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	if rec.dropped > 0 {
		o.problem("span recorder dropped %d spans", rec.dropped)
	}
	f, err := os.Create(filepath.Join(dir, "task_spans.jsonl"))
	if err != nil {
		return nil, err
	}
	err = ins.tasks.Ring().WriteJSONL(f, 0)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, fmt.Errorf("writing task spans: %w", err)
	}
	o.correct = o.failed == 0 && len(o.problems) == 0
	return o, nil
}

// saturationRound sends one round of tasks as fast as the farm's input
// accepts them and returns the round's throughput, measured until the last
// result is collected and checked. With waits non-nil, the time each send
// blocked is appended to it.
func (st *stack) saturationRound(waits *[]time.Duration) float64 {
	n := uint64(satTasks)
	start := time.Now()
	st.col.expect(st.sent + n)
	for i := uint64(0); i < n; i++ {
		t0 := time.Now()
		st.send(t0)
		if waits != nil && st.rec != nil {
			*waits = append(*waits, time.Since(t0))
		}
	}
	last := st.col.wait()
	return float64(n) / last.Sub(start).Seconds()
}

// openLoop sends n tasks at the workload's fixed rate, each stamped with
// its scheduled send time, waits for every result and returns how late the
// generator sent each task. With timed set, the collector records the
// tasks' latencies.
func (st *stack) openLoop(n int, timed bool) []time.Duration {
	if timed {
		st.col.olLast.Store(st.sent + uint64(n))
		st.col.olFirst.Store(st.sent + 1)
	}
	late := make([]time.Duration, 0, n)
	interval := float64(time.Second) / st.spec.rate
	start := time.Now()
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(float64(i) * interval))
		now := time.Now()
		if d := due.Sub(now); d > 0 {
			pause(d)
			now = time.Now()
		}
		late = append(late, now.Sub(due))
		st.send(due)
	}
	st.col.expect(st.sent)
	st.col.wait()
	return late
}

// pause blocks the calling goroutine's thread for about d. time.Sleep
// rounds short waits up to the runtime timer's granularity, about 1 ms on
// Linux; a nanosleep system call wakes within tens of microseconds, which
// holding a schedule of tens of thousands of tasks per second needs.
func pause(d time.Duration) {
	ts := syscall.NsecToTimespec(int64(d))
	_ = syscall.Nanosleep(&ts, nil)
}

// cycleDriver drives the MAPE cycles at the cadence during the
// open-loop phase.
type cycleDriver struct {
	quit, done chan struct{}

	// Written by the driving goroutine; read after done is closed.
	cycles, failures uint64
	durs             []time.Duration // child RunOnce wall times
	errs             []error
}

func startCycles(st *stack) *cycleDriver {
	d := &cycleDriver{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(d.done)
		tick := time.NewTicker(cadence)
		defer tick.Stop()
		for {
			select {
			case <-d.quit:
				return
			case <-tick.C:
			}
			d.cycles++
			dur, err := st.cycle(d.cycles)
			if err != nil {
				d.failures++
				if len(d.errs) < 8 {
					d.errs = append(d.errs, err)
				}
				continue
			}
			d.durs = append(d.durs, dur)
		}
	}()
	return d
}

func (d *cycleDriver) stop() {
	close(d.quit)
	<-d.done
}

// sampler reads the Go heap (and, traced, the goroutine count and farm
// queue lengths) every 2ms during the timed phases. The heap peak is kept
// per segment — the open-loop phase and each saturation round — because
// one run-wide maximum is a single extreme sample that comes out
// differently on every run.
type sampler struct {
	quit, done chan struct{}

	mu      sync.Mutex
	segPeak uint64   // heap in use peak since the last segment ended
	peaks   []uint64 // one per ended segment

	// Written by the sampling goroutine; read after done is closed.
	maxGoroutines, maxQueue int
}

// heapInUse reads the Go heap in use: live and unswept objects plus free
// space in in-use spans.
func heapInUse() uint64 {
	samples := []rtmetrics.Sample{
		{Name: "/memory/classes/heap/objects:bytes"},
		{Name: "/memory/classes/heap/unused:bytes"},
	}
	rtmetrics.Read(samples)
	return samples[0].Value.Uint64() + samples[1].Value.Uint64()
}

func startSampler(st *stack, traced bool) *sampler {
	s := &sampler{quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			s.observe(heapInUse())
			if traced {
				s.maxGoroutines = max(s.maxGoroutines, runtime.NumGoroutine())
				for _, q := range st.farm.Stats().QueueLens {
					s.maxQueue = max(s.maxQueue, q)
				}
			}
			select {
			case <-s.quit:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

func (s *sampler) observe(heap uint64) {
	s.mu.Lock()
	s.segPeak = max(s.segPeak, heap)
	s.mu.Unlock()
}

// endSegment closes the current segment with one last reading.
func (s *sampler) endSegment() {
	s.observe(heapInUse())
	s.mu.Lock()
	s.peaks = append(s.peaks, s.segPeak)
	s.segPeak = 0
	s.mu.Unlock()
}

// peakHeapMiB is the median over the ended segments of their heap peaks.
func (s *sampler) peakHeapMiB() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	mib := make([]float64, len(s.peaks))
	for i, p := range s.peaks {
		mib[i] = float64(p) / (1 << 20)
	}
	return median(mib)
}

func (s *sampler) stop() {
	close(s.quit)
	<-s.done
}

// instrumentSnaps are histogram snapshots taken at the edges of the timed
// phases, so per-layer figures exclude set-up and warm-up.
type instrumentSnaps struct {
	dispatch, seal, actuator  metrics.HistogramSnapshot
	sense, analyze, plan, act metrics.HistogramSnapshot
}

func snapshotInstruments(st *stack) instrumentSnaps {
	mi := st.child.Instruments()
	s := instrumentSnaps{
		sense: mi.Sense.Snapshot(), analyze: mi.Analyze.Snapshot(),
		plan: mi.Plan.Snapshot(), act: mi.Act.Snapshot(),
	}
	if st.ins != nil {
		s.dispatch = st.ins.farm.Dispatch.Snapshot()
		s.seal = st.ins.farm.Seal.Snapshot()
		s.actuator = st.ins.actuator.Snapshot()
	}
	return s
}

// diffHist is the bucket-wise difference a-b of two snapshots of the same
// histogram.
func diffHist(a, b metrics.HistogramSnapshot) metrics.HistogramSnapshot {
	out := metrics.HistogramSnapshot{Bounds: a.Bounds, Counts: make([]uint64, len(a.Counts)),
		Count: a.Count - b.Count, Sum: a.Sum - b.Sum}
	for i := range a.Counts {
		out.Counts[i] = a.Counts[i]
		if i < len(b.Counts) {
			out.Counts[i] -= b.Counts[i]
		}
	}
	return out
}

// stageSnapshots copies the task tracer's stage histograms (zero values
// in the untraced run).
func (ins *instruments) stageSnapshots() [telemetry.NumStages]metrics.HistogramSnapshot {
	if ins == nil {
		return [telemetry.NumStages]metrics.HistogramSnapshot{}
	}
	return ins.tasks.StageSnapshots()
}

func histUS(s metrics.HistogramSnapshot, q float64) float64 { return s.Quantile(q) * 1e6 }

// firedRules is the mean number of rules fired per retained decision
// record of the child manager.
func firedRules(st *stack) float64 {
	recs := st.decisions.Last(0)
	if len(recs) == 0 {
		return 0
	}
	fired := 0
	for _, r := range recs {
		for _, e := range r.Rules {
			if e.Fired {
				fired++
			}
		}
	}
	return float64(fired) / float64(len(recs))
}

// serialReference runs the workload's transform with an AES-GCM seal and
// open in one goroutine, no farm: a figure that moves only with the machine.
func serialReference(gen *taskGen) float64 {
	key := make([]byte, 32)
	fill(key, gen.seed)
	codec := security.MustAESGCM(key, nil, 0)
	start := time.Now()
	for id := uint64(1); id <= refTasks; id++ {
		sealed, err := codec.Encode(gen.payload(id))
		if err != nil {
			return 0
		}
		plain, err := codec.Decode(sealed)
		if err != nil {
			return 0
		}
		if gen.verify(id, gen.xf.apply(plain)) != nil {
			return 0
		}
	}
	return refTasks / time.Since(start).Seconds()
}

type cpuTime struct{ user, sys time.Duration }

// cpuTimes reads this process's user and system CPU time.
func cpuTimes() cpuTime {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return cpuTime{}
	}
	return cpuTime{time.Duration(ru.Utime.Nano()), time.Duration(ru.Stime.Nano())}
}

// quantile is the exact nearest-rank q-quantile of the samples (0 for
// none).
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(i, 0)]
}

// minWindow is the fewest samples a p99 is taken over: ten lie beyond it.
const minWindow = 1000

// windowedP99 takes the exact p99 of every window of minWindow consecutive
// samples (in collection order) and returns the first quartile of those
// p99s; with fewer than four windows, the p99 of all samples. On the
// 2-vCPU guest the reference figures come from, the host steals CPUs in
// episodes of milliseconds, and every task queued behind such an episode
// lands in the tail: a p99 over the whole phase, or even the median
// window's, followed the host's steal from run to run. The quieter quarter
// of the windows still shows a tail the program adds to most of the run.
func windowedP99(ds []time.Duration) time.Duration {
	w := len(ds) / minWindow
	if w < 4 {
		return quantile(ds, 0.99)
	}
	p99s := make([]time.Duration, w)
	for i := range p99s {
		p99s[i] = quantile(ds[i*minWindow:(i+1)*minWindow], 0.99)
	}
	return quantile(p99s, 0.25)
}

func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }
