package skel

import (
	"bytes"
	"context"
	"sync"
	"testing"
	"time"

	"repro/internal/grid"
	"repro/internal/runtime/leaktest"
	"repro/internal/security"
)

// fastEnv runs modelled time 1000x faster than the wall clock so tests
// finish in milliseconds.
func fastEnv() Env { return Env{TimeScale: 1000} }

func smpRM(cores int) *grid.ResourceManager {
	return grid.NewSMP(cores).RM
}

func runStage(t *testing.T, s Stage, tasks []*Task) []*Task {
	t.Helper()
	in := make(chan *Task, len(tasks))
	for _, task := range tasks {
		in <- task
	}
	close(in)
	out := make(chan *Task, len(tasks)+8)
	done := make(chan struct{})
	var results []*Task
	go func() {
		for r := range out {
			results = append(results, r)
		}
		close(done)
	}()
	s.Run(context.Background(), in, out)
	<-done
	return results
}

func mkTasks(n int, work time.Duration) []*Task {
	out := make([]*Task, n)
	for i := range out {
		out[i] = &Task{ID: NextTaskID(), Work: work, Payload: []byte{byte(i)}}
	}
	return out
}

func TestSourceEmitsAll(t *testing.T) {
	src := NewSource("prod", fastEnv(), 25, 10*time.Millisecond, nil)
	out := make(chan *Task, 25)
	src.Run(context.Background(), nil, out)
	if src.Emitted() != 25 || !src.Done() {
		t.Fatalf("emitted=%d done=%v", src.Emitted(), src.Done())
	}
	n := 0
	for range out {
		n++
	}
	if n != 25 {
		t.Fatalf("received %d tasks", n)
	}
}

func TestSourceSetInterval(t *testing.T) {
	src := NewSource("prod", fastEnv(), 1, time.Second, nil)
	src.SetInterval(time.Millisecond)
	if src.Interval() != time.Millisecond {
		t.Fatalf("Interval = %v", src.Interval())
	}
	start := time.Now()
	out := make(chan *Task, 1)
	src.Run(context.Background(), nil, out)
	if time.Since(start) > 500*time.Millisecond {
		t.Fatal("SetInterval did not take effect before Run")
	}
}

func TestSourceCustomMaker(t *testing.T) {
	src := NewSource("prod", fastEnv(), 3, 0, func(i int) *Task {
		return &Task{Payload: []byte{byte(i * 2)}, Work: time.Second}
	})
	out := make(chan *Task, 3)
	src.Run(context.Background(), nil, out)
	first := <-out
	if first.ID == 0 {
		t.Fatal("source must assign IDs to maker tasks without one")
	}
	if first.Payload[0] != 0 || first.Work != time.Second {
		t.Fatalf("task = %+v", first)
	}
	if first.Created.IsZero() {
		t.Fatal("Created not stamped")
	}
}

func TestSourceNegativeTotalPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewSource("p", fastEnv(), -1, 0, nil)
}

func TestSeqProcessesInOrder(t *testing.T) {
	node := grid.NewNode("n", grid.Domain{Trusted: true}, 1, 1)
	seq := NewSeq("stage", fastEnv(), node, func(t *Task) *Task {
		t.Payload = append(t.Payload, 'x')
		return t
	})
	results := runStage(t, seq, mkTasks(10, time.Millisecond))
	if len(results) != 10 {
		t.Fatalf("got %d results", len(results))
	}
	for i, r := range results {
		if r.Payload[0] != byte(i) || r.Payload[1] != 'x' {
			t.Fatalf("result %d = %v (order or fn broken)", i, r.Payload)
		}
	}
	if seq.Served() != 10 {
		t.Fatalf("Served = %d", seq.Served())
	}
	if node.Busy() != 0 {
		t.Fatal("seq did not release its node")
	}
}

func TestSeqNilNodePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewSeq("s", fastEnv(), nil, nil)
}

func TestSinkCountsAndSignals(t *testing.T) {
	sink := NewSink("cons", fastEnv(), nil)
	in := make(chan *Task, 5)
	for _, task := range mkTasks(5, 0) {
		in <- task
	}
	close(in)
	sink.Run(context.Background(), in, nil)
	select {
	case <-sink.Done():
	default:
		t.Fatal("Done not closed")
	}
	if sink.Consumed() != 5 {
		t.Fatalf("Consumed = %d", sink.Consumed())
	}
}

func TestSinkForwards(t *testing.T) {
	sink := NewSink("cons", fastEnv(), nil)
	results := runStage(t, sink, mkTasks(3, 0))
	if len(results) != 3 {
		t.Fatalf("forwarded %d", len(results))
	}
}

func TestFarmProcessesStream(t *testing.T) {
	defer leaktest.Check(t)()
	f, err := NewFarm(FarmConfig{
		Name: "farm", Env: fastEnv(), RM: smpRM(8), InitialWorkers: 4,
		Fn: func(t *Task) *Task { t.Payload = append(t.Payload, 'f'); return t },
	})
	if err != nil {
		t.Fatal(err)
	}
	results := runStage(t, f, mkTasks(50, 5*time.Millisecond))
	if len(results) != 50 {
		t.Fatalf("got %d results, want 50", len(results))
	}
	for _, r := range results {
		if r.Payload[len(r.Payload)-1] != 'f' {
			t.Fatal("worker fn not applied")
		}
	}
	st := f.Stats()
	if st.Completed != 50 || st.Dispatched != 50 {
		t.Fatalf("stats = %+v", st)
	}
	if !st.InputDone {
		t.Fatal("InputDone not set")
	}
}

func TestFarmConfigValidation(t *testing.T) {
	if _, err := NewFarm(FarmConfig{}); err == nil {
		t.Fatal("farm without RM accepted")
	}
	f, err := NewFarm(FarmConfig{RM: smpRM(2)})
	if err != nil {
		t.Fatal(err)
	}
	if f.Name() != "farm" {
		t.Fatalf("default name = %q", f.Name())
	}
}

func TestFarmAddRemoveWorker(t *testing.T) {
	f, _ := NewFarm(FarmConfig{Name: "f", Env: fastEnv(), RM: smpRM(8), InitialWorkers: 2})
	in := make(chan *Task)
	out := make(chan *Task, 128)
	go func() {
		for range out {
		}
	}()
	done := make(chan struct{})
	go func() { f.Run(context.Background(), in, out); close(done) }()
	waitFor(t, func() bool { return len(f.Workers()) == 2 })

	id, err := f.AddWorker()
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Workers()) != 3 {
		t.Fatalf("workers = %d", len(f.Workers()))
	}
	removed, err := f.RemoveWorker()
	if err != nil {
		t.Fatal(err)
	}
	if removed != id {
		t.Fatalf("removed %s, want most recent %s", removed, id)
	}
	// Cannot remove below one worker.
	f.RemoveWorker()
	if _, err := f.RemoveWorker(); err != ErrLastWorker {
		t.Fatalf("err = %v, want ErrLastWorker", err)
	}
	close(in)
	<-done
}

func TestFarmAddWorkerAfterEndOfStream(t *testing.T) {
	f, _ := NewFarm(FarmConfig{Name: "f", Env: fastEnv(), RM: smpRM(4)})
	runStage(t, f, mkTasks(1, 0))
	if _, err := f.AddWorker(); err != ErrStreamEnded {
		t.Fatalf("err = %v, want ErrStreamEnded", err)
	}
}

func TestFarmAddWorkerResourceExhaustion(t *testing.T) {
	f, _ := NewFarm(FarmConfig{Name: "f", Env: fastEnv(), RM: smpRM(1), InitialWorkers: 1})
	in := make(chan *Task)
	out := make(chan *Task)
	go f.Run(context.Background(), in, out)
	waitFor(t, func() bool { return len(f.Workers()) == 1 })
	if _, err := f.AddWorker(); err == nil {
		t.Fatal("recruit beyond capacity succeeded")
	}
	close(in)
	for range out {
	}
}

// TestFarmRebalance spreads a lopsided backlog over two freshly added
// workers. Every worker's first task is gated: the fault hook reports the
// worker as busy and blocks until the test releases it, so while the
// queues are read no worker can pop and the lengths depend only on
// Rebalance. Round-robin dispatch hands each new worker exactly one task
// to block on once the backlog is in place.
func TestFarmRebalance(t *testing.T) {
	f, _ := NewFarm(FarmConfig{Name: "f", Env: Env{TimeScale: 100}, RM: smpRM(8),
		InitialWorkers: 2, Dispatch: RoundRobin})
	var (
		mu      sync.Mutex
		gated   = map[string]bool{}
		blocked = make(chan string, 4)
		release = make(chan struct{})
	)
	f.SetWorkerFault(func(id string, _ *Task) WorkerFault {
		mu.Lock()
		first := !gated[id]
		gated[id] = true
		mu.Unlock()
		if first {
			blocked <- id
			<-release
		}
		return WorkerFault{}
	})
	waitBlocked := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			select {
			case <-blocked:
			case <-time.After(5 * time.Second):
				t.Fatalf("only %d of %d workers reached their gated first task", i, n)
			}
		}
	}
	in := make(chan *Task)
	out := make(chan *Task, 256)
	go func() {
		for range out {
		}
	}()
	done := make(chan struct{})
	go func() { f.Run(context.Background(), in, out); close(done) }()
	waitFor(t, func() bool { return len(f.Workers()) == 2 })
	for i := 0; i < 40; i++ {
		in <- &Task{ID: NextTaskID(), Work: time.Second}
	}
	waitBlocked(2)
	// Add two empty workers, then one task per worker in round-robin
	// order: the two new workers pop theirs and block too.
	f.AddWorker()
	f.AddWorker()
	for i := 0; i < 4; i++ {
		in <- &Task{ID: NextTaskID(), Work: time.Second}
	}
	waitBlocked(2)
	waitFor(t, func() bool { return f.Stats().Dispatched == 44 })
	if v := f.Stats().QueueVariance; v == 0 {
		t.Fatalf("no imbalance before Rebalance: %v", f.Stats().QueueLens)
	}
	f.Rebalance()
	st := f.Stats()
	max, min := 0, 1<<30
	for _, l := range st.QueueLens {
		if l > max {
			max = l
		}
		if l < min {
			min = l
		}
	}
	if max-min > 1 {
		t.Fatalf("queues unbalanced after Rebalance: %v", st.QueueLens)
	}
	close(release)
	close(in)
	<-done
}

func TestFarmRoundRobinDispatch(t *testing.T) {
	f, _ := NewFarm(FarmConfig{
		Name: "f", Env: fastEnv(), RM: smpRM(8),
		InitialWorkers: 4, Dispatch: RoundRobin,
	})
	results := runStage(t, f, mkTasks(40, time.Millisecond))
	if len(results) != 40 {
		t.Fatalf("got %d results", len(results))
	}
	total := 0
	for _, w := range f.Workers() {
		total += w.Served
	}
	if total != 40 {
		t.Fatalf("served sum = %d", total)
	}
}

func TestFarmBroadcastDispatch(t *testing.T) {
	f, _ := NewFarm(FarmConfig{
		Name: "f", Env: fastEnv(), RM: smpRM(8),
		InitialWorkers: 3, Dispatch: Broadcast,
	})
	results := runStage(t, f, mkTasks(5, 0))
	if len(results) != 15 {
		t.Fatalf("broadcast produced %d results, want 5x3=15", len(results))
	}
}

func TestFarmSecureCodecRoundTrip(t *testing.T) {
	aud := security.NewAuditor()
	pf := grid.NewTwoDomainGrid(0, 4)
	pol := &security.Policy{Network: pf.Network}
	f, _ := NewFarm(FarmConfig{
		Name: "f", Env: fastEnv(), RM: pf.RM, InitialWorkers: 2,
		Policy: pol, Auditor: aud,
		Fn: func(t *Task) *Task { return t },
	})
	in := make(chan *Task)
	out := make(chan *Task, 64)
	collected := make(chan []*Task, 1)
	go func() {
		var rs []*Task
		for r := range out {
			rs = append(rs, r)
		}
		collected <- rs
	}()
	done := make(chan struct{})
	go func() { f.Run(context.Background(), in, out); close(done) }()
	waitFor(t, func() bool { return len(f.Workers()) == 2 })

	// Send one task unsecured: the auditor must record a leak (workers are
	// on untrusted nodes).
	in <- &Task{ID: 1, Payload: []byte("secret")}
	waitFor(t, func() bool { return aud.Total() == 1 })
	if aud.Leaks() != 1 {
		t.Fatalf("Leaks = %d, want 1", aud.Leaks())
	}

	// Secure both bindings, send again: no new leaks, payload intact.
	key := security.NewRandomKey()
	for _, w := range f.Workers() {
		if err := f.SetCodec(w.ID, security.MustAESGCM(key, nil, 0)); err != nil {
			t.Fatal(err)
		}
	}
	in <- &Task{ID: 2, Payload: []byte("secret2")}
	in <- &Task{ID: 3, Payload: []byte("secret3")}
	close(in)
	<-done
	rs := <-collected
	if aud.Leaks() != 1 {
		t.Fatalf("Leaks after securing = %d, want still 1", aud.Leaks())
	}
	if aud.Secured() != 2 {
		t.Fatalf("Secured = %d, want 2", aud.Secured())
	}
	found := false
	for _, r := range rs {
		if r.ID == 2 && bytes.Equal(r.Payload, []byte("secret2")) {
			found = true
		}
	}
	if !found {
		t.Fatal("secured payload corrupted in transit")
	}
}

func TestFarmSetCodecUnknownWorker(t *testing.T) {
	f, _ := NewFarm(FarmConfig{Name: "f", Env: fastEnv(), RM: smpRM(2)})
	if err := f.SetCodec("nope", security.Plain{}); err == nil {
		t.Fatal("unknown worker accepted")
	}
	if err := f.SetCodec("x", nil); err == nil {
		t.Fatal("nil codec accepted")
	}
}

func TestFarmReleasesNodes(t *testing.T) {
	rm := smpRM(8)
	f, _ := NewFarm(FarmConfig{Name: "f", Env: fastEnv(), RM: rm, InitialWorkers: 4})
	runStage(t, f, mkTasks(10, time.Millisecond))
	if rm.CoresInUse() != 0 {
		t.Fatalf("CoresInUse after run = %d", rm.CoresInUse())
	}
}

func TestPipeComposition(t *testing.T) {
	env := fastEnv()
	node := grid.NewNode("n", grid.Domain{Trusted: true}, 4, 1)
	a := NewSeq("a", env, node, func(t *Task) *Task { t.Payload = append(t.Payload, 'a'); return t })
	b := NewSeq("b", env, node, func(t *Task) *Task { t.Payload = append(t.Payload, 'b'); return t })
	p, err := NewPipe("pipe", 4, a, b)
	if err != nil {
		t.Fatal(err)
	}
	results := runStage(t, p, mkTasks(10, time.Millisecond))
	if len(results) != 10 {
		t.Fatalf("got %d results", len(results))
	}
	for _, r := range results {
		n := len(r.Payload)
		if r.Payload[n-2] != 'a' || r.Payload[n-1] != 'b' {
			t.Fatalf("stage order broken: %v", r.Payload)
		}
	}
	if len(p.Stages()) != 2 {
		t.Fatal("Stages() wrong")
	}
}

func TestPipeValidation(t *testing.T) {
	if _, err := NewPipe("p", 0); err == nil {
		t.Fatal("empty pipe accepted")
	}
}

func TestPipeWithFarmStage(t *testing.T) {
	env := fastEnv()
	plat := grid.NewSMP(8)
	nodes := plat.RM.Nodes()
	prodNode, _ := plat.RM.Recruit(grid.Request{})
	_ = prodNode
	farm, _ := NewFarm(FarmConfig{Name: "filter", Env: env, RM: plat.RM, InitialWorkers: 2})
	sink := NewSink("cons", env, nil)
	seq := NewSeq("prod", env, nodes[0], nil)
	p, err := NewPipe("app", 8, seq, farm, sink)
	if err != nil {
		t.Fatal(err)
	}
	results := runStage(t, p, mkTasks(30, time.Millisecond))
	_ = results // sink forwards
	if sink.Consumed() != 30 {
		t.Fatalf("consumed %d", sink.Consumed())
	}
}

func TestScatter(t *testing.T) {
	cases := []struct {
		payload []byte
		parts   int
		want    int
	}{
		{[]byte("abcdefgh"), 3, 3},
		{[]byte("ab"), 5, 2},
		{nil, 4, 1},
		{[]byte("abc"), 0, 1},
	}
	for _, tc := range cases {
		chunks := Scatter(tc.payload, tc.parts)
		if len(chunks) != tc.want {
			t.Fatalf("Scatter(%q,%d) = %d chunks, want %d", tc.payload, tc.parts, len(chunks), tc.want)
		}
		var re []byte
		for _, c := range chunks {
			re = append(re, c...)
		}
		if !bytes.Equal(re, tc.payload) {
			t.Fatalf("Scatter lost data: %q -> %q", tc.payload, re)
		}
	}
	// Balanced: sizes differ by at most one.
	chunks := Scatter(make([]byte, 10), 3)
	if len(chunks[0])-len(chunks[2]) > 1 {
		t.Fatalf("unbalanced scatter: %d vs %d", len(chunks[0]), len(chunks[2]))
	}
}

func TestMapGather(t *testing.T) {
	m, err := NewMap("map", MapConfig{
		Env: fastEnv(), Degree: 4, RM: smpRM(8),
		Chunk: func(c []byte) []byte {
			out := make([]byte, len(c))
			for i, b := range c {
				out[i] = b + 1
			}
			return out
		},
		ChunkWork: time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	in := []*Task{{ID: 1, Payload: []byte{1, 2, 3, 4, 5, 6, 7, 8}}}
	results := runStage(t, m, in)
	if len(results) != 1 {
		t.Fatalf("got %d results", len(results))
	}
	want := []byte{2, 3, 4, 5, 6, 7, 8, 9}
	if !bytes.Equal(results[0].Payload, want) {
		t.Fatalf("payload = %v, want %v", results[0].Payload, want)
	}
}

func TestMapReduce(t *testing.T) {
	m, _ := NewMap("mr", MapConfig{
		Env: fastEnv(), Degree: 4, RM: smpRM(8),
		Chunk: func(c []byte) []byte {
			sum := byte(0)
			for _, b := range c {
				sum += b
			}
			return []byte{sum}
		},
		Reduce: func(a, b []byte) []byte { return []byte{a[0] + b[0]} },
	})
	results := runStage(t, m, []*Task{{ID: 1, Payload: []byte{1, 2, 3, 4}}})
	if len(results) != 1 || len(results[0].Payload) != 1 || results[0].Payload[0] != 10 {
		t.Fatalf("reduce result = %v", results[0].Payload)
	}
}

func TestMapValidation(t *testing.T) {
	if _, err := NewMap("m", MapConfig{}); err == nil {
		t.Fatal("map without RM accepted")
	}
}

func TestMapSequentialFallback(t *testing.T) {
	rm := smpRM(1)
	// Occupy the only core so recruitment fails and Apply degrades.
	n, _ := rm.Recruit(grid.Request{})
	defer n.Release()
	m, _ := NewMap("m", MapConfig{Env: fastEnv(), Degree: 2, RM: rm})
	results := runStage(t, m, []*Task{{ID: 1, Payload: []byte("xy")}})
	if len(results) != 1 || !bytes.Equal(results[0].Payload, []byte("xy")) {
		t.Fatalf("fallback result = %+v", results)
	}
}

func TestTaskClone(t *testing.T) {
	orig := &Task{ID: 1, Payload: []byte("abc"), Work: time.Second}
	cp := orig.Clone()
	cp.Payload[0] = 'X'
	if orig.Payload[0] == 'X' {
		t.Fatal("Clone shares payload")
	}
}

func TestEnvDefaults(t *testing.T) {
	var e Env
	if e.scale() != 1 {
		t.Fatalf("default scale = %v", e.scale())
	}
	if e.clock() == nil {
		t.Fatal("default clock nil")
	}
	e.SleepScaled(0) // must not panic or block
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never satisfied")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPipeCancelDrains verifies the drain-on-cancel contract of Stage at
// the skeleton level: canceling the pipeline's context stops the source's
// intake while every stage keeps consuming until its input closes, so all
// emitted tasks still reach the sink and every stage goroutine exits.
func TestPipeCancelDrains(t *testing.T) {
	defer leaktest.Check(t)()
	env := fastEnv()
	src := NewSource("prod", env, 100000, 2*time.Millisecond, nil)
	farm, err := NewFarm(FarmConfig{Name: "w", Env: env, RM: smpRM(4), InitialWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	sink := NewSink("cons", env, nil)
	pipe, err := NewPipe("app", 8, src, farm, sink)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		pipe.Run(ctx, nil, nil)
		close(done)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for sink.Consumed() < 5 {
		if time.Now().After(deadline) {
			t.Fatal("stream never started")
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("pipeline did not drain after cancel")
	}
	<-sink.Done()
	if got, want := sink.Consumed(), src.Emitted(); got != want {
		t.Fatalf("consumed %d of %d emitted: accepted tasks were dropped", got, want)
	}
	if src.Emitted() >= 100000 {
		t.Fatal("cancel did not stop the source")
	}
}

// TestSourceEdgeFiresOnCancel checks the end-of-stream edge hook: it must
// fire exactly once whether the stream ends naturally or by cancelation.
func TestSourceEdgeFiresOnCancel(t *testing.T) {
	defer leaktest.Check(t)()
	src := NewSource("prod", fastEnv(), 100000, time.Millisecond, nil)
	fired := make(chan struct{}, 2)
	cancelHook := src.OnEvent(func() { fired <- struct{}{} })
	defer cancelHook()
	ctx, cancel := context.WithCancel(context.Background())
	out := make(chan *Task, 16)
	go func() {
		for range out {
		}
	}()
	go cancel()
	src.Run(ctx, nil, out)
	select {
	case <-fired:
	case <-time.After(5 * time.Second):
		t.Fatal("end-of-stream edge never fired")
	}
	if !src.Done() {
		t.Fatal("source not marked done after cancel")
	}
}

// TestEnvelopeBufferFollowsPayloadClass pins the size-classed envelope
// pools: once a 16 KiB envelope has been returned, a 256 B send must not
// be handed a buffer above its own class bound, so a queue of small
// envelopes never pins the largest payload the farm has seen.
func TestEnvelopeBufferFollowsPayloadClass(t *testing.T) {
	f, err := NewFarm(FarmConfig{Name: "classes", Env: fastEnv(), RM: smpRM(1)})
	if err != nil {
		t.Fatal(err)
	}
	f.mu.Lock()
	w := f.newWorkerLocked(nil, security.MustAESGCM(security.NewRandomKey(), nil, 0))
	f.mu.Unlock()
	roundTrip := func(n int) int {
		env := f.sealEnvelope(w, w.getCodec(), []*Task{{ID: 1, Payload: make([]byte, n)}}, nil, &f.sealBuf)
		if env == nil {
			t.Fatal("seal failed")
		}
		c := cap(env.wire)
		putEnv(env)
		return c
	}
	if c := roundTrip(16 << 10); c <= 16<<10 {
		t.Fatalf("16 KiB send sealed into a %d-byte buffer", c)
	}
	for i := 0; i < 100; i++ {
		if c := roundTrip(256); c > envClassMin {
			t.Fatalf("256 B send got a %d-byte buffer, above its %d-byte class bound", c, envClassMin)
		}
	}
}

func TestEnvelopeClasses(t *testing.T) {
	for _, tc := range []struct{ n, class int }{
		{0, 0}, {envClassMin, 0}, {envClassMin + 1, 1}, {8 << 10, 1}, {8<<10 + 1, 2},
		{64 << 10, 2}, {64<<10 + 1, 3}, {MaxRetainedBuffer, 3}, {MaxRetainedBuffer + 1, 3},
	} {
		if got := envClass(tc.n); got != tc.class {
			t.Errorf("envClass(%d) = %d, want %d", tc.n, got, tc.class)
		}
	}
	if MaxRetainedBuffer != 512<<10 {
		t.Errorf("MaxRetainedBuffer = %d, want 512 KiB", MaxRetainedBuffer)
	}
	if b := ReuseBuffer(make([]byte, 10, MaxRetainedBuffer)); b == nil || len(b) != 0 {
		t.Error("ReuseBuffer dropped a buffer at the largest class bound")
	}
	if b := ReuseBuffer(make([]byte, 0, MaxRetainedBuffer+1)); b != nil {
		t.Error("ReuseBuffer kept a buffer past the largest class bound")
	}
}
