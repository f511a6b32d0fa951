package skel

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"math"
	"testing"
	"time"

	"repro/internal/grid"
	"repro/internal/runtime/leaktest"
	"repro/internal/security"
	"repro/internal/telemetry"
)

func testNode(name string) *grid.Node {
	return grid.NewNode(name, grid.Domain{Name: "dom", Trusted: true}, 1, 1)
}

func TestBatchBlobRoundtrip(t *testing.T) {
	tasks := []*Task{
		{ID: 11, Work: 3 * time.Millisecond, Payload: []byte("alpha")},
		{ID: 12, Work: 0, Payload: nil},
		{ID: 13, Work: time.Second, Payload: bytes.Repeat([]byte{0xAB}, 300)},
	}
	want := [][]byte{[]byte("alpha"), nil, bytes.Repeat([]byte{0xAB}, 300)}
	blob := appendBatchBlob(nil, tasks, 0, telemetry.TraceContext{})

	_, entries, err := ParseBatchBlob(nil, blob)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 3 {
		t.Fatalf("got %d entries", len(entries))
	}
	for i, e := range entries {
		if e.ID != tasks[i].ID || e.Work != tasks[i].Work || !bytes.Equal(e.Payload, want[i]) {
			t.Fatalf("entry %d = %+v", i, e)
		}
	}
}

func TestBatchBlobWorkOverride(t *testing.T) {
	tasks := []*Task{{ID: 1, Work: time.Hour, Payload: []byte("x")}}
	_, entries, err := ParseBatchBlob(nil, appendBatchBlob(nil, tasks, 5*time.Millisecond, telemetry.TraceContext{}))
	if err != nil {
		t.Fatal(err)
	}
	if entries[0].Work != 5*time.Millisecond {
		t.Fatalf("Work = %v, want the override", entries[0].Work)
	}
}

func TestBatchBlobMalformed(t *testing.T) {
	tasks := []*Task{{ID: 1, Payload: []byte("abc")}, {ID: 2, Payload: []byte("defg")}}
	blob := appendBatchBlob(nil, tasks, 0, telemetry.TraceContext{})
	cases := map[string][]byte{
		"empty":       {},
		"short-count": blob[:2],
		"truncated":   blob[:len(blob)-3],
		"trailing":    append(append([]byte(nil), blob...), 0x00),
	}
	for name, b := range cases {
		if _, _, err := ParseBatchBlob(nil, b); err == nil {
			t.Errorf("ParseBatchBlob(%s): no error", name)
		}
	}
	// A count that disagrees with the entries present leaves bytes over or
	// runs short; either way the blob is refused.
	for _, n := range []uint32{1, 3} {
		b := append([]byte(nil), blob...)
		binary.BigEndian.PutUint32(b[telemetry.TraceContextSize:], n)
		if _, _, err := ParseBatchBlob(nil, b); err == nil {
			t.Errorf("count %d over 2 entries accepted", n)
		}
	}
	// The parsed view carries each entry's own ID, in blob order: a
	// rewritten ID reaches the server as written, never matched away.
	b := append([]byte(nil), blob...)
	second := telemetry.TraceContextSize + 4 + 20 + len(tasks[0].Payload)
	binary.BigEndian.PutUint64(b[second:], 99)
	_, entries, err := ParseBatchBlob(nil, b)
	if err != nil {
		t.Fatal(err)
	}
	if entries[0].ID != 1 || entries[1].ID != 99 {
		t.Errorf("parsed IDs %d, %d; want 1, 99", entries[0].ID, entries[1].ID)
	}
}

// TestBatchResultAtomicity pins the two-pass contract of unpackResultInto:
// a result blob that fails validation anywhere must leave every member
// payload untouched, because the envelope strands for recovery and a
// recompute would otherwise start from half-assigned payloads.
func TestBatchResultAtomicity(t *testing.T) {
	tasks := []*Task{
		{ID: 21, Payload: []byte("keep-a")},
		{ID: 22, Payload: []byte("keep-b")},
	}
	good := AppendBatchResult(nil, []BatchEntry{
		{ID: 21, Payload: []byte("res-a")},
		{ID: 22, Payload: []byte("res-b")},
	})
	if err := unpackResultInto(good[:len(good)-2], tasks); err == nil {
		t.Fatal("truncated result blob accepted")
	}
	if !bytes.Equal(tasks[0].Payload, []byte("keep-a")) || !bytes.Equal(tasks[1].Payload, []byte("keep-b")) {
		t.Fatalf("payloads mutated by failed unpack: %q %q", tasks[0].Payload, tasks[1].Payload)
	}
	if err := unpackResultInto(good, tasks); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(tasks[0].Payload, []byte("res-a")) || !bytes.Equal(tasks[1].Payload, []byte("res-b")) {
		t.Fatalf("payloads after unpack: %q %q", tasks[0].Payload, tasks[1].Payload)
	}
}

// TestRoundRobinCursorWraps seeds the round-robin cursor at the edge of the
// integer range: the pre-fix dispatcher incremented it forever, so after
// overflow the modulo went negative and indexed out of bounds (a panic in
// the dispatcher goroutine). The cursor must wrap and keep cycling.
func TestRoundRobinCursorWraps(t *testing.T) {
	f, err := NewFarm(FarmConfig{Name: "rr", RM: smpRM(4), Dispatch: RoundRobin})
	if err != nil {
		t.Fatal(err)
	}
	avail := []*worker{
		{id: "a", queue: newQueue()},
		{id: "b", queue: newQueue()},
		{id: "c", queue: newQueue()},
	}
	rr := math.MaxInt - 1
	picked := map[string]int{}
	for i := 0; i < 6; i++ {
		w := f.decideTarget(avail, &rr)
		if w == nil {
			t.Fatalf("pick %d: nil target", i)
		}
		picked[w.id]++
		if rr < 0 || rr >= len(avail) {
			t.Fatalf("pick %d left cursor at %d, want wrapped into [0,%d)", i, rr, len(avail))
		}
	}
	// Two full cycles: round-robin must have visited every worker twice.
	for _, w := range avail {
		if picked[w.id] != 2 {
			t.Fatalf("distribution %v, want 2 picks each", picked)
		}
	}
}

// TestBroadcastPushFailureDropsClone pins the Broadcast reroute fix: when
// one clone's push is refused (its recipient vanished between snapshot and
// push), the clone must be dropped — every other admitted worker already
// received its own clone, so re-routing through the decision path would
// deliver a duplicate to one of them.
func TestBroadcastPushFailureDropsClone(t *testing.T) {
	f, err := NewFarm(FarmConfig{Name: "bc", RM: smpRM(4), Dispatch: Broadcast})
	if err != nil {
		t.Fatal(err)
	}
	f.mu.Lock()
	w1 := f.newWorkerLocked(testNode("n1"), security.Plain{})
	w2 := f.newWorkerLocked(testNode("n2"), security.Plain{})
	f.workers = append(f.workers, w1, w2)
	f.everHadWorker = true
	f.refreshRoutesLocked()
	f.mu.Unlock()
	// w2's queue refuses pushes, exactly as if the worker had just been
	// removed or migrated after the dispatch snapshot was taken.
	w2.queue.close()

	f.newDispatcher().dispatchOne(&Task{ID: NextTaskID(), Payload: []byte("b")})

	if n := w1.queue.len(); n != 1 {
		t.Fatalf("w1 queue holds %d envelopes, want exactly 1 (duplicate broadcast clone re-routed)", n)
	}
	f.mu.Lock()
	parked := len(f.pending)
	f.mu.Unlock()
	if parked != 0 {
		t.Fatalf("%d clones parked, want 0", parked)
	}
}

// TestEmptyPoolRecruitFailureTerminates pins the empty-pool parking fix: a
// farm whose every recruitment was refused has no crashed worker and no
// recovery coming, so dispatched tasks must be dropped with an error and
// the run must terminate instead of parking them forever.
func TestEmptyPoolRecruitFailureTerminates(t *testing.T) {
	defer leaktest.Check(t)()
	rm := smpRM(4)
	rm.SetRecruitFault(func(grid.Request) error { return errors.New("injected: recruitment refused") })
	f, err := NewFarm(FarmConfig{Name: "norecruit", Env: fastEnv(), RM: rm, InitialWorkers: 2})
	if err != nil {
		t.Fatal(err)
	}
	in := make(chan *Task, 8)
	for _, tk := range mkTasks(5, time.Millisecond) {
		in <- tk
	}
	close(in)
	out := make(chan *Task, 8)
	done := make(chan struct{})
	go func() {
		f.Run(context.Background(), in, out)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("farm hung: tasks parked with no worker ever recruited")
	}
	if n := len(out); n != 0 {
		t.Fatalf("%d results from a farm with no workers", n)
	}
	errs := 0
drain:
	for {
		select {
		case <-f.Errors():
			errs++
		default:
			break drain
		}
	}
	if errs == 0 && f.Stats().ErrorsDropped == 0 {
		t.Fatal("tasks dropped silently: want per-task errors reported")
	}
}

// TestSplitEnvelopes verifies the actuator-side batch split: each member of
// a batch envelope becomes a one-task envelope re-sealed with the codec the
// batch carried, so redistribution hands downstream workers exactly the
// envelopes the unbatched farm would have produced.
func TestSplitEnvelopes(t *testing.T) {
	f, err := NewFarm(FarmConfig{Name: "split", RM: smpRM(4)})
	if err != nil {
		t.Fatal(err)
	}
	codec := security.MustAESGCM(security.NewRandomKey(), nil, 0)
	tasks := []*Task{
		{ID: 31, Payload: []byte("one")},
		{ID: 32, Payload: []byte("two")},
		{ID: 33, Payload: []byte("three")},
	}
	blob := appendBatchBlob(nil, tasks, 0, telemetry.TraceContext{})
	wire, err := codec.Encode(blob)
	if err != nil {
		t.Fatal(err)
	}
	env := &envelope{tasks: append([]*Task(nil), tasks...), wire: wire, codec: codec}
	single := &envelope{tasks: []*Task{{ID: 34, Payload: []byte("solo")}}, wire: []byte("raw"), codec: security.Plain{}}

	f.mu.Lock()
	out := f.splitEnvelopesLocked([]*envelope{env, single})
	f.mu.Unlock()

	if len(out) != 4 {
		t.Fatalf("split produced %d envelopes, want 4", len(out))
	}
	for i, want := range tasks {
		e := out[i]
		if len(e.tasks) != 1 || e.tasks[0].ID != want.ID {
			t.Fatalf("split envelope %d = %+v", i, e)
		}
		plain, err := e.codec.Decode(e.wire)
		if err != nil {
			t.Fatalf("split envelope %d does not decode with the carried codec: %v", i, err)
		}
		_, entries, err := ParseBatchBlob(nil, plain)
		if err != nil || len(entries) != 1 || entries[0].ID != want.ID {
			t.Fatalf("split envelope %d blob: %+v, %v", i, entries, err)
		}
		if !bytes.Equal(entries[0].Payload, want.Payload) {
			t.Fatalf("split envelope %d payload %q, want %q", i, entries[0].Payload, want.Payload)
		}
	}
	if out[3] != single {
		t.Fatal("one-task envelope must pass through the split untouched")
	}
}

// runFarmCollect runs a farm over the given tasks and returns the delivery
// count per task ID plus the collected results.
func runFarmCollect(t *testing.T, f *Farm, tasks []*Task) (map[uint64]int, []*Task) {
	t.Helper()
	in := make(chan *Task, len(tasks))
	for _, tk := range tasks {
		in <- tk
	}
	close(in)
	out := make(chan *Task, len(tasks)*8+16)
	done := make(chan struct{})
	var results []*Task
	go func() {
		for r := range out {
			results = append(results, r)
		}
		close(done)
	}()
	f.Run(context.Background(), in, out)
	<-done
	counts := map[uint64]int{}
	for _, r := range results {
		counts[r.ID]++
	}
	return counts, results
}

// TestFarmBatchedDispatchExactlyOnce runs the batched hot path end to end:
// every task delivered exactly once, transformed by the worker function,
// across a pool wide enough that batches interleave.
func TestFarmBatchedDispatchExactlyOnce(t *testing.T) {
	defer leaktest.Check(t)()
	for _, dispatch := range []DispatchPolicy{OnDemand, RoundRobin} {
		f, err := NewFarm(FarmConfig{
			Name:           "batched",
			Env:            fastEnv(),
			RM:             smpRM(8),
			InitialWorkers: 4,
			Dispatch:       dispatch,
			DispatchBatch:  8,
			Fn: func(tk *Task) *Task {
				tk.Payload = append(tk.Payload, 'x')
				return tk
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		tasks := mkTasks(100, time.Millisecond)
		counts, results := runFarmCollect(t, f, tasks)
		if len(counts) != 100 {
			t.Fatalf("dispatch=%v: %d distinct tasks delivered, want 100", dispatch, len(counts))
		}
		for id, n := range counts {
			if n != 1 {
				t.Fatalf("dispatch=%v: task %d delivered %d times", dispatch, id, n)
			}
		}
		for _, r := range results {
			if len(r.Payload) != 2 || r.Payload[1] != 'x' {
				t.Fatalf("dispatch=%v: result payload %q not transformed", dispatch, r.Payload)
			}
		}
	}
}

// TestFarmBatchedSecureCodec runs the batched path with an AES-GCM binding
// installed through the two-phase prepare hook: one seal per batch must
// still round-trip every member payload.
func TestFarmBatchedSecureCodec(t *testing.T) {
	defer leaktest.Check(t)()
	f, err := NewFarm(FarmConfig{
		Name:           "batched-sec",
		Env:            fastEnv(),
		RM:             smpRM(4),
		InitialWorkers: 1,
		DispatchBatch:  16,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Replace the plain initial recruitment with a prepared, secured worker
	// before any task flows.
	if _, err := f.AddWorkerWithPrepare(func(id string, node *grid.Node, setCodec func(security.Codec)) error {
		setCodec(security.MustAESGCM(security.NewRandomKey(), nil, 0))
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	counts, _ := runFarmCollect(t, f, mkTasks(64, 0))
	if len(counts) != 64 {
		t.Fatalf("%d distinct tasks delivered, want 64", len(counts))
	}
}

// TestFarmBatchedBroadcast: with batching on, Broadcast still delivers one
// clone per admitted worker per task.
func TestFarmBatchedBroadcast(t *testing.T) {
	defer leaktest.Check(t)()
	f, err := NewFarm(FarmConfig{
		Name:           "batched-bc",
		Env:            fastEnv(),
		RM:             smpRM(4),
		InitialWorkers: 2,
		Dispatch:       Broadcast,
		DispatchBatch:  4,
	})
	if err != nil {
		t.Fatal(err)
	}
	counts, results := runFarmCollect(t, f, mkTasks(10, time.Millisecond))
	if len(results) != 20 {
		t.Fatalf("%d results, want 10 tasks × 2 workers = 20", len(results))
	}
	for id, n := range counts {
		if n != 2 {
			t.Fatalf("task %d delivered %d times, want 2", id, n)
		}
	}
}

// TestFarmBatchFlushDeadline pins the flush-on-idle bound: a partial batch
// must not wait for the batch to fill when the stream idles.
func TestFarmBatchFlushDeadline(t *testing.T) {
	defer leaktest.Check(t)()
	f, err := NewFarm(FarmConfig{
		Name:           "trickle",
		Env:            fastEnv(),
		RM:             smpRM(2),
		InitialWorkers: 1,
		DispatchBatch:  64, // far larger than the trickle
		BatchFlush:     2 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	in := make(chan *Task)
	out := make(chan *Task, 16)
	done := make(chan struct{})
	go func() {
		f.Run(context.Background(), in, out)
		close(done)
	}()
	for i := 0; i < 3; i++ {
		in <- &Task{ID: NextTaskID(), Payload: []byte{byte(i)}}
	}
	// The input stays open: only the flush deadline can move these 3 tasks.
	for i := 0; i < 3; i++ {
		select {
		case <-out:
		case <-time.After(5 * time.Second):
			t.Fatalf("result %d never arrived: partial batch not flushed on idle", i)
		}
	}
	close(in)
	<-done
	for range out {
	}
}

// TestCrossBindingRedistributionLoopback pins the cross-binding envelope
// contract on the loopback plane, unbatched and batched: tasks sealed for
// one worker's binding are redistributed mid-stream (rebalance, removal,
// recovery all funnel through the same restore path) onto workers with
// *different* binding codecs, and every task must still arrive exactly
// once with an intact payload — an envelope always decodes with the codec
// it carries, and batch envelopes are split back into re-sealed singles
// before they move.
func TestCrossBindingRedistributionLoopback(t *testing.T) {
	for _, batch := range []int{0, 16} {
		batch := batch
		name := "unbatched"
		if batch > 1 {
			name = "batched"
		}
		t.Run(name, func(t *testing.T) {
			defer leaktest.Check(t)()
			f, err := NewFarm(FarmConfig{
				Name:           "xbind",
				Env:            fastEnv(),
				RM:             smpRM(8),
				InitialWorkers: 2,
				WorkOverride:   5 * time.Millisecond,
				DispatchBatch:  batch,
				Fn: func(tk *Task) *Task {
					tk.Payload = append(tk.Payload, 'x')
					return tk
				},
			})
			if err != nil {
				t.Fatal(err)
			}
			const total = 120
			in := make(chan *Task, total)
			out := make(chan *Task, total+16)
			done := make(chan struct{})
			counts := map[uint64]int{}
			badPayload := 0
			go func() {
				for r := range out {
					counts[r.ID]++
					if len(r.Payload) != 3 || r.Payload[2] != 'x' {
						badPayload++
					}
				}
				close(done)
			}()
			run := make(chan struct{})
			go func() {
				f.Run(context.Background(), in, out)
				close(run)
			}()
			deadline := time.Now().Add(10 * time.Second)
			for len(f.Workers()) < 2 && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			// Distinct binding codecs: worker 0 stays Plain, worker 1 goes
			// AES-GCM. Envelopes queued for one binding will be restored
			// into the other's queue by the churn below.
			ws := f.Workers()
			if len(ws) != 2 {
				t.Fatalf("have %d workers", len(ws))
			}
			if err := f.SetCodec(ws[1].ID, security.MustAESGCM(security.NewRandomKey(), nil, 0)); err != nil {
				t.Fatal(err)
			}
			feed := func(n int) {
				for i := 0; i < n; i++ {
					in <- &Task{ID: NextTaskID(), Payload: []byte{byte(i), byte(i >> 8)}}
				}
			}
			feed(total / 2)
			f.Rebalance()
			if _, err := f.RemoveWorker(); err != nil {
				t.Fatal(err)
			}
			if _, err := f.AddWorker(); err != nil {
				t.Fatal(err)
			}
			ws = f.Workers()
			_ = f.SetCodec(ws[len(ws)-1].ID, security.MustAESGCM(security.NewRandomKey(), nil, 0))
			feed(total / 2)
			f.Rebalance()
			close(in)
			select {
			case <-run:
			case <-time.After(30 * time.Second):
				t.Fatal("farm did not terminate")
			}
			<-done
			if len(counts) != total {
				t.Fatalf("%d distinct tasks delivered, want %d", len(counts), total)
			}
			for id, n := range counts {
				if n != 1 {
					t.Fatalf("task %d delivered %d times", id, n)
				}
			}
			if badPayload != 0 {
				t.Fatalf("%d results with corrupt payloads after cross-binding redistribution", badPayload)
			}
		})
	}
}

// FuzzUnpackResultInto feeds hostile result blobs to an envelope of n
// tasks (ids 1..n). A refused blob must leave every payload untouched
// (the two-pass atomicity contract); an accepted one must cover the blob
// exactly. Without -fuzz the seed corpus runs as an ordinary test.
func FuzzUnpackResultInto(f *testing.F) {
	f.Add(AppendBatchResult(nil, []BatchEntry{{ID: 1, Payload: []byte("a")}, {ID: 2, Payload: []byte("bb")}}), uint8(2))
	f.Add(AppendBatchResult(nil, []BatchEntry{{ID: 1}}), uint8(1))
	f.Add(AppendBatchResult(nil, []BatchEntry{{ID: 2, Payload: []byte("x")}, {ID: 1}}), uint8(2))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff}, uint8(3))
	f.Add([]byte{0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1, 0xff, 0xff, 0xff, 0xff}, uint8(1))
	f.Fuzz(func(t *testing.T, blob []byte, n uint8) {
		tasks := make([]*Task, n)
		for i := range tasks {
			tasks[i] = &Task{ID: uint64(i + 1), Payload: []byte("orig")}
		}
		if err := unpackResultInto(blob, tasks); err != nil {
			for _, tk := range tasks {
				if string(tk.Payload) != "orig" {
					t.Fatalf("refused blob mutated task %d: %q", tk.ID, tk.Payload)
				}
			}
			return
		}
		size := 4
		for _, tk := range tasks {
			size += 12 + len(tk.Payload)
		}
		if size != len(blob) {
			t.Fatalf("results cover %d of %d blob bytes", size, len(blob))
		}
	})
}
