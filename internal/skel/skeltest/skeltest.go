// Package skeltest holds the farm stress harness shared by the transport
// implementations: the loopback test in internal/skel and the framed-TCP
// test in internal/wire run the exact same actuator storm, so "both
// transports conserve the stream exactly-once" is one assertion with two
// configurations, not two tests that drift apart.
package skeltest

import (
	"context"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/security"
	"repro/internal/skel"
)

// Stress builds a farm from cfg, pumps total tasks through it while
// hammering every sensor and actuator — Stats, Workers, Rebalance,
// SetCodec, AddWorker/RemoveWorker — and asserts exactly-once delivery.
// Under -race it is the safety net for the off-lock dispatch path: target
// workers can be removed, rebalanced or re-keyed between selection and
// push, and every interleaving must still conserve the stream. cfg decides
// the transport: a nil Executors factory is the loopback plane, a
// wire-backed one exercises the framed TCP protocol (rekeys then travel as
// control frames, rebalanced envelopes cross sessions via reseal).
func Stress(t *testing.T, cfg skel.FarmConfig, total int) {
	t.Helper()
	f, err := skel.NewFarm(cfg)
	if err != nil {
		t.Fatal(err)
	}
	in := make(chan *skel.Task, 64)
	out := make(chan *skel.Task, total)
	seen := make(chan map[uint64]int, 1)
	go func() {
		m := map[uint64]int{}
		for tsk := range out {
			m[tsk.ID]++
		}
		seen <- m
	}()
	done := make(chan struct{})
	go func() { f.Run(context.Background(), in, out); close(done) }()
	waitFor(t, func() bool { return len(f.Workers()) == cfg.InitialWorkers })

	stop := make(chan struct{})
	var wg sync.WaitGroup
	hammer := func(fn func()) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
					fn()
					runtime.Gosched()
				}
			}
		}()
	}
	hammer(func() { _ = f.Stats() })
	hammer(func() { _ = f.Workers() })
	hammer(func() { f.Rebalance() })
	secure := security.MustAESGCM(security.NewRandomKey(), nil, 0)
	codecFlip := 0
	hammer(func() {
		ws := f.Workers()
		if len(ws) == 0 {
			return
		}
		var c security.Codec = security.Plain{}
		if codecFlip%2 == 0 {
			c = secure
		}
		codecFlip++
		_ = f.SetCodec(ws[codecFlip%len(ws)].ID, c) // worker may be gone; ignore
	})
	grow := true
	hammer(func() {
		if grow {
			f.AddWorker(nil) // may fail post-stream or on exhaustion; ignore
		} else {
			f.RemoveWorker() // may hit ErrLastWorker; ignore
		}
		grow = !grow
	})

	ids := make(map[uint64]bool, total)
	for i := 0; i < total; i++ {
		id := skel.NextTaskID()
		ids[id] = true
		in <- &skel.Task{ID: id, Payload: []byte("stress-payload")}
	}
	close(in)
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Fatal("farm did not terminate under actuator stress")
	}
	close(stop)
	wg.Wait()

	m := <-seen
	if len(m) != total {
		t.Fatalf("%d distinct tasks delivered, want %d", len(m), total)
	}
	for id, n := range m {
		if !ids[id] || n != 1 {
			t.Fatalf("task %d delivered %d times", id, n)
		}
	}
	if dropped := f.Stats().ErrorsDropped; dropped != 0 {
		t.Fatalf("ErrorsDropped = %d under stress, want 0", dropped)
	}
}

// waitFor polls cond until it holds or a generous deadline expires.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition not reached")
}
