package skel

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/grid"
	"repro/internal/runtime/leaktest"
	"repro/internal/security"
)

func TestMigrateWorkerMovesQueueAndCompletes(t *testing.T) {
	trusted := grid.Domain{Name: "d", Trusted: true}
	slow := grid.NewNode("slow", trusted, 1, 0.25)
	fast := grid.NewNode("fast", trusted, 1, 2.0)
	// Recruitment order is trusted+faster first, so occupy fast initially
	// to force the first worker onto the slow node... instead recruit by
	// MinSpeed later; start the farm on the slow node by excluding fast.
	rm := grid.NewResourceManager(slow)
	f, _ := NewFarm(FarmConfig{Name: "mig", Env: Env{TimeScale: 200}, RM: rm, InitialWorkers: 1})
	in := make(chan *Task)
	out := make(chan *Task, 64)
	count := make(chan int, 1)
	go func() {
		n := 0
		for range out {
			n++
		}
		count <- n
	}()
	done := make(chan struct{})
	go func() { f.Run(context.Background(), in, out); close(done) }()
	waitFor(t, func() bool { return len(f.Workers()) == 1 })

	for i := 0; i < 12; i++ {
		in <- &Task{ID: NextTaskID(), Work: 2 * time.Second}
	}
	waitFor(t, func() bool { return f.Stats().Dispatched == 12 })

	// Add the fast node to the pool and migrate onto it.
	rm2 := grid.NewResourceManager(slow, fast)
	_ = rm2 // the farm keeps its own RM; recruit via a fresh request below
	victim := f.Workers()[0].ID
	if _, err := f.MigrateWorker(victim, grid.Request{MinSpeed: 1.0}, nil); err == nil {
		t.Fatal("migration to a node the RM does not have must fail")
	}

	// The farm's RM only has the slow node; build a farm wired to both to
	// exercise the success path.
	close(in)
	<-done
	<-count

	rmBoth := grid.NewResourceManager(slow, fast)
	// Occupy fast so the initial worker lands on slow.
	fastSlot, err := rmBoth.Recruit(grid.Request{MinSpeed: 1.0})
	if err != nil {
		t.Fatal(err)
	}
	f2, _ := NewFarm(FarmConfig{Name: "mig2", Env: Env{TimeScale: 200}, RM: rmBoth, InitialWorkers: 1})
	in2 := make(chan *Task)
	out2 := make(chan *Task, 64)
	count2 := make(chan int, 1)
	go func() {
		n := 0
		for range out2 {
			n++
		}
		count2 <- n
	}()
	done2 := make(chan struct{})
	go func() { f2.Run(context.Background(), in2, out2); close(done2) }()
	waitFor(t, func() bool { return len(f2.Workers()) == 1 })
	if f2.Workers()[0].Node.ID != "slow" {
		t.Fatalf("initial worker on %s, want slow", f2.Workers()[0].Node.ID)
	}
	for i := 0; i < 12; i++ {
		in2 <- &Task{ID: NextTaskID(), Work: 2 * time.Second}
	}
	waitFor(t, func() bool { return f2.Stats().Dispatched == 12 })

	fastSlot.Release() // the fast node becomes available
	oldID := f2.Workers()[0].ID
	newID, err := f2.MigrateWorker(oldID, grid.Request{MinSpeed: 1.0}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if newID == oldID {
		t.Fatal("migration kept the same worker id")
	}
	ws := f2.Workers()
	if len(ws) != 1 || ws[0].Node.ID != "fast" {
		t.Fatalf("workers after migration: %+v", ws)
	}
	close(in2)
	select {
	case <-done2:
	case <-time.After(30 * time.Second):
		t.Fatal("farm hung after migration")
	}
	if n := <-count2; n != 12 {
		t.Fatalf("completed %d/12 after migration", n)
	}
	// Both nodes fully released.
	if slow.Busy() != 0 || fast.Busy() != 0 {
		t.Fatalf("slots leaked: slow=%d fast=%d", slow.Busy(), fast.Busy())
	}
}

func TestMigrateWorkerErrors(t *testing.T) {
	f, _ := NewFarm(FarmConfig{Name: "mig", Env: fastEnv(), RM: smpRM(4), InitialWorkers: 2})
	in := make(chan *Task)
	out := make(chan *Task, 16)
	go func() {
		for range out {
		}
	}()
	done := make(chan struct{})
	go func() { f.Run(context.Background(), in, out); close(done) }()
	waitFor(t, func() bool { return len(f.Workers()) == 2 })
	if _, err := f.MigrateWorker("nope", grid.Request{}, nil); err == nil {
		t.Fatal("migration of unknown worker accepted")
	}
	victim := f.Workers()[0].ID
	if err := f.KillWorker(victim); err != nil {
		t.Fatal(err)
	}
	if _, err := f.MigrateWorker(victim, grid.Request{}, nil); err == nil {
		t.Fatal("migration of crashed worker accepted")
	}
	if _, err := f.RecoverWorker(victim); err != nil {
		t.Fatal(err)
	}
	close(in)
	<-done
}

func TestMigrateWorkerKeepsCodec(t *testing.T) {
	f, _ := NewFarm(FarmConfig{Name: "mig", Env: fastEnv(), RM: smpRM(8), InitialWorkers: 1})
	in := make(chan *Task)
	out := make(chan *Task, 16)
	go func() {
		for range out {
		}
	}()
	done := make(chan struct{})
	go func() { f.Run(context.Background(), in, out); close(done) }()
	waitFor(t, func() bool { return len(f.Workers()) == 1 })
	old := f.Workers()[0]
	key := make([]byte, 32)
	if err := f.SetCodec(old.ID, mustGCM(key)); err != nil {
		t.Fatal(err)
	}
	newID, err := f.MigrateWorker(old.ID, grid.Request{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range f.Workers() {
		if w.ID == newID && !w.Secure {
			t.Fatal("secure codec lost in migration")
		}
	}
	close(in)
	<-done
}

func mustGCM(key []byte) security.Codec {
	return security.MustAESGCM(key, nil, 0)
}

// TestMigrateWorkerRunsPrepare pins the two-phase guarantee on migration: a
// worker moved onto an untrusted node runs the prepare hook with its own id
// and node before it becomes dispatchable, so the hook can secure it.
func TestMigrateWorkerRunsPrepare(t *testing.T) {
	defer leaktest.Check(t)()
	trusted := grid.NewNode("t0", grid.Domain{Name: "t", Trusted: true}, 1, 1.0)
	untrusted := grid.NewNode("u0", grid.Domain{Name: "u"}, 1, 1.0)
	f, _ := NewFarm(FarmConfig{Name: "migprep", Env: fastEnv(), RM: grid.NewResourceManager(trusted, untrusted)})
	in := make(chan *Task)
	out := make(chan *Task, 16)
	done := make(chan struct{})
	go func() { f.Run(context.Background(), in, out); close(done) }()
	waitFor(t, func() bool { return len(f.Workers()) == 1 })
	old := f.Workers()[0]
	if old.Node != trusted {
		t.Fatalf("initial worker on %s, want t0", old.Node.ID)
	}

	var gotID string
	var gotNode *grid.Node
	newID, err := f.MigrateWorker(old.ID, grid.Request{}, func(id string, node *grid.Node, setCodec func(security.Codec)) error {
		gotID, gotNode = id, node
		if !node.Domain.Trusted {
			setCodec(mustGCM(security.NewRandomKey()))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if gotID != newID || gotNode != untrusted {
		t.Fatalf("prepare called with (%q, %v), want (%q, u0)", gotID, gotNode, newID)
	}
	ws := f.Workers()
	if len(ws) != 1 || ws[0].ID != newID || ws[0].Node != untrusted || !ws[0].Secure {
		t.Fatalf("workers after migration: %+v", ws)
	}
	close(in)
	<-done
	for range out {
	}
}

// rekeyFailExec is a remote session whose every rekey fails; it counts the
// sessions closed.
type rekeyFailExec struct {
	countingExec
	closed *atomic.Int64
}

func (e rekeyFailExec) Rekey(security.Codec) (security.Codec, error) {
	return nil, errors.New("rekey refused")
}
func (e rekeyFailExec) Close() error { e.closed.Add(1); return nil }

// TestProvisionFailureRollsBack pins the failure paths of the one
// provisioning step: when the binding cannot be installed on the new
// worker's session, AddWorker and MigrateWorker both fail, release the
// recruited node, close the session and leave the pool as it was.
func TestProvisionFailureRollsBack(t *testing.T) {
	defer leaktest.Check(t)()
	var execs, closed atomic.Int64
	rm := smpRM(4)
	f, _ := NewFarm(FarmConfig{
		Name: "provfail", Env: fastEnv(), RM: rm,
		Executors: func(*grid.Node) (Executor, error) {
			return rekeyFailExec{countingExec{&execs}, &closed}, nil
		},
	})
	in := make(chan *Task)
	out := make(chan *Task, 16)
	done := make(chan struct{})
	go func() { f.Run(context.Background(), in, out); close(done) }()
	waitFor(t, func() bool { return len(f.Workers()) == 1 })
	before, cores := f.Workers(), rm.CoresInUse()
	check := func(what string, err error, wantClosed int64) {
		t.Helper()
		if err == nil {
			t.Fatalf("%s succeeded with a failing rekey", what)
		}
		if n := rm.CoresInUse(); n != cores {
			t.Fatalf("%s: %d cores in use, want %d (recruited node not released)", what, n, cores)
		}
		if n := closed.Load(); n != wantClosed {
			t.Fatalf("%s: %d sessions closed, want %d", what, n, wantClosed)
		}
		if ws := f.Workers(); len(ws) != 1 || ws[0].ID != before[0].ID {
			t.Fatalf("%s changed the pool: %+v", what, ws)
		}
	}
	_, err := f.AddWorker(func(_ string, _ *grid.Node, setCodec func(security.Codec)) error {
		setCodec(mustGCM(security.NewRandomKey()))
		return nil
	})
	check("AddWorker", err, 1)
	_, err = f.MigrateWorker(before[0].ID, grid.Request{}, nil)
	check("MigrateWorker", err, 2)
	close(in)
	<-done
	for range out {
	}
}
