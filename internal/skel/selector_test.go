package skel

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/grid"
	"repro/internal/security"
	"repro/internal/telemetry"
)

// countingExec is a loopback stand-in for a remote session: it returns
// every member payload unchanged and counts how many envelopes were routed
// across the transport seam.
type countingExec struct{ execs *atomic.Int64 }

func (c countingExec) ExecBatch(codec security.Codec, sealed []byte) ([]byte, int64, error) {
	c.execs.Add(1)
	plain, err := codec.Decode(sealed)
	if err != nil {
		return nil, 0, err
	}
	_, entries, err := ParseBatchBlob(nil, plain)
	if err != nil {
		return nil, 0, err
	}
	res, err := codec.Encode(AppendBatchResult(nil, entries))
	return res, 0, err
}

func (c countingExec) Exec(tc telemetry.TraceContext, id uint64, work time.Duration, codec security.Codec, sealed []byte) ([]byte, int64, error) {
	return ExecOne(c, tc, id, work, codec, sealed)
}
func (c countingExec) Rekey(codec security.Codec) (security.Codec, error) { return codec, nil }
func (c countingExec) Close() error                                       { return nil }

// TestRedistributionHonorsSelector pins the unified decision path on the
// redistribution actuators: with the Local escape hatch set, remote-backed
// workers may join the pool (recruitment is the capacity manager's call),
// but no envelope may reach them — not from the dispatcher, and not from
// Rebalance, RemoveWorker or RecoverWorker moving queued tasks around.
func TestRedistributionHonorsSelector(t *testing.T) {
	local := grid.Domain{Name: "trusted.local", Trusted: true}
	remote := grid.Domain{Name: "edge.remote", Trusted: false}
	nodes := []*grid.Node{
		grid.NewNode("l0", local, 4, 1.0),
		grid.NewNode("l1", local, 4, 1.0),
		grid.NewNode("r0", remote, 4, 1.0),
		grid.NewNode("r1", remote, 4, 1.0),
	}
	var execs atomic.Int64
	f, err := NewFarm(FarmConfig{
		Name: "pinned", Env: fastEnv(),
		RM:             grid.NewResourceManager(nodes...),
		InitialWorkers: 2,
		Selector:       Selector{Local: true},
		Executors: func(n *grid.Node) (Executor, error) {
			if n.Domain.Trusted {
				return nil, nil // loopback
			}
			return countingExec{execs: &execs}, nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	in := make(chan *Task)
	out := make(chan *Task, 256)
	done := make(chan struct{})
	var results int
	go func() {
		for range out {
			results++
		}
		close(done)
	}()
	go f.Run(nil, in, out)

	feed := func(n int) {
		for i := 0; i < n; i++ {
			in <- &Task{ID: NextTaskID(), Payload: []byte("p"), Work: time.Second}
		}
	}
	feed(40)
	// Grow onto the remote nodes (trusted ranks first, so the two locals
	// are taken; the next adds recruit remote capacity), then exercise
	// every redistribution actuator while tasks are queued.
	if _, err := f.AddWorker(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.AddWorker(); err != nil {
		t.Fatal(err)
	}
	feed(40)
	f.Rebalance()
	var victim string
	for _, w := range f.Workers() {
		if !w.Remote {
			victim = w.ID
			break
		}
	}
	if err := f.KillWorker(victim); err != nil {
		t.Fatal(err)
	}
	if _, err := f.RecoverWorker(victim); err != nil {
		t.Fatal(err)
	}
	feed(40)
	f.Rebalance()
	close(in)
	<-done

	if got := execs.Load(); got != 0 {
		t.Fatalf("%d envelopes crossed the transport seam despite Selector.Local", got)
	}
	if results != 120 {
		t.Fatalf("collected %d results, want 120", results)
	}
}
