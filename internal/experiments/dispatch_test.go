package experiments

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/simclock"
	"repro/internal/telemetry"
	"repro/internal/wire"
)

// startTestWorkerd launches one in-process workerd server configured the
// way cmd/workerd is: a task tracer recording exec spans for frames the
// coordinator sampled, and a stats hook answering the wire scrape with a
// node report.
func startTestWorkerd(t *testing.T, psk []byte, name string) *wire.Server {
	t.Helper()
	tracer := telemetry.NewTaskTracer(0, 1, 0)
	srv, err := wire.NewServer(wire.ServerConfig{
		PSK: psk,
		Hello: wire.Hello{
			Name:   name,
			Domain: "edge.remote",
			Cores:  2,
			Speed:  1.0,
			Labels: map[string]string{"zone": "edge"},
		},
		Clock:  simclock.NewScaledReal(200),
		Tracer: tracer,
		Stats: func() []byte {
			b, err := telemetry.BuildNodeReport(name, tracer, 256).Encode()
			if err != nil {
				return []byte("{}")
			}
			return b
		},
	})
	if err != nil {
		t.Fatalf("wire.NewServer: %v", err)
	}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatalf("srv.Listen: %v", err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// TestRemoteFarmClusterTracing is the tracing acceptance test: a
// coordinator run over two live workerd endpoints with task tracing at
// rate 1 must produce (a) spans on both sides of the wire sharing a trace
// id, (b) a coordinator span whose eight-stage latency decomposition is
// fully populated, and (c) a merged cluster report covering every node.
func TestRemoteFarmClusterTracing(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()

	psk := wire.DerivePSK("dispatch-trace-test")
	s1 := startTestWorkerd(t, psk, "edge0")
	s2 := startTestWorkerd(t, psk, "edge1")

	res, err := RemoteFarm(ctx, Options{Scale: 200}, DispatchOptions{
		Workers:     []string{s1.Addr(), s2.Addr()},
		PSK:         "dispatch-trace-test",
		Tasks:       150,
		LocalCores:  2,
		TraceSample: 1,
		TraceSeed:   7,
	})
	if err != nil {
		t.Fatalf("RemoteFarm: %v", err)
	}
	if res.RemoteStats.Execs == 0 {
		t.Fatal("no task crossed the wire; the tracing assertions need remote execs")
	}
	if res.TaskTracer == nil {
		t.Fatal("TraceSample=1 but the run returned no task tracer")
	}
	if res.Cluster == nil {
		t.Fatal("TraceSample=1 but the run returned no cluster report")
	}

	// Every node answered the scrape: the coordinator plus both workerds.
	nodes := map[string]telemetry.NodeReport{}
	for _, n := range res.Cluster.Nodes {
		nodes[n.Node] = n
	}
	for _, want := range []string{"coordinator", "edge0", "edge1"} {
		if _, ok := nodes[want]; !ok {
			t.Fatalf("cluster report misses node %q (have %v, errors %v)",
				want, len(res.Cluster.Nodes), res.Cluster.Errors)
		}
	}

	// Cross-process propagation: some workerd exec span must share its
	// trace id with a coordinator span — the id was minted coordinator-side
	// and crossed inside the exec frame.
	coordTraces := map[uint64]telemetry.Span{}
	for _, sp := range nodes["coordinator"].Spans {
		coordTraces[sp.TraceID] = sp
	}
	matched := false
	for _, name := range []string{"edge0", "edge1"} {
		for _, sp := range nodes[name].Spans {
			if _, ok := coordTraces[sp.TraceID]; ok {
				matched = true
				if sp.Parent == 0 {
					t.Errorf("workerd span %x has no parent span id", sp.TraceID)
				}
			}
		}
	}
	if !matched {
		t.Errorf("no workerd span shares a trace id with a coordinator span")
	}

	// Stage decomposition: at least one clean remote coordinator span must
	// carry a positive latency in every one of the eight stages.
	full := false
	var closest telemetry.Span
	for _, sp := range nodes["coordinator"].Spans {
		if !sp.Remote || sp.Fault != "" {
			continue
		}
		closest = sp
		all := true
		for i := 0; i < telemetry.NumStages; i++ {
			if sp.Stages[i] <= 0 {
				all = false
				break
			}
		}
		if all {
			full = true
			break
		}
	}
	if !full {
		t.Errorf("no remote span with all %d stages populated; closest: %+v",
			telemetry.NumStages, closest)
	}

	// The merged per-stage summary covers the wire and exec stages with
	// counts and ordered quantiles.
	for _, stage := range []string{"wire", "exec", "seal", "result"} {
		s, ok := res.Cluster.Stages[stage]
		if !ok || s.Count == 0 {
			t.Errorf("merged cluster summary misses stage %q", stage)
			continue
		}
		if s.P99 < s.P50 {
			t.Errorf("stage %q: p99 %v < p50 %v", stage, s.P99, s.P50)
		}
	}

	if testing.Verbose() {
		fmt.Printf("cluster: %d nodes, stages %v\n", len(res.Cluster.Nodes), res.Cluster.Stages)
	}
}
