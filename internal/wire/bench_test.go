package wire

import (
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/security"
)

// The per-transport dispatch benchmarks measure one task round trip
// through the Executor seam — seal, route, execute, unseal — for the two
// transports a worker binding can sit behind: the in-process loopback
// default and a live framed-TCP session to a workerd on localhost. The
// delta between them is the price of crossing the process boundary
// (framing, the wire reseal into the session epoch, kernel round trips on
// a loopback socket); the loopback number is the floor the dispatch
// refactor must not regress.

var benchPayload = make([]byte, 256)

// BenchmarkDispatchLoopback is the in-process path: the envelope is sealed
// with the binding codec and opened right back on the same machine — what
// a farm worker without an Executor does per task (minus the modelled
// sleep, which benchmarks the clock, not the plane).
func BenchmarkDispatchLoopback(b *testing.B) {
	codec := security.MustAESGCM(security.NewRandomKey(), nil, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sealed, err := codec.Encode(benchPayload)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := codec.Decode(sealed); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDispatchTCP is the cross-process path: the same sealed envelope
// travels to a workerd over a framed localhost TCP connection and the
// sealed result comes back. The server has no Clock, so the workerd sleeps
// nothing: the measurement is pure transport + crypto.
func BenchmarkDispatchTCP(b *testing.B) {
	srv, err := NewServer(ServerConfig{PSK: testPSK(), Hello: edgeHello("bench0")})
	if err != nil {
		b.Fatal(err)
	}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	factory, err := NewFactory(testPSK(), 5*time.Second)
	if err != nil {
		b.Fatal(err)
	}
	node := NodeFromHello(srv.Addr(), edgeHello("bench0"))
	node.Allocate()
	defer node.Release()
	exec, err := factory.Executor(node)
	if err != nil {
		b.Fatal(err)
	}
	defer exec.Close()
	codec, err := exec.Rekey(security.MustAESGCM(security.NewRandomKey(), nil, 0))
	if err != nil {
		b.Fatal(err)
	}
	var id atomic.Uint64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sealed, err := codec.Encode(benchPayload)
		if err != nil {
			b.Fatal(err)
		}
		res, _, err := exec.Exec(noTrace, id.Add(1), 0, codec, sealed)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := codec.Decode(res); err != nil {
			b.Fatal(err)
		}
	}
}
