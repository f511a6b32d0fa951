package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"repro/internal/grid"
	"repro/internal/runtime/leaktest"
	"repro/internal/security"
	"repro/internal/skel"
	"repro/internal/skel/skeltest"
	"repro/internal/telemetry"
)

// noTrace is the zero trace context: the unsampled common case on the wire.
var noTrace telemetry.TraceContext

func testPSK() []byte { return bytes.Repeat([]byte{0x42}, 32) }

func startServer(t *testing.T, hello Hello, fn WorkerFn) *Server {
	t.Helper()
	srv, err := NewServer(ServerConfig{PSK: testPSK(), Hello: hello, Fn: fn})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

func edgeHello(name string) Hello {
	return Hello{
		Name: name, Domain: "edge.remote", Trusted: true,
		Cores: 1, Speed: 1.0, Labels: map[string]string{"zone": "edge"},
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	body := bytes.Repeat([]byte("frame"), 100)
	if err := writeFrame(&buf, frameExecBatch, body); err != nil {
		t.Fatal(err)
	}
	wireBytes := append([]byte(nil), buf.Bytes()...)
	typ, got, err := readFrame(&buf)
	if err != nil || typ != frameExecBatch || !bytes.Equal(got, body) {
		t.Fatalf("roundtrip: typ=%#x err=%v", typ, err)
	}
	// Every truncation must error, never panic or block on a short reader.
	for cut := 0; cut < len(wireBytes); cut++ {
		if _, _, err := readFrame(bytes.NewReader(wireBytes[:cut])); err == nil {
			t.Fatalf("readFrame accepted a %d/%d-byte truncation", cut, len(wireBytes))
		}
	}
	// A hostile length prefix must be refused before allocation.
	huge := []byte{0xff, 0xff, 0xff, 0xff, frameExecBatch}
	if _, _, err := readFrame(bytes.NewReader(huge)); err != errFrameTooLarge {
		t.Fatalf("oversized frame: %v", err)
	}
}

// TestFrameReaderReusesBuffer pins the per-connection read buffer: frames
// no larger than one already read land in the same memory without
// allocating, and a buffer one oversized frame grew past
// skel.MaxRetainedBuffer is dropped at the next read instead of kept.
func TestFrameReaderReusesBuffer(t *testing.T) {
	small := frameBytes(frameExecBatch, bytes.Repeat([]byte("s"), 300))
	r := bytes.NewReader(small)
	fr := frameReader{r: r}
	if _, _, err := fr.read(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		r.Reset(small)
		if _, body, err := fr.read(); err != nil || len(body) != 300 {
			t.Fatalf("read: %d bytes, %v", len(body), err)
		}
	})
	if allocs != 0 {
		t.Fatalf("reading a frame into a warm buffer allocated %v times", allocs)
	}
	r.Reset(frameBytes(frameExecBatch, make([]byte, skel.MaxRetainedBuffer+1)))
	if _, _, err := fr.read(); err != nil {
		t.Fatal(err)
	}
	r.Reset(small)
	if _, _, err := fr.read(); err != nil {
		t.Fatal(err)
	}
	if cap(fr.buf) > skel.MaxRetainedBuffer {
		t.Fatalf("read buffer kept %d bytes after an oversized frame", cap(fr.buf))
	}
}

func TestSessionRekeyAndExec(t *testing.T) {
	srv := startServer(t, edgeHello("edge0"), func(p []byte) []byte {
		return append(p, []byte("+fn")...)
	})
	f, err := NewFactory(testPSK(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	node := NodeFromHello(srv.Addr(), edgeHello("edge0"))
	node.Allocate()
	defer node.Release()
	exec, err := f.Executor(node)
	if err != nil {
		t.Fatal(err)
	}
	defer exec.Close()

	// Epoch 0 is Plain on both ends: an exec before any rekey works.
	plainCodec := security.Plain{}
	sealed, _ := plainCodec.Encode([]byte("hello"))
	res, _, err := exec.Exec(noTrace, 1, 0, plainCodec, sealed)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := plainCodec.Decode(res); string(got) != "hello+fn" {
		t.Fatalf("epoch-0 exec: %q", got)
	}

	// Rekey installs an AES-GCM binding; the returned wrapper must seal
	// and open locally too (it is a full security.Codec).
	inner := security.MustAESGCM(security.NewRandomKey(), nil, 0)
	bound, err := exec.Rekey(inner)
	if err != nil {
		t.Fatal(err)
	}
	if !bound.Secure() || bound.Name() != "aes-gcm" {
		t.Fatalf("wrapper: name=%s secure=%v", bound.Name(), bound.Secure())
	}
	sealed, err = bound.Encode([]byte("secret payload"))
	if err != nil {
		t.Fatal(err)
	}
	res, _, err = exec.Exec(noTrace, 2, 0, bound, sealed)
	if err != nil {
		t.Fatal(err)
	}
	got, err := bound.Decode(res)
	if err != nil || string(got) != "secret payload+fn" {
		t.Fatalf("sealed exec: %q err=%v", got, err)
	}

	// A foreign codec — an envelope restored from another worker's queue —
	// is opened locally and resealed under this session's binding.
	other := security.MustAESGCM(security.NewRandomKey(), nil, 0)
	foreign, err := other.Encode([]byte("migrated"))
	if err != nil {
		t.Fatal(err)
	}
	res, _, err = exec.Exec(noTrace, 3, 0, other, foreign)
	if err != nil {
		t.Fatal(err)
	}
	// The session resealed for transit, but the result comes back under
	// the codec the envelope was sealed with — the caller's decode works.
	if got, err := other.Decode(res); err != nil || string(got) != "migrated+fn" {
		t.Fatalf("foreign reseal: %q err=%v", got, err)
	}
	if srv.Served() != 3 {
		t.Fatalf("server served %d tasks, want 3", srv.Served())
	}
}

func TestServerRejectsUnauthenticatedPeer(t *testing.T) {
	srv := startServer(t, edgeHello("edge0"), nil)
	// A peer with the wrong PSK reads a hello it cannot authenticate.
	if _, err := NewFactory(bytes.Repeat([]byte{0x13}, 32), time.Second); err != nil {
		t.Fatal(err)
	}
	wrong, _ := NewFactory(bytes.Repeat([]byte{0x13}, 32), time.Second)
	if _, err := wrong.Probe(srv.Addr()); err == nil {
		t.Fatal("probe with wrong PSK succeeded")
	}
	// A rekey frame sealed under the wrong key must cut the connection.
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, _, err := readFrame(conn); err != nil { // server hello
		t.Fatal(err)
	}
	bogus := security.MustAESGCM(bytes.Repeat([]byte{0x13}, 32), nil, 0)
	body, _ := rekeyBody(1, codecAESGCM, security.NewRandomKey())
	sealed, _ := bogus.Encode(body)
	if err := writeFrame(conn, frameRekey, sealed); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, _, err := readFrame(conn); err == nil {
		t.Fatal("server kept talking after an unauthenticated rekey")
	}
	if srv.Rejected() == 0 {
		t.Fatal("rejected counter did not move")
	}
}

// TestControlOpWithoutHandlerCutsConnection: a data-plane-only server (no
// Stats, no Mgmt) refuses both control ops the way it refuses any bad
// frame — the connection is cut and the refusal counted.
func TestControlOpWithoutHandlerCutsConnection(t *testing.T) {
	srv := startServer(t, edgeHello("edge0"), nil)
	f, err := NewFactory(testPSK(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer f.CloseControls()
	if _, err := f.Scrape(srv.Addr()); err == nil {
		t.Fatal("scrape answered without a Stats handler")
	}
	if _, err := f.Mgmt(srv.Addr(), []byte(`{"op":"lease"}`)); err == nil {
		t.Fatal("mgmt exchange answered without a Mgmt handler")
	}
	if got := srv.Rejected(); got != 2 {
		t.Fatalf("rejected = %d, want 2", got)
	}
}

// TestRetiredExecFrameCutsConnection: frame type 0x03, the retired
// one-task exec frame, is refused like any unknown frame — a well-formed
// one (epoch 0, Plain payload) gets no result, the connection is cut and
// the refusal counted.
func TestRetiredExecFrameCutsConnection(t *testing.T) {
	srv := startServer(t, edgeHello("edge0"), nil)
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, _, err := readFrame(conn); err != nil { // server hello
		t.Fatal(err)
	}
	// The retired layout: uint32 epoch | uint64 taskID | int64 work |
	// trace context | payload.
	body := binary.BigEndian.AppendUint32(nil, 0)
	body = binary.BigEndian.AppendUint64(body, 1)
	body = binary.BigEndian.AppendUint64(body, 0)
	body = noTrace.AppendTo(body)
	body = append(body, "plain payload"...)
	if err := writeFrame(conn, 0x03, body); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	if typ, _, err := readFrame(conn); err == nil {
		t.Fatalf("server answered a 0x03 frame with frame %#x", typ)
	}
	if got := srv.Rejected(); got != 1 {
		t.Fatalf("rejected = %d, want 1", got)
	}
	if srv.Served() != 0 {
		t.Fatalf("served = %d, want 0", srv.Served())
	}
}

func TestProbeRegistersAdvertisedNode(t *testing.T) {
	hello := Hello{
		Name: "edge7", Domain: "untrusted_ip_domain_A", Trusted: false,
		Cores: 2, Speed: 1.5, Labels: map[string]string{"zone": "edge", "arch": "arm64"},
	}
	srv := startServer(t, hello, nil)
	f, _ := NewFactory(testPSK(), 5*time.Second)
	node, err := f.Probe(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if node.ID != "edge7" || node.Domain.Trusted || node.Domain.Name != "untrusted_ip_domain_A" {
		t.Fatalf("node identity: %+v", node)
	}
	if node.Cores != 2 || node.Speed != 1.5 {
		t.Fatalf("node capacity: %+v", node)
	}
	if node.Label(LabelAddr) != srv.Addr() || node.Label("arch") != "arm64" {
		t.Fatalf("node labels: %v", node.Labels)
	}
	// The advertisement makes the node recruitable by label.
	if !node.HasLabels(map[string]string{"zone": "edge"}) {
		t.Fatal("label subset match failed")
	}
}

// sniffer is a TCP proxy recording every byte of both directions — the
// raw-conn observer of the no-plaintext assertion.
type sniffer struct {
	l net.Listener

	mu  sync.Mutex
	buf bytes.Buffer
}

func newSniffer(t *testing.T, backend string) *sniffer {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	sn := &sniffer{l: l}
	t.Cleanup(func() { l.Close() })
	go func() {
		for {
			client, err := l.Accept()
			if err != nil {
				return
			}
			server, err := net.Dial("tcp", backend)
			if err != nil {
				client.Close()
				continue
			}
			pipe := func(dst, src net.Conn) {
				defer dst.Close()
				defer src.Close()
				buf := make([]byte, 4096)
				for {
					n, err := src.Read(buf)
					if n > 0 {
						sn.mu.Lock()
						sn.buf.Write(buf[:n])
						sn.mu.Unlock()
						if _, werr := dst.Write(buf[:n]); werr != nil {
							return
						}
					}
					if err != nil {
						return
					}
				}
			}
			go pipe(server, client)
			go pipe(client, server)
		}
	}()
	return sn
}

func (sn *sniffer) addr() string { return sn.l.Addr().String() }

func (sn *sniffer) contains(needle []byte) bool {
	sn.mu.Lock()
	defer sn.mu.Unlock()
	return bytes.Contains(sn.buf.Bytes(), needle)
}

func (sn *sniffer) observed() int {
	sn.mu.Lock()
	defer sn.mu.Unlock()
	return sn.buf.Len()
}

// TestNoPlaintextOnTheWire is the acceptance check of the dispatch plane's
// security story: a farm dispatches tasks to a remote worker whose binding
// the two-phase protocol secured before it became dispatchable, a proxy
// sniffs the raw TCP connection, and no task payload — nor the binding
// key — ever appears in the captured bytes.
func TestNoPlaintextOnTheWire(t *testing.T) {
	srv := startServer(t, edgeHello("edge0"), func(p []byte) []byte {
		return append([]byte("done:"), p...)
	})
	sniff := newSniffer(t, srv.Addr())

	factory, err := NewFactory(testPSK(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	local := grid.NewNode("local0", grid.Domain{Name: "trusted.local", Trusted: true}, 4, 1.0)
	remote := NodeFromHello(sniff.addr(), edgeHello("edge0"))
	rm := grid.NewResourceManager(remote, local)

	farm, err := skel.NewFarm(skel.FarmConfig{
		Name:           "sniffed",
		Env:            skel.Env{TimeScale: 1000},
		RM:             rm,
		InitialWorkers: 1,
		Executors:      factory.Executor,
		// Pin every task to the remote zone: the loopback worker Run adds
		// is never admitted, so all payloads cross the sniffed wire.
		Selector: skel.Selector{Labels: map[string]string{"zone": "edge"}},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Two-phase add: the binding is sealed before the worker can receive a
	// task, so not even the first payload crosses in clear.
	key := security.NewRandomKey()
	if _, err := farm.AddWorkerWithPrepare(func(id string, node *grid.Node, setCodec func(security.Codec)) error {
		setCodec(security.MustAESGCM(key, nil, 0))
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	const total = 32
	in := make(chan *skel.Task, total)
	out := make(chan *skel.Task, total)
	payloads := make([][]byte, total)
	for i := range payloads {
		payloads[i] = fmt.Appendf(nil, "SECRET-payload-%04d-do-not-leak", i)
		in <- &skel.Task{ID: skel.NextTaskID(), Payload: payloads[i]}
	}
	close(in)
	farm.Run(nil, in, out)

	n := 0
	for res := range out {
		if !bytes.HasPrefix(res.Payload, []byte("done:SECRET-payload-")) {
			t.Fatalf("mangled result %q", res.Payload)
		}
		n++
	}
	if n != total {
		t.Fatalf("%d results, want %d", n, total)
	}
	if srv.Served() != total {
		t.Fatalf("workerd served %d tasks, want %d", srv.Served(), total)
	}
	if sniff.observed() == 0 {
		t.Fatal("sniffer saw no traffic — the tasks did not cross the wire")
	}
	for _, p := range payloads {
		if sniff.contains(p) {
			t.Fatalf("payload %q crossed the wire in clear", p)
		}
	}
	if sniff.contains([]byte("done:SECRET")) {
		t.Fatal("result payload crossed the wire in clear")
	}
	if sniff.contains(key) {
		t.Fatal("binding key material crossed the wire in clear")
	}
}

// TestFarmDispatchActuatorStressTCP runs the shared actuator-storm harness
// of internal/skel/skeltest with every worker behind the framed TCP
// transport: add/remove churns real connections, SetCodec hammering ships
// rekey control frames, and Rebalance moves sealed envelopes between
// sessions through the reseal path — exactly-once must survive it all.
func TestFarmDispatchActuatorStressTCP(t *testing.T) {
	// Registered before startServer's cleanups, the leak check runs after
	// them (cleanups are LIFO), once the servers' accept loops are gone.
	t.Cleanup(leaktest.Check(t))
	var nodes []*grid.Node
	for i := 0; i < 2; i++ {
		hello := edgeHello(fmt.Sprintf("edge%d", i))
		hello.Cores = 8
		srv := startServer(t, hello, nil)
		nodes = append(nodes, NodeFromHello(srv.Addr(), hello))
	}
	factory, err := NewFactory(testPSK(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	skeltest.Stress(t, skel.FarmConfig{
		Name:           "stress-tcp",
		Env:            skel.Env{TimeScale: 1000},
		RM:             grid.NewResourceManager(nodes...),
		InitialWorkers: 4,
		Executors:      factory.Executor,
	}, 400)
	snap := factory.Snapshot()
	if snap.Execs == 0 || snap.Rekeys == 0 || snap.Dials < 4 {
		t.Fatalf("transport was not exercised: %+v", snap)
	}
}

// TestInjectedLinkDropCrashesWorker pins the failure mapping: cutting the
// link mid-run surfaces as an Exec error, which the farm treats as a
// worker crash — stranding the queue for recovery, not dropping tasks.
func TestInjectedLinkDropCrashesWorker(t *testing.T) {
	srv := startServer(t, edgeHello("edge0"), nil)
	factory, err := NewFactory(testPSK(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	node := NodeFromHello(srv.Addr(), edgeHello("edge0"))
	node.Allocate()
	defer node.Release()
	exec, err := factory.Executor(node)
	if err != nil {
		t.Fatal(err)
	}
	defer exec.Close()
	plain := security.Plain{}
	sealed, _ := plain.Encode([]byte("x"))
	if _, _, err := exec.Exec(noTrace, 1, 0, plain, sealed); err != nil {
		t.Fatal(err)
	}
	if n := factory.InjectDrop(); n != 1 {
		t.Fatalf("dropped %d sessions, want 1", n)
	}
	if _, _, err := exec.Exec(noTrace, 2, 0, plain, sealed); err == nil {
		t.Fatal("exec on a dropped link succeeded")
	}
	// A fresh session dials fine: reconnection is recovery recruitment.
	exec2, err := factory.Executor(node)
	if err != nil {
		t.Fatal(err)
	}
	defer exec2.Close()
	if _, _, err := exec2.Exec(noTrace, 3, 0, plain, sealed); err != nil {
		t.Fatalf("post-drop redial: %v", err)
	}
	if factory.Snapshot().Drops != 1 {
		t.Fatalf("drop counter: %+v", factory.Snapshot())
	}
}

// packTestBatch hand-builds a batch blob byte for byte — independent of the
// skel packer — so this test pins the wire-visible batch format:
// 17-byte trace context; uint32 count;
// count × { uint64 id | uint64 work(ns) | uint32 len | payload }.
func packTestBatch(entries []skel.BatchEntry) []byte {
	blob := noTrace.AppendTo(nil)
	blob = binary.BigEndian.AppendUint32(blob, uint32(len(entries)))
	for _, e := range entries {
		blob = binary.BigEndian.AppendUint64(blob, e.ID)
		blob = binary.BigEndian.AppendUint64(blob, uint64(e.Work))
		blob = binary.BigEndian.AppendUint32(blob, uint32(len(e.Payload)))
		blob = append(blob, e.Payload...)
	}
	return blob
}

// parseTestResults hand-parses a result blob:
// uint32 count; count × { uint64 id | uint32 len | payload }.
func parseTestResults(t *testing.T, blob []byte) []skel.BatchEntry {
	t.Helper()
	if len(blob) < 4 {
		t.Fatalf("result blob too short: %d bytes", len(blob))
	}
	count := int(binary.BigEndian.Uint32(blob))
	off := 4
	out := make([]skel.BatchEntry, 0, count)
	for i := 0; i < count; i++ {
		if len(blob)-off < 12 {
			t.Fatalf("result blob truncated at entry %d", i)
		}
		id := binary.BigEndian.Uint64(blob[off:])
		n := int(binary.BigEndian.Uint32(blob[off+8:]))
		off += 12
		if len(blob)-off < n {
			t.Fatalf("result blob truncated at entry %d payload", i)
		}
		out = append(out, skel.BatchEntry{ID: id, Payload: blob[off : off+n]})
		off += n
	}
	if off != len(blob) {
		t.Fatalf("result blob has %d trailing bytes", len(blob)-off)
	}
	return out
}

// TestSessionExecBatch drives the batch frame end to end at the session
// level: one sealed multi-task blob out, one sealed result blob back, with
// the same epoch resolution, foreign-codec reseal and fail-secure rules as
// single execs.
func TestSessionExecBatch(t *testing.T) {
	srv := startServer(t, edgeHello("edge0"), func(p []byte) []byte {
		return append(p, []byte("+fn")...)
	})
	factory, err := NewFactory(testPSK(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	node := NodeFromHello(srv.Addr(), edgeHello("edge0"))
	node.Allocate()
	defer node.Release()
	exec, err := factory.Executor(node)
	if err != nil {
		t.Fatal(err)
	}
	defer exec.Close()
	// The farm discovers batch capability through this exact assertion.
	batcher, ok := exec.(skel.BatchExecutor)
	if !ok {
		t.Fatal("wire session does not implement skel.BatchExecutor")
	}
	bound, err := exec.Rekey(security.MustAESGCM(security.NewRandomKey(), nil, 0))
	if err != nil {
		t.Fatal(err)
	}

	blob := packTestBatch([]skel.BatchEntry{
		{ID: 7, Payload: []byte("a")},
		{ID: 8, Payload: []byte("bb")},
		{ID: 9, Payload: nil},
	})
	sealed, err := bound.Encode(blob)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err := batcher.ExecBatch(bound, sealed)
	if err != nil {
		t.Fatal(err)
	}
	plain, err := bound.Decode(res)
	if err != nil {
		t.Fatal(err)
	}
	results := parseTestResults(t, plain)
	if len(results) != 3 {
		t.Fatalf("%d results, want 3", len(results))
	}
	wantPayload := []string{"a+fn", "bb+fn", "+fn"}
	for i, want := range []uint64{7, 8, 9} {
		if results[i].ID != want || string(results[i].Payload) != wantPayload[i] {
			t.Fatalf("result %d = {%d %q}", i, results[i].ID, results[i].Payload)
		}
	}
	if srv.Served() != 3 {
		t.Fatalf("server served %d, want 3 (one per batch member)", srv.Served())
	}

	// A batch sealed under a foreign codec — an envelope redistributed from
	// another worker's queue — is resealed for transit and the result comes
	// back under the codec it was sealed with.
	other := security.MustAESGCM(security.NewRandomKey(), nil, 0)
	fblob := packTestBatch([]skel.BatchEntry{{ID: 10, Payload: []byte("moved")}})
	fsealed, err := other.Encode(fblob)
	if err != nil {
		t.Fatal(err)
	}
	res, _, err = batcher.ExecBatch(other, fsealed)
	if err != nil {
		t.Fatal(err)
	}
	fplain, err := other.Decode(res)
	if err != nil {
		t.Fatal(err)
	}
	if fres := parseTestResults(t, fplain); len(fres) != 1 || fres[0].ID != 10 || string(fres[0].Payload) != "moved+fn" {
		t.Fatalf("foreign batch result: %+v", fres)
	}

	// Authenticated garbage: the blob seals fine but is structurally not a
	// batch, so the server must refuse the whole frame — member boundaries
	// it cannot trust must never execute.
	badSealed, err := bound.Encode(append(noTrace.AppendTo(nil), 0x00, 0x00, 0x00, 0x09))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := batcher.ExecBatch(bound, badSealed); err == nil {
		t.Fatal("malformed batch blob executed")
	}
	if srv.Rejected() == 0 {
		t.Fatal("rejected counter did not move for a malformed batch")
	}
}

// TestBatchedNoPlaintextOnTheWire reruns the no-plaintext acceptance check
// with the batched hot path on: coalescing many tasks into one envelope
// must not change the security story — one AES-GCM seal now covers the
// whole batch, and no member payload ever crosses the sniffed link in
// clear, in either direction.
func TestBatchedNoPlaintextOnTheWire(t *testing.T) {
	srv := startServer(t, edgeHello("edge0"), func(p []byte) []byte {
		return append([]byte("done:"), p...)
	})
	sniff := newSniffer(t, srv.Addr())

	factory, err := NewFactory(testPSK(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	local := grid.NewNode("local0", grid.Domain{Name: "trusted.local", Trusted: true}, 4, 1.0)
	remote := NodeFromHello(sniff.addr(), edgeHello("edge0"))
	rm := grid.NewResourceManager(remote, local)

	farm, err := skel.NewFarm(skel.FarmConfig{
		Name:           "sniffed-batched",
		Env:            skel.Env{TimeScale: 1000},
		RM:             rm,
		InitialWorkers: 1,
		Executors:      factory.Executor,
		Selector:       skel.Selector{Labels: map[string]string{"zone": "edge"}},
		DispatchBatch:  8,
	})
	if err != nil {
		t.Fatal(err)
	}
	key := security.NewRandomKey()
	if _, err := farm.AddWorkerWithPrepare(func(id string, node *grid.Node, setCodec func(security.Codec)) error {
		setCodec(security.MustAESGCM(key, nil, 0))
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	const total = 32
	in := make(chan *skel.Task, total)
	out := make(chan *skel.Task, total)
	payloads := make([][]byte, total)
	for i := range payloads {
		payloads[i] = fmt.Appendf(nil, "SECRET-batched-%04d-do-not-leak", i)
		in <- &skel.Task{ID: skel.NextTaskID(), Payload: payloads[i]}
	}
	close(in)
	farm.Run(nil, in, out)

	n := 0
	for res := range out {
		if !bytes.HasPrefix(res.Payload, []byte("done:SECRET-batched-")) {
			t.Fatalf("mangled result %q", res.Payload)
		}
		n++
	}
	if n != total {
		t.Fatalf("%d results, want %d", n, total)
	}
	if srv.Served() != total {
		t.Fatalf("workerd served %d tasks, want %d", srv.Served(), total)
	}
	for _, p := range payloads {
		if sniff.contains(p) {
			t.Fatalf("payload %q crossed the wire in clear", p)
		}
	}
	if sniff.contains([]byte("done:SECRET")) {
		t.Fatal("result payload crossed the wire in clear")
	}
	if sniff.contains(key) {
		t.Fatal("binding key material crossed the wire in clear")
	}
}

// TestFarmDispatchActuatorStressTCPBatched runs the actuator storm over the
// framed TCP transport with the batched hot path on: batch frames, rekeys
// racing in-flight batches, and rebalances splitting batches back into
// single envelopes across sessions with different bindings — the
// exactly-once outcome must be identical to the unbatched storm.
func TestFarmDispatchActuatorStressTCPBatched(t *testing.T) {
	// Registered before startServer's cleanups, the leak check runs after
	// them (cleanups are LIFO), once the servers' accept loops are gone.
	t.Cleanup(leaktest.Check(t))
	var nodes []*grid.Node
	for i := 0; i < 2; i++ {
		hello := edgeHello(fmt.Sprintf("edge%d", i))
		hello.Cores = 8
		srv := startServer(t, hello, nil)
		nodes = append(nodes, NodeFromHello(srv.Addr(), hello))
	}
	factory, err := NewFactory(testPSK(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	skeltest.Stress(t, skel.FarmConfig{
		Name:           "stress-tcp-batched",
		Env:            skel.Env{TimeScale: 1000},
		RM:             grid.NewResourceManager(nodes...),
		InitialWorkers: 4,
		Executors:      factory.Executor,
		DispatchBatch:  8,
	}, 400)
	snap := factory.Snapshot()
	if snap.Execs == 0 || snap.Rekeys == 0 || snap.Dials < 4 {
		t.Fatalf("transport was not exercised: %+v", snap)
	}
}

// TestCrossBindingRedistributionTCP is the TCP face of the cross-binding
// redistribution contract: two remote workers behind separate sniffers hold
// distinct AES-GCM bindings, the stream rekeys and rebalances mid-flight so
// envelopes sealed under one binding execute through the other worker's
// session (the foreign-reseal path), and every task must arrive exactly
// once with zero plaintext on either link. Runs unbatched and batched.
func TestCrossBindingRedistributionTCP(t *testing.T) {
	for _, batch := range []int{0, 8} {
		batch := batch
		name := "unbatched"
		if batch > 1 {
			name = "batched"
		}
		t.Run(name, func(t *testing.T) {
			var sniffs []*sniffer
			var nodes []*grid.Node
			for i := 0; i < 2; i++ {
				hello := edgeHello(fmt.Sprintf("edge%d", i))
				srv := startServer(t, hello, func(p []byte) []byte {
					time.Sleep(200 * time.Microsecond) // let queues build so rebalance moves envelopes
					return append([]byte("done:"), p...)
				})
				sn := newSniffer(t, srv.Addr())
				sniffs = append(sniffs, sn)
				nodes = append(nodes, NodeFromHello(sn.addr(), hello))
			}
			factory, err := NewFactory(testPSK(), 5*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			farm, err := skel.NewFarm(skel.FarmConfig{
				Name:           "xbind-tcp",
				Env:            skel.Env{TimeScale: 1000},
				RM:             grid.NewResourceManager(nodes...),
				InitialWorkers: 0,
				Executors:      factory.Executor,
				Selector:       skel.Selector{Labels: map[string]string{"zone": "edge"}},
				DispatchBatch:  batch,
			})
			if err != nil {
				t.Fatal(err)
			}
			var keys [][]byte
			for i := 0; i < 2; i++ {
				key := security.NewRandomKey()
				keys = append(keys, key)
				if _, err := farm.AddWorkerWithPrepare(func(id string, node *grid.Node, setCodec func(security.Codec)) error {
					setCodec(security.MustAESGCM(key, nil, 0))
					return nil
				}); err != nil {
					t.Fatal(err)
				}
			}

			const total = 48
			in := make(chan *skel.Task, total)
			out := make(chan *skel.Task, total)
			counts := map[uint64]int{}
			collected := make(chan struct{})
			go func() {
				for res := range out {
					if !bytes.HasPrefix(res.Payload, []byte("done:SECRET-xbind-")) {
						t.Errorf("mangled result %q", res.Payload)
					}
					counts[res.ID]++
				}
				close(collected)
			}()
			run := make(chan struct{})
			go func() {
				farm.Run(nil, in, out)
				close(run)
			}()

			payloads := make([][]byte, total)
			feed := func(from, to int) {
				for i := from; i < to; i++ {
					payloads[i] = fmt.Appendf(nil, "SECRET-xbind-%04d-do-not-leak", i)
					in <- &skel.Task{ID: skel.NextTaskID(), Payload: payloads[i]}
				}
			}
			feed(0, total/2)
			// Mid-stream: rekey one binding (new epoch, old envelopes still
			// in flight) and rebalance so queued envelopes cross bindings.
			ws := farm.Workers()
			if len(ws) == 0 {
				t.Fatal("no workers admitted")
			}
			key3 := security.NewRandomKey()
			keys = append(keys, key3)
			if err := farm.SetCodec(ws[0].ID, security.MustAESGCM(key3, nil, 0)); err != nil {
				t.Fatal(err)
			}
			farm.Rebalance()
			feed(total/2, total)
			farm.Rebalance()
			close(in)
			select {
			case <-run:
			case <-time.After(60 * time.Second):
				t.Fatal("farm did not terminate")
			}
			<-collected

			if len(counts) != total {
				t.Fatalf("%d distinct tasks delivered, want %d", len(counts), total)
			}
			for id, n := range counts {
				if n != 1 {
					t.Fatalf("task %d delivered %d times", id, n)
				}
			}
			for si, sn := range sniffs {
				if sn.observed() == 0 {
					t.Fatalf("sniffer %d saw no traffic", si)
				}
				for _, p := range payloads {
					if sn.contains(p) {
						t.Fatalf("payload %q crossed link %d in clear", p, si)
					}
				}
				if sn.contains([]byte("done:SECRET")) {
					t.Fatalf("result payload crossed link %d in clear", si)
				}
				for ki, key := range keys {
					if sn.contains(key) {
						t.Fatalf("binding key %d crossed link %d in clear", ki, si)
					}
				}
			}
		})
	}
}
