package wire

import (
	"testing"
	"time"

	"repro/internal/security"
	"repro/internal/simclock"
)

// TestServerSleepsModelledWorkOnItsClock pins the workerd's exec loop to
// the server's clock: a member carrying modelled Work = W parks on a
// Scaled(Manual, k) clock and its result returns only once the base clock
// has advanced by W/k.
func TestServerSleepsModelledWorkOnItsClock(t *testing.T) {
	const k, work = 100, 2 * time.Second
	base := simclock.NewManual(time.Unix(0, 0))
	srv, err := NewServer(ServerConfig{PSK: testPSK(), Hello: edgeHello("edge0"),
		Clock: simclock.Scaled(base, k)})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
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

	plain := security.Plain{}
	sealed, _ := plain.Encode([]byte("w"))
	done := make(chan error, 1)
	go func() {
		_, _, err := exec.Exec(noTrace, 1, work, plain, sealed)
		done <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for base.PendingWaiters() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("exec frame never parked on the clock (waiters=%d)", base.PendingWaiters())
		}
		time.Sleep(time.Millisecond)
	}
	base.Advance(work/k - time.Nanosecond)
	select {
	case err := <-done:
		t.Fatalf("exec returned before W/k of base time elapsed (err=%v)", err)
	case <-time.After(20 * time.Millisecond):
	}
	base.Advance(time.Nanosecond)
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("exec did not return after W/k of base time")
	}
}
