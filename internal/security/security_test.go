package security

import (
	"bytes"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/grid"
	"repro/internal/simclock"
)

func TestPlainRoundTrip(t *testing.T) {
	var c Plain
	if c.Secure() || c.Name() != "plain" {
		t.Fatal("plain codec misdescribes itself")
	}
	in := []byte("task payload")
	wire, err := c.Encode(in)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wire, in) {
		t.Fatal("plain codec must not transform payload")
	}
	wire[0] = 'X' // must not alias the input
	if in[0] == 'X' {
		t.Fatal("Encode aliased its input")
	}
	out, err := c.Decode(wire)
	if err != nil || !bytes.Equal(out, wire) {
		t.Fatalf("Decode = %q, %v", out, err)
	}
}

func TestAESGCMRoundTrip(t *testing.T) {
	c := MustAESGCM(NewRandomKey(), nil, 0)
	if !c.Secure() || c.Name() != "aes-gcm" {
		t.Fatal("aes-gcm codec misdescribes itself")
	}
	in := []byte("medical image #42")
	wire, err := c.Encode(in)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(wire, in) {
		t.Fatal("ciphertext contains plaintext")
	}
	out, err := c.Decode(wire)
	if err != nil || !bytes.Equal(out, in) {
		t.Fatalf("Decode = %q, %v", out, err)
	}
}

func TestAESGCMTamperDetection(t *testing.T) {
	c := MustAESGCM(NewRandomKey(), nil, 0)
	wire, _ := c.Encode([]byte("payload"))
	wire[len(wire)-1] ^= 0xff
	if _, err := c.Decode(wire); err != ErrCiphertext {
		t.Fatalf("tampered decode err = %v, want ErrCiphertext", err)
	}
	if _, err := c.Decode([]byte("short")); err != ErrCiphertext {
		t.Fatalf("short decode err = %v, want ErrCiphertext", err)
	}
}

func TestAESGCMKeyLength(t *testing.T) {
	if _, err := NewAESGCM(make([]byte, 16), nil, 0); err == nil {
		t.Fatal("16-byte key must be rejected (AES-256 only)")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustAESGCM must panic on bad key")
		}
	}()
	MustAESGCM(nil, nil, 0)
}

func TestAESGCMHandshakePaidOnce(t *testing.T) {
	clock := simclock.NewManual(time.Date(2009, 5, 25, 0, 0, 0, 0, time.UTC))
	c := MustAESGCM(NewRandomKey(), clock, 100*time.Millisecond)
	done := make(chan struct{})
	go func() {
		c.Encode([]byte("a")) // pays the handshake
		c.Encode([]byte("b")) // must not pay again
		close(done)
	}()
	for clock.PendingWaiters() == 0 {
		time.Sleep(time.Millisecond)
	}
	clock.Advance(100 * time.Millisecond)
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("second Encode blocked: handshake paid twice?")
	}
}

func TestAESGCMRoundTripProperty(t *testing.T) {
	c := MustAESGCM(NewRandomKey(), nil, 0)
	f := func(payload []byte) bool {
		wire, err := c.Encode(payload)
		if err != nil {
			return false
		}
		out, err := c.Decode(wire)
		return err == nil && bytes.Equal(out, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPolicyRequireSecure(t *testing.T) {
	p := grid.NewTwoDomainGrid(2, 2)
	pol := Policy{Network: p.Network}
	nodes := p.RM.Nodes()
	var trusted, untrusted *grid.Node
	for _, n := range nodes {
		if n.Domain.Trusted && trusted == nil {
			trusted = n
		}
		if !n.Domain.Trusted && untrusted == nil {
			untrusted = n
		}
	}
	t2 := nodes[1] // second trusted node
	if pol.RequireSecure(trusted, t2) {
		t.Fatal("intra-trusted-domain traffic must not need securing")
	}
	if !pol.RequireSecure(trusted, untrusted) {
		t.Fatal("traffic to untrusted_ip_domain_A must be secured")
	}
	if pol.RequireSecure(nil, trusted) {
		t.Fatal("unknown->trusted must not require securing")
	}
	if !pol.RequireSecure(nil, untrusted) {
		t.Fatal("unknown->untrusted must require securing")
	}
	if pol.RequireSecure(nil, nil) {
		t.Fatal("both-unknown must not require securing")
	}
}

func TestPolicyWithoutNetwork(t *testing.T) {
	a := grid.NewNode("a", grid.Domain{Name: "d1", Trusted: true}, 1, 1)
	b := grid.NewNode("b", grid.Domain{Name: "d2", Trusted: true}, 1, 1)
	pol := Policy{}
	if !pol.RequireSecure(a, b) {
		t.Fatal("cross-domain with unknown network must default to secure")
	}
	if pol.RequireSecure(a, a) {
		t.Fatal("same trusted domain must not need securing")
	}
}

func TestAuditor(t *testing.T) {
	a := NewAuditor()
	a.RecordSend("w1", false, false) // trusted link, plain: fine
	a.RecordSend("w2", true, true)   // untrusted link, secured: fine
	a.RecordSend("w3", true, false)  // untrusted link, plain: leak
	a.RecordSend("w3", true, false)
	if a.Total() != 4 || a.Secured() != 1 {
		t.Fatalf("total=%d secured=%d", a.Total(), a.Secured())
	}
	if a.Leaks() != 2 {
		t.Fatalf("Leaks = %d, want 2", a.Leaks())
	}
	if a.LeaksAt("w3") != 2 || a.LeaksAt("w1") != 0 {
		t.Fatalf("per-endpoint leaks wrong: w3=%d w1=%d", a.LeaksAt("w3"), a.LeaksAt("w1"))
	}
}

// TestAppendDecode pins the allocation-free decode path: byte-compatible
// with Decode, appends after existing dst content, reuses dst capacity, and
// refuses tampered ciphertext without touching dst's committed bytes.
func TestAppendDecode(t *testing.T) {
	payload := []byte("append-decode payload")
	for _, c := range []Codec{Plain{}, MustAESGCM(NewRandomKey(), nil, 0)} {
		wire, err := c.Encode(payload)
		if err != nil {
			t.Fatal(err)
		}
		got, err := AppendDecode(c, nil, wire)
		if err != nil {
			t.Fatalf("%s: %v", c.Name(), err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("%s: decoded %q", c.Name(), got)
		}
		// Appending after a prefix must preserve it.
		withPrefix, err := AppendDecode(c, []byte("pre|"), wire)
		if err != nil {
			t.Fatal(err)
		}
		if string(withPrefix) != "pre|"+string(payload) {
			t.Fatalf("%s: prefix append %q", c.Name(), withPrefix)
		}
		// A reused buffer with capacity must not allocate (the farm's
		// steady-state decode contract).
		buf := make([]byte, 0, 4096)
		allocs := testing.AllocsPerRun(100, func() {
			out, err := AppendDecode(c, buf[:0], wire)
			if err != nil {
				t.Fatal(err)
			}
			_ = out
		})
		if allocs != 0 {
			t.Fatalf("%s: AppendDecode allocates %v per op with warm buffer", c.Name(), allocs)
		}
	}
	// Tampered ciphertext must fail exactly like Decode.
	c := MustAESGCM(NewRandomKey(), nil, 0)
	wire, _ := c.Encode(payload)
	wire[len(wire)-1] ^= 0x01
	if _, err := AppendDecode(c, nil, wire); err == nil {
		t.Fatal("tampered ciphertext decoded")
	}
}

// TestOverhead pins the size the farm sizes envelope buffers by: the wire
// form is exactly the plaintext plus the declared overhead.
func TestOverhead(t *testing.T) {
	for _, c := range []Codec{Plain{}, MustAESGCM(NewRandomKey(), nil, 0)} {
		for _, n := range []int{0, 1, 256, 4096} {
			wire, err := c.Encode(make([]byte, n))
			if err != nil {
				t.Fatal(err)
			}
			if got := len(wire) - n; got != Overhead(c) {
				t.Fatalf("%s: %d-byte payload sealed to %d bytes, Overhead says +%d", c.Name(), n, len(wire), Overhead(c))
			}
		}
	}
}
