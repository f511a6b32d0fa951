package security

import (
	"bytes"
	"testing"
)

// These tests pin the wire format of the AES-GCM codec now that its frames
// cross a real process boundary (internal/wire seals the actual TCP
// payload with it): a corrupted or truncated frame read off a socket must
// come back as an error, never a panic, and the nonce prefix must be
// unique per Encode or GCM's confidentiality collapses.

func TestAESGCMWireFrameRoundTrip(t *testing.T) {
	c := MustAESGCM(NewRandomKey(), nil, 0)
	for _, payload := range [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte("wire"), 4096)} {
		wire, err := c.Encode(payload)
		if err != nil {
			t.Fatalf("Encode(%d bytes): %v", len(payload), err)
		}
		// A short payload turns up in random ciphertext by chance (one byte
		// lands somewhere in a 29-byte frame about 10.7% of the time), so
		// containment only means a leak for payloads of a block or more.
		if len(payload) >= 16 && bytes.Contains(wire, payload) {
			t.Fatalf("ciphertext contains the plaintext payload")
		}
		got, err := c.Decode(wire)
		if err != nil {
			t.Fatalf("Decode: %v", err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("roundtrip mismatch: got %d bytes, want %d", len(got), len(payload))
		}
	}
}

// TestAESGCMShortPayloadIsSealed checks the one-byte case that the
// containment check above cannot: two encodes of the same byte must differ
// (a fresh nonce each time, so the frame is not a fixed function of the
// payload) and both must round-trip.
func TestAESGCMShortPayloadIsSealed(t *testing.T) {
	c := MustAESGCM(NewRandomKey(), nil, 0)
	payload := []byte("x")
	a, err := c.Encode(payload)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.Encode(payload)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(a, b) {
		t.Fatal("two encodes of the same one-byte payload are identical")
	}
	for _, wire := range [][]byte{a, b} {
		got, err := c.Decode(wire)
		if err != nil {
			t.Fatalf("Decode: %v", err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("roundtrip mismatch: got %q, want %q", got, payload)
		}
	}
}

func TestAESGCMTruncatedFrameErrors(t *testing.T) {
	c := MustAESGCM(NewRandomKey(), nil, 0)
	wire, err := c.Encode([]byte("a payload long enough to truncate meaningfully"))
	if err != nil {
		t.Fatal(err)
	}
	// Every proper prefix of the frame — including cuts inside the nonce
	// and an empty frame — must Decode to an error, not a panic.
	for cut := 0; cut < len(wire); cut++ {
		if _, err := c.Decode(wire[:cut]); err == nil {
			t.Fatalf("Decode of %d/%d-byte truncated frame succeeded", cut, len(wire))
		}
	}
}

func TestAESGCMTamperedCiphertextErrors(t *testing.T) {
	c := MustAESGCM(NewRandomKey(), nil, 0)
	wire, err := c.Encode([]byte("integrity matters"))
	if err != nil {
		t.Fatal(err)
	}
	// Flip one bit at every position: nonce, ciphertext body and tag.
	for i := range wire {
		tampered := append([]byte(nil), wire...)
		tampered[i] ^= 0x80
		if _, err := c.Decode(tampered); err == nil {
			t.Fatalf("Decode accepted a frame with bit %d flipped", i*8)
		}
	}
	// A frame sealed under a different key must not authenticate either.
	other := MustAESGCM(NewRandomKey(), nil, 0)
	if _, err := other.Decode(wire); err == nil {
		t.Fatal("Decode accepted a frame sealed under a different key")
	}
}

func TestAESGCMNonceUniqueness(t *testing.T) {
	c := MustAESGCM(NewRandomKey(), nil, 0)
	const n = 2048
	ns := c.aead.NonceSize()
	seen := make(map[string]bool, n)
	for i := 0; i < n; i++ {
		wire, err := c.Encode([]byte("same payload every time"))
		if err != nil {
			t.Fatal(err)
		}
		nonce := string(wire[:ns])
		if seen[nonce] {
			t.Fatalf("nonce repeated after %d encodes", i)
		}
		seen[nonce] = true
	}
}

func TestAESGCMKeyAccessor(t *testing.T) {
	key := NewRandomKey()
	c := MustAESGCM(key, nil, 0)
	got := c.Key()
	if !bytes.Equal(got, key) {
		t.Fatal("Key() does not return the construction key")
	}
	// The returned slice is a copy: mutating it must not corrupt the codec.
	got[0] ^= 0xff
	wire, err := c.Encode([]byte("still works"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Decode(wire); err != nil {
		t.Fatalf("codec corrupted by mutating Key() result: %v", err)
	}
	if bytes.Equal(c.Key(), got) {
		t.Fatal("Key() exposed the codec's internal buffer")
	}
}
