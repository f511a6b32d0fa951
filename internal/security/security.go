// Package security implements the transport-security substrate of the
// paper's C_sec concern: a plaintext codec modelling plain TCP/IP sockets,
// an AES-GCM codec modelling SSL (real encryption, so its CPU cost is
// honest), a policy deciding when a binding must be secured (traffic
// crossing a non-private link or reaching an untrusted domain), and an
// auditor counting plaintext messages exposed on public links — the leak
// metric of the EXT-SEC experiment.
package security

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/grid"
	"repro/internal/simclock"
)

// Codec transforms message payloads on their way through a binding.
type Codec interface {
	// Name identifies the codec ("plain", "aes-gcm").
	Name() string
	// Secure reports whether the codec protects confidentiality.
	Secure() bool
	// Encode transforms a plaintext payload for transmission.
	Encode(plain []byte) ([]byte, error)
	// Decode recovers the plaintext payload.
	Decode(wire []byte) ([]byte, error)
}

// AppendCodec is the allocation-free encode extension of Codec: the farm's
// hot path seals into pooled buffers, so a codec that can append its wire
// form onto a caller-owned slice lets steady-state dispatch run at zero
// allocations per task. Both repo codecs implement it; foreign codecs fall
// back to Encode (one allocation per seal), never to an error.
type AppendCodec interface {
	Codec
	// AppendEncode appends the wire form of plain to dst and returns the
	// extended slice, exactly as Encode would have produced it.
	AppendEncode(dst, plain []byte) ([]byte, error)
}

// AppendEncode seals plain onto dst through c's AppendCodec fast path when
// it has one, falling back to Encode plus a copy otherwise. The result is
// byte-compatible with c.Encode in both cases.
func AppendEncode(c Codec, dst, plain []byte) ([]byte, error) {
	if ac, ok := c.(AppendCodec); ok {
		return ac.AppendEncode(dst, plain)
	}
	wire, err := c.Encode(plain)
	if err != nil {
		return dst, err
	}
	return append(dst, wire...), nil
}

// AppendDecode opens wire onto dst through c's append fast path when it has
// one, falling back to Decode plus a copy otherwise. The appended bytes are
// byte-compatible with c.Decode. Callers that reuse dst across calls must
// own every byte of it: the result aliases dst's backing array.
func AppendDecode(c Codec, dst, wire []byte) ([]byte, error) {
	if ac, ok := c.(interface {
		AppendDecode(dst, wire []byte) ([]byte, error)
	}); ok {
		return ac.AppendDecode(dst, wire)
	}
	plain, err := c.Decode(wire)
	if err != nil {
		return dst, err
	}
	return append(dst, plain...), nil
}

// Overhead reports how many bytes c's wire form adds to a plaintext, so a
// caller can size a buffer before sealing into it. A codec that does not
// declare its overhead reports 0; an undersized buffer then grows on the
// seal itself.
func Overhead(c Codec) int {
	if o, ok := c.(interface{ Overhead() int }); ok {
		return o.Overhead()
	}
	return 0
}

// Canonical codec names, as returned by Codec.Name. The remote management
// plane ships them in prepare replies so the far side can rebuild the
// binding codec from its key material.
const (
	PlainName  = "plain"
	AESGCMName = "aes-gcm"
)

// Plain is the pass-through codec modelling plain TCP/IP sockets.
type Plain struct{}

// Name implements Codec.
func (Plain) Name() string { return "plain" }

// Secure implements Codec.
func (Plain) Secure() bool { return false }

// Encode implements Codec by copying the payload.
func (Plain) Encode(plain []byte) ([]byte, error) {
	out := make([]byte, len(plain))
	copy(out, plain)
	return out, nil
}

// Decode implements Codec by copying the payload.
func (Plain) Decode(wire []byte) ([]byte, error) {
	out := make([]byte, len(wire))
	copy(out, wire)
	return out, nil
}

// AppendEncode implements AppendCodec.
func (Plain) AppendEncode(dst, plain []byte) ([]byte, error) {
	return append(dst, plain...), nil
}

// AppendDecode is the allocation-free decode counterpart of AppendEncode.
func (Plain) AppendDecode(dst, wire []byte) ([]byte, error) {
	return append(dst, wire...), nil
}

// AESGCM encrypts payloads with AES-256-GCM. It models the SSL transport of
// the paper with a real cipher so that securing a binding has a measurable
// CPU cost. An optional simulated handshake latency is paid once, on first
// use, mirroring SSL session establishment.
type AESGCM struct {
	aead      cipher.AEAD
	key       []byte
	clock     simclock.Clock
	handshake time.Duration
	once      sync.Once
}

// NewAESGCM returns an AES-256-GCM codec with the given 32-byte key. If
// clock is non-nil and handshake positive, the first Encode or Decode pays
// the handshake latency.
func NewAESGCM(key []byte, clock simclock.Clock, handshake time.Duration) (*AESGCM, error) {
	if len(key) != 32 {
		return nil, fmt.Errorf("security: AES-256 key must be 32 bytes, got %d", len(key))
	}
	block, err := aes.NewCipher(key)
	if err != nil {
		return nil, err
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, err
	}
	return &AESGCM{aead: aead, key: append([]byte(nil), key...), clock: clock, handshake: handshake}, nil
}

// MustAESGCM is NewAESGCM that panics on error, for static configuration.
func MustAESGCM(key []byte, clock simclock.Clock, handshake time.Duration) *AESGCM {
	c, err := NewAESGCM(key, clock, handshake)
	if err != nil {
		panic(err)
	}
	return c
}

// NewRandomKey returns a fresh 32-byte key.
func NewRandomKey() []byte {
	key := make([]byte, 32)
	if _, err := io.ReadFull(rand.Reader, key); err != nil {
		panic(fmt.Sprintf("security: cannot draw random key: %v", err))
	}
	return key
}

// Name implements Codec.
func (*AESGCM) Name() string { return "aes-gcm" }

// Key returns a copy of the codec's key material. The cross-process
// dispatch plane needs it to re-key a remote binding: the new key travels
// to the workerd process inside a rekey frame sealed under the link's
// master codec, so the raw key never crosses the wire in clear.
func (c *AESGCM) Key() []byte { return append([]byte(nil), c.key...) }

// Secure implements Codec.
func (*AESGCM) Secure() bool { return true }

func (c *AESGCM) payHandshake() {
	c.once.Do(func() {
		if c.clock != nil && c.handshake > 0 {
			c.clock.Sleep(c.handshake)
		}
	})
}

// Overhead is the nonce plus the GCM tag: the bytes Encode adds to a
// plaintext.
func (c *AESGCM) Overhead() int { return c.aead.NonceSize() + c.aead.Overhead() }

// Encode implements Codec: nonce || ciphertext.
func (c *AESGCM) Encode(plain []byte) ([]byte, error) {
	c.payHandshake()
	nonce := make([]byte, c.aead.NonceSize())
	if _, err := io.ReadFull(rand.Reader, nonce); err != nil {
		return nil, err
	}
	return c.aead.Seal(nonce, nonce, plain, nil), nil
}

// AppendEncode implements AppendCodec: the nonce and ciphertext are
// appended onto dst, so a caller recycling seal buffers pays no allocation
// once the buffer has grown to the payload's size.
func (c *AESGCM) AppendEncode(dst, plain []byte) ([]byte, error) {
	c.payHandshake()
	ns := c.aead.NonceSize()
	off := len(dst)
	for i := 0; i < ns; i++ {
		dst = append(dst, 0)
	}
	nonce := dst[off : off+ns]
	if _, err := io.ReadFull(rand.Reader, nonce); err != nil {
		return dst[:off], err
	}
	// Seal appends past len(dst); the nonce region below it is read, not
	// written, so the aliasing is the same as the canonical
	// Seal(nonce, nonce, ...) pattern.
	return c.aead.Seal(dst, nonce, plain, nil), nil
}

// AppendDecode opens wire onto dst without allocating when dst has
// capacity: GCM's open appends past len(dst), so a caller-owned reusable
// buffer makes steady-state decode allocation-free.
func (c *AESGCM) AppendDecode(dst, wire []byte) ([]byte, error) {
	c.payHandshake()
	ns := c.aead.NonceSize()
	if len(wire) < ns {
		return dst, ErrCiphertext
	}
	out, err := c.aead.Open(dst, wire[:ns], wire[ns:], nil)
	if err != nil {
		return dst, ErrCiphertext
	}
	return out, nil
}

// ErrCiphertext is returned when a wire message cannot be authenticated or
// is structurally invalid.
var ErrCiphertext = errors.New("security: invalid or tampered ciphertext")

// Decode implements Codec.
func (c *AESGCM) Decode(wire []byte) ([]byte, error) {
	c.payHandshake()
	ns := c.aead.NonceSize()
	if len(wire) < ns {
		return nil, ErrCiphertext
	}
	plain, err := c.aead.Open(nil, wire[:ns], wire[ns:], nil)
	if err != nil {
		return nil, ErrCiphertext
	}
	return plain, nil
}

// Policy decides whether a binding between two placements must be secured
// under contract c_sec. This reproduces the metadata-driven strategy of the
// paper's reference [20]: secure protocols only where strictly needed.
type Policy struct {
	Network *grid.Network
}

// RequireSecure reports whether traffic between nodes a and b must be
// encrypted: yes iff either endpoint's domain is untrusted or the link
// between the domains is not private. A nil endpoint stands for an unknown
// placement: the verdict is then decided by the other endpoint's trust
// alone (conservative for untrusted targets).
func (p Policy) RequireSecure(a, b *grid.Node) bool {
	if a == nil && b == nil {
		return false
	}
	if a == nil {
		return !b.Domain.Trusted
	}
	if b == nil {
		return !a.Domain.Trusted
	}
	if !a.Domain.Trusted || !b.Domain.Trusted {
		return true
	}
	if p.Network == nil {
		return a.Domain.Name != b.Domain.Name
	}
	return !p.Network.LinkBetween(a.Domain.Name, b.Domain.Name).Private
}

// Auditor observes every message crossing bindings and counts plaintext
// exposures on connections that the policy says must be secure. A correct
// multi-concern protocol keeps Leaks() at zero; the naive protocol of the
// EXT-SEC experiment does not. The counters are atomic, so recording a send
// takes no lock; only a leak, which also updates the per-endpoint map, does.
type Auditor struct {
	total    atomic.Uint64
	secured  atomic.Uint64
	leaks    atomic.Uint64
	mu       sync.Mutex
	byworker map[string]uint64
}

// NewAuditor returns an empty auditor.
func NewAuditor() *Auditor { return &Auditor{byworker: map[string]uint64{}} }

// RecordSend registers one message sent to endpoint. mustSecure is the
// policy verdict for the binding and wasSecure whether the message was
// actually encrypted.
func (a *Auditor) RecordSend(endpoint string, mustSecure, wasSecure bool) {
	a.RecordSends(endpoint, 1, mustSecure, wasSecure)
}

// RecordSends registers n messages sent to endpoint under one verdict, as
// RecordSend n times would: a batch envelope's members share one binding.
func (a *Auditor) RecordSends(endpoint string, n int, mustSecure, wasSecure bool) {
	a.total.Add(uint64(n))
	if wasSecure {
		a.secured.Add(uint64(n))
	}
	if mustSecure && !wasSecure {
		a.mu.Lock()
		a.leaks.Add(uint64(n))
		a.byworker[endpoint] += uint64(n)
		a.mu.Unlock()
	}
}

// Total returns the number of messages observed.
func (a *Auditor) Total() uint64 { return a.total.Load() }

// Secured returns the number of encrypted messages observed.
func (a *Auditor) Secured() uint64 { return a.secured.Load() }

// Leaks returns the number of plaintext messages that crossed links the
// policy required to be secure.
func (a *Auditor) Leaks() uint64 { return a.leaks.Load() }

// LeaksAt returns the number of leaks recorded towards a given endpoint.
func (a *Auditor) LeaksAt(endpoint string) uint64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.byworker[endpoint]
}
