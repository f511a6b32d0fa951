// Package wire is the cross-process transport of the dispatch plane: a
// framed, length-prefixed TCP protocol (stdlib net only) carrying the
// farm's sealed envelopes between a coordinator process and workerd
// processes. The package deliberately does not invent its own payload
// cryptography — the bytes inside an exec-batch frame are exactly the
// bytes the binding codec of internal/security produced, so the security concern's
// guarantees (AES-GCM sealing, the two-phase rekey, the leak audit) hold
// unchanged across the machine boundary.
//
// Protocol, from the coordinator's point of view:
//
//	dial ──▶ hello (server→client, sealed under the link's master codec;
//	         advertises node name, labels, trust domain, capacity)
//	rekey ─▶ installs binding codec epoch N on the remote end; the frame
//	         body — codec name and key — is sealed under the master codec,
//	         so key material never crosses in clear
//	exec-batch ─▶ epoch + batch id + sealed envelope blob (trace context,
//	         then each member's task id, nominal work and payload — one
//	         member or many, all inside the seal)
//	◀─ result  batch id + exec time + sealed result blob (same epoch), or
//	         an error
//	control ─▶ op + request, sealed under the master codec (a stats
//	         scrape or a management-plane exchange)
//	◀─ control reply, sealed under the master codec
//
// The master codec is AES-GCM under a pre-shared 32-byte link key: a peer
// that cannot produce an authenticating hello or rekey frame is cut off.
// Task payloads are sealed under whatever binding codec the farm chose —
// Plain on a trusted private link, AES-GCM where the security policy
// demands it — and the epoch lets the workerd hold both sides of a rekey
// hazard window at once (frames sealed under the old binding are still in
// flight when the new one lands).
//
// Failure model: any transport error surfaces from Session.ExecBatch and the
// farm maps it onto its worker-crash contract — the worker's queue
// strands, the fault-tolerance manager recovers the tasks and replacement
// recruitment re-dials. A broken link and a dead machine are the same
// fault, which is what makes remote links a first-class chaos surface
// (Factory.InjectDrop and friends).
package wire

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"repro/internal/security"
	"repro/internal/skel"
)

// Frame types of the protocol.
const (
	frameHello        byte = 0x01 // server→client node advertisement
	frameRekey        byte = 0x02 // client→server binding codec install
	frameResult       byte = 0x04 // server→client task result or error
	frameExecBatch    byte = 0x05 // client→server task envelope (N ≥ 1 tasks)
	frameControl      byte = 0x06 // client→server sealed op + request
	frameControlReply byte = 0x07 // server→client sealed reply
)

// Control ops: the first byte of a control request's sealed plaintext.
const (
	opStats byte = 0x01 // observability scrape; the reply is a node report
	opMgmt  byte = 0x02 // management-plane exchange; opaque both ways
)

// maxFrame bounds a frame body so a corrupt or hostile length prefix
// cannot make a peer allocate unbounded memory.
const maxFrame = 16 << 20

// Frame layout: uint32 big-endian length, then one type byte, then the
// body; length counts the type byte and the body. Truncations and
// oversized lengths come back as errors, never panics or huge allocations.
var (
	errFrameTooLarge = errors.New("wire: frame exceeds size limit")
	errFrameEmpty    = errors.New("wire: zero-length frame")
)

// beginFrame starts a frame of type typ in buf's backing array, reusing
// its capacity: four length bytes, which sendFrame fills in, then the type
// byte. The caller appends the body.
func beginFrame(buf []byte, typ byte) []byte {
	return append(buf[:0], 0, 0, 0, 0, typ)
}

// sendFrame fills in the length of a frame built on beginFrame and writes
// it with a single Write. Callers serialize access to w.
func sendFrame(w io.Writer, frame []byte) error {
	n := len(frame) - 4
	if n > maxFrame {
		return errFrameTooLarge
	}
	binary.BigEndian.PutUint32(frame[:4], uint32(n))
	_, err := w.Write(frame)
	return err
}

// writeFrame writes one frame around a separately built body, copying both
// into a fresh frame: for the handshake and error replies. The per-task
// paths build their frames in place in a reused buffer instead.
func writeFrame(w io.Writer, typ byte, body []byte) error {
	return sendFrame(w, append(beginFrame(nil, typ), body...))
}

// frameReader reads one connection's frames into a buffer it reuses from
// frame to frame, so a body it returns is valid only until the next read.
// A buffer one frame grew past skel.MaxRetainedBuffer is replaced at the
// next frame rather than kept. Callers serialize reads.
type frameReader struct {
	r   io.Reader
	hdr [4]byte
	buf []byte
}

// read reads one frame. It allocates only for a frame larger than the
// buffer it holds, and never more than the frame's declared length, which
// is checked against maxFrame first.
func (fr *frameReader) read() (typ byte, body []byte, err error) {
	if _, err := io.ReadFull(fr.r, fr.hdr[:]); err != nil {
		return 0, nil, err
	}
	n := binary.BigEndian.Uint32(fr.hdr[:])
	if n == 0 {
		return 0, nil, errFrameEmpty
	}
	if n > maxFrame {
		return 0, nil, errFrameTooLarge
	}
	if cap(fr.buf) < int(n) || cap(fr.buf) > skel.MaxRetainedBuffer {
		fr.buf = make([]byte, n)
	}
	frame := fr.buf[:n]
	if _, err := io.ReadFull(fr.r, frame); err != nil {
		return 0, nil, err
	}
	return frame[0], frame[1:], nil
}

// readFrame reads one frame into fresh memory: for the handshake, before a
// connection has a frameReader of its own.
func readFrame(r io.Reader) (typ byte, body []byte, err error) {
	fr := frameReader{r: r}
	return fr.read()
}

// Hello is the node advertisement a workerd sends on every new connection,
// sealed under the link's master codec: authenticating it doubles as the
// peer authentication of the handshake. The coordinator turns it into a
// grid.Node (labels included), so remote capacity is recruited through the
// same resource manager as simulated capacity.
type Hello struct {
	Name    string            `json:"name"`
	Domain  string            `json:"domain"`
	Trusted bool              `json:"trusted"`
	Cores   int               `json:"cores"`
	Speed   float64           `json:"speed"`
	Labels  map[string]string `json:"labels,omitempty"`
}

// sealHello encodes and seals a hello under the master codec.
func sealHello(master security.Codec, h Hello) ([]byte, error) {
	plain, err := json.Marshal(h)
	if err != nil {
		return nil, err
	}
	return master.Encode(plain)
}

// openHello authenticates and decodes a hello frame body.
func openHello(master security.Codec, body []byte) (Hello, error) {
	plain, err := master.Decode(body)
	if err != nil {
		return Hello{}, fmt.Errorf("wire: hello did not authenticate: %w", err)
	}
	var h Hello
	if err := json.Unmarshal(plain, &h); err != nil {
		return Hello{}, fmt.Errorf("wire: malformed hello: %w", err)
	}
	if h.Name == "" {
		return Hello{}, errors.New("wire: hello without node name")
	}
	return h, nil
}

// Codec wire names a rekey frame may carry.
const (
	codecPlain  = "plain"
	codecAESGCM = "aes-gcm"
)

// rekeyBody encodes epoch + codec for a rekey frame (pre-seal):
// uint32 epoch | uint8 len(name) | name | key.
func rekeyBody(epoch uint32, name string, key []byte) ([]byte, error) {
	if len(name) > 255 {
		return nil, fmt.Errorf("wire: codec name %q too long", name)
	}
	body := make([]byte, 0, 5+len(name)+len(key))
	body = binary.BigEndian.AppendUint32(body, epoch)
	body = append(body, byte(len(name)))
	body = append(body, name...)
	body = append(body, key...)
	return body, nil
}

// parseRekey decodes a rekey frame body (post-open) into a codec.
func parseRekey(plain []byte) (epoch uint32, c security.Codec, err error) {
	if len(plain) < 5 {
		return 0, nil, errors.New("wire: short rekey frame")
	}
	epoch = binary.BigEndian.Uint32(plain[:4])
	nameLen := int(plain[4])
	if len(plain) < 5+nameLen {
		return 0, nil, errors.New("wire: short rekey frame")
	}
	name := string(plain[5 : 5+nameLen])
	key := plain[5+nameLen:]
	switch name {
	case codecPlain:
		return epoch, security.Plain{}, nil
	case codecAESGCM:
		codec, err := security.NewAESGCM(append([]byte(nil), key...), nil, 0)
		if err != nil {
			return 0, nil, fmt.Errorf("wire: rekey: %w", err)
		}
		return epoch, codec, nil
	default:
		return 0, nil, fmt.Errorf("wire: rekey names unknown codec %q", name)
	}
}

// transportable extracts the wire name and key material of a binding
// codec. Only the codecs of internal/security travel; anything else is
// refused before a frame is written, so a misconfigured binding fails
// loudly at rekey time instead of silently downgrading on the wire.
func transportable(c security.Codec) (name string, key []byte, err error) {
	switch cc := c.(type) {
	case security.Plain:
		return codecPlain, nil, nil
	case *security.Plain:
		return codecPlain, nil, nil
	case *security.AESGCM:
		return codecAESGCM, cc.Key(), nil
	default:
		return "", nil, fmt.Errorf("wire: codec %q cannot cross the wire", c.Name())
	}
}

// appendExecBatchHeader appends the fixed fields of an exec-batch frame
// body: uint32 epoch | uint64 batchID. The sealed envelope blob follows
// them; its trace context and per-task ids, work and payloads are inside
// the seal (skel's blob layout). batchID exists only to correlate the
// result frame.
func appendExecBatchHeader(dst []byte, epoch uint32, batchID uint64) []byte {
	dst = binary.BigEndian.AppendUint32(dst, epoch)
	return binary.BigEndian.AppendUint64(dst, batchID)
}

// parseExecBatch decodes an exec-batch frame body.
func parseExecBatch(body []byte) (epoch uint32, batchID uint64, sealed []byte, err error) {
	if len(body) < 12 {
		return 0, 0, nil, errors.New("wire: short exec-batch frame")
	}
	epoch = binary.BigEndian.Uint32(body[:4])
	batchID = binary.BigEndian.Uint64(body[4:12])
	return epoch, batchID, body[12:], nil
}

// Result statuses.
const (
	resultOK  byte = 0
	resultErr byte = 1
)

// appendResultHeader appends the fixed fields of a result frame body:
// uint64 batchID | status | int64 execNanos. The sealed result (OK) or the
// error text (Err) follows them. execNanos is the server-measured
// execution time of the frame (modelled sleep plus worker function),
// reported in the server's own clock: the coordinator subtracts it from
// its locally measured round trip to split wire time from exec time by
// interval arithmetic — the two clocks are never compared directly, so
// skew cannot corrupt the split.
func appendResultHeader(dst []byte, id uint64, status byte, execNanos int64) []byte {
	dst = binary.BigEndian.AppendUint64(dst, id)
	dst = append(dst, status)
	return binary.BigEndian.AppendUint64(dst, uint64(execNanos))
}

// parseResult decodes a result frame body.
func parseResult(body []byte) (id uint64, status byte, execNanos int64, rest []byte, err error) {
	if len(body) < 17 {
		return 0, 0, 0, nil, errors.New("wire: short result frame")
	}
	id = binary.BigEndian.Uint64(body[:8])
	status = body[8]
	execNanos = int64(binary.BigEndian.Uint64(body[9:17]))
	return id, status, execNanos, body[17:], nil
}

// DerivePSK stretches a shared secret string into the 32-byte master key
// both ends of a link need. It exists so operators can hand coordinator and
// workerd the same -psk argument instead of 64 hex digits; the security of
// the link is that of the secret's entropy.
func DerivePSK(secret string) []byte {
	sum := sha256.Sum256([]byte("repro/wire/psk:" + secret))
	return sum[:]
}

// NewMasterCodec builds the link's master codec from the pre-shared key.
// Every control frame (hello, rekey) is sealed under it; a peer without
// the key cannot register capacity or install bindings.
func NewMasterCodec(psk []byte) (security.Codec, error) {
	c, err := security.NewAESGCM(psk, nil, 0)
	if err != nil {
		return nil, fmt.Errorf("wire: master codec: %w", err)
	}
	return c, nil
}
