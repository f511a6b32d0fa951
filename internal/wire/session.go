package wire

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/security"
	"repro/internal/skel"
	"repro/internal/telemetry"
)

// ErrSessionClosed is returned by ExecBatch and Rekey once the session's
// connection is gone — closed by the farm, cut by an injected link drop,
// or broken by the peer.
var ErrSessionClosed = errors.New("wire: session closed")

// Session is one coordinator-side transport connection to a workerd,
// implementing skel.Executor for exactly one farm worker. A session
// carries a single outstanding exec or control exchange at a time (the
// farm's worker loop is serial, which is what makes the protocol need no
// response demux) plus fire-and-forget rekey frames serialized on the same
// mutex.
type Session struct {
	hello  Hello
	master security.Codec
	faults *linkFaults
	stats  *Stats

	mu      sync.Mutex // serializes round trips and rekey writes
	conn    net.Conn
	epoch   uint32
	binding security.Codec // codec of the current epoch, for foreign reseals
	// out is the frame being written and in reads the replies, both
	// reused from frame to frame under mu: a sealed result ExecBatch
	// returns aliases in's buffer until the next call on the session.
	out []byte
	in  frameReader

	// batchSeq correlates exec-batch frames with their result frames;
	// guarded by mu.
	batchSeq uint64

	closed atomic.Bool
}

// dialSession connects, authenticates the workerd's hello and returns the
// live session. The zero binding epoch is Plain on both ends.
func dialSession(addr string, master security.Codec, timeout time.Duration, faults *linkFaults, stats *Stats) (*Session, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("wire: dial %s: %w", addr, err)
	}
	if timeout > 0 {
		_ = conn.SetReadDeadline(time.Now().Add(timeout))
	}
	typ, body, err := readFrame(conn)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("wire: reading hello from %s: %w", addr, err)
	}
	_ = conn.SetReadDeadline(time.Time{})
	if typ != frameHello {
		conn.Close()
		return nil, fmt.Errorf("wire: %s sent frame %#x before hello", addr, typ)
	}
	hello, err := openHello(master, body)
	if err != nil {
		conn.Close()
		return nil, err
	}
	stats.dials.Add(1)
	return &Session{
		hello:   hello,
		master:  master,
		faults:  faults,
		stats:   stats,
		conn:    conn,
		binding: security.Plain{},
		in:      frameReader{r: conn},
	}, nil
}

// Hello returns the node advertisement received at dial time.
func (s *Session) Hello() Hello { return s.hello }

// epochCodec is the binding codec the farm holds after a remote rekey: it
// delegates Encode/Decode to the inner codec (so envelopes remain fully
// usable in-process — restores onto loopback workers keep working) and
// tags the session + epoch the key was installed under, which is how
// ExecBatch knows the sealed bytes can go out as-is.
type epochCodec struct {
	s     *Session
	epoch uint32
	inner security.Codec
}

func (e *epochCodec) Name() string                        { return e.inner.Name() }
func (e *epochCodec) Secure() bool                        { return e.inner.Secure() }
func (e *epochCodec) Encode(plain []byte) ([]byte, error) { return e.inner.Encode(plain) }
func (e *epochCodec) Decode(wire []byte) ([]byte, error)  { return e.inner.Decode(wire) }
func (e *epochCodec) Overhead() int                       { return security.Overhead(e.inner) }

// AppendEncode and AppendDecode keep the inner codec's allocation-free
// paths reachable through the wrapper, so the farm seals a remote
// binding's envelopes into pooled buffers exactly like a loopback one's.
func (e *epochCodec) AppendEncode(dst, plain []byte) ([]byte, error) {
	return security.AppendEncode(e.inner, dst, plain)
}

func (e *epochCodec) AppendDecode(dst, wire []byte) ([]byte, error) {
	return security.AppendDecode(e.inner, dst, wire)
}

// Rekey implements skel.Executor: it ships codec c to the workerd inside a
// control frame sealed under the link's master codec — the raw key never
// crosses in clear — and returns the epoch-tagged wrapper the farm must
// seal with from now on. The write is fire-and-forget: frames are
// processed in order on the remote end, so the rekey is installed before
// any later exec-batch frame that uses its epoch. A codec that is already an
// epoch wrapper (e.g. a binding migrated from another session) is
// unwrapped and re-shipped under a fresh epoch of this session.
func (s *Session) Rekey(c security.Codec) (security.Codec, error) {
	if ec, ok := c.(*epochCodec); ok {
		c = ec.inner
	}
	name, key, err := transportable(c)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		return nil, ErrSessionClosed
	}
	epoch := s.epoch + 1
	plain, err := rekeyBody(epoch, name, key)
	if err != nil {
		return nil, err
	}
	frame, err := security.AppendEncode(s.master, beginFrame(s.out, frameRekey), plain)
	if err != nil {
		return nil, err
	}
	if err := s.sendLocked(frame); err != nil {
		return nil, err
	}
	s.epoch = epoch
	s.binding = c
	s.stats.rekeys.Add(1)
	return &epochCodec{s: s, epoch: epoch, inner: c}, nil
}

// ExecBatch implements skel.Executor: one sealed envelope blob — one task
// or many — out in a single exec-batch frame, one result frame back
// carrying the sealed result blob. When codec is this session's current
// epoch wrapper the sealed bytes go out verbatim — the transport never
// sees the plaintext. A foreign codec (an envelope restored from another
// worker's queue by rebalance, recovery or migration) is opened locally
// and re-sealed under this session's own binding, so a moved task still
// crosses the wire under a key its destination knows, at the same
// security level the farm installed here; the result is handed back
// sealed under the caller's codec. The envelope's trace context travels
// inside the sealed blob, and the workerd's reply reports its own measured
// exec time, which the farm joins with its local round trip by interval
// arithmetic to separate wire and exec stages. The returned sealed result
// is valid until the next call on the session.
func (s *Session) ExecBatch(codec security.Codec, sealed []byte) ([]byte, int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		return nil, 0, ErrSessionClosed
	}
	if err := s.faults.apply(s); err != nil {
		return nil, 0, err
	}
	s.batchSeq++
	id := s.batchSeq
	var foreign security.Codec
	var frame []byte
	if ec, ok := codec.(*epochCodec); ok && ec.s == s {
		frame = append(appendExecBatchHeader(beginFrame(s.out, frameExecBatch), ec.epoch, id), sealed...)
	} else {
		// The reply will come back sealed under this session's binding;
		// remember the foreign codec so the result can be handed back
		// sealed the way the caller expects (the Executor contract).
		foreign = codec
		plain, err := codec.Decode(sealed)
		if err != nil {
			return nil, 0, fmt.Errorf("wire: reseal envelope for session: %w", err)
		}
		frame, err = security.AppendEncode(s.binding, appendExecBatchHeader(beginFrame(s.out, frameExecBatch), s.epoch, id), plain)
		if err != nil {
			return nil, 0, fmt.Errorf("wire: reseal envelope for session: %w", err)
		}
	}
	if err := s.sendLocked(frame); err != nil {
		return nil, 0, err
	}
	typ, body, err := s.in.read()
	if err != nil {
		s.closeLocked()
		return nil, 0, fmt.Errorf("wire: reading envelope result: %w", err)
	}
	if typ != frameResult {
		s.closeLocked()
		return nil, 0, fmt.Errorf("wire: unexpected frame %#x awaiting envelope result", typ)
	}
	gotID, status, execNanos, rest, err := parseResult(body)
	if err != nil {
		s.closeLocked()
		return nil, 0, err
	}
	if gotID != id {
		s.closeLocked()
		return nil, 0, fmt.Errorf("wire: result for envelope %d while awaiting %d", gotID, id)
	}
	if status != resultOK {
		// A remote rejection (unknown epoch, unauthenticated payload) is a
		// link-level fault: fail the session so the farm crashes the worker
		// and the stranded envelopes are recovered.
		s.closeLocked()
		return nil, 0, fmt.Errorf("wire: remote: %s", rest)
	}
	if foreign != nil {
		plain, err := s.binding.Decode(rest)
		if err != nil {
			s.closeLocked()
			return nil, 0, fmt.Errorf("wire: envelope result reseal: %w", err)
		}
		if rest, err = foreign.Encode(plain); err != nil {
			return nil, 0, fmt.Errorf("wire: envelope result reseal: %w", err)
		}
	}
	s.stats.execs.Add(1)
	return rest, execNanos, nil
}

// Exec implements skel.Executor for a caller holding one sealed task
// payload: skel.ExecOne packs it as a one-member envelope blob and runs it
// through ExecBatch, so it crosses the wire in the same exec-batch frame
// as every farm envelope. The farm itself never calls it.
func (s *Session) Exec(tc telemetry.TraceContext, taskID uint64, work time.Duration, codec security.Codec, sealed []byte) ([]byte, int64, error) {
	return skel.ExecOne(s, tc, taskID, work, codec, sealed)
}

// control runs one control exchange over this session: the op byte and
// request sealed under the link's master codec — a peer without the PSK
// can neither request a node report nor forge a violation report, lease
// renewal, contract re-split or two-phase prepare — answered by the
// peer's sealed reply. The wire layer interprets neither body: a node
// report is the workerd's JSON (telemetry.NodeReport), and
// internal/manager owns the management schema. A session dialed onto the
// chaos fault surface pays its partitions and drops here; a scrape
// session has no faults to pay.
func (s *Session) control(op byte, req []byte) ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed.Load() {
		return nil, ErrSessionClosed
	}
	if err := s.faults.apply(s); err != nil {
		return nil, err
	}
	if s.closed.Load() { // a drop may have landed during the fault window
		return nil, ErrSessionClosed
	}
	frame, err := security.AppendEncode(s.master, beginFrame(s.out, frameControl), append([]byte{op}, req...))
	if err != nil {
		return nil, fmt.Errorf("wire: sealing control request: %w", err)
	}
	if err := s.sendLocked(frame); err != nil {
		return nil, err
	}
	typ, body, err := s.in.read()
	if err != nil {
		s.closeLocked()
		return nil, fmt.Errorf("wire: reading control reply: %w", err)
	}
	if typ != frameControlReply {
		s.closeLocked()
		return nil, fmt.Errorf("wire: unexpected frame %#x awaiting control reply", typ)
	}
	plain, err := s.master.Decode(body)
	if err != nil {
		s.closeLocked()
		return nil, fmt.Errorf("wire: control reply did not authenticate: %w", err)
	}
	return plain, nil
}

// sendLocked writes one frame built in the session's frame buffer and
// keeps the buffer for the next one; any error poisons the session.
// Callers hold s.mu.
func (s *Session) sendLocked(frame []byte) error {
	err := sendFrame(s.conn, frame)
	s.out = skel.ReuseBuffer(frame)
	if err != nil {
		s.closeLocked()
		return fmt.Errorf("wire: write: %w", err)
	}
	s.stats.framesOut.Add(1)
	return nil
}

// closeLocked marks the session dead and closes the connection. Callers
// hold s.mu or are the fault injector (which must not take it: a drop has
// to cut a connection mid-exec, exactly like yanking a cable).
func (s *Session) closeLocked() {
	if s.closed.CompareAndSwap(false, true) {
		_ = s.conn.Close()
	}
}

// Close implements skel.Executor. Idempotent.
func (s *Session) Close() error {
	s.closeLocked()
	s.faults.forget(s)
	return nil
}
