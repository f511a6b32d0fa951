package wire

import (
	"errors"
	"fmt"
	"log"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/security"
	"repro/internal/skel"
	"repro/internal/telemetry"
)

// WorkerFn transforms one task payload on the workerd side. Coordinator
// and workerd agree on the function by deployment (the workerd applies the
// function it was started with), mirroring how the skeleton's functional
// code is compiled into every process of a distributed run. payload lives
// in the connection's reusable buffer: the function may return it or a
// subslice of it, but must not keep it past the call.
type WorkerFn func(payload []byte) []byte

// ServerConfig parameterizes a workerd endpoint.
type ServerConfig struct {
	// PSK is the link's pre-shared 32-byte master key; connections that
	// cannot authenticate against it are cut.
	PSK []byte
	// Hello is the node advertisement sent on every connection.
	Hello Hello
	// Fn is the functional code applied to each task payload (nil: identity).
	Fn WorkerFn
	// TimeScale divides the modelled work carried by envelopes into real
	// sleep, exactly like skel.Env.TimeScale on the coordinator side. Zero
	// or negative skips the sleep entirely (the unit-test setting).
	TimeScale float64
	// Log receives connection-level events. Nil discards them.
	Log *log.Logger
	// Instruments receives per-frame latency observations, exactly like a
	// farm's: Dispatch covers the whole handling of one exec-batch frame
	// (decode, sleep, function, seal, reply), Seal isolates the result
	// encode.
	// Optional; nil costs one branch per frame.
	Instruments *skel.FarmInstruments
	// Tracer records workerd-side exec spans for sampled envelopes (the
	// trace context arrives inside the envelope blob; the sampling decision
	// was the coordinator's). Optional.
	Tracer *telemetry.TaskTracer
	// Stats, when set, answers observability scrapes (the stats op of a
	// control frame) with a node report — typically a telemetry.NodeReport
	// in JSON. The reply is sealed under the link's master codec. Nil
	// refuses scrapes.
	Stats func() []byte
	// Mgmt, when set, answers management-plane exchanges (the mgmt op of a
	// control frame): violation reports, lease renewals, contract
	// re-splits, two-phase prepares from a remote child manager. Request
	// and reply are opaque to the wire layer and sealed under the link's
	// master codec. Nil refuses management traffic (a data-plane-only
	// workerd).
	Mgmt func(req []byte) []byte
}

// Server is the workerd side of the transport: it accepts framed
// connections, installs binding codecs shipped by rekey frames into a
// per-connection epoch keyring, and executes task envelopes — decode,
// sleep the modelled work, apply the worker function, seal the result
// under the same epoch. Malformed or unauthenticated frames close the
// connection: fail-secure, never fail-open.
type Server struct {
	cfg    ServerConfig
	master security.Codec
	// control maps a control op to its handler, built from cfg.Stats and
	// cfg.Mgmt; an op without an entry is refused.
	control map[byte]func(req []byte) []byte

	mu       sync.Mutex
	listener net.Listener
	conns    map[net.Conn]struct{}
	closed   bool

	served   atomic.Uint64
	rejected atomic.Uint64
	wg       sync.WaitGroup
}

// NewServer validates cfg and builds the server.
func NewServer(cfg ServerConfig) (*Server, error) {
	master, err := NewMasterCodec(cfg.PSK)
	if err != nil {
		return nil, err
	}
	if cfg.Hello.Name == "" {
		return nil, errors.New("wire: server needs a node name to advertise")
	}
	control := map[byte]func([]byte) []byte{}
	if stats := cfg.Stats; stats != nil {
		control[opStats] = func([]byte) []byte { return stats() }
	}
	if cfg.Mgmt != nil {
		control[opMgmt] = cfg.Mgmt
	}
	return &Server{cfg: cfg, master: master, control: control, conns: map[net.Conn]struct{}{}}, nil
}

// Addr returns the listener address ("" before Serve).
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.listener == nil {
		return ""
	}
	return s.listener.Addr().String()
}

// Listen binds addr (e.g. "127.0.0.1:0") and starts accepting in a
// background goroutine; it returns once the listener is live so callers
// can read Addr. Close shuts everything down.
func (s *Server) Listen(addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		l.Close()
		return errors.New("wire: server closed")
	}
	s.listener = l
	s.mu.Unlock()
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.acceptLoop(l)
	}()
	return nil
}

func (s *Server) acceptLoop(l net.Listener) {
	for {
		conn, err := l.Accept()
		if err != nil {
			return // listener closed
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			conn.Close()
			return
		}
		s.conns[conn] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			s.serveConn(conn)
		}()
	}
}

// Served returns the number of tasks executed across all connections.
func (s *Server) Served() uint64 { return s.served.Load() }

// Rejected returns the number of frames refused (bad epoch, failed
// authentication, malformed body).
func (s *Server) Rejected() uint64 { return s.rejected.Load() }

// Close stops the listener and severs every live connection. Idempotent;
// it returns once all connection goroutines have exited.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	s.closed = true
	l := s.listener
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	if l != nil {
		l.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
	return nil
}

func (s *Server) logf(format string, args ...any) {
	if s.cfg.Log != nil {
		s.cfg.Log.Printf(format, args...)
	}
}

// serveConn runs one connection: hello out, then a serial frame loop. The
// loop is deliberately synchronous — one task at a time per connection —
// because the peer is one farm worker, and a worker is serial by
// definition; parallelism comes from more workers, i.e. more connections.
//
// Every per-frame buffer belongs to the connection and is reused from
// frame to frame: the frame read, the opened request, the parsed batch
// entries, the result blob and the reply frame, into which the result is
// sealed in place. A buffer one large frame grew past
// skel.MaxRetainedBuffer is dropped rather than kept.
func (s *Server) serveConn(conn net.Conn) {
	defer func() {
		conn.Close()
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
	}()
	hello, err := sealHello(s.master, s.cfg.Hello)
	if err != nil {
		s.logf("wire: sealing hello: %v", err)
		return
	}
	if err := writeFrame(conn, frameHello, hello); err != nil {
		return
	}
	// keyring maps binding epochs to codecs; epoch 0 is Plain on both ends.
	// Old epochs stay resolvable so frames sealed before a rekey landed
	// (the §3.2 hazard window, stretched across a wire) still decode.
	keyring := map[uint32]security.Codec{0: security.Plain{}}
	in := frameReader{r: conn}
	var (
		out     []byte // the reply frame
		plain   []byte // the opened request payload or batch blob
		blob    []byte // the result blob before sealing
		entries []skel.BatchEntry
	)
	// send writes a reply frame built on out and keeps out for the next.
	send := func(frame []byte) bool {
		err := sendFrame(conn, frame)
		out = skel.ReuseBuffer(frame)
		return err == nil
	}
	for {
		plain, blob = skel.ReuseBuffer(plain), skel.ReuseBuffer(blob)
		clear(entries)
		entries = entries[:0]
		typ, body, err := in.read()
		if err != nil {
			return // peer gone or frame malformed; either way the link is done
		}
		switch typ {
		case frameRekey:
			req, err := s.master.Decode(body)
			if err != nil {
				s.rejected.Add(1)
				s.logf("wire: %s: rekey did not authenticate: %v", conn.RemoteAddr(), err)
				return // fail-secure: an unauthenticated rekey kills the link
			}
			epoch, codec, err := parseRekey(req)
			if err != nil {
				s.rejected.Add(1)
				s.logf("wire: %s: %v", conn.RemoteAddr(), err)
				return
			}
			keyring[epoch] = codec
		case frameExecBatch:
			frameStart := time.Now()
			epoch, batchID, sealed, err := parseExecBatch(body)
			if err != nil {
				s.rejected.Add(1)
				return
			}
			codec, ok := keyring[epoch]
			if !ok {
				s.rejected.Add(1)
				s.reply(conn, batchID, fmt.Sprintf("unknown binding epoch %d", epoch))
				continue
			}
			if plain, err = security.AppendDecode(codec, plain, sealed); err != nil {
				s.rejected.Add(1)
				s.reply(conn, batchID, "batch did not authenticate")
				continue
			}
			tc, parsed, err := skel.ParseBatchBlob(entries, plain)
			if err != nil {
				// Authenticated but malformed: refuse the whole envelope
				// (the member boundaries cannot be trusted).
				s.rejected.Add(1)
				s.reply(conn, batchID, "malformed batch blob")
				continue
			}
			entries = parsed
			var sp *telemetry.Span
			if tc.Sampled && s.cfg.Tracer != nil && len(entries) > 0 {
				sp = s.cfg.Tracer.StartRemote(tc, entries[0].ID)
				if len(entries) > 1 {
					sp.Batch = len(entries)
				}
				sp.Node = s.cfg.Hello.Name
				sp.Remote = true
				sp.Mark(telemetry.StageReseal) // request decode + blob parse
			}
			execStart := time.Now()
			for i := range entries {
				e := &entries[i]
				if scale := s.cfg.TimeScale; scale > 0 && e.Work > 0 {
					time.Sleep(time.Duration(float64(e.Work) / scale))
				}
				if s.cfg.Fn != nil {
					e.Payload = s.cfg.Fn(e.Payload)
				}
			}
			execNanos := int64(time.Since(execStart))
			if sp != nil {
				sp.Mark(telemetry.StageExec)
			}
			blob = skel.AppendBatchResult(blob, entries)
			frame, err := s.sealResult(out, codec, batchID, execNanos, blob, sp)
			if err != nil {
				s.reply(conn, batchID, "result seal failed")
				continue
			}
			s.served.Add(uint64(len(entries)))
			if ins := s.cfg.Instruments; ins != nil {
				ins.Dispatch.ObserveDuration(time.Since(frameStart))
			}
			if !send(frame) {
				return
			}
		case frameControl:
			// Control plane: the request must authenticate under the link's
			// master codec (fail-secure, like rekey — a forged violation
			// report or lease renewal must cut the connection, not reach a
			// handler) and name an op this server serves.
			reply, err := s.serveControl(body)
			if err != nil {
				s.rejected.Add(1)
				s.logf("wire: %s: %v", conn.RemoteAddr(), err)
				return
			}
			if !send(append(beginFrame(out, frameControlReply), reply...)) {
				return
			}
		default:
			s.rejected.Add(1)
			s.logf("wire: %s: unknown frame type %#x", conn.RemoteAddr(), typ)
			return
		}
	}
}

// sealResult seals one executed frame's result under its binding codec
// straight into a result frame built on out, and closes the frame's span.
func (s *Server) sealResult(out []byte, codec security.Codec, id uint64, execNanos int64, result []byte, sp *telemetry.Span) ([]byte, error) {
	sealStart := time.Now()
	frame, err := security.AppendEncode(codec, appendResultHeader(beginFrame(out, frameResult), id, resultOK, execNanos), result)
	if ins := s.cfg.Instruments; ins != nil {
		ins.Seal.ObserveDuration(time.Since(sealStart))
	}
	if sp != nil {
		sp.Mark(telemetry.StageSeal)
		s.cfg.Tracer.Publish(sp)
	}
	return frame, err
}

// serveControl opens one control request, runs the handler its op names
// and seals the handler's reply under the master codec. Any error cuts the
// connection.
func (s *Server) serveControl(body []byte) ([]byte, error) {
	plain, err := s.master.Decode(body)
	if err != nil {
		return nil, fmt.Errorf("control request did not authenticate: %w", err)
	}
	if len(plain) == 0 {
		return nil, errors.New("control request without op")
	}
	handle := s.control[plain[0]]
	if handle == nil {
		return nil, fmt.Errorf("control op %#x refused: no handler", plain[0])
	}
	return s.master.Encode(handle(plain[1:]))
}

// reply writes one error result frame; false means the connection is
// dead.
func (s *Server) reply(conn net.Conn, taskID uint64, msg string) bool {
	return writeFrame(conn, frameResult, append(appendResultHeader(nil, taskID, resultErr, 0), msg...)) == nil
}
