package wire

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/grid"
	"repro/internal/security"
	"repro/internal/skel"
)

// LabelAddr is the node label carrying a workerd's dial address. Its
// presence is what routes the unified dispatch decision path off-process:
// nodes without it stay loopback, so a mixed pool needs no configuration
// beyond registering the remote nodes.
const LabelAddr = "wire/addr"

// Factory dials transport sessions for remote nodes and is the farm's
// skel.ExecutorFactory. It also owns the link's chaos surface: injected
// drops, delays and partitions apply to every session it has dialed.
type Factory struct {
	master  security.Codec
	timeout time.Duration
	faults  *linkFaults
	stats   Stats

	// controls caches one long-lived control session per address and op,
	// redialed lazily after a failure: the /cluster aggregation and the
	// management plane ride the wire protocol, not an HTTP fan-out.
	mu       sync.Mutex
	controls map[controlKey]*Session
}

// controlKey names a cached control session. Scrape and mgmt exchanges
// never share a session, because the two classes sit on different sides
// of the chaos fault surface (see control).
type controlKey struct {
	addr string
	op   byte
}

// NewFactory builds a factory over the link's pre-shared key. timeout
// bounds dialing and the hello exchange (0 means 10s).
func NewFactory(psk []byte, timeout time.Duration) (*Factory, error) {
	master, err := NewMasterCodec(psk)
	if err != nil {
		return nil, err
	}
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	return &Factory{master: master, timeout: timeout, faults: newLinkFaults()}, nil
}

// Executor implements skel.ExecutorFactory: nodes without a wire/addr
// label run in-process (nil executor, the loopback default); for the rest
// it dials a fresh session per worker.
func (f *Factory) Executor(node *grid.Node) (skel.Executor, error) {
	addr := node.Label(LabelAddr)
	if addr == "" {
		return nil, nil
	}
	s, err := dialSession(addr, f.master, f.timeout, f.faults, &f.stats)
	if err != nil {
		return nil, err
	}
	f.faults.register(s)
	return s, nil
}

// Probe dials addr, authenticates the workerd's hello and returns the
// grid.Node advertised there: domain and trust from the handshake, the
// workerd's labels plus wire/addr so later recruitment knows where to
// dial. The probe connection is closed; worker sessions are dialed
// per-recruitment by Executor.
func (f *Factory) Probe(addr string) (*grid.Node, error) {
	s, err := dialSession(addr, f.master, f.timeout, nil, &f.stats)
	if err != nil {
		return nil, err
	}
	h := s.Hello()
	_ = s.Close()
	return NodeFromHello(addr, h), nil
}

// NodeFromHello builds the grid.Node a hello advertises, tagged with the
// dial address.
func NodeFromHello(addr string, h Hello) *grid.Node {
	labels := map[string]string{LabelAddr: addr}
	for k, v := range h.Labels {
		labels[k] = v
	}
	cores := h.Cores
	if cores < 1 {
		cores = 1
	}
	speed := h.Speed
	if speed <= 0 {
		speed = 1.0
	}
	node := grid.NewNode(h.Name, grid.Domain{Name: h.Domain, Trusted: h.Trusted}, cores, speed)
	node.Labels = labels
	return node
}

// Scrape fetches the workerd node report from addr over the factory's
// cached scrape session for that address.
func (f *Factory) Scrape(addr string) ([]byte, error) { return f.control(addr, opStats, nil) }

// Mgmt runs one management-plane exchange against addr over the factory's
// cached mgmt session for that address.
func (f *Factory) Mgmt(addr string, req []byte) ([]byte, error) {
	return f.control(addr, opMgmt, req)
}

// control runs one control exchange against addr on the cached session
// for (addr, op), dialing one on first use or after a failure. Mgmt
// sessions ride the chaos fault surface: an injected partition stalls the
// exchange and a link drop severs it mid-flight, so the remote management
// plane sees exactly the faults the data plane does. Scrape sessions stay
// off it: the observability plane reports on faults, it is not a victim
// of the link-drop actuator.
func (f *Factory) control(addr string, op byte, req []byte) ([]byte, error) {
	key := controlKey{addr, op}
	f.mu.Lock()
	s := f.controls[key]
	f.mu.Unlock()
	if s == nil || s.closed.Load() {
		var faults *linkFaults
		if op == opMgmt {
			faults = f.faults
		}
		fresh, err := dialSession(addr, f.master, f.timeout, faults, &f.stats)
		if err != nil {
			return nil, err
		}
		if faults != nil {
			faults.register(fresh)
		}
		f.mu.Lock()
		if f.controls == nil {
			f.controls = map[controlKey]*Session{}
		}
		if old := f.controls[key]; old != nil && !old.closed.Load() {
			// Another exchange redialed concurrently; keep its session.
			f.mu.Unlock()
			_ = fresh.Close()
			return f.control(addr, op, req)
		}
		f.controls[key] = fresh
		f.mu.Unlock()
		s = fresh
	}
	reply, err := s.control(op, req)
	if err != nil {
		_ = s.Close()
		f.mu.Lock()
		if f.controls[key] == s {
			delete(f.controls, key)
		}
		f.mu.Unlock()
		return nil, err
	}
	return reply, nil
}

// CloseControls releases every cached scrape and management session.
func (f *Factory) CloseControls() {
	f.mu.Lock()
	controls := f.controls
	f.controls = nil
	f.mu.Unlock()
	for _, s := range controls {
		_ = s.Close()
	}
}

// InjectDrop severs every live session on the link and returns how many
// connections were cut. It is the chaos plane's remote-link drop actuator.
func (f *Factory) InjectDrop() int { return f.faults.dropAll() }

// InjectDelay makes every exec starting within the window pay d extra
// latency.
func (f *Factory) InjectDelay(d, window time.Duration) { f.faults.delay(d, window) }

// InjectPartition stalls the link until the window closes; execs block and
// resume, nothing is lost.
func (f *Factory) InjectPartition(window time.Duration) { f.faults.partition(window) }

// Snapshot returns the factory's transport counters.
func (f *Factory) Snapshot() StatsSnapshot { return f.stats.snapshot(f.faults.drops.Load()) }

// String identifies the factory in logs.
func (f *Factory) String() string { return fmt.Sprintf("wire.Factory(timeout=%s)", f.timeout) }
