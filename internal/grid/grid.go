// Package grid simulates the execution environment of the paper's
// experiments: processing nodes with cores, relative speeds and injectable
// external load, grouped into IP domains that may be trusted or untrusted
// (the paper's untrusted_ip_domain_A), interconnected by links that are
// either private or public, plus a resource manager from which autonomic
// managers recruit new resources when growing a farm.
//
// The simulation is intentionally behavioural rather than cycle-accurate:
// what the autonomic control loops observe are service times and domain
// memberships, and those are what this package models.
package grid

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/simclock"
)

// Domain is an IP domain of the simulated grid.
type Domain struct {
	Name    string
	Trusted bool // false models untrusted_ip_domain_A-like domains
}

// Node is one processing element. A Node has a fixed number of core slots;
// workers allocate slots and, when a node is oversubscribed or externally
// loaded, the effective speed seen by each occupant degrades accordingly.
type Node struct {
	ID     string
	Domain Domain
	Cores  int
	Speed  float64 // relative speed; 1.0 is the reference core

	// Labels are free-form placement attributes ("zone": "a", "gpu":
	// "none"). Remote workerd processes advertise them in the dispatch
	// handshake and recruitment requests can constrain on them, so a
	// deployment planner can target specific nodes. Set before the node is
	// shared; never mutated afterwards.
	Labels map[string]string

	mu       sync.Mutex
	busy     int     // allocated core slots
	external float64 // externally injected load in [0,1)
}

// Label returns the node's value for the given label key ("" when unset).
func (n *Node) Label(key string) string { return n.Labels[key] }

// HasLabels reports whether every key/value pair of want is present in the
// node's labels (subset match; an empty want matches every node).
func (n *Node) HasLabels(want map[string]string) bool {
	for k, v := range want {
		if n.Labels[k] != v {
			return false
		}
	}
	return true
}

// NewNode returns a node with the given identity and capacity. Speed must
// be positive and cores at least 1.
func NewNode(id string, dom Domain, cores int, speed float64) *Node {
	if cores < 1 {
		panic("grid: node needs at least one core")
	}
	if speed <= 0 {
		panic("grid: node speed must be positive")
	}
	return &Node{ID: id, Domain: dom, Cores: cores, Speed: speed}
}

// Allocate reserves one core slot. It never fails: oversubscription is
// allowed but degrades EffectiveSpeed, mirroring what happens on a real
// multicore when more activities than cores are mapped onto it.
func (n *Node) Allocate() {
	n.mu.Lock()
	n.busy++
	n.mu.Unlock()
}

// Release frees one core slot. Releasing an idle node is a bug.
func (n *Node) Release() {
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.busy == 0 {
		panic(fmt.Sprintf("grid: release of idle node %s", n.ID))
	}
	n.busy--
}

// Busy returns the number of allocated core slots.
func (n *Node) Busy() int {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.busy
}

// SetExternalLoad injects external load l in [0,1): the fraction of the
// node's capacity consumed by computations outside the application. This is
// how the EXT-LOAD experiment models "additional (external) load upon the
// cores".
func (n *Node) SetExternalLoad(l float64) {
	if l < 0 || l >= 1 {
		panic(fmt.Sprintf("grid: external load %v out of [0,1)", l))
	}
	n.mu.Lock()
	n.external = l
	n.mu.Unlock()
}

// ExternalLoad returns the currently injected external load.
func (n *Node) ExternalLoad() float64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.external
}

// EffectiveSpeed returns the speed currently seen by one occupant of the
// node: the nominal speed, shared among occupants once the core slots are
// oversubscribed, and scaled down by external load.
func (n *Node) EffectiveSpeed() float64 {
	n.mu.Lock()
	defer n.mu.Unlock()
	speed := n.Speed * (1 - n.external)
	if n.busy > n.Cores {
		speed *= float64(n.Cores) / float64(n.busy)
	}
	return speed
}

// ServiceTime converts a nominal work amount (duration on the reference
// core) into the wall time it takes on this node right now.
func (n *Node) ServiceTime(nominal time.Duration) time.Duration {
	s := n.EffectiveSpeed()
	if s <= 0 {
		s = 1e-6
	}
	return time.Duration(float64(nominal) / s)
}

// Link describes the network connection between two domains.
type Link struct {
	Latency time.Duration
	Private bool // false: traffic is observable, c_sec requires encryption
}

// Network stores pairwise domain links. Missing entries default to a
// public, zero-latency link (the conservative assumption for security).
type Network struct {
	mu    sync.Mutex
	links map[string]Link
}

// NewNetwork returns an empty network.
func NewNetwork() *Network { return &Network{links: map[string]Link{}} }

func linkKey(a, b string) string {
	if a > b {
		a, b = b, a
	}
	return a + "|" + b
}

// SetLink installs the link between domains a and b (order-insensitive).
func (nw *Network) SetLink(a, b string, l Link) {
	nw.mu.Lock()
	nw.links[linkKey(a, b)] = l
	nw.mu.Unlock()
}

// LinkBetween returns the link between two domains. Intra-domain traffic is
// private with zero latency unless explicitly overridden.
func (nw *Network) LinkBetween(a, b string) Link {
	nw.mu.Lock()
	defer nw.mu.Unlock()
	if l, ok := nw.links[linkKey(a, b)]; ok {
		return l
	}
	if a == b {
		return Link{Private: true}
	}
	return Link{Private: false}
}

// ErrExhausted is returned by Recruit when no node matches the request.
var ErrExhausted = errors.New("grid: no matching resource available")

// Request expresses the constraints of a recruitment, as used by the
// autonomic managers when adding farm workers.
type Request struct {
	TrustedOnly bool // refuse nodes in untrusted domains
	MinSpeed    float64
	// MaxExternalLoad, when positive, refuses nodes whose injected
	// external load exceeds it (the migration manager uses it to avoid
	// moving a worker onto another overloaded node).
	MaxExternalLoad float64
	// Labels constrains recruitment to nodes carrying every listed
	// key/value pair (subset match). Nil imposes no label constraint.
	Labels map[string]string
}

// matches reports whether node n satisfies the request.
func (r Request) matches(n *Node) bool {
	if r.TrustedOnly && !n.Domain.Trusted {
		return false
	}
	if !n.HasLabels(r.Labels) {
		return false
	}
	if r.MinSpeed > 0 && n.Speed < r.MinSpeed {
		return false
	}
	if r.MaxExternalLoad > 0 && n.ExternalLoad() > r.MaxExternalLoad {
		return false
	}
	return true
}

// ResourceManager hands out core slots from a pool of nodes. Recruitment
// policy: free capacity first, trusted domains before untrusted ones, then
// faster nodes first, then lexicographic node ID for determinism.
//
// Nodes can be quarantined for a cooldown window: a quarantined node is
// invisible to Recruit and CapacityFree until the window expires. The fault
// manager uses this as a circuit breaker against nodes whose workers keep
// dying.
type ResourceManager struct {
	mu          sync.Mutex
	nodes       []*Node
	clock       simclock.Clock
	quarantined map[string]time.Time // node ID -> quarantine expiry

	// recruitFault, when non-nil, is consulted at the top of Recruit and
	// may veto the recruitment with an error. It is the chaos plane's
	// injection point for flaky or exhausted recruitment; the pointer is
	// atomic so the hook costs one predictable nil check when unused.
	recruitFault atomic.Pointer[func(Request) error]
}

// NewResourceManager returns a manager over the given pool. The pool slice
// is not copied; callers should not mutate it afterwards.
func NewResourceManager(nodes ...*Node) *ResourceManager {
	return &ResourceManager{nodes: nodes, quarantined: map[string]time.Time{}}
}

// SetClock installs the clock used to expire quarantines (default: real
// time). The fault manager shares its simulation clock this way.
func (rm *ResourceManager) SetClock(c simclock.Clock) {
	rm.mu.Lock()
	rm.clock = c
	rm.mu.Unlock()
}

func (rm *ResourceManager) nowLocked() time.Time {
	return simclock.Or(rm.clock).Now()
}

// SetRecruitFault installs (or, with nil, removes) a hook consulted before
// every recruitment; a non-nil error from the hook fails the Recruit call.
func (rm *ResourceManager) SetRecruitFault(fn func(Request) error) {
	if fn == nil {
		rm.recruitFault.Store(nil)
		return
	}
	rm.recruitFault.Store(&fn)
}

// Quarantine removes the node from recruitment for the given cooldown. It
// reports whether the node is in the pool. A second quarantine extends the
// window if it ends later than the current one.
func (rm *ResourceManager) Quarantine(nodeID string, cooldown time.Duration) bool {
	rm.mu.Lock()
	defer rm.mu.Unlock()
	found := false
	for _, n := range rm.nodes {
		if n.ID == nodeID {
			found = true
			break
		}
	}
	if !found {
		return false
	}
	until := rm.nowLocked().Add(cooldown)
	if cur, ok := rm.quarantined[nodeID]; !ok || until.After(cur) {
		rm.quarantined[nodeID] = until
	}
	return true
}

// Quarantined returns the IDs of the nodes currently under quarantine, in
// lexicographic order.
func (rm *ResourceManager) Quarantined() []string {
	rm.mu.Lock()
	defer rm.mu.Unlock()
	now := rm.nowLocked()
	var out []string
	for id, until := range rm.quarantined {
		if now.Before(until) {
			out = append(out, id)
		}
	}
	sort.Strings(out)
	return out
}

// quarantinedLocked reports whether n is under quarantine, lazily dropping
// expired entries.
func (rm *ResourceManager) quarantinedLocked(n *Node, now time.Time) bool {
	until, ok := rm.quarantined[n.ID]
	if !ok {
		return false
	}
	if now.Before(until) {
		return true
	}
	delete(rm.quarantined, n.ID)
	return false
}

// Nodes returns the pool in the manager's preference order.
func (rm *ResourceManager) Nodes() []*Node {
	rm.mu.Lock()
	defer rm.mu.Unlock()
	out := make([]*Node, len(rm.nodes))
	copy(out, rm.nodes)
	rm.rankLocked(out)
	return out
}

func (rm *ResourceManager) rankLocked(ns []*Node) {
	sort.SliceStable(ns, func(i, j int) bool {
		a, b := ns[i], ns[j]
		aFree, bFree := a.Busy() < a.Cores, b.Busy() < b.Cores
		if aFree != bFree {
			return aFree
		}
		if a.Domain.Trusted != b.Domain.Trusted {
			return a.Domain.Trusted
		}
		if a.Speed != b.Speed {
			return a.Speed > b.Speed
		}
		return a.ID < b.ID
	})
}

// Recruit allocates one core slot on the best node satisfying req and
// returns that node. The caller owns the slot and must eventually call
// Node.Release.
func (rm *ResourceManager) Recruit(req Request) (*Node, error) {
	if fp := rm.recruitFault.Load(); fp != nil {
		if err := (*fp)(req); err != nil {
			return nil, err
		}
	}
	rm.mu.Lock()
	defer rm.mu.Unlock()
	now := rm.nowLocked()
	cand := make([]*Node, 0, len(rm.nodes))
	for _, n := range rm.nodes {
		if rm.quarantinedLocked(n, now) {
			continue
		}
		if req.matches(n) {
			cand = append(cand, n)
		}
	}
	if len(cand) == 0 {
		return nil, ErrExhausted
	}
	rm.rankLocked(cand)
	// Prefer a node with a free core; otherwise oversubscribe the best one
	// only if every candidate is full.
	n := cand[0]
	if n.Busy() >= n.Cores {
		return nil, ErrExhausted
	}
	n.Allocate()
	return n, nil
}

// CapacityFree returns the number of unallocated core slots matching req.
// Quarantined nodes contribute nothing, so the managers' capacity sensing
// agrees with what Recruit would actually hand out.
func (rm *ResourceManager) CapacityFree(req Request) int {
	rm.mu.Lock()
	defer rm.mu.Unlock()
	now := rm.nowLocked()
	total := 0
	for _, n := range rm.nodes {
		if rm.quarantinedLocked(n, now) || !req.matches(n) {
			continue
		}
		if free := n.Cores - n.Busy(); free > 0 {
			total += free
		}
	}
	return total
}

// CoresInUse returns the total number of allocated slots in the pool — the
// "resources used" curve of Fig. 4 (bottom graph).
func (rm *ResourceManager) CoresInUse() int {
	rm.mu.Lock()
	defer rm.mu.Unlock()
	total := 0
	for _, n := range rm.nodes {
		total += n.Busy()
	}
	return total
}

// Platform bundles the grid pieces used by an experiment.
type Platform struct {
	Domains []Domain
	Network *Network
	RM      *ResourceManager
}

// NewSMP builds the 8-core dual quad-core SMP machine the paper ran its
// Fig. 4 experiment on: a single trusted domain, one node with eight
// reference-speed cores.
func NewSMP(cores int) *Platform {
	if cores <= 0 {
		cores = 8
	}
	dom := Domain{Name: "smp.local", Trusted: true}
	node := NewNode("smp0", dom, cores, 1.0)
	return &Platform{
		Domains: []Domain{dom},
		Network: NewNetwork(),
		RM:      NewResourceManager(node),
	}
}

// NewTwoDomainGrid builds the §3.2 scenario: trustedCores spread over
// single-core nodes in a trusted domain plus untrustedCores single-core
// nodes in untrusted_ip_domain_A, connected by a public link.
func NewTwoDomainGrid(trustedCores, untrustedCores int) *Platform {
	trusted := Domain{Name: "trusted.local", Trusted: true}
	untrusted := Domain{Name: "untrusted_ip_domain_A", Trusted: false}
	var nodes []*Node
	for i := 0; i < trustedCores; i++ {
		nodes = append(nodes, NewNode(fmt.Sprintf("t%02d", i), trusted, 1, 1.0))
	}
	for i := 0; i < untrustedCores; i++ {
		nodes = append(nodes, NewNode(fmt.Sprintf("u%02d", i), untrusted, 1, 1.0))
	}
	nw := NewNetwork()
	nw.SetLink(trusted.Name, untrusted.Name, Link{Latency: 2 * time.Millisecond, Private: false})
	nw.SetLink(trusted.Name, trusted.Name, Link{Private: true})
	return &Platform{
		Domains: []Domain{trusted, untrusted},
		Network: nw,
		RM:      NewResourceManager(nodes...),
	}
}
