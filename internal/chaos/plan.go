// Package chaos is the deterministic fault-injection plane of the
// reproduction. It generates seeded fault storms — bursts of faults spread
// over every layer of the stack, separated by quiet recovery windows — and
// drives them through the injection points the layers expose: worker
// crashes, panics and stalls (skel.Farm), external-load spikes (grid.Node),
// link degradation (grid.Network), flaky or exhausted recruitment
// (grid.ResourceManager) and failing or slow actuator operations
// (abc.FarmABC).
//
// Everything about a storm derives from its seed: the same seed always
// yields the same Plan, byte for byte, so any failure found under chaos
// replays exactly. Fault magnitudes and times are expressed in modelled
// time (the time of skel.Env.Clock), keeping schedules identical across
// machines of different speeds.
package chaos

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"time"
)

// Kind names one fault type of the taxonomy.
type Kind string

// The fault taxonomy, one injection point per layer.
const (
	// WorkerCrash kills a live worker outright (grid node loss).
	WorkerCrash Kind = "workerCrash"
	// WorkerPanic makes one worker function panic mid-task.
	WorkerPanic Kind = "workerPanic"
	// WorkerStall freezes one worker for Param modelled seconds.
	WorkerStall Kind = "workerStall"
	// ExtLoad injects external load Param on a busy node for Dur.
	ExtLoad Kind = "extLoad"
	// LinkDegrade adds Param ms of latency to an inter-domain link for Dur.
	LinkDegrade Kind = "linkDegrade"
	// RecruitFlaky makes recruitment fail transiently for Dur (retryable).
	RecruitFlaky Kind = "recruitFlaky"
	// RecruitOutage makes recruitment report pool exhaustion for Dur.
	RecruitOutage Kind = "recruitOutage"
	// ActuatorFail makes every ABC Execute fail for Dur.
	ActuatorFail Kind = "actuatorFail"
	// ActuatorSlow delays every ABC Execute by Param ms for Dur.
	ActuatorSlow Kind = "actuatorSlow"
	// ManagerCrash kills a management loop (round-robin over the manager
	// targets); windowed participants (the two-phase security manager)
	// stay down for Dur before their supervised restart answers again.
	ManagerCrash Kind = "managerCrash"
	// ManagerPanic makes a management loop panic mid-cycle; the supervisor
	// converts it to a restart.
	ManagerPanic Kind = "managerPanic"
	// ManagerStall freezes a management loop for Param modelled seconds.
	ManagerStall Kind = "managerStall"
)

// The remote-link fault taxonomy: faults of the cross-process dispatch
// plane's framed connections (internal/wire). It is deliberately a
// SEPARATE taxonomy, enabled per-plan by StormConfig.IncludeRemote: the
// base Kinds() list feeds the seeded plan generator, so extending it would
// silently rewrite every committed golden schedule. Remote kinds only ever
// appear in plans that asked for them.
const (
	// RemoteDrop severs every live framed connection of the link at once —
	// a cable pull. Affected workers crash, their queues strand, and
	// recovery recruitment re-dials.
	RemoteDrop Kind = "remoteDrop"
	// RemoteDelay adds Param ms of real latency to every remote exec
	// starting within Dur.
	RemoteDelay Kind = "remoteDelay"
	// RemotePartition stalls the link for Dur: frames neither flow nor
	// die, and execs resume when the partition heals.
	RemotePartition Kind = "remotePartition"
)

// The manager-link fault taxonomy: faults of the remote management plane
// (internal/manager's RemoteLink), enabled per-plan by
// StormConfig.IncludeManagerLinks for the same golden-stability reason as
// the remote taxonomy.
const (
	// ManagerPartition makes every management exchange fail for Dur: the
	// child's lease expires, the link declares a partition, violations
	// buffer, and reattach triggers catch-up cycles.
	ManagerPartition Kind = "managerPartition"
	// ManagerLinkDrop fails the next few management exchanges outright —
	// a cut connection rather than a window. Inside a live lease the link
	// only degrades to suspect.
	ManagerLinkDrop Kind = "managerLinkDrop"
)

// Kinds lists the base taxonomy in canonical order. Committed golden
// schedules derive from this list: it must only ever grow behind a new
// StormConfig flag (see RemoteKinds).
func Kinds() []Kind {
	return []Kind{
		WorkerCrash, WorkerPanic, WorkerStall, ExtLoad, LinkDegrade,
		RecruitFlaky, RecruitOutage, ActuatorFail, ActuatorSlow,
		ManagerCrash, ManagerPanic, ManagerStall,
	}
}

// RemoteKinds lists the remote-link taxonomy in canonical order.
func RemoteKinds() []Kind {
	return []Kind{RemoteDrop, RemoteDelay, RemotePartition}
}

// ManagerLinkKinds lists the management-plane taxonomy in canonical order.
func ManagerLinkKinds() []Kind {
	return []Kind{ManagerPartition, ManagerLinkDrop}
}

// Event is one scheduled fault.
type Event struct {
	// At is the modelled offset from run start.
	At   time.Duration
	Kind Kind
	// Param is the kind-specific magnitude: load fraction for ExtLoad,
	// added milliseconds for LinkDegrade and ActuatorSlow, stall seconds
	// for WorkerStall.
	Param float64
	// Dur is the modelled window length for windowed faults.
	Dur time.Duration
}

// String renders the event deterministically for schedules.
func (e Event) String() string {
	return fmt.Sprintf("@%v %s p=%.3f dur=%v", e.At, e.Kind, e.Param, e.Dur)
}

// Storm is one burst of faults followed (by construction of the Plan) by a
// quiet recovery window.
type Storm struct {
	Events []Event
}

// Plan is a complete, fully materialized fault schedule. Plans can also be
// scripted by hand: construct the Storms literally.
type Plan struct {
	Seed   int64
	Storms []Storm
}

// StormConfig shapes plan generation.
type StormConfig struct {
	// Storms is the number of bursts (default 3).
	Storms int
	// EventsPerStorm is the number of faults per burst. The first
	// len(Kinds()) events of every storm cycle through the whole taxonomy
	// before random draws start, so any storm at least that large covers
	// every fault kind. Default len(Kinds()).
	EventsPerStorm int
	// Warmup is the modelled delay before the first storm (default 10s):
	// the farm reaches steady state so recovery is measured against a
	// satisfied contract.
	Warmup time.Duration
	// Span is the modelled window the storm's events spread over
	// (default 10s).
	Span time.Duration
	// Quiet is the modelled recovery window after each storm
	// (default 30s).
	Quiet time.Duration
	// IncludeRemote extends the taxonomy with RemoteKinds(), for runs with
	// a live cross-process dispatch plane. Plans generated without it are
	// bit-for-bit what they were before the remote taxonomy existed, which
	// is what keeps the committed loopback goldens valid.
	IncludeRemote bool
	// IncludeManagerLinks extends the taxonomy with ManagerLinkKinds(),
	// for runs with a remote management plane (a child manager linked to
	// its parent over the wire). Same golden-stability contract as
	// IncludeRemote.
	IncludeManagerLinks bool
}

func (c StormConfig) normalized() StormConfig {
	if c.Storms <= 0 {
		c.Storms = 3
	}
	if c.EventsPerStorm <= 0 {
		c.EventsPerStorm = len(Kinds())
		if c.IncludeRemote {
			c.EventsPerStorm += len(RemoteKinds())
		}
		if c.IncludeManagerLinks {
			c.EventsPerStorm += len(ManagerLinkKinds())
		}
	}
	if c.Warmup <= 0 {
		c.Warmup = 10 * time.Second
	}
	if c.Span <= 0 {
		c.Span = 10 * time.Second
	}
	if c.Quiet <= 0 {
		c.Quiet = 30 * time.Second
	}
	return c
}

// millis draws a uniform duration in [lo, hi] milliseconds.
func millis(rng *rand.Rand, lo, hi int64) time.Duration {
	return time.Duration(lo+rng.Int63n(hi-lo+1)) * time.Millisecond
}

// NewPlan generates a deterministic fault plan from the seed: every value
// of every event is a draw from one seeded PRNG consumed in a fixed order,
// so the same (seed, cfg) pair always produces the identical Plan.
func NewPlan(seed int64, cfg StormConfig) Plan {
	cfg = cfg.normalized()
	rng := rand.New(rand.NewSource(seed))
	kinds := Kinds()
	if cfg.IncludeRemote {
		kinds = append(kinds, RemoteKinds()...)
	}
	if cfg.IncludeManagerLinks {
		kinds = append(kinds, ManagerLinkKinds()...)
	}
	p := Plan{Seed: seed}
	base := cfg.Warmup
	for s := 0; s < cfg.Storms; s++ {
		events := make([]Event, 0, cfg.EventsPerStorm)
		for i := 0; i < cfg.EventsPerStorm; i++ {
			k := kinds[i%len(kinds)]
			if i >= len(kinds) {
				k = kinds[rng.Intn(len(kinds))]
			}
			ev := Event{At: base + time.Duration(rng.Int63n(int64(cfg.Span))), Kind: k}
			switch k {
			case WorkerCrash, WorkerPanic:
				// instantaneous, no magnitude
			case WorkerStall:
				ev.Param = float64(5+rng.Intn(11)) + float64(rng.Intn(1000))/1000 // 5–16 s
			case ExtLoad:
				ev.Param = 0.5 + float64(rng.Intn(400))/1000 // 0.5–0.9
				ev.Dur = millis(rng, 5000, 12000)
			case LinkDegrade:
				ev.Param = float64(20 + rng.Intn(81)) // +20–100 ms
				ev.Dur = millis(rng, 5000, 12000)
			case RecruitFlaky:
				ev.Dur = millis(rng, 3000, 8000)
			case RecruitOutage:
				ev.Dur = millis(rng, 5000, 10000)
			case ActuatorFail:
				ev.Dur = millis(rng, 5000, 10000)
			case ActuatorSlow:
				ev.Param = float64(200 + rng.Intn(401)) // 200–600 ms
				ev.Dur = millis(rng, 5000, 10000)
			case ManagerCrash:
				ev.Dur = millis(rng, 2000, 6000) // participant down-window
			case ManagerPanic:
				// instantaneous, no magnitude
			case ManagerStall:
				ev.Param = float64(2+rng.Intn(5)) + float64(rng.Intn(1000))/1000 // 2–7 s
			case RemoteDrop:
				// instantaneous, no magnitude
			case RemoteDelay:
				ev.Param = float64(20 + rng.Intn(81)) // +20–100 ms
				ev.Dur = millis(rng, 3000, 8000)
			case RemotePartition:
				ev.Dur = millis(rng, 1000, 4000)
			case ManagerPartition:
				ev.Dur = millis(rng, 2000, 6000)
			case ManagerLinkDrop:
				// instantaneous, no magnitude
			}
			events = append(events, ev)
		}
		sort.SliceStable(events, func(i, j int) bool {
			if events[i].At != events[j].At {
				return events[i].At < events[j].At
			}
			return events[i].Kind < events[j].Kind
		})
		p.Storms = append(p.Storms, Storm{Events: events})
		base += cfg.Span + cfg.Quiet
	}
	return p
}

// Schedule renders the plan as deterministic one-line-per-event text, the
// replay-identity artifact two same-seed runs must agree on byte for byte.
func (p Plan) Schedule() []string {
	var out []string
	for si, storm := range p.Storms {
		for _, ev := range storm.Events {
			out = append(out, fmt.Sprintf("storm%d %s", si+1, ev))
		}
	}
	return out
}

// Fingerprint condenses the schedule (and seed) into a short stable hash.
func (p Plan) Fingerprint() string {
	h := fnv.New64a()
	fmt.Fprintf(h, "seed=%d;", p.Seed)
	for _, line := range p.Schedule() {
		h.Write([]byte(line))
		h.Write([]byte{'\n'})
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// Contains reports whether the plan schedules at least one event of kind k.
func (p Plan) Contains(k Kind) bool {
	for _, storm := range p.Storms {
		for _, ev := range storm.Events {
			if ev.Kind == k {
				return true
			}
		}
	}
	return false
}

// Events returns the total number of scheduled events.
func (p Plan) Events() int {
	n := 0
	for _, storm := range p.Storms {
		n += len(storm.Events)
	}
	return n
}

// ByKind returns the number of scheduled events per kind — deterministic
// given the plan, so it belongs in replayable summaries.
func (p Plan) ByKind() map[Kind]int {
	out := map[Kind]int{}
	for _, storm := range p.Storms {
		for _, ev := range storm.Events {
			out[ev.Kind]++
		}
	}
	return out
}
