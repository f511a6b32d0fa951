// Package telemetry is the introspection plane of the reproduction: a
// structured decision trace for the MAPE loops (one DecisionRecord per
// manager iteration, linked across managers by causality ids), a registry
// collecting the histograms, gauges and counters every layer publishes,
// a hand-written Prometheus text exposition, and an opt-in net/http
// server mounting /healthz, /metrics, /trace, /managers and pprof.
//
// The package is pure stdlib and deliberately passive: collecting a trace
// or a histogram spawns no goroutines; only the HTTP server (enabled by
// the -telemetry flag) runs anything.
package telemetry

import (
	"io"
	"maps"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/contract"
	"repro/internal/trace"
)

// RuleEval is the verdict of one rule in the plan phase of a decision.
type RuleEval struct {
	Rule  string `json:"rule"`
	Fired bool   `json:"fired"`
	// Failed renders the failing predicate — the first pattern no bean
	// satisfied — when the rule did not fire.
	Failed string `json:"failed,omitempty"`
}

// ActionRec is one operation chosen by the plan phase and executed.
type ActionRec struct {
	Op     string `json:"op"`
	Detail string `json:"detail,omitempty"`
	Error  string `json:"error,omitempty"`
}

// EventRec is one trace.Event emitted while the decision was made.
type EventRec struct {
	Kind   string `json:"kind"`
	Detail string `json:"detail,omitempty"`
}

// PhaseNanos carries the wall-clock duration of each MAPE phase.
type PhaseNanos struct {
	Sense   int64 `json:"sense_ns"`
	Analyze int64 `json:"analyze_ns"`
	Plan    int64 `json:"plan_ns"`
	Act     int64 `json:"act_ns"`
}

// DecisionRecord is the structured outcome of one MAPE iteration: what
// the manager saw, which rules it evaluated (and why the others did not
// fire), what it did, and which cross-manager causal chain the decision
// belongs to. Records with the same non-zero Cause form one chain — a
// child's raiseViol and the parent's incRate reaction, or a two-phase
// intent→prepared→committed interaction across concerns.
type DecisionRecord struct {
	Seq      uint64            `json:"seq"`
	T        time.Time         `json:"t"`
	Manager  string            `json:"manager"`
	Concern  string            `json:"concern,omitempty"`
	State    string            `json:"state,omitempty"`
	Cause    uint64            `json:"cause,omitempty"`
	Snapshot contract.Snapshot `json:"snapshot"`
	Verdict  string            `json:"verdict,omitempty"`
	Rules    []RuleEval        `json:"rules,omitempty"`
	Actions  []ActionRec       `json:"actions,omitempty"`
	Events   []EventRec        `json:"events,omitempty"`
	Phases   PhaseNanos        `json:"phases"`
	// WakeNs is the wake-to-decision latency when the iteration was
	// triggered by a skeleton edge rather than the periodic tick.
	WakeNs int64 `json:"wake_ns,omitempty"`
	// CatchUp marks a cycle re-run after a manager-link reattach to cover
	// MAPE iterations the parent missed during the partition.
	CatchUp bool `json:"catch_up,omitempty"`
}

// Tracer accumulates decision records in a bounded trace.Ring. Overflow
// evicts the oldest record and bumps the drop counter: a long-running
// server keeps the most recent window and the count of what it lost. All
// methods are safe for concurrent use.
type Tracer struct {
	cause atomic.Uint64

	mu   sync.Mutex
	ring *trace.Ring[DecisionRecord]
	last map[string]DecisionRecord
}

// DefaultTraceDepth is the ring capacity used when NewTracer is given a
// non-positive one.
const DefaultTraceDepth = 1024

// NewTracer builds a tracer keeping the last capacity records
// (DefaultTraceDepth when capacity <= 0).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceDepth
	}
	return &Tracer{ring: trace.NewRing[DecisionRecord](capacity), last: map[string]DecisionRecord{}}
}

// NextCause allocates a fresh causality id. The allocating manager stamps
// it on the violation (or two-phase intent) it emits; every reaction
// records the same id, chaining the decisions.
func (t *Tracer) NextCause() uint64 { return t.cause.Add(1) }

// Record stamps rec with the next sequence number and appends it,
// evicting the oldest record when the ring is full. It returns the
// assigned sequence number.
func (t *Tracer) Record(rec DecisionRecord) uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	rec.Seq = t.ring.Total() + 1
	t.last[rec.Manager] = rec
	t.ring.Add(rec)
	return rec.Seq
}

// Len returns how many records the ring currently holds.
func (t *Tracer) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ring.Len()
}

// Total returns how many records were ever recorded.
func (t *Tracer) Total() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ring.Total()
}

// Dropped returns how many records the ring evicted.
func (t *Tracer) Dropped() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ring.Dropped()
}

// Last returns the newest n records in chronological order (all of them
// when n <= 0 or n exceeds the ring size).
func (t *Tracer) Last(n int) []DecisionRecord {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ring.Last(n)
}

// ByCause returns, in chronological order, the retained records sharing
// the given causality id.
func (t *Tracer) ByCause(cause uint64) []DecisionRecord {
	if cause == 0 {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.ring.Filter(func(rec *DecisionRecord) bool { return rec.Cause == cause })
}

// LastByManager returns the most recent record of every manager that ever
// recorded one (kept even after ring eviction).
func (t *Tracer) LastByManager() map[string]DecisionRecord {
	t.mu.Lock()
	defer t.mu.Unlock()
	return maps.Clone(t.last)
}

// WriteJSONL exports the retained records, oldest first, one JSON object
// per line.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	return trace.WriteJSONL(w, t.Last(0))
}
