package telemetry

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/trace"
)

// This file is the task-tracing half of the telemetry plane: pooled,
// fixed-size per-task spans sampled by a seeded deterministic sampler, a
// bounded publish-by-copy span ring, and the trace-context record that
// crosses the wire so workerd-side exec spans join the coordinator's
// trace. Span timestamps are process-local monotonic readings; cross-
// process stages are joined by interval arithmetic (local round trip minus
// remote-reported duration), never by comparing clocks across machines.

// Stage indices of the hot-path latency decomposition. A span carries one
// accumulated duration per stage; stages a path does not cross stay 0
// (loopback envelopes have no wire stage, batch spans fold the per-member
// routing decision into enqueue).
const (
	// StageEnqueue: task creation to routing — input-channel wait, plus
	// batch-formation wait for batched envelopes.
	StageEnqueue = iota
	// StageRoute: the unified dispatch decision (route-table snapshot and
	// target selection).
	StageRoute
	// StageSeal: binding-codec encode of the payload or batch blob.
	StageSeal
	// StageQueueWait: queue push to worker pop.
	StageQueueWait
	// StageWire: transport round trip minus the remote-reported exec time
	// (interval arithmetic; 0 for loopback envelopes).
	StageWire
	// StageExec: compute — remote-reported on the wire path, measured
	// locally on loopback.
	StageExec
	// StageReseal: result decode (and batch result validation).
	StageReseal
	// StageResult: from the end of the compute stages to the worker's
	// emit.
	StageResult

	// NumStages is the length of a span's stage vector.
	NumStages = 8
)

// StageNames are the exposition labels of the stage indices, in order.
var StageNames = [NumStages]string{
	"enqueue", "route", "seal", "queue_wait", "wire", "exec", "reseal", "result",
}

// TraceContext is the propagated trace identity of one sampled envelope:
// it rides inside the envelope's sealed blob, once per envelope however
// many tasks it carries, so the workerd-side exec span shares the
// coordinator's trace id. The zero value means "not sampled" and costs the
// wire 17 bytes of zeros.
type TraceContext struct {
	TraceID uint64
	SpanID  uint64
	Sampled bool
}

// TraceContextSize is the encoded size of a TraceContext in bytes.
const TraceContextSize = 17

// AppendTo appends the 17-byte wire encoding (big-endian trace id, span
// id, flags) onto dst.
func (tc TraceContext) AppendTo(dst []byte) []byte {
	dst = binary.BigEndian.AppendUint64(dst, tc.TraceID)
	dst = binary.BigEndian.AppendUint64(dst, tc.SpanID)
	flags := byte(0)
	if tc.Sampled {
		flags = 1
	}
	return append(dst, flags)
}

// ParseTraceContext decodes a TraceContext from the front of b.
func ParseTraceContext(b []byte) (TraceContext, error) {
	if len(b) < TraceContextSize {
		return TraceContext{}, fmt.Errorf("telemetry: trace context needs %d bytes, have %d", TraceContextSize, len(b))
	}
	return TraceContext{
		TraceID: binary.BigEndian.Uint64(b),
		SpanID:  binary.BigEndian.Uint64(b[8:]),
		Sampled: b[16]&1 != 0,
	}, nil
}

// Span is one sampled task's (or batch envelope's) stage-latency record.
// Spans are pooled and fixed-size: the hot path fills one in place and the
// ring stores copies, so a sampled task costs clock readings and one ring
// copy, never an allocation.
type Span struct {
	TraceID uint64
	SpanID  uint64
	// Parent is the originating span id: 0 for a coordinator root span,
	// the coordinator span for a workerd exec span or a batch member span.
	Parent uint64
	TaskID uint64
	// Batch is the envelope's member count for a batch-level span; 0 for a
	// single-task or member span.
	Batch int
	// Node is the worker (or server) the envelope was bound to.
	Node string
	// Remote marks envelopes executed over a transport session.
	Remote bool
	// Cause links the span into the MAPE decision causality chain: the
	// violation cause id of the manager cycle that cited it, 0 if none.
	Cause uint64
	// Fault annotates the chaos or transport fault that hit this envelope
	// ("" for a clean run); faulted spans publish immediately with the
	// stages accumulated so far, because the envelope strands for recovery
	// and never reaches the emit.
	Fault string
	// Start is the process-local wall-clock origin in Unix nanoseconds.
	// It orders spans within one process only; never compare it across
	// machines.
	Start int64
	// Stages holds the accumulated duration of each stage in nanoseconds,
	// indexed by the Stage constants.
	Stages [NumStages]int64

	// mark is the process-local nanosecond reading of the last stage
	// boundary. Scratch state, owned by whichever goroutine holds the
	// envelope (ownership is linear, handed off through channels).
	mark int64
}

// Context returns the span's propagated trace context.
func (s *Span) Context() TraceContext {
	return TraceContext{TraceID: s.TraceID, SpanID: s.SpanID, Sampled: true}
}

// Mark closes the given stage at now: the time since the previous boundary
// is added onto the stage (added, not assigned, so retries accumulate) and
// the boundary advances.
func (s *Span) Mark(stage int) {
	now := time.Now().UnixNano()
	s.Stages[stage] += now - s.mark
	s.mark = now
}

// MarkSplit closes two adjacent stages from one boundary: the interval
// since the previous boundary is split into remoteNanos for inner (the
// remote-reported exec time) and the remainder for outer (the wire round
// trip) — the interval-arithmetic join that keeps cross-process stages
// immune to clock skew. remoteNanos clamps into [0, interval].
func (s *Span) MarkSplit(outer, inner int, remoteNanos int64) {
	now := time.Now().UnixNano()
	total := now - s.mark
	if total < 0 {
		total = 0
	}
	if remoteNanos < 0 {
		remoteNanos = 0
	}
	if remoteNanos > total {
		remoteNanos = total
	}
	s.Stages[inner] += remoteNanos
	s.Stages[outer] += total - remoteNanos
	s.mark = now
}

// MarkSince closes the given stage against an explicit origin (e.g. the
// task's creation time) instead of the previous boundary, then advances
// the boundary to now. A zero origin records 0.
func (s *Span) MarkSince(stage int, origin time.Time) {
	now := time.Now().UnixNano()
	if !origin.IsZero() {
		if d := now - origin.UnixNano(); d > 0 {
			s.Stages[stage] += d
		}
	}
	s.mark = now
}

// reset clears a pooled span for reuse.
func (s *Span) reset() {
	*s = Span{}
}

// spanJSON is the exposition form of a span: stage durations keyed by
// name, ids in hex so traces grep cleanly across node dumps.
type spanJSON struct {
	Trace  string           `json:"trace"`
	Span   string           `json:"span"`
	Parent string           `json:"parent,omitempty"`
	Task   uint64           `json:"task"`
	Batch  int              `json:"batch,omitempty"`
	Node   string           `json:"node,omitempty"`
	Remote bool             `json:"remote,omitempty"`
	Cause  uint64           `json:"cause,omitempty"`
	Fault  string           `json:"fault,omitempty"`
	Start  int64            `json:"start_unix_nano"`
	Stages map[string]int64 `json:"stages_ns"`
}

// MarshalJSON renders the span in its exposition form.
func (s Span) MarshalJSON() ([]byte, error) {
	stages := make(map[string]int64, NumStages)
	for i, name := range StageNames {
		if s.Stages[i] != 0 {
			stages[name] = s.Stages[i]
		}
	}
	j := spanJSON{
		Trace:  fmt.Sprintf("%016x", s.TraceID),
		Span:   fmt.Sprintf("%016x", s.SpanID),
		Task:   s.TaskID,
		Batch:  s.Batch,
		Node:   s.Node,
		Remote: s.Remote,
		Cause:  s.Cause,
		Fault:  s.Fault,
		Start:  s.Start,
		Stages: stages,
	}
	if s.Parent != 0 {
		j.Parent = fmt.Sprintf("%016x", s.Parent)
	}
	return json.Marshal(j)
}

// UnmarshalJSON parses the exposition form back into a Span (the /cluster
// aggregator uses it to merge scraped workerd dumps).
func (s *Span) UnmarshalJSON(b []byte) error {
	var j spanJSON
	if err := json.Unmarshal(b, &j); err != nil {
		return err
	}
	*s = Span{TaskID: j.Task, Batch: j.Batch, Node: j.Node, Remote: j.Remote,
		Cause: j.Cause, Fault: j.Fault, Start: j.Start}
	if _, err := fmt.Sscanf(j.Trace, "%x", &s.TraceID); err != nil {
		return fmt.Errorf("telemetry: bad trace id %q", j.Trace)
	}
	if _, err := fmt.Sscanf(j.Span, "%x", &s.SpanID); err != nil {
		return fmt.Errorf("telemetry: bad span id %q", j.Span)
	}
	if j.Parent != "" {
		if _, err := fmt.Sscanf(j.Parent, "%x", &s.Parent); err != nil {
			return fmt.Errorf("telemetry: bad parent id %q", j.Parent)
		}
	}
	for name, d := range j.Stages {
		for i, n := range StageNames {
			if n == name {
				s.Stages[i] = d
				break
			}
		}
	}
	return nil
}

// mix64 is the splitmix64 finalizer: a cheap, high-quality bijective hash
// used for both the sampling decision and trace-id derivation, so replays
// with the same seed sample — and name — the same tasks.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Sampler is the seeded deterministic task sampler: the decision is a pure
// function of (seed, task id), so a chaos replay with the same seed
// samples the identical task set, and no clock is read for unsampled
// tasks. The counters are the only state; they are bumped on the dispatch
// goroutine, so the atomics are effectively uncontended.
type Sampler struct {
	seed uint64
	rate uint64 // sample 1 task in rate; 0 disables sampling

	sampled atomic.Uint64
	skipped atomic.Uint64
}

// NewSampler builds a sampler taking 1 task in rate, keyed by seed.
// rate 0 disables sampling; rate 1 samples everything.
func NewSampler(seed, rate uint64) *Sampler {
	return &Sampler{seed: seed, rate: rate}
}

// Sample decides whether the task is traced, counting the decision.
func (s *Sampler) Sample(taskID uint64) bool {
	if s == nil || s.rate == 0 {
		return false
	}
	if s.Decide(taskID) {
		s.sampled.Add(1)
		return true
	}
	s.skipped.Add(1)
	return false
}

// Decide is the side-effect-free sampling predicate — the batch fan-out
// re-evaluates members at publish time without double-counting.
func (s *Sampler) Decide(taskID uint64) bool {
	if s == nil || s.rate == 0 {
		return false
	}
	if s.rate == 1 {
		return true
	}
	return mix64(taskID^s.seed)%s.rate == 0
}

// TraceID derives the deterministic trace id of a sampled task.
func (s *Sampler) TraceID(taskID uint64) uint64 {
	id := mix64(taskID ^ s.seed ^ 0x9e3779b97f4a7c15)
	if id == 0 {
		id = 1
	}
	return id
}

// Counts returns (sampled, skipped) decision totals.
func (s *Sampler) Counts() (sampled, skipped uint64) {
	if s == nil {
		return 0, 0
	}
	return s.sampled.Load(), s.skipped.Load()
}

// Rate returns the configured 1-in-N sampling rate (0 = disabled).
func (s *Sampler) Rate() uint64 {
	if s == nil {
		return 0
	}
	return s.rate
}

// SpanRing is the bounded in-memory span store, a trace.Ring of spans:
// publish copies the span in (overwriting the oldest once full, counted
// as drops), readers copy out, so /spans behaves like /trace.
type SpanRing struct {
	mu   sync.Mutex
	ring *trace.Ring[Span]

	faults atomic.Uint64 // published spans carrying a fault annotation
}

// DefaultSpanRingSize bounds span memory when no capacity is configured.
const DefaultSpanRingSize = 1024

// NewSpanRing builds a ring holding the last n spans (default
// DefaultSpanRingSize).
func NewSpanRing(n int) *SpanRing {
	if n <= 0 {
		n = DefaultSpanRingSize
	}
	return &SpanRing{ring: trace.NewRing[Span](n)}
}

// publish copies sp into the ring.
func (r *SpanRing) publish(sp *Span) {
	if sp.Fault != "" {
		r.faults.Add(1)
	}
	r.mu.Lock()
	r.ring.Add(*sp)
	r.mu.Unlock()
}

// Published returns the total number of spans ever published.
func (r *SpanRing) Published() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ring.Total()
}

// Dropped returns how many spans have been overwritten unread.
func (r *SpanRing) Dropped() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ring.Dropped()
}

// Faults returns the total number of fault-annotated spans ever published
// (an overwrite-proof counter, unlike scanning the ring).
func (r *SpanRing) Faults() uint64 { return r.faults.Load() }

// Last returns up to n most recent spans, oldest first. n <= 0 means all
// retained.
func (r *SpanRing) Last(n int) []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ring.Last(n)
}

// filter returns the retained spans keep accepts, oldest first.
func (r *SpanRing) filter(keep func(*Span) bool) []Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ring.Filter(keep)
}

// ByTrace returns every retained span of the given trace, oldest first.
func (r *SpanRing) ByTrace(traceID uint64) []Span {
	return r.filter(func(sp *Span) bool { return sp.TraceID == traceID })
}

// ByCause returns every retained span attached to the given violation
// cause id, oldest first. Cause 0 means "no cause", so, like
// Tracer.ByCause, it matches nothing.
func (r *SpanRing) ByCause(cause uint64) []Span {
	if cause == 0 {
		return nil
	}
	return r.filter(func(sp *Span) bool { return sp.Cause == cause })
}

// AttachCause stamps the cause id onto up to n of the most recent
// unattributed spans: the manager that just allocated a violation cause
// cites the task-level evidence in its observation window. Spans already
// claimed by an earlier cause keep it (first claim wins — causes are
// allocated in decision order).
func (r *SpanRing) AttachCause(cause uint64, n int) int {
	if r == nil || cause == 0 || n <= 0 {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	attached := 0
	r.ring.Newest(func(sp *Span) bool {
		if sp.Cause == 0 {
			sp.Cause = cause
			attached++
		}
		return attached < n
	})
	return attached
}

// WriteJSONL streams up to n retained spans (0 = all), oldest first, one
// JSON object per line.
func (r *SpanRing) WriteJSONL(w io.Writer, n int) error {
	return trace.WriteJSONL(w, r.Last(n))
}

// TaskTracer bundles the sampler, the span pool, the span ring and the
// per-stage latency histograms into the farm's (or server's) tracing
// plane. A nil *TaskTracer is fully inert: every method is nil-safe and
// the hot path pays one predictable branch plus one hash per task, no
// clock reads.
type TaskTracer struct {
	sampler *Sampler
	ring    *SpanRing
	stages  [NumStages]*metrics.Histogram
	pool    sync.Pool
}

// NewTaskTracer builds a tracer sampling 1 task in rate under the given
// seed, retaining ringSize spans (0 = DefaultSpanRingSize).
func NewTaskTracer(seed, rate uint64, ringSize int) *TaskTracer {
	tt := &TaskTracer{
		sampler: NewSampler(seed, rate),
		ring:    NewSpanRing(ringSize),
	}
	for i := range tt.stages {
		tt.stages[i] = metrics.NewLatencyHistogram()
	}
	tt.pool.New = func() any { return new(Span) }
	return tt
}

// Sampler exposes the tracer's sampling state.
func (tt *TaskTracer) Sampler() *Sampler {
	if tt == nil {
		return nil
	}
	return tt.sampler
}

// Ring exposes the span ring.
func (tt *TaskTracer) Ring() *SpanRing {
	if tt == nil {
		return nil
	}
	return tt.ring
}

// StageHistogram returns the latency histogram of one stage index.
func (tt *TaskTracer) StageHistogram(stage int) *metrics.Histogram {
	if tt == nil {
		return nil
	}
	return tt.stages[stage]
}

// StageSnapshots copies all per-stage histograms.
func (tt *TaskTracer) StageSnapshots() [NumStages]metrics.HistogramSnapshot {
	var out [NumStages]metrics.HistogramSnapshot
	if tt == nil {
		return out
	}
	for i, h := range tt.stages {
		out[i] = h.Snapshot()
	}
	return out
}

// Sample decides (and counts) whether the task is traced. Nil-safe.
func (tt *TaskTracer) Sample(taskID uint64) bool {
	if tt == nil {
		return false
	}
	return tt.sampler.Sample(taskID)
}

// Start begins a root span for a sampled task: ids derive from the seed so
// replays agree, the origin clock is read here — the first clock read on
// the task's path.
func (tt *TaskTracer) Start(taskID uint64) *Span {
	sp := tt.pool.Get().(*Span)
	sp.reset()
	sp.TraceID = tt.sampler.TraceID(taskID)
	sp.SpanID = mix64(sp.TraceID ^ 0x6a09e667f3bcc909)
	sp.TaskID = taskID
	now := time.Now()
	sp.Start = now.UnixNano()
	sp.mark = sp.Start
	return sp
}

// StartRemote begins a server-side span joined to a propagated context:
// same trace id, parent = the coordinator's span.
func (tt *TaskTracer) StartRemote(tc TraceContext, taskID uint64) *Span {
	if tt == nil || !tc.Sampled {
		return nil
	}
	sp := tt.pool.Get().(*Span)
	sp.reset()
	sp.TraceID = tc.TraceID
	sp.Parent = tc.SpanID
	sp.SpanID = mix64(tc.SpanID ^ taskID ^ 0xbb67ae8584caa73b)
	sp.TaskID = taskID
	now := time.Now()
	sp.Start = now.UnixNano()
	sp.mark = sp.Start
	return sp
}

// Publish observes the span's stages into the per-stage histograms, copies
// it into the ring and recycles it. The span must not be used afterwards.
func (tt *TaskTracer) Publish(sp *Span) {
	if tt == nil || sp == nil {
		return
	}
	for i, d := range sp.Stages {
		if d > 0 {
			tt.stages[i].Observe(float64(d) / 1e9)
		}
	}
	tt.ring.publish(sp)
	tt.pool.Put(sp)
}

// PublishMember fans one batch member out of a published batch-level span:
// a copy of the envelope's stage vector under the member's own task id,
// parented on the batch span. Call before Publish recycles the batch span.
func (tt *TaskTracer) PublishMember(batch *Span, taskID uint64) {
	if tt == nil || batch == nil {
		return
	}
	sp := tt.pool.Get().(*Span)
	*sp = *batch
	sp.Batch = 0
	sp.TaskID = taskID
	sp.Parent = batch.SpanID
	sp.SpanID = mix64(batch.SpanID ^ taskID ^ 0x3c6ef372fe94f82b)
	// Member stages repeat the envelope's: the batch is the unit that moved
	// through the pipeline, so the member's cost is the envelope's cost.
	// Histograms only observe the envelope-level span, keeping per-stage
	// counts per-envelope.
	tt.ring.publish(sp)
	tt.pool.Put(sp)
}
