// Package metrics provides the measurement primitives behind the Autonomic
// Behaviour Controller sensors: sliding-window rate meters (task arrival and
// departure rates), exponentially weighted moving averages, service-time
// statistics and queue-balance statistics.
//
// All types are safe for concurrent use unless stated otherwise, and take
// their notion of time from a simclock.Clock so that unit tests can drive
// them deterministically.
package metrics

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/simclock"
)

// rateBuckets is the fixed resolution of a RateMeter's ring: the window is
// split into this many slots, so expiry quantization error is bounded by
// window/rateBuckets regardless of event volume.
const rateBuckets = 64

// RateMeter measures an event rate (events per second) over a sliding
// window, as needed by the ArrivalRateBean / DepartureRateBean sensors of
// the farm manager.
//
// Events are accumulated into a fixed ring of rateBuckets counters, one per
// window/rateBuckets slice of time, so Mark and MarkN are O(1) and
// allocation-free at any throughput and the meter's memory is constant —
// the per-event timestamp slice this replaces grew with the event rate and
// paid an O(n) expiry scan on the dispatch hot path.
//
// Before one full window has elapsed since the meter was created, Rate
// divides by the elapsed time rather than the window: dividing a young
// meter's count by the full window underreports the true rate and made the
// perf manager over-provision workers during the first control periods.
// The span starts at creation, not at the first event: a single event read
// a moment after it landed would otherwise report an arbitrarily high rate,
// and a manager sampling at that moment would react to a burst that never
// happened.
type RateMeter struct {
	mu      sync.Mutex
	clock   simclock.Clock
	window  time.Duration // span covered by the ring (width * rateBuckets)
	width   time.Duration // time covered by one bucket
	start   time.Time     // ring epoch (creation time)
	cur     int64         // absolute index of the newest bucket
	buckets [rateBuckets]uint64
	inWin   uint64 // sum over live buckets
	total   uint64
}

// NewRateMeter returns a meter with the given sliding window. The window
// must be positive. Windows shorter than rateBuckets nanoseconds are
// rounded up to the ring resolution.
func NewRateMeter(clock simclock.Clock, window time.Duration) *RateMeter {
	if window <= 0 {
		panic("metrics: non-positive rate window")
	}
	width := window / rateBuckets
	if width <= 0 {
		width = 1
	}
	return &RateMeter{
		clock:  clock,
		window: width * rateBuckets,
		width:  width,
		start:  clock.Now(),
	}
}

// Mark records one event at the current time.
func (r *RateMeter) Mark() { r.MarkN(1) }

// MarkN records n simultaneous events at the current time.
func (r *RateMeter) MarkN(n int) {
	if n <= 0 {
		return
	}
	now := r.clock.Now()
	r.mu.Lock()
	r.advanceLocked(now)
	r.buckets[int(r.cur%rateBuckets)] += uint64(n)
	r.inWin += uint64(n)
	r.total += uint64(n)
	r.mu.Unlock()
}

// Rate returns the current event rate in events/second. The averaging span
// is the sliding window or, while the meter is warming up, the time elapsed
// since its creation — whichever is shorter — so young meters report the
// true rate instead of a count diluted over a mostly empty window.
func (r *RateMeter) Rate() float64 {
	now := r.clock.Now()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.advanceLocked(now)
	if r.inWin == 0 {
		return 0
	}
	span := r.window
	if elapsed := now.Sub(r.start); elapsed > 0 && elapsed < span {
		span = elapsed
	}
	return float64(r.inWin) / span.Seconds()
}

// Total returns the number of events recorded since creation.
func (r *RateMeter) Total() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Window returns the sliding-window width of the meter.
func (r *RateMeter) Window() time.Duration { return r.window }

// advanceLocked rotates the ring up to the bucket containing now, zeroing
// every bucket that fell out of the window. The work is bounded by
// rateBuckets, independent of how many events were recorded.
func (r *RateMeter) advanceLocked(now time.Time) {
	idx := int64(now.Sub(r.start) / r.width)
	if idx <= r.cur {
		return
	}
	if idx-r.cur >= rateBuckets {
		r.buckets = [rateBuckets]uint64{}
		r.inWin = 0
		r.cur = idx
		return
	}
	for i := r.cur + 1; i <= idx; i++ {
		slot := int(i % rateBuckets)
		r.inWin -= r.buckets[slot]
		r.buckets[slot] = 0
	}
	r.cur = idx
}

// EWMA is an exponentially weighted moving average with configurable
// smoothing factor alpha in (0,1]. Higher alpha weights recent samples more.
type EWMA struct {
	mu    sync.Mutex
	alpha float64
	value float64
	init  bool
}

// NewEWMA returns an EWMA with the given alpha. Panics if alpha is outside
// (0,1].
func NewEWMA(alpha float64) *EWMA {
	if alpha <= 0 || alpha > 1 {
		panic(fmt.Sprintf("metrics: EWMA alpha %v out of (0,1]", alpha))
	}
	return &EWMA{alpha: alpha}
}

// Observe folds a sample into the average.
func (e *EWMA) Observe(v float64) {
	e.mu.Lock()
	if !e.init {
		e.value, e.init = v, true
	} else {
		e.value = e.alpha*v + (1-e.alpha)*e.value
	}
	e.mu.Unlock()
}

// Value returns the current average, or 0 before any observation.
func (e *EWMA) Value() float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.value
}

// Initialized reports whether at least one sample was observed.
func (e *EWMA) Initialized() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.init
}

// Summary holds descriptive statistics of a sample set.
type Summary struct {
	Count    int
	Mean     float64
	Variance float64 // population variance
	StdDev   float64
	Min      float64
	Max      float64
}

// Summarize computes descriptive statistics of vs. An empty slice yields a
// zero Summary.
func Summarize(vs []float64) Summary {
	if len(vs) == 0 {
		return Summary{}
	}
	s := Summary{Count: len(vs), Min: vs[0], Max: vs[0]}
	var sum float64
	for _, v := range vs {
		sum += v
		if v < s.Min {
			s.Min = v
		}
		if v > s.Max {
			s.Max = v
		}
	}
	s.Mean = sum / float64(len(vs))
	var ss float64
	for _, v := range vs {
		d := v - s.Mean
		ss += d * d
	}
	s.Variance = ss / float64(len(vs))
	s.StdDev = math.Sqrt(s.Variance)
	return s
}

// QueueImbalance quantifies how unevenly work is spread over worker queues:
// it is the population variance of the queue lengths. This is the value
// checked by the CheckLoadBalance rule (QueueVarianceBean).
func QueueImbalance(queueLens []int) float64 {
	if len(queueLens) == 0 {
		return 0
	}
	vs := make([]float64, len(queueLens))
	for i, q := range queueLens {
		vs[i] = float64(q)
	}
	return Summarize(vs).Variance
}

// Timer accumulates duration samples (e.g. per-task service time) and
// reports aggregate statistics.
type Timer struct {
	mu      sync.Mutex
	count   uint64
	sum     time.Duration
	min     time.Duration
	max     time.Duration
	samples []time.Duration // bounded reservoir for percentiles
	cap     int
}

// NewTimer returns a Timer keeping at most reservoir samples for percentile
// estimation (0 means the default of 1024).
func NewTimer(reservoir int) *Timer {
	if reservoir <= 0 {
		reservoir = 1024
	}
	return &Timer{cap: reservoir}
}

// Observe records one duration sample.
func (t *Timer) Observe(d time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.count == 0 || d < t.min {
		t.min = d
	}
	if d > t.max {
		t.max = d
	}
	t.count++
	t.sum += d
	if len(t.samples) < t.cap {
		t.samples = append(t.samples, d)
	} else {
		// Deterministic reservoir: overwrite in round-robin order.
		t.samples[int(t.count)%t.cap] = d
	}
}

// Count returns the number of samples observed.
func (t *Timer) Count() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.count
}

// Mean returns the mean duration, or 0 with no samples.
func (t *Timer) Mean() time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.count == 0 {
		return 0
	}
	return time.Duration(int64(t.sum) / int64(t.count))
}

// Min returns the smallest sample, or 0 with no samples.
func (t *Timer) Min() time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.min
}

// Max returns the largest sample, or 0 with no samples.
func (t *Timer) Max() time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.max
}

// Percentile returns the p-th percentile (0 < p <= 100) over the retained
// reservoir, or 0 with no samples.
func (t *Timer) Percentile(p float64) time.Duration {
	if p <= 0 || p > 100 {
		panic(fmt.Sprintf("metrics: percentile %v out of (0,100]", p))
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.samples) == 0 {
		return 0
	}
	sorted := make([]time.Duration, len(t.samples))
	copy(sorted, t.samples)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(math.Ceil(p/100*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	return sorted[idx]
}

// Gauge is a concurrency-safe instantaneous value. It is lock-free — the
// value lives in a single atomic word — so sensors can read it while hot
// paths write it without either side queueing. The zero value reads 0.
type Gauge struct {
	bits atomic.Uint64 // math.Float64bits of the current value
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	g.bits.Store(math.Float64bits(v))
}

// Add increments the gauge by d (d may be negative).
func (g *Gauge) Add(d float64) {
	for {
		old := g.bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + d)
		if g.bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	return math.Float64frombits(g.bits.Load())
}

// Series is an append-only time series of (instant, value) samples, used by
// the experiment harness to record throughput and resource-usage curves.
// Series is safe for concurrent appends.
type Series struct {
	mu      sync.Mutex
	name    string
	points  []Point
	maxSeen float64
}

// Point is one sample of a Series.
type Point struct {
	T time.Time
	V float64
}

// NewSeries returns an empty named series.
func NewSeries(name string) *Series { return &Series{name: name} }

// Name returns the series name.
func (s *Series) Name() string { return s.name }

// Append records a sample.
func (s *Series) Append(t time.Time, v float64) {
	s.mu.Lock()
	s.points = append(s.points, Point{T: t, V: v})
	if v > s.maxSeen {
		s.maxSeen = v
	}
	s.mu.Unlock()
}

// Points returns a copy of the samples in append order.
func (s *Series) Points() []Point {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Point, len(s.points))
	copy(out, s.points)
	return out
}

// Len returns the number of samples.
func (s *Series) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.points)
}

// Max returns the largest value appended so far.
func (s *Series) Max() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.maxSeen
}

// Last returns the most recent sample and true, or a zero Point and false
// when empty.
func (s *Series) Last() (Point, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.points) == 0 {
		return Point{}, false
	}
	return s.points[len(s.points)-1], true
}
