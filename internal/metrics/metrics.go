// Package metrics provides the measurement primitives behind the Autonomic
// Behaviour Controller sensors: sliding-window rate meters (task arrival and
// departure rates), latency histograms, the queue-balance statistic and
// the time series the experiments record.
//
// All types are safe for concurrent use unless stated otherwise, and take
// their notion of time from a simclock.Clock so that unit tests can drive
// them deterministically.
package metrics

import (
	"sync"
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

// QueueImbalance quantifies how unevenly work is spread over worker queues:
// it is the population variance of the queue lengths. This is the value
// checked by the CheckLoadBalance rule (QueueVarianceBean).
func QueueImbalance(queueLens []int) float64 {
	if len(queueLens) == 0 {
		return 0
	}
	var sum float64
	for _, q := range queueLens {
		sum += float64(q)
	}
	mean := sum / float64(len(queueLens))
	var ss float64
	for _, q := range queueLens {
		d := float64(q) - mean
		ss += d * d
	}
	return ss / float64(len(queueLens))
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
