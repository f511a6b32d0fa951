// Package trace records the autonomic events that the paper plots in its
// evaluation figures (contrLow, notEnough, raiseViol, incRate, decRate,
// addWorker, rebalance, endStream, ...) and renders event timelines and
// value series as ASCII charts comparable, in shape, with Figs. 3 and 4.
package trace

import (
	"fmt"
	"io"
	"maps"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/metrics"
)

// Kind identifies a class of autonomic event. The names follow the labels
// used in Fig. 4 of the paper.
type Kind string

// Event kinds observed by the managers of the paper's experiments.
const (
	ContrLow    Kind = "contrLow"    // measured throughput below contract
	ContrHigh   Kind = "contrHigh"   // measured throughput above contract
	NotEnough   Kind = "notEnough"   // input pressure insufficient to feed workers
	TooMuch     Kind = "tooMuch"     // input pressure above what the contract needs
	RaiseViol   Kind = "raiseViol"   // violation reported to the parent manager
	IncRate     Kind = "incRate"     // new contract: increase producer output rate
	DecRate     Kind = "decRate"     // new contract: decrease producer output rate
	AddWorker   Kind = "addWorker"   // farm parallelism degree increased
	RemWorker   Kind = "remWorker"   // farm parallelism degree decreased
	Rebalance   Kind = "rebalance"   // queued input redistributed among workers
	EndStream   Kind = "endStream"   // input stream exhausted
	NewContr    Kind = "newContract" // a (sub-)contract was installed
	EnterPass   Kind = "enterPassive"
	EnterActive Kind = "enterActive"
	Intent      Kind = "intent"   // two-phase protocol: intention declared
	Prepared    Kind = "prepared" // two-phase protocol: co-manager prepared
	Committed   Kind = "committed"
	Aborted     Kind = "aborted"
	Secured     Kind = "secured"     // binding switched to the secure codec
	WorkerFail  Kind = "workerFail"  // a worker crash was detected
	Recovered   Kind = "recovered"   // stranded tasks redistributed after a crash
	Migrated    Kind = "migrated"    // worker moved to a faster/less loaded node
	ErrsDropped Kind = "errsDropped" // runtime errors lost to a full error buffer
	Quarantine  Kind = "quarantine"  // node circuit breaker tripped after repeated crashes
	Crashed     Kind = "crashed"     // a management loop died (injected fault or panic)
	Restarted   Kind = "restarted"   // the supervisor relaunched a dead management loop
	Restored    Kind = "restored"    // manager state replayed from its checkpoint
	Reissued    Kind = "reissued"    // two-phase intent re-issued after participant recovery
	ViolDropped Kind = "violDropped" // a buffered violation was evicted, its cause lost
	LinkSuspect Kind = "linkSuspect" // manager link missed a heartbeat, lease still live
	LinkDown    Kind = "linkDown"    // manager link lease expired: partitioned
	LinkUp      Kind = "linkUp"      // manager link (re)attached after a partition
	CatchUp     Kind = "catchUp"     // MAPE cycles re-run to cover a partition window
)

// Event is one timestamped autonomic event emitted by a manager.
type Event struct {
	T      time.Time
	Source string // manager name, e.g. "AM_F"
	Kind   Kind
	Detail string // free-form detail, e.g. "workers 3->5"
}

// String renders the event as "mm:ss source kind detail".
func (e Event) String() string { return e.stringClock(false) }

// stringClock renders the event with either the short (mm:ss) or the long
// (h:mm:ss) clock; Timeline picks the long one for runs spanning an hour
// boundary.
func (e Event) stringClock(long bool) string {
	clock := fmtClock(e.T)
	if long {
		clock = fmtClockLong(e.T)
	}
	s := fmt.Sprintf("%s %-6s %-12s", clock, e.Source, e.Kind)
	if e.Detail != "" {
		s += " " + e.Detail
	}
	return strings.TrimRight(s, " ")
}

// EventCountKey identifies one (source, kind) pair in KindCounts.
type EventCountKey struct {
	Source string
	Kind   Kind
}

// Log is a concurrency-safe event log shared by a hierarchy of managers.
// NewLog keeps every event; NewBoundedLog keeps the newest ones in a Ring,
// so long-running servers hold a window rather than the whole history.
// Cumulative per-(source, kind) counts survive eviction (they back the
// /metrics event counters).
type Log struct {
	mu     sync.Mutex
	ring   *Ring[Event]
	counts map[EventCountKey]uint64
}

// NewLog returns an empty, unbounded log.
func NewLog() *Log { return NewBoundedLog(0) }

// NewBoundedLog returns a log keeping only the newest max events (every
// event when max <= 0).
func NewBoundedLog(max int) *Log {
	return &Log{ring: NewRing[Event](max), counts: map[EventCountKey]uint64{}}
}

// Add appends an event, evicting the oldest one when the log is bounded
// and full.
func (l *Log) Add(e Event) {
	l.mu.Lock()
	l.counts[EventCountKey{Source: e.Source, Kind: e.Kind}]++
	l.ring.Add(e)
	l.mu.Unlock()
}

// Evicted returns how many events the bound has dropped so far.
func (l *Log) Evicted() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ring.Dropped()
}

// KindCounts returns the cumulative event counts per (source, kind),
// including events already evicted from a bounded log.
func (l *Log) KindCounts() map[EventCountKey]uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return maps.Clone(l.counts)
}

// Record is a convenience wrapper building the Event in place.
func (l *Log) Record(t time.Time, source string, kind Kind, detail string) {
	l.Add(Event{T: t, Source: source, Kind: kind, Detail: detail})
}

// Events returns a copy of all retained events in append order.
func (l *Log) Events() []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ring.Last(0)
}

// Len returns the number of retained events.
func (l *Log) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ring.Len()
}

// filter returns the retained events keep accepts, in order.
func (l *Log) filter(keep func(*Event) bool) []Event {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.ring.Filter(keep)
}

// BySource returns the events emitted by the named source, in order.
func (l *Log) BySource(source string) []Event {
	return l.filter(func(e *Event) bool { return e.Source == source })
}

// ByKind returns the events of the given kind, in order.
func (l *Log) ByKind(kind Kind) []Event {
	return l.filter(func(e *Event) bool { return e.Kind == kind })
}

// Count returns how many events of the given kind were emitted by source
// (empty source matches all sources).
func (l *Log) Count(source string, kind Kind) int {
	return len(l.filter(func(e *Event) bool {
		return e.Kind == kind && (source == "" || e.Source == source)
	}))
}

// FirstOf returns the first event of the given kind from source and true,
// or a zero event and false.
func (l *Log) FirstOf(source string, kind Kind) (Event, bool) {
	for _, e := range l.Events() {
		if e.Kind == kind && (source == "" || e.Source == source) {
			return e, true
		}
	}
	return Event{}, false
}

// KindSequence returns the ordered kinds of all events from source,
// collapsing immediate repetitions (aaabbbca -> abca). It is the tool used
// by the experiment assertions to compare against the Fig. 4 narrative.
func (l *Log) KindSequence(source string) []Kind {
	var out []Kind
	for _, e := range l.Events() {
		if source != "" && e.Source != source {
			continue
		}
		if n := len(out); n == 0 || out[n-1] != e.Kind {
			out = append(out, e.Kind)
		}
	}
	return out
}

// fmtClock renders t as mm:ss within its hour, like the x axes of Fig. 4.
func fmtClock(t time.Time) string {
	return fmt.Sprintf("%02d:%02d", t.Minute(), t.Second())
}

// fmtClockLong renders t as h:mm:ss, used when a span crosses an hour
// boundary (where mm:ss would appear to run backwards).
func fmtClockLong(t time.Time) string {
	h, m, s := t.Clock()
	return fmt.Sprintf("%d:%02d:%02d", h, m, s)
}

// spansHour reports whether [min, max] crosses an hour boundary.
func spansHour(min, max time.Time) bool {
	return !min.Truncate(time.Hour).Equal(max.Truncate(time.Hour))
}

// Timeline renders the log as one line per event, ordered by time. Runs
// crossing an hour boundary use the h:mm:ss clock throughout.
func (l *Log) Timeline() string {
	evs := l.Events()
	sort.SliceStable(evs, func(i, j int) bool { return evs[i].T.Before(evs[j].T) })
	long := len(evs) > 1 && spansHour(evs[0].T, evs[len(evs)-1].T)
	var b strings.Builder
	for _, e := range evs {
		b.WriteString(e.stringClock(long))
		b.WriteByte('\n')
	}
	return b.String()
}

// EventStrip renders, for one source, a compact strip with one row per
// event kind and one column per time bucket — the ASCII analogue of the
// event graphs in Fig. 4.
func (l *Log) EventStrip(source string, start time.Time, width int, bucket time.Duration) string {
	if width <= 0 || bucket <= 0 {
		return ""
	}
	evs := l.BySource(source)
	rows := map[Kind][]bool{}
	var kinds []Kind
	for _, e := range evs {
		if _, ok := rows[e.Kind]; !ok {
			rows[e.Kind] = make([]bool, width)
			kinds = append(kinds, e.Kind)
		}
		col := int(e.T.Sub(start) / bucket)
		if col >= 0 && col < width {
			rows[e.Kind][col] = true
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "events of %s (one column = %v)\n", source, bucket)
	for _, k := range kinds {
		fmt.Fprintf(&b, "%12s |", k)
		for _, hit := range rows[k] {
			if hit {
				b.WriteByte('x')
			} else {
				b.WriteByte(' ')
			}
		}
		b.WriteString("|\n")
	}
	return b.String()
}

// WriteSeriesCSV emits the series in long form — one "series,seconds,value"
// row per sample, seconds measured from the earliest sample across all
// series — so runs can be re-plotted with external tooling. scale converts
// clock time back into modelled seconds (pass 1 for wall-clock units).
func WriteSeriesCSV(w io.Writer, scale float64, series ...*metrics.Series) error {
	if scale <= 0 {
		scale = 1
	}
	var t0 time.Time
	have := false
	for _, s := range series {
		for _, p := range s.Points() {
			if !have || p.T.Before(t0) {
				t0, have = p.T, true
			}
		}
	}
	if _, err := fmt.Fprintln(w, "series,seconds,value"); err != nil {
		return err
	}
	for _, s := range series {
		for _, p := range s.Points() {
			secs := p.T.Sub(t0).Seconds() * scale
			if _, err := fmt.Fprintf(w, "%s,%.3f,%g\n", s.Name(), secs, p.V); err != nil {
				return err
			}
		}
	}
	return nil
}

// PlotOptions configures RenderSeries.
type PlotOptions struct {
	Width  int     // plot columns (default 72)
	Height int     // plot rows (default 12)
	YMin   float64 // lower bound; if YMin==YMax bounds are auto-scaled
	YMax   float64
	Bands  []float64 // horizontal guide lines (e.g. contract bounds)
}

// RenderSeries draws one or more series on a shared ASCII canvas. Each
// series is drawn with its own glyph ('*', '+', 'o', ...). It is used by
// the experiment binaries to print Fig. 3/4-shaped charts.
func RenderSeries(opts PlotOptions, series ...*metrics.Series) string {
	if len(series) == 0 {
		return ""
	}
	w, h := opts.Width, opts.Height
	if w <= 0 {
		w = 72
	}
	if h <= 0 {
		h = 12
	}
	var (
		tMin, tMax       time.Time
		yMin, yMax       = opts.YMin, opts.YMax
		dataMin, dataMax float64
		havePoint        bool
	)
	for _, s := range series {
		for _, p := range s.Points() {
			if !havePoint {
				tMin, tMax = p.T, p.T
				dataMin, dataMax = p.V, p.V
				havePoint = true
			}
			if p.T.Before(tMin) {
				tMin = p.T
			}
			if p.T.After(tMax) {
				tMax = p.T
			}
			if p.V < dataMin {
				dataMin = p.V
			}
			if p.V > dataMax {
				dataMax = p.V
			}
		}
	}
	if !havePoint {
		return "(no samples)\n"
	}
	if opts.YMin == opts.YMax {
		// Auto-scale to the true data range (an all-positive series must
		// not be stretched down to a floor of 0).
		yMin, yMax = dataMin, dataMax
		for _, band := range opts.Bands {
			if band < yMin {
				yMin = band
			}
			if band > yMax {
				yMax = band
			}
		}
		if yMin == yMax {
			yMax = yMin + 1
		}
		pad := (yMax - yMin) * 0.05
		yMin, yMax = yMin-pad, yMax+pad
	}
	span := tMax.Sub(tMin)
	if span <= 0 {
		span = time.Second
	}
	canvas := make([][]byte, h)
	for i := range canvas {
		canvas[i] = []byte(strings.Repeat(" ", w))
	}
	row := func(v float64) int {
		r := int((yMax - v) / (yMax - yMin) * float64(h-1))
		if r < 0 {
			r = 0
		}
		if r >= h {
			r = h - 1
		}
		return r
	}
	for _, band := range opts.Bands {
		r := row(band)
		for c := 0; c < w; c++ {
			canvas[r][c] = '-'
		}
	}
	glyphs := []byte{'*', '+', 'o', '#', '@', '%'}
	for si, s := range series {
		g := glyphs[si%len(glyphs)]
		for _, p := range s.Points() {
			c := int(float64(p.T.Sub(tMin)) / float64(span) * float64(w-1))
			canvas[row(p.V)][c] = g
		}
	}
	var b strings.Builder
	for i, line := range canvas {
		v := yMax - (yMax-yMin)*float64(i)/float64(h-1)
		fmt.Fprintf(&b, "%8.2f |%s|\n", v, line)
	}
	fmt.Fprintf(&b, "%8s +%s+\n", "", strings.Repeat("-", w))
	loClock, hiClock := fmtClock(tMin), fmtClock(tMax)
	if spansHour(tMin, tMax) {
		loClock, hiClock = fmtClockLong(tMin), fmtClockLong(tMax)
	}
	fmt.Fprintf(&b, "%8s  %-*s%s\n", "", w-5, loClock, hiClock)
	for si, s := range series {
		fmt.Fprintf(&b, "%8s  %c = %s\n", "", glyphs[si%len(glyphs)], s.Name())
	}
	return b.String()
}
