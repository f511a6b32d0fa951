package trace

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
)

// --- bounded ring + eviction counter -------------------------------------

func TestBoundedLogEvictsOldest(t *testing.T) {
	l := NewBoundedLog(3)
	for i := 0; i < 5; i++ {
		l.Record(epoch.Add(time.Duration(i)*time.Second), "AM_F", ContrLow, fmt.Sprintf("e%d", i))
	}
	evs := l.Events()
	if len(evs) != 3 {
		t.Fatalf("retained %d events, want 3", len(evs))
	}
	for i, e := range evs {
		if want := fmt.Sprintf("e%d", i+2); e.Detail != want {
			t.Errorf("event %d = %q, want %q (oldest must be evicted, order kept)", i, e.Detail, want)
		}
	}
	if got := l.Evicted(); got != 2 {
		t.Errorf("Evicted = %d, want 2", got)
	}
	// Cumulative counts survive eviction.
	if got := l.KindCounts()[EventCountKey{Source: "AM_F", Kind: ContrLow}]; got != 5 {
		t.Errorf("KindCounts = %d, want 5", got)
	}
	// Live-event Count only sees the retained window.
	if got := l.Count("AM_F", ContrLow); got != 3 {
		t.Errorf("Count = %d, want 3", got)
	}
}

// --- fmtClock hour wrap ---------------------------------------------------

func TestTimelineHourBoundary(t *testing.T) {
	l := NewLog()
	before := time.Date(2009, 5, 25, 10, 59, 30, 0, time.UTC)
	after := time.Date(2009, 5, 25, 11, 0, 30, 0, time.UTC)
	l.Record(before, "AM_F", ContrLow, "")
	l.Record(after, "AM_F", AddWorker, "")
	out := l.Timeline()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 2 {
		t.Fatalf("timeline: %q", out)
	}
	if !strings.HasPrefix(lines[0], "10:59:30") {
		t.Errorf("line 0 = %q, want h:mm:ss prefix 10:59:30", lines[0])
	}
	if !strings.HasPrefix(lines[1], "11:00:30") {
		t.Errorf("line 1 = %q, want h:mm:ss prefix 11:00:30", lines[1])
	}
	// Clocks must be monotone in the rendered order (the old mm:ss form
	// showed 59:30 followed by 00:30).
	if lines[0][:8] > lines[1][:8] {
		t.Errorf("clock goes backwards: %q then %q", lines[0][:8], lines[1][:8])
	}
}

func TestTimelineWithinHourKeepsShortClock(t *testing.T) {
	out := sampleLog().Timeline()
	if !strings.HasPrefix(out, "35:00") {
		t.Fatalf("timeline within the hour should keep mm:ss: %q", out)
	}
}

// --- RenderSeries auto-scale ---------------------------------------------

func TestRenderSeriesAutoScaleAllPositive(t *testing.T) {
	s := metrics.NewSeries("tp")
	for i := 0; i <= 10; i++ {
		s.Append(epoch.Add(time.Duration(i)*time.Second), 100+float64(i))
	}
	out := RenderSeries(PlotOptions{Width: 40, Height: 8}, s)
	lines := strings.Split(strings.TrimSpace(out), "\n")
	// First canvas row carries the y max label, last canvas row the y min.
	var top, bottom float64
	if _, err := fmt.Sscanf(lines[0], "%f", &top); err != nil {
		t.Fatalf("no y label in %q", lines[0])
	}
	if _, err := fmt.Sscanf(lines[7], "%f", &bottom); err != nil {
		t.Fatalf("no y label in %q", lines[7])
	}
	// The axis must hug [100, 110] (±5% padding), not start at 0.
	if bottom < 99 || bottom > 101 {
		t.Errorf("y min = %g, want ~100 (auto-scale must track the data min, not 0)", bottom)
	}
	if top < 109 || top > 111 {
		t.Errorf("y max = %g, want ~110", top)
	}
}

func TestRenderSeriesHourBoundaryAxis(t *testing.T) {
	s := metrics.NewSeries("tp")
	s.Append(time.Date(2009, 5, 25, 10, 59, 0, 0, time.UTC), 1)
	s.Append(time.Date(2009, 5, 25, 11, 1, 0, 0, time.UTC), 2)
	out := RenderSeries(PlotOptions{Width: 40, Height: 4}, s)
	if !strings.Contains(out, "10:59:00") || !strings.Contains(out, "11:01:00") {
		t.Fatalf("axis should use h:mm:ss across an hour boundary:\n%s", out)
	}
}

// --- EventStrip edge columns ---------------------------------------------

func TestEventStripEdgeColumns(t *testing.T) {
	l := NewLog()
	start := epoch
	l.Record(start.Add(-5*time.Second), "AM_F", ContrLow, "")  // before start: dropped
	l.Record(start, "AM_F", AddWorker, "")                     // col 0
	l.Record(start.Add(9*time.Second), "AM_F", AddWorker, "")  // col 9 (last)
	l.Record(start.Add(10*time.Second), "AM_F", AddWorker, "") // beyond width: dropped
	out := l.EventStrip("AM_F", start, 10, time.Second)
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var contr, add string
	for _, ln := range lines {
		switch {
		case strings.Contains(ln, string(ContrLow)):
			contr = ln
		case strings.Contains(ln, string(AddWorker)):
			add = ln
		}
	}
	if contr == "" || add == "" {
		t.Fatalf("missing rows in strip:\n%s", out)
	}
	if strings.Contains(contr, "x") {
		t.Errorf("event before start leaked into the strip: %q", contr)
	}
	cells := add[strings.Index(add, "|")+1 : strings.LastIndex(add, "|")]
	if len(cells) != 10 {
		t.Fatalf("row has %d columns, want 10: %q", len(cells), add)
	}
	if cells[0] != 'x' || cells[9] != 'x' {
		t.Errorf("cols 0 and 9 should be hit: %q", cells)
	}
	if strings.Count(cells, "x") != 2 {
		t.Errorf("event beyond the width leaked in: %q", cells)
	}
	if EventStripInvalid := l.EventStrip("AM_F", start, 0, time.Second); EventStripInvalid != "" {
		t.Errorf("zero width should render nothing")
	}
}

// --- WriteSeriesCSV t0 selection and scaling -----------------------------

func TestWriteSeriesCSVTZeroAcrossSeries(t *testing.T) {
	a := metrics.NewSeries("a")
	b := metrics.NewSeries("b")
	// b starts earlier than a: t0 must come from b.
	a.Append(epoch.Add(4*time.Second), 1)
	b.Append(epoch.Add(2*time.Second), 2)
	b.Append(epoch.Add(6*time.Second), 3)
	var buf bytes.Buffer
	// scale 200: clock seconds are modelled seconds / 200.
	if err := WriteSeriesCSV(&buf, 200, a, b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	want := []string{
		"series,seconds,value",
		"a,400.000,1", // (4s-2s) * 200
		"b,0.000,2",
		"b,800.000,3",
	}
	if len(lines) != len(want) {
		t.Fatalf("csv:\n%s", buf.String())
	}
	for i, w := range want {
		if lines[i] != w {
			t.Errorf("line %d = %q, want %q", i, lines[i], w)
		}
	}
}

func TestWriteSeriesCSVNonPositiveScale(t *testing.T) {
	s := metrics.NewSeries("a")
	s.Append(epoch, 1)
	s.Append(epoch.Add(3*time.Second), 2)
	var buf bytes.Buffer
	if err := WriteSeriesCSV(&buf, 0, s); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "a,3.000,2") {
		t.Fatalf("scale 0 should fall back to 1:\n%s", buf.String())
	}
}

// --- KindSequence multi-source collapse ----------------------------------

func TestKindSequenceAllSources(t *testing.T) {
	l := NewLog()
	l.Record(epoch, "AM_F", ContrLow, "")
	l.Record(epoch.Add(time.Second), "AM_A", ContrLow, "") // same kind, other source: still collapsed
	l.Record(epoch.Add(2*time.Second), "AM_F", AddWorker, "")
	l.Record(epoch.Add(3*time.Second), "AM_F", AddWorker, "")
	got := l.KindSequence("")
	want := []Kind{ContrLow, AddWorker}
	if len(got) != len(want) {
		t.Fatalf("KindSequence = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("KindSequence = %v, want %v", got, want)
		}
	}
}
