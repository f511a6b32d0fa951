package trace

import (
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/metrics"
)

var epoch = time.Date(2009, 5, 25, 10, 35, 0, 0, time.UTC)

func sampleLog() *Log {
	l := NewLog()
	l.Record(epoch, "AM_F", ContrLow, "")
	l.Record(epoch.Add(1*time.Second), "AM_F", NotEnough, "")
	l.Record(epoch.Add(2*time.Second), "AM_F", RaiseViol, "notEnoughTasks")
	l.Record(epoch.Add(3*time.Second), "AM_A", IncRate, "0.2->0.4")
	l.Record(epoch.Add(10*time.Second), "AM_F", AddWorker, "2->4")
	return l
}

func TestLogOrderAndLen(t *testing.T) {
	l := sampleLog()
	if l.Len() != 5 {
		t.Fatalf("Len = %d", l.Len())
	}
	evs := l.Events()
	if evs[0].Kind != ContrLow || evs[4].Kind != AddWorker {
		t.Fatalf("events out of order: %v", evs)
	}
	evs[0].Kind = EndStream
	if l.Events()[0].Kind != ContrLow {
		t.Fatal("Events leaked internal storage")
	}
}

func TestLogBySourceByKind(t *testing.T) {
	l := sampleLog()
	if got := len(l.BySource("AM_F")); got != 4 {
		t.Fatalf("BySource(AM_F) = %d, want 4", got)
	}
	if got := len(l.ByKind(IncRate)); got != 1 {
		t.Fatalf("ByKind(IncRate) = %d, want 1", got)
	}
	if got := l.Count("AM_F", RaiseViol); got != 1 {
		t.Fatalf("Count = %d", got)
	}
	if got := l.Count("", ContrLow); got != 1 {
		t.Fatalf("Count any-source = %d", got)
	}
}

func TestFirstOf(t *testing.T) {
	l := sampleLog()
	e, ok := l.FirstOf("AM_F", RaiseViol)
	if !ok || e.Detail != "notEnoughTasks" {
		t.Fatalf("FirstOf = %+v ok=%v", e, ok)
	}
	if _, ok := l.FirstOf("AM_F", EndStream); ok {
		t.Fatal("FirstOf found nonexistent event")
	}
}

func TestKindSequenceCollapses(t *testing.T) {
	l := NewLog()
	for i := 0; i < 3; i++ {
		l.Record(epoch.Add(time.Duration(i)*time.Second), "AM_F", ContrLow, "")
	}
	l.Record(epoch.Add(4*time.Second), "AM_F", AddWorker, "")
	l.Record(epoch.Add(5*time.Second), "AM_F", ContrLow, "")
	got := l.KindSequence("AM_F")
	want := []Kind{ContrLow, AddWorker, ContrLow}
	if len(got) != len(want) {
		t.Fatalf("KindSequence = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("KindSequence[%d] = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestEventString(t *testing.T) {
	e := Event{T: epoch, Source: "AM_F", Kind: AddWorker, Detail: "2->4"}
	s := e.String()
	for _, frag := range []string{"35:00", "AM_F", "addWorker", "2->4"} {
		if !strings.Contains(s, frag) {
			t.Fatalf("String %q missing %q", s, frag)
		}
	}
}

func TestTimelineSorted(t *testing.T) {
	l := NewLog()
	l.Record(epoch.Add(5*time.Second), "AM_A", DecRate, "")
	l.Record(epoch, "AM_A", IncRate, "")
	tl := l.Timeline()
	if strings.Index(tl, "incRate") > strings.Index(tl, "decRate") {
		t.Fatalf("timeline not time-sorted:\n%s", tl)
	}
}

func TestEventStrip(t *testing.T) {
	l := sampleLog()
	s := l.EventStrip("AM_F", epoch, 20, time.Second)
	if !strings.Contains(s, "contrLow") || !strings.Contains(s, "addWorker") {
		t.Fatalf("strip missing rows:\n%s", s)
	}
	if !strings.Contains(s, "x") {
		t.Fatalf("strip has no marks:\n%s", s)
	}
	if l.EventStrip("AM_F", epoch, 0, time.Second) != "" {
		t.Fatal("zero width must render empty")
	}
}

func TestRenderSeries(t *testing.T) {
	s := metrics.NewSeries("throughput")
	for i := 0; i < 60; i++ {
		s.Append(epoch.Add(time.Duration(i)*time.Second), float64(i)/100)
	}
	out := RenderSeries(PlotOptions{Width: 40, Height: 8, Bands: []float64{0.3, 0.7}}, s)
	if !strings.Contains(out, "*") {
		t.Fatalf("plot has no points:\n%s", out)
	}
	if !strings.Contains(out, "-") {
		t.Fatalf("plot has no contract bands:\n%s", out)
	}
	if !strings.Contains(out, "throughput") {
		t.Fatalf("plot has no legend:\n%s", out)
	}
}

func TestRenderSeriesEmpty(t *testing.T) {
	s := metrics.NewSeries("empty")
	if got := RenderSeries(PlotOptions{}, s); got != "(no samples)\n" {
		t.Fatalf("got %q", got)
	}
	if got := RenderSeries(PlotOptions{}); got != "" {
		t.Fatalf("no series should render empty, got %q", got)
	}
}

func TestRenderSeriesSinglePoint(t *testing.T) {
	s := metrics.NewSeries("one")
	s.Append(epoch, 5)
	out := RenderSeries(PlotOptions{Width: 10, Height: 4}, s)
	if !strings.Contains(out, "*") {
		t.Fatalf("single point not rendered:\n%s", out)
	}
}

func TestWriteSeriesCSV(t *testing.T) {
	a := metrics.NewSeries("throughput")
	b := metrics.NewSeries("workers")
	a.Append(epoch, 0.5)
	a.Append(epoch.Add(time.Second), 0.6)
	b.Append(epoch.Add(500*time.Millisecond), 3)
	var sb strings.Builder
	if err := WriteSeriesCSV(&sb, a, b); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("csv lines = %d:\n%s", len(lines), out)
	}
	if lines[0] != "series,seconds,value" {
		t.Fatalf("header = %q", lines[0])
	}
	// Seconds are the samples' clock seconds from the earliest sample.
	if lines[2] != "throughput,1.000,0.6" {
		t.Fatalf("row = %q", lines[2])
	}
	if !strings.HasPrefix(lines[3], "workers,0.500,3") {
		t.Fatalf("row = %q", lines[3])
	}
	// Empty series are fine.
	var sb2 strings.Builder
	if err := WriteSeriesCSV(&sb2, metrics.NewSeries("empty")); err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(sb2.String()) != "series,seconds,value" {
		t.Fatalf("empty csv = %q", sb2.String())
	}
}

func TestLogConcurrentAdd(t *testing.T) {
	l := NewLog()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				l.Record(epoch, "AM", ContrLow, "")
			}
		}()
	}
	wg.Wait()
	if l.Len() != 400 {
		t.Fatalf("Len = %d, want 400", l.Len())
	}
}
