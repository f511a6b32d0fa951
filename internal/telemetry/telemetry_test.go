package telemetry

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/contract"
	"repro/internal/metrics"
	"repro/internal/runtime/leaktest"
	"repro/internal/trace"
)

func rec(manager string, cause uint64) DecisionRecord {
	return DecisionRecord{
		T:       time.Date(2009, 5, 25, 10, 35, 0, 0, time.UTC),
		Manager: manager,
		Concern: "performance",
		Cause:   cause,
		Verdict: "violated-low",
	}
}

func TestTracerRingEviction(t *testing.T) {
	tr := NewTracer(3)
	for i := 0; i < 5; i++ {
		tr.Record(rec(fmt.Sprintf("AM%d", i), 0))
	}
	if tr.Len() != 3 || tr.Total() != 5 || tr.Dropped() != 2 {
		t.Fatalf("len=%d total=%d dropped=%d, want 3/5/2", tr.Len(), tr.Total(), tr.Dropped())
	}
	last := tr.Last(0)
	if len(last) != 3 || last[0].Manager != "AM2" || last[2].Manager != "AM4" {
		t.Fatalf("retained window wrong: %+v", last)
	}
	for i := 1; i < len(last); i++ {
		if last[i].Seq <= last[i-1].Seq {
			t.Fatalf("records out of order: %+v", last)
		}
	}
	if got := tr.Last(2); len(got) != 2 || got[1].Manager != "AM4" {
		t.Fatalf("Last(2) = %+v", got)
	}
}

func TestTracerByCauseAndLastByManager(t *testing.T) {
	tr := NewTracer(0)
	c1 := tr.NextCause()
	c2 := tr.NextCause()
	if c1 == c2 || c1 == 0 {
		t.Fatalf("cause ids not unique: %d %d", c1, c2)
	}
	tr.Record(rec("AM_F", c1))
	tr.Record(rec("AM_A", c1))
	tr.Record(rec("AM_F", c2))
	chain := tr.ByCause(c1)
	if len(chain) != 2 || chain[0].Manager != "AM_F" || chain[1].Manager != "AM_A" {
		t.Fatalf("ByCause(%d) = %+v", c1, chain)
	}
	if tr.ByCause(0) != nil {
		t.Fatal("cause 0 must never match")
	}
	last := tr.LastByManager()
	if last["AM_F"].Cause != c2 {
		t.Fatalf("LastByManager did not keep the newest AM_F record: %+v", last["AM_F"])
	}
}

func TestTracerWriteJSONL(t *testing.T) {
	tr := NewTracer(0)
	tr.Record(DecisionRecord{Manager: "AM_F", Snapshot: contract.Snapshot{Throughput: 0.5}})
	tr.Record(DecisionRecord{Manager: "AM_A"})
	var buf bytes.Buffer
	if err := tr.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	sc := bufio.NewScanner(&buf)
	lines := 0
	for sc.Scan() {
		var r DecisionRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			t.Fatalf("line %d not JSON: %v", lines, err)
		}
		lines++
	}
	if lines != 2 {
		t.Fatalf("wrote %d lines, want 2", lines)
	}
}

func TestRegistryPrometheusOutput(t *testing.T) {
	reg := NewRegistry()
	h := metrics.NewHistogram([]float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)
	reg.AddHistogram("repro_test_seconds", "A test histogram.",
		Labels{"manager": "AM_F", "phase": "sense"}, h)
	reg.AddGauge("repro_test_gauge", "A test gauge.", nil, func() float64 { return 42 })
	reg.AddCounter("repro_test_total", "A test counter.", nil, func() float64 { return 7 })
	tr := NewTracer(0)
	tr.Record(rec("AM_F", 0))
	reg.SetTracer(tr)
	log := trace.NewBoundedLog(1)
	log.Record(time.Now(), "AM_F", trace.AddWorker, "w1")
	log.Record(time.Now(), "AM_F", trace.AddWorker, "w2")
	reg.SetEventLog(log)

	var buf bytes.Buffer
	reg.WritePrometheus(&buf)
	out := buf.String()
	for _, want := range []string{
		"# TYPE repro_test_seconds histogram",
		`repro_test_seconds_bucket{le="0.1",manager="AM_F",phase="sense"} 1`,
		`repro_test_seconds_bucket{le="1",manager="AM_F",phase="sense"} 2`,
		`repro_test_seconds_bucket{le="+Inf",manager="AM_F",phase="sense"} 3`,
		`repro_test_seconds_count{manager="AM_F",phase="sense"} 3`,
		"repro_test_gauge 42",
		"repro_test_total 7",
		"repro_decisions_total 1",
		"repro_trace_events_evicted_total 1",
		`repro_trace_events_total{kind="addWorker",source="AM_F"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("missing %q in:\n%s", want, out)
		}
	}
	// Every non-comment line must be "name{labels} value".
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if fields := strings.Fields(line); len(fields) != 2 {
			t.Errorf("malformed exposition line %q", line)
		}
	}
}

func TestServerEndpoints(t *testing.T) {
	defer leaktest.Check(t)()
	reg := NewRegistry()
	tr := NewTracer(0)
	c := tr.NextCause()
	tr.Record(rec("AM_F", c))
	tr.Record(rec("AM_A", c))
	reg.SetTracer(tr)
	reg.SetManagersFunc(func() any { return map[string]string{"root": "AM_F"} })

	srv := NewServer("127.0.0.1:0", reg)
	if err := srv.Listen(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Run(ctx) }()

	base := "http://" + srv.Addr()
	client := &http.Client{Timeout: 5 * time.Second}
	get := func(path string) (int, string, string) {
		t.Helper()
		resp, err := client.Get(base + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body), resp.Header.Get("Content-Type")
	}

	if code, body, _ := get("/healthz"); code != 200 || strings.TrimSpace(body) != "ok" {
		t.Fatalf("/healthz = %d %q", code, body)
	}
	if code, body, ct := get("/metrics"); code != 200 ||
		!strings.HasPrefix(ct, "text/plain") || !strings.Contains(body, "repro_decisions_total 2") {
		t.Fatalf("/metrics = %d %q %q", code, ct, body)
	}
	code, body, ct := get("/trace?n=1")
	if code != 200 || ct != "application/json" {
		t.Fatalf("/trace = %d %q", code, ct)
	}
	var recs []DecisionRecord
	if err := json.Unmarshal([]byte(body), &recs); err != nil || len(recs) != 1 || recs[0].Manager != "AM_A" {
		t.Fatalf("/trace?n=1 body: %v %+v", err, recs)
	}
	if code, _, _ := get("/trace?n=bogus"); code != 400 {
		t.Fatalf("bad n accepted: %d", code)
	}
	if code, body, ct := get("/trace?format=jsonl"); code != 200 ||
		ct != "application/x-ndjson" || len(strings.Split(strings.TrimSpace(body), "\n")) != 2 {
		t.Fatalf("/trace jsonl = %d %q %q", code, ct, body)
	}
	code, body, _ = get(fmt.Sprintf("/trace?cause=%d", c))
	recs = nil
	if err := json.Unmarshal([]byte(body), &recs); code != 200 || err != nil ||
		len(recs) != 2 || recs[0].Manager != "AM_F" || recs[1].Manager != "AM_A" {
		t.Fatalf("/trace?cause=%d = %d %v %+v", c, code, err, recs)
	}
	if code, body, _ := get(fmt.Sprintf("/trace?cause=%d", c+1)); code != 200 || strings.TrimSpace(body) != "[]" {
		t.Fatalf("/trace for an unknown cause = %d %q, want 200 []", code, body)
	}
	if code, body, _ := get(fmt.Sprintf("/trace?cause=%d&format=jsonl", c)); code != 200 ||
		len(strings.Split(strings.TrimSpace(body), "\n")) != 2 {
		t.Fatalf("/trace jsonl by cause = %d %q", code, body)
	}
	for _, path := range []string{"/trace?cause=bogus", "/trace?cause=-1"} {
		if code, _, _ := get(path); code != 400 {
			t.Fatalf("%s = %d, want 400", path, code)
		}
	}
	if code, body, _ := get("/managers"); code != 200 || !strings.Contains(body, "AM_F") {
		t.Fatalf("/managers = %d %q", code, body)
	}
	if code, _, _ := get("/debug/pprof/cmdline"); code != 200 {
		t.Fatalf("pprof = %d", code)
	}

	client.CloseIdleConnections()
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("server run: %v", err)
	}
}

func TestServerTraceWithoutTracer(t *testing.T) {
	defer leaktest.Check(t)()
	srv := NewServer("127.0.0.1:0", NewRegistry())
	if err := srv.Listen(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Run(ctx) }()
	client := &http.Client{Timeout: 5 * time.Second}
	for path, want := range map[string]int{"/trace": 404, "/spans": 404, "/managers": 404} {
		resp, err := client.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("%s = %d, want %d", path, resp.StatusCode, want)
		}
	}
	client.CloseIdleConnections()
	cancel()
	if err := <-done; err != nil {
		t.Fatal(err)
	}
}
