package telemetry

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/runtime/leaktest"
)

// serveRegistry runs a telemetry server for reg on a loopback port and
// returns a GET helper (status, body, content type) plus a stop function
// that shuts the server down and checks it exited cleanly.
func serveRegistry(t *testing.T, reg *Registry) (get func(path string) (int, string, string), stop func()) {
	t.Helper()
	srv := NewServer("127.0.0.1:0", reg)
	if err := srv.Listen(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- srv.Run(ctx) }()
	client := &http.Client{Timeout: 5 * time.Second}
	get = func(path string) (int, string, string) {
		t.Helper()
		resp, err := client.Get("http://" + srv.Addr() + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body), resp.Header.Get("Content-Type")
	}
	stop = func() {
		t.Helper()
		client.CloseIdleConnections()
		cancel()
		if err := <-done; err != nil {
			t.Fatalf("server run: %v", err)
		}
	}
	return get, stop
}

func TestServerSpans(t *testing.T) {
	defer leaktest.Check(t)()
	tt := NewTaskTracer(1, 1, 0)
	for id := uint64(1); id <= 4; id++ {
		tt.Publish(tt.Start(id))
	}
	const cause = 7
	if got := tt.Ring().AttachCause(cause, 2); got != 2 {
		t.Fatalf("AttachCause attached %d spans, want 2", got)
	}
	reg := NewRegistry()
	reg.SetTaskTracer(tt)
	get, stop := serveRegistry(t, reg)
	defer stop()

	// spans fetches path as a JSON array and returns the task ids, in order.
	spans := func(path string) []uint64 {
		t.Helper()
		code, body, ct := get(path)
		if code != 200 || ct != "application/json" {
			t.Fatalf("%s = %d %q %q", path, code, ct, body)
		}
		var got []Span
		if err := json.Unmarshal([]byte(body), &got); err != nil {
			t.Fatalf("%s body %q: %v", path, body, err)
		}
		ids := make([]uint64, 0, len(got))
		for _, sp := range got {
			ids = append(ids, sp.TaskID)
		}
		return ids
	}
	traceOf2 := tt.Sampler().TraceID(2)
	for _, c := range []struct {
		path string
		want []uint64
	}{
		{"/spans", []uint64{1, 2, 3, 4}},
		{"/spans?n=0", []uint64{1, 2, 3, 4}},
		{"/spans?n=2", []uint64{3, 4}},
		{"/spans?n=99", []uint64{1, 2, 3, 4}},
		{fmt.Sprintf("/spans?trace=%x", traceOf2), []uint64{2}},
		{fmt.Sprintf("/spans?cause=%d", cause), []uint64{3, 4}},
		{fmt.Sprintf("/spans?trace=%x&n=1", traceOf2), []uint64{2}},
	} {
		if got := spans(c.path); fmt.Sprint(got) != fmt.Sprint(c.want) {
			t.Errorf("%s tasks = %v, want %v", c.path, got, c.want)
		}
	}

	// No match is an empty JSON list, never null. Cause 0 is "no cause":
	// it matches no span, not every unattributed one, as on /trace.
	for _, path := range []string{"/spans?trace=1", "/spans?cause=99", "/spans?cause=0"} {
		if code, body, _ := get(path); code != 200 || strings.TrimSpace(body) != "[]" {
			t.Errorf("%s = %d %q, want 200 []", path, code, body)
		}
	}

	code, body, ct := get("/spans?format=jsonl")
	if code != 200 || ct != "application/x-ndjson" {
		t.Fatalf("/spans jsonl = %d %q", code, ct)
	}
	lines := strings.Split(strings.TrimSpace(body), "\n")
	if len(lines) != 4 {
		t.Fatalf("/spans jsonl has %d lines, want 4: %q", len(lines), body)
	}
	for i, line := range lines {
		var sp Span
		if err := json.Unmarshal([]byte(line), &sp); err != nil || sp.TaskID != uint64(i+1) {
			t.Fatalf("jsonl line %d = %q (%v), want task %d", i, line, err, i+1)
		}
	}
	if code, body, _ := get(fmt.Sprintf("/spans?format=jsonl&cause=%d", cause)); code != 200 ||
		len(strings.Split(strings.TrimSpace(body), "\n")) != 2 {
		t.Fatalf("/spans jsonl by cause = %d %q", code, body)
	}

	for _, path := range []string{
		"/spans?n=-1", "/spans?n=bogus",
		"/spans?trace=zz",
		"/spans?cause=bogus", "/spans?cause=-1",
	} {
		if code, _, _ := get(path); code != 400 {
			t.Errorf("%s = %d, want 400", path, code)
		}
	}
}
