package core

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/contract"
	"repro/internal/grid"
	"repro/internal/manager"
	"repro/internal/runtime/leaktest"
	"repro/internal/telemetry"
)

func telemetryFarmApp(t *testing.T) *App {
	t.Helper()
	app, err := NewFarmApp(FarmAppConfig{
		Name:           "telemetrymini",
		Env:            fastEnv(400),
		Platform:       grid.NewSMP(10),
		Tasks:          120,
		TaskWork:       5 * time.Second,
		SourceInterval: 1200 * time.Millisecond,
		InitialWorkers: 1,
		Contract:       contract.MinThroughput(0.6),
		Limits:         manager.FarmLimits{MaxWorkers: 8},
		Period:         2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	return app
}

// TestTelemetryMeasurementAlwaysOn: the builders wire the registry and
// tracer unconditionally — measurement is always on — but without
// EnableTelemetry no listener is bound and no extra goroutine runs.
func TestTelemetryMeasurementAlwaysOn(t *testing.T) {
	defer leaktest.Check(t)()
	app := telemetryFarmApp(t)
	if app.Telemetry() == nil || app.Tracer() == nil {
		t.Fatal("builder did not wire the telemetry registry/tracer")
	}
	if _, err := app.Run(); err != nil {
		t.Fatal(err)
	}
	if app.Tracer().Total() == 0 {
		t.Fatal("no decision records after a full run")
	}
	rec, ok := app.Tracer().LastByManager()["AM_F"]
	if !ok {
		t.Fatal("no decision record for AM_F")
	}
	if rec.Phases.Sense < 0 || rec.Phases.Plan < 0 {
		t.Fatalf("phase durations invalid: %+v", rec.Phases)
	}
	snap := app.RootManager.Instruments().Sense.Snapshot()
	if snap.Count == 0 {
		t.Fatal("sense-phase histogram never observed")
	}
}

// httpGet returns the status code and body of a GET, or 0 and the error
// text when the request fails.
func httpGet(client *http.Client, url string) (int, string) {
	resp, err := client.Get(url)
	if err != nil {
		return 0, err.Error()
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, string(body)
}

// awaitHealthz polls /healthz until the server, which starts with the run,
// answers; it returns the deadline later polls share.
func awaitHealthz(t *testing.T, client *http.Client, base string) time.Time {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if code, _ := httpGet(client, base+"/healthz"); code == 200 {
			return deadline
		}
		if time.Now().After(deadline) {
			t.Fatal("telemetry endpoint never came up")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestTelemetryLiveEndpoints scrapes the introspection endpoint while an
// application is running: /metrics must expose the MAPE phase histograms
// in Prometheus text format, /trace must return valid JSON, and /managers
// must render the manager tree. After the run the server must be down.
func TestTelemetryLiveEndpoints(t *testing.T) {
	defer leaktest.Check(t)()
	app := telemetryFarmApp(t)
	srv, err := app.EnableTelemetry("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + srv.Addr()
	client := &http.Client{Timeout: 5 * time.Second}
	defer client.CloseIdleConnections()

	done := make(chan error, 1)
	go func() {
		_, err := app.RunContext(context.Background())
		done <- err
	}()

	get := func(path string) (int, string) { return httpGet(client, base+path) }
	deadline := awaitHealthz(t, client, base)

	if code, body := get("/metrics"); code != 200 ||
		!strings.Contains(body, "repro_mape_phase_seconds_bucket") ||
		!strings.Contains(body, "repro_farm_dispatch_seconds") ||
		!strings.Contains(body, "repro_abc_actuator_seconds") {
		t.Fatalf("/metrics = %d:\n%s", code, body)
	}

	var recs []telemetry.DecisionRecord
	for {
		code, body := get("/trace?n=5")
		if code != 200 {
			t.Fatalf("/trace = %d %s", code, body)
		}
		if err := json.Unmarshal([]byte(body), &recs); err != nil {
			t.Fatalf("/trace body not JSON: %v\n%s", err, body)
		}
		if len(recs) > 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if len(recs) == 0 {
		t.Fatal("no decision records surfaced on /trace during the run")
	}
	if recs[0].Manager == "" {
		t.Fatalf("trace record missing manager: %+v", recs[0])
	}

	code, body := get("/managers")
	if code != 200 {
		t.Fatalf("/managers = %d %s", code, body)
	}
	var view ManagersView
	if err := json.Unmarshal([]byte(body), &view); err != nil {
		t.Fatalf("/managers body not JSON: %v\n%s", err, body)
	}
	if view.App != "telemetrymini" || view.Root == nil || view.Root.Name != "AM_F" {
		t.Fatalf("managers view = %+v", view)
	}

	if err := <-done; err != nil {
		t.Fatal(err)
	}
	// RunContext's teardown stops the server with the managed goroutines.
	if _, err := client.Get(base + "/healthz"); err == nil {
		t.Fatal("telemetry server still up after the run")
	}
}

// TestStreamAppTelemetryPlanes: the pipeline builder wires the same
// planes as the farm builder. Every manager runs under a restart
// supervisor, and the live endpoints answer from a registry that carries
// every manager's phase histograms.
func TestStreamAppTelemetryPlanes(t *testing.T) {
	defer leaktest.Check(t)()
	app, err := NewStreamApp(StreamAppConfig{
		Name:           "streamtelemetry",
		Env:            fastEnv(400),
		Platform:       grid.NewSMP(12),
		Tasks:          100,
		SourceInterval: 2 * time.Second,
		Stages:         fig4Stages(),
		Contract:       contract.ThroughputRange{Lo: 0.3, Hi: 0.7},
		Period:         2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []string{"AM_A", "AM_P", "AM_F", "AM_S1"} {
		if app.Supervisors[m] == nil {
			t.Errorf("no supervisor for %s (have %v)", m, app.Supervisors)
		}
	}
	srv, err := app.EnableTelemetry("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + srv.Addr()
	client := &http.Client{Timeout: 5 * time.Second}
	defer client.CloseIdleConnections()

	done := make(chan error, 1)
	go func() {
		_, err := app.RunContext(context.Background())
		done <- err
	}()
	awaitHealthz(t, client, base)

	code, body := httpGet(client, base+"/metrics")
	if code != 200 {
		t.Fatalf("/metrics = %d %s", code, body)
	}
	phaseAMF := false
	for _, line := range strings.Split(body, "\n") {
		if strings.HasPrefix(line, "repro_mape_phase_seconds") && strings.Contains(line, `manager="AM_F"`) {
			phaseAMF = true
			break
		}
	}
	if !phaseAMF || !strings.Contains(body, "repro_farm_dispatch_seconds") {
		t.Fatalf("/metrics lacks AM_F's phase histograms or the farm instruments:\n%s", body)
	}
	if code, body := httpGet(client, base+"/trace?n=5"); code != 200 {
		t.Fatalf("/trace = %d %s", code, body)
	}
	code, body = httpGet(client, base+"/managers")
	if code != 200 {
		t.Fatalf("/managers = %d %s", code, body)
	}
	var view ManagersView
	if err := json.Unmarshal([]byte(body), &view); err != nil {
		t.Fatalf("/managers body not JSON: %v\n%s", err, body)
	}
	if view.Root == nil || view.Root.Name != "AM_A" || len(view.Root.Children) != 3 {
		t.Fatalf("managers view = %s", body)
	}

	if err := <-done; err != nil {
		t.Fatal(err)
	}
}
