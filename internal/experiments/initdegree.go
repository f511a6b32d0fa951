package experiments

import (
	"context"
	"fmt"
	"io"
	"time"

	"repro/internal/contract"
	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/manager"
	"repro/internal/metrics"
	"repro/internal/trace"
)

// InitRow is one variant of the EXT-INIT comparison.
type InitRow struct {
	Strategy       string
	InitialWorkers float64
	// TimeToContract is the modelled time from the first sample until the
	// throughput first reaches the contract bound (-1: never).
	TimeToContract time.Duration
	AddWorkers     int
	Completed      int
}

// InitResult is the full EXT-INIT comparison.
type InitResult struct {
	Rows []InitRow
	Logs map[string]*trace.Log
}

// InitialDegree runs the EXT-INIT ablation for §3's first performance
// policy, "initial parallelism degree setup": the Fig. 3 farm started cold
// (one worker, purely reactive ramp-up) versus started at the degree the
// task-farm performance model derives from the contract
// (internal/planner). The model-based start should reach the contract
// almost immediately and need (nearly) no reactive addWorker actions.
func InitialDegree(ctx context.Context, opts Options) (*InitResult, error) {
	tasks := opts.Tasks
	if tasks <= 0 {
		tasks = 150
	}
	out := &InitResult{Logs: map[string]*trace.Log{}}
	for _, auto := range []bool{false, true} {
		name := "cold start (1 worker)"
		if auto {
			name = "model-based start"
		}
		log := trace.NewLog()
		app, err := core.NewFarmApp(core.FarmAppConfig{
			Name:           "extinit",
			Env:            opts.env(),
			Platform:       grid.NewSMP(12),
			Log:            log,
			Tasks:          tasks,
			TaskWork:       6400 * time.Millisecond,
			SourceInterval: 1250 * time.Millisecond,
			InitialWorkers: 1,
			AutoDegree:     auto,
			Contract:       contract.MinThroughput(0.6),
			Limits:         manager.FarmLimits{MaxWorkers: 10},
			Period:         3 * time.Second,
			SamplePeriod:   time.Second,
		})
		if err != nil {
			return nil, err
		}
		if err := enableTelemetry(app, opts); err != nil {
			return nil, err
		}
		res, err := app.RunContext(ctx)
		if err != nil {
			return nil, err
		}
		first := 1.0
		if pts := res.Workers.Points(); len(pts) > 0 {
			first = pts[0].V
		}
		out.Rows = append(out.Rows, InitRow{
			Strategy:       name,
			InitialWorkers: first,
			TimeToContract: timeToThreshold(res.Throughput, 0.6),
			AddWorkers:     log.Count("AM_F", trace.AddWorker),
			Completed:      res.Completed,
		})
		out.Logs[name] = log
	}
	if opts.Out != nil {
		writeInitialDegree(opts.Out, out)
	}
	return out, nil
}

// timeToThreshold returns the modelled time between the first sample and
// the first of three consecutive samples at or above th (a single-sample
// spike from the sliding-window meter does not count as "reached"), or -1
// if never reached.
func timeToThreshold(s *metrics.Series, th float64) time.Duration {
	pts := s.Points()
	if len(pts) == 0 {
		return -1
	}
	const sustain = 3
	run := 0
	for i, p := range pts {
		if p.V >= th {
			run++
		} else {
			run = 0
		}
		if run >= sustain {
			return pts[i-sustain+1].T.Sub(pts[0].T)
		}
	}
	return -1
}

func writeInitialDegree(w io.Writer, res *InitResult) {
	header(w, "EXT-INIT — initial parallelism degree: reactive ramp-up vs. performance model")
	fmt.Fprintf(w, "%-24s %9s %18s %11s %10s\n",
		"strategy", "initial", "time-to-contract", "addWorker", "completed")
	for _, r := range res.Rows {
		ttc := "never"
		if r.TimeToContract >= 0 {
			ttc = r.TimeToContract.Round(time.Second).String()
		}
		fmt.Fprintf(w, "%-24s %9.0f %18s %11d %10d\n",
			r.Strategy, r.InitialWorkers, ttc, r.AddWorkers, r.Completed)
	}
	fmt.Fprintln(w, "\nexpected shape: the model-based start reaches the contract much sooner")
	fmt.Fprintln(w, "and needs few or no reactive addWorker corrections (times are modelled).")
}
