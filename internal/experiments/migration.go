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
	"repro/internal/trace"
)

// MigrationRow is one strategy of the EXT-MIG comparison.
type MigrationRow struct {
	Strategy   string
	Completed  int
	SteadyTP   float64
	PeakCores  float64
	AddWorkers int
	Migrations int
}

// MigrationResult is the full EXT-MIG comparison.
type MigrationResult struct {
	Rows []MigrationRow
	Logs map[string]*trace.Log
}

// Migration runs the EXT-MIG ablation for the §3 policy list: when
// external load appears on some worker nodes, the manager can either *add*
// workers (the Fig. 4/EXT-LOAD reaction) or *migrate* the affected workers
// to free nodes ("migration of poorly performing activities to faster
// execution resources"). Both restore the contract; migration does so
// while holding fewer cores.
func Migration(ctx context.Context, opts Options) (*MigrationResult, error) {
	tasks := opts.Tasks
	if tasks <= 0 {
		tasks = 240
	}
	out := &MigrationResult{Logs: map[string]*trace.Log{}}
	for _, withMig := range []bool{false, true} {
		name := "add-workers"
		if withMig {
			name = "migrate"
		}
		trusted := grid.Domain{Name: "cluster.local", Trusted: true}
		var nodes []*grid.Node
		for i := 0; i < 20; i++ {
			nodes = append(nodes, grid.NewNode(fmt.Sprintf("n%02d", i), trusted, 1, 1.0))
		}
		platform := &grid.Platform{
			Domains: []grid.Domain{trusted},
			Network: grid.NewNetwork(),
			RM:      grid.NewResourceManager(nodes...),
		}
		env := opts.env()
		log := trace.NewLog()
		app, err := core.NewFarmApp(core.FarmAppConfig{
			Name:             "extmig-" + name,
			Env:              env,
			Platform:         platform,
			Log:              log,
			Tasks:            tasks,
			TaskWork:         5 * time.Second,
			SourceInterval:   1250 * time.Millisecond,
			InitialWorkers:   5,
			Contract:         contract.MinThroughput(0.6),
			Limits:           manager.FarmLimits{MaxWorkers: 16},
			Period:           2 * time.Second,
			SamplePeriod:     time.Second,
			WithMigration:    withMig,
			MigrationMaxLoad: 0.5,
		})
		if err != nil {
			return nil, err
		}

		// Injector: at one third of the stream, overload the nodes of
		// three workers; plenty of unloaded nodes remain for migration.
		go func() {
			if !waitConsumed(ctx, app, tasks/3) {
				return
			}
			workers := app.FarmABC.Workers()
			for i, w := range workers {
				if i >= 3 {
					break
				}
				w.Node.SetExternalLoad(0.75)
			}
			app.Log.Record(env.Clock.Now(), "ENV", trace.Kind("extLoad"),
				"75% external load on 3 worker nodes")
		}()

		if err := enableTelemetry(app, opts); err != nil {
			return nil, err
		}
		res, err := app.RunContext(ctx)
		if err != nil {
			return nil, err
		}
		row := MigrationRow{
			Strategy:   name,
			Completed:  res.Completed,
			SteadyTP:   steadyMean(res.Throughput, 0.6),
			PeakCores:  res.Cores.Max(),
			AddWorkers: log.Count("AM_F", trace.AddWorker),
		}
		if app.Migration != nil {
			row.Migrations = app.Migration.Migrated()
		}
		out.Rows = append(out.Rows, row)
		out.Logs[name] = log
	}
	if opts.Out != nil {
		writeMigration(opts.Out, out)
	}
	return out, nil
}

func writeMigration(w io.Writer, res *MigrationResult) {
	header(w, "EXT-MIG — reacting to external load: add workers vs. migrate workers")
	fmt.Fprintf(w, "%-14s %10s %10s %11s %12s %11s\n",
		"strategy", "completed", "steady tp", "peak cores", "addWorker", "migrations")
	for _, r := range res.Rows {
		fmt.Fprintf(w, "%-14s %10d %10.3f %11.0f %12d %11d\n",
			r.Strategy, r.Completed, r.SteadyTP, r.PeakCores, r.AddWorkers, r.Migrations)
	}
	fmt.Fprintln(w, "\nexpected shape: both strategies keep the contract; migration holds fewer")
	fmt.Fprintln(w, "cores at its peak because it moves capacity instead of adding it.")
}
