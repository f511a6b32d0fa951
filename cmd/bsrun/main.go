// Command bsrun runs the repository's experiments, and arbitrary
// behavioural-skeleton applications described by a skeleton expression
// and an SLA contract.
//
// Usage:
//
//	bsrun <experiment> [-scale N] [-tasks N] [experiment flags]
//	bsrun -expr "pipe(seq, farm(seq), seq)" -contract "throughput:0.3-0.7" \
//	      [-scale N] [-tasks N] [-cores N] [-work D] [-interval D] [-timeline]
//
// Experiments (bsrun -h lists them with their flags):
//
//	bsrun fig3 -csv fig3.csv
//	bsrun fig4 -rules
//	bsrun multiconcern -timeline two-phase
//
// Every run accepts -timeout and stops gracefully on SIGINT/SIGTERM; every
// experiment except contractsplit also accepts -telemetry ADDR.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/cmd/internal/flags"
	"repro/internal/contract"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/grid"
	"repro/internal/metrics"
	"repro/internal/rules"
	"repro/internal/simclock"
	"repro/internal/skel"
	"repro/internal/trace"
)

// runner runs one parsed invocation.
type runner func(ctx context.Context) error

// experiment is one registry entry: setup registers the experiment's
// flags on the default FlagSet and returns the runner that reads them.
type experiment struct {
	name, about string
	setup       func() runner
}

var registry = []experiment{
	{"fig3", "Fig. 3: one AM adds farm workers until 0.6 tasks/s holds", func() runner {
		opts, timeline, csv := common(200), timelineFlag(), csvFlag()
		return func(ctx context.Context) error {
			o := opts()
			res, err := experiments.Fig3(ctx, o)
			if err != nil {
				return err
			}
			dumpTimeline(*timeline, res.Log)
			return writeCSV(*csv, res.Throughput, res.Workers, res.Cores)
		}
	}},
	{"fig4", "Fig. 4: AM_A/AM_P/AM_F/AM_S1 keep a pipeline in 0.3-0.7 tasks/s; AM_A runs the pipe rules", func() runner {
		opts, timeline, csv := common(150), timelineFlag(), csvFlag()
		showRules := flag.Bool("rules", false, "print the Fig. 5 AM_F rule file and exit")
		return func(ctx context.Context) error {
			if *showRules {
				rs, err := rules.Parse(rules.FarmRuleSource)
				if err != nil {
					return err
				}
				fmt.Println("// Fig. 5 — rules used in the AM_F manager (engine round trip)")
				fmt.Println(rs.String())
				return nil
			}
			res, err := experiments.Fig4(ctx, opts())
			if err != nil {
				return err
			}
			dumpTimeline(*timeline, res.Log)
			return writeCSV(*csv, res.Throughput, res.InputRate, res.Workers, res.Cores)
		}
	}},
	{"extload", "EXT-LOAD: external load on worker cores, the AM adds workers",
		withTimeline(240, func(ctx context.Context, o experiments.Options) (*trace.Log, error) {
			res, err := experiments.ExtLoad(ctx, o)
			if err != nil {
				return nil, err
			}
			return res.Log, nil
		})},
	{"shed", "EXT-SHED: an overprovisioned farm sheds workers into its bound",
		withTimeline(200, func(ctx context.Context, o experiments.Options) (*trace.Log, error) {
			res, err := experiments.Shed(ctx, o)
			if err != nil {
				return nil, err
			}
			return res.Log, nil
		})},
	{"faulttol", "EXT-FT: injected worker crashes, exactly-once recovery",
		withTimeline(200, func(ctx context.Context, o experiments.Options) (*trace.Log, error) {
			res, err := experiments.FaultTolerance(ctx, o)
			if err != nil {
				return nil, err
			}
			return res.Log, nil
		})},
	{"migrate", "EXT-MIG: add workers vs migrate them off loaded nodes",
		figureOnly(240, func(ctx context.Context, o experiments.Options) error {
			_, err := experiments.Migration(ctx, o)
			return err
		})},
	{"initdegree", "EXT-INIT: cold start vs model-derived initial degree",
		figureOnly(150, func(ctx context.Context, o experiments.Options) error {
			_, err := experiments.InitialDegree(ctx, o)
			return err
		})},
	{"farmize", "EXT-FARMIZE: a bottleneck stage vs the same stage farmized",
		figureOnly(150, func(ctx context.Context, o experiments.Options) error {
			_, err := experiments.Farmize(ctx, o)
			return err
		})},
	{"multiconcern", "EXT-SEC: two-phase vs reactive vs unmanaged security", func() runner {
		opts := common(200)
		timeline := flag.String("timeline", "", "dump the event timeline of one scheme (two-phase, reactive, unmanaged)")
		return func(ctx context.Context) error {
			res, err := experiments.MultiConcern(ctx, opts())
			if err != nil {
				return err
			}
			if *timeline == "" {
				return nil
			}
			log, ok := res.Logs[*timeline]
			if !ok {
				return fmt.Errorf("no scheme %q", *timeline)
			}
			fmt.Printf("\n--- event timeline (%s) ---\n", *timeline)
			fmt.Print(log.Timeline())
			return nil
		}
	}},
	{"contractsplit", "EXT-SPLIT: the P_spl contract-splitting heuristics", func() runner {
		return func(ctx context.Context) error {
			_, err := experiments.ContractSplit(ctx, experiments.Options{Out: os.Stdout})
			return err
		}
	}},
}

// common registers -scale, -tasks (defaulting to the experiment's stream
// length) and -telemetry, and returns the Options they parse into.
func common(tasks int) func() experiments.Options {
	scale := flag.Float64("scale", 200, "time scale: how many modelled seconds per wall-clock second")
	n := flag.Int("tasks", tasks, "stream length")
	telemetry := flags.RegisterTelemetry()
	return func() experiments.Options {
		return experiments.Options{Scale: *scale, Tasks: *n, Out: os.Stdout, Telemetry: *telemetry}
	}
}

func timelineFlag() *bool {
	return flag.Bool("timeline", false, "also dump the full autonomic event timeline")
}

func csvFlag() *string {
	return flag.String("csv", "", "also write the sampled series to this CSV file")
}

// withTimeline is the setup of an experiment whose output is its figure
// plus an optional event timeline.
func withTimeline(tasks int, run func(context.Context, experiments.Options) (*trace.Log, error)) func() runner {
	return func() runner {
		opts, timeline := common(tasks), timelineFlag()
		return func(ctx context.Context) error {
			log, err := run(ctx, opts())
			if err != nil {
				return err
			}
			dumpTimeline(*timeline, log)
			return nil
		}
	}
}

// figureOnly is the setup of an experiment whose only output is its figure.
func figureOnly(tasks int, run func(context.Context, experiments.Options) error) func() runner {
	return func() runner {
		opts := common(tasks)
		return func(ctx context.Context) error { return run(ctx, opts()) }
	}
}

func dumpTimeline(on bool, log *trace.Log) {
	if on {
		fmt.Println("\n--- event timeline ---")
		fmt.Print(log.Timeline())
	}
}

func writeCSV(path string, series ...*metrics.Series) error {
	if path == "" {
		return nil
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := trace.WriteSeriesCSV(f, series...); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Printf("series written to %s\n", path)
	return nil
}

func main() {
	name, args := "bsrun", os.Args[1:]
	var setup func() runner = application
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		name, args = args[0], args[1:]
		setup = nil
		for _, e := range registry {
			if e.name == name {
				setup = e.setup
			}
		}
		if setup == nil {
			fmt.Fprintf(os.Stderr, "bsrun: unknown experiment %q\n", name)
			usage()
			os.Exit(2)
		}
	}
	run := setup()
	timeout := flags.RegisterTimeout()
	flag.Usage = usage
	_ = flag.CommandLine.Parse(args) // ExitOnError

	ctx, cancel := flags.Context(*timeout)
	defer cancel()
	if err := run(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "%s: %v\n", name, err)
		cancel()
		os.Exit(1)
	}
}

func usage() {
	w := flag.CommandLine.Output()
	fmt.Fprintln(w, "usage: bsrun <experiment> [flags]   or   bsrun [-expr E] [-contract C] [flags]")
	fmt.Fprintln(w, "\nexperiments:")
	for _, e := range registry {
		fmt.Fprintf(w, "  %-14s %s\n", e.name, e.about)
	}
	fmt.Fprintln(w)
	flag.PrintDefaults()
}

// application is the expression mode: an arbitrary skeleton expression
// run under an SLA contract, printing its throughput curve.
func application() runner {
	expr := flag.String("expr", "farm(seq)", "skeleton expression")
	contractSpec := flag.String("contract", "throughput>=0.6", "SLA contract")
	scale := flag.Float64("scale", 200, "time scale: how many modelled seconds per wall-clock second")
	tasks := flag.Int("tasks", 150, "stream length")
	cores := flag.Int("cores", 12, "platform core count")
	work := flag.Duration("work", 5*time.Second, "per-task nominal service time (modelled)")
	interval := flag.Duration("interval", time.Second, "task inter-arrival period (modelled)")
	timeline := flag.Bool("timeline", false, "dump the autonomic event timeline")
	telemetry := flags.RegisterTelemetry()
	return func(ctx context.Context) error {
		c, err := contract.Parse(*contractSpec)
		if err != nil {
			return err
		}
		env := skel.Env{Clock: simclock.NewScaledReal(*scale)}

		farmCfg := core.FarmAppConfig{
			Env: env, Platform: grid.NewSMP(*cores), Tasks: *tasks,
			TaskWork: *work, SourceInterval: *interval, Contract: c,
			Period: 2 * time.Second,
		}
		var tr contract.ThroughputRange
		if got, ok := c.(contract.ThroughputRange); ok {
			tr = got
		}
		// In a pipe, -work sizes every farm stage; seq stages cost 200ms.
		streamCfg := core.StreamAppConfig{
			Env: env, Platform: grid.NewSMP(*cores), Tasks: *tasks,
			SourceInterval: *interval, Contract: tr, Period: 5 * time.Second,
			Stages: []core.StageSpec{
				{Kind: core.StageFarm, Work: *work, Workers: 3},
				{Kind: core.StageSeq, Work: 200 * time.Millisecond},
			},
		}

		app, err := core.BuildFromExpr(*expr, farmCfg, streamCfg)
		if err != nil {
			return err
		}
		if *telemetry != "" {
			srv, err := app.EnableTelemetry(*telemetry)
			if err != nil {
				return err
			}
			fmt.Printf("telemetry: serving on %s\n", srv.Addr())
		}
		fmt.Printf("running %s under contract %q (scale %gx, %d tasks)\n",
			*expr, c.Describe(), *scale, *tasks)
		res, err := app.RunContext(ctx)
		if err != nil {
			return err
		}
		var bands []float64
		if tr.Lo > 0 {
			bands = append(bands, tr.Lo)
			if tr.Bounded() {
				bands = append(bands, tr.Hi)
			}
		}
		fmt.Print(trace.RenderSeries(trace.PlotOptions{Width: 72, Height: 12, Bands: bands},
			res.Throughput))
		fmt.Printf("\ncompleted %d tasks in %v wall-clock; final throughput %.3f tasks/s, %d workers\n",
			res.Completed, res.Elapsed.Round(time.Millisecond), res.Final.Throughput, res.Final.ParDegree)
		dumpTimeline(*timeline, res.Log)
		return nil
	}
}
