// Hierarchical runs the paper's Fig. 4 application: a three-stage pipeline
// pipe(producer, farm(filter), consumer) managed by a hierarchy of four
// autonomic managers (the consumer's monitor-only manager, the paper's
// AM_C, is AM_S1 here). The user hands the top manager AM_A a single SLA —
// "between 0.3 and 0.7 tasks/s" — and the hierarchy does the rest:
//
//   - AM_A splits the contract identically over the stage managers
//     (pipeline throughput is bounded by its slowest stage);
//   - the farm manager AM_F detects that the producer is too slow
//     (notEnough), cannot fix that locally, reports the violation and goes
//     passive;
//   - AM_A's pipe rules react with incRate contracts to the producer
//     manager AM_P;
//   - once input pressure suffices, AM_F re-activates and grows the farm
//     (addWorker) until the stripe is reached;
//   - at end of stream AM_A stops reacting and AM_F rebalances the queued
//     tasks.
//
// Run with:
//
//	go run ./examples/hierarchical [-tasks 150] [-scale 100] [-lo 0.3] [-hi 0.7]
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"repro"
	"repro/internal/trace"
)

func main() {
	tasks := flag.Int("tasks", 150, "stream length")
	scale := flag.Float64("scale", 100, "time scale")
	lo := flag.Float64("lo", 0.3, "contract lower bound (tasks/s)")
	hi := flag.Float64("hi", 0.7, "contract upper bound (tasks/s)")
	flag.Parse()

	ctr, err := repro.NewThroughputRange(*lo, *hi)
	if err != nil {
		log.Fatal(err)
	}
	app, err := repro.NewStreamApp(repro.StreamAppConfig{
		Name:           "hierarchical",
		Env:            repro.NewEnv(*scale),
		Platform:       repro.NewSMP(12),
		Tasks:          *tasks,
		SourceInterval: 5 * time.Second, // the producer: deliberately too slow at first
		Stages: []repro.StageSpec{
			{Name: "filter", Kind: repro.StageFarm, Work: 14 * time.Second, Workers: 3},
			{Name: "consumer", Kind: repro.StageSeq, Work: 200 * time.Millisecond},
		},
		Contract: ctr,
		Step:     1.5,
		Period:   time.Second,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("running pipe(producer, farm(filter), consumer) under %s...\n", ctr.Describe())
	res, err := app.Run()
	if err != nil {
		log.Fatal(err)
	}

	fmt.Print(trace.RenderSeries(trace.PlotOptions{
		Width: 72, Height: 12, Bands: []float64{*lo, *hi},
	}, res.Throughput, res.InputRate))
	fmt.Printf("\ncompleted %d tasks; resources %0.f -> %.0f cores\n",
		res.Completed, res.Cores.Points()[0].V, res.Cores.Max())
	fmt.Println("\nmanager hierarchy at work (collapsed event kinds):")
	for _, am := range []string{"AM_A", "AM_P", "AM_F", "AM_S1"} {
		fmt.Printf("  %-5s:", am)
		for _, k := range res.Log.KindSequence(am) {
			fmt.Printf(" %s", k)
		}
		fmt.Println()
	}
}
