package repro

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro/internal/trace"
)

func TestFacadeFarmApp(t *testing.T) {
	app, err := NewFarmApp(FarmAppConfig{
		Env:            NewEnv(1000),
		Platform:       NewSMP(8),
		Tasks:          20,
		TaskWork:       100 * time.Millisecond,
		SourceInterval: 50 * time.Millisecond,
		Contract:       MinThroughput(0.1),
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := app.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 20 {
		t.Fatalf("completed %d/20", res.Completed)
	}
	var sb strings.Builder
	RenderTimeline(&sb, res)
	if !strings.Contains(sb.String(), "newContract") {
		t.Fatalf("timeline missing contract installation:\n%s", sb.String())
	}
}

func TestFacadeContractHelpers(t *testing.T) {
	c, err := ParseContract("secure+throughput:0.3-0.7")
	if err != nil {
		t.Fatal(err)
	}
	if c.Describe() != "secure+throughput:0.3-0.7" {
		t.Fatalf("Describe = %q", c.Describe())
	}
	tr, err := NewThroughputRange(0.3, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Check(Snapshot{Throughput: 0.5}).OK() {
		t.Fatal("in-range snapshot violated")
	}
	if MinThroughput(0.6).Check(Snapshot{Throughput: 0.5}).OK() {
		t.Fatal("below-bound snapshot satisfied")
	}
}

func TestFacadeExprAndPlatforms(t *testing.T) {
	spec, err := ParseExpr("pipe(seq, farm(seq), seq)")
	if err != nil {
		t.Fatal(err)
	}
	if spec.Stages() != 3 {
		t.Fatalf("Stages = %d", spec.Stages())
	}
	if got := len(NewTwoDomainGrid(2, 3).RM.Nodes()); got != 5 {
		t.Fatalf("grid nodes = %d", got)
	}
	if !strings.Contains(FarmRuleSource, "CheckRateLow") {
		t.Fatal("FarmRuleSource not exported correctly")
	}
}

func TestFacadeCoordinationModes(t *testing.T) {
	for _, m := range []CoordinationMode{TwoPhase, Reactive, Unmanaged} {
		if m.String() == "" {
			t.Fatal("empty mode name")
		}
	}
}

func TestFacadeExperimentFunctions(t *testing.T) {
	// Smoke: the exported harness variables are callable with tiny runs.
	res, err := Fig3(context.Background(), ExperimentOptions{Scale: 1000, Tasks: 30})
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed != 30 {
		t.Fatalf("Fig3 completed %d/30", res.Completed)
	}
	rows, err := ContractSplit(context.Background(), ExperimentOptions{})
	if err != nil || len(rows) == 0 {
		t.Fatalf("ContractSplit = %v, %v", rows, err)
	}
}

func TestFacadeBuildFromExpr(t *testing.T) {
	env := NewEnv(1000)
	app, err := BuildFromExpr("farm(seq)",
		FarmAppConfig{Env: env, Platform: NewSMP(4), Tasks: 5, TaskWork: time.Millisecond},
		StreamAppConfig{})
	if err != nil {
		t.Fatal(err)
	}
	res, err := app.Run()
	if err != nil || res.Completed != 5 {
		t.Fatalf("run: %v, completed %d", err, res.Completed)
	}
	if res.Log.Count("AM_F", trace.NewContr) == 0 {
		t.Fatal("manager never received a contract")
	}
}
