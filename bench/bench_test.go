package main

import (
	"os"
	"testing"
	"time"

	"repro/internal/security"
)

// TestShortRuns runs every workload briefly, untraced and traced, and
// requires all of its checks to pass.
func TestShortRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	// The traced run writes its span files under the working directory.
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	for i := range specs {
		sp := &specs[i]
		for _, traced := range []bool{false, true} {
			o, err := runWorkload(sp, 7, 1, traced)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", sp.name, traced, err)
			}
			if !o.correct || o.failed != 0 || o.attempted == 0 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d problems=%v",
					sp.name, traced, o.correct, o.attempted, o.failed, o.problems)
			}
			names, got := e2eNames, o.e2e
			if traced {
				names, got = layerNames, o.layer
			}
			for _, name := range names {
				if _, ok := got[name]; !ok {
					t.Errorf("%s traced=%v: metric %s missing", sp.name, traced, name)
				}
			}
			for name, m := range o.e2e {
				if m.Value <= 0 {
					t.Errorf("%s traced=%v: %s = %v", sp.name, traced, name, m.Value)
				}
			}
		}
	}
}

// TestCheckerFlagsBadResults proves the result checks cannot pass
// vacuously: each kind of bad result stream is caught.
func TestCheckerFlagsBadResults(t *testing.T) {
	gen := newTaskGen(3, mixedSizes)
	result := func(id uint64) []byte { return gen.xf.apply(gen.payload(id)) }
	chk := newChecker(gen)
	for id := uint64(1); id <= 4; id++ {
		if !chk.result(id, result(id)) {
			t.Fatalf("task %d: a correct result was refused: %v", id, chk.errs)
		}
	}

	flipped := result(5)
	flipped[len(flipped)/2] ^= 0x01
	if chk.result(5, flipped) || chk.bad != 1 {
		t.Errorf("a result with one flipped body byte passed")
	}
	header := result(6)
	header[0] ^= 0x80
	if chk.result(6, header) || chk.bad != 2 {
		t.Errorf("a result with a flipped header byte passed")
	}
	if chk.result(7, result(8)) || chk.bad != 3 {
		t.Errorf("another task's result passed")
	}
	if chk.result(2, result(2)) || chk.dups != 1 {
		t.Errorf("a duplicated task id passed")
	}
	// Ids 1-8 were sent; 8 never came back.
	if got := chk.missing(8); got != 1 {
		t.Errorf("missing(8) = %d, want 1", got)
	}
	if got := chk.failed(8); got != 5 {
		t.Errorf("failed(8) = %d, want 5 (3 wrong, 1 duplicate, 1 missing)", got)
	}
}

func TestSecurityCheckFlagsLeaks(t *testing.T) {
	a := security.NewAuditor()
	a.RecordSend("w0", true, true)
	if err := checkSecurity(true, 1, a); err != nil {
		t.Fatalf("a sealed send was refused: %v", err)
	}
	a.RecordSend("w1", true, false)
	if err := checkSecurity(true, 2, a); err == nil {
		t.Errorf("an Auditor leak passed")
	}
	if err := securityVerdict(true, 3, 2, 2, 0); err == nil {
		t.Errorf("fewer audited sends than tasks passed")
	}
	if err := securityVerdict(true, 2, 2, 1, 0); err == nil {
		t.Errorf("an unsealed send on a secured workload passed")
	}
}

func TestLinkCheckFlagsLostViolations(t *testing.T) {
	ok := linkCounts{escalations: 5, handled: 5, delivered: 5, unique: 5}
	if err := ok.check(); err != nil {
		t.Fatalf("consistent counters were refused: %v", err)
	}
	for name, bad := range map[string]linkCounts{
		"parent handled fewer than escalated": {escalations: 5, handled: 4, delivered: 5, unique: 5},
		"delivered fewer than escalated":      {escalations: 5, handled: 5, delivered: 4, unique: 5},
		"unique causes fewer than delivered":  {escalations: 5, handled: 5, delivered: 5, unique: 4},
		"a reattach":                          {escalations: 5, handled: 5, delivered: 5, unique: 5, reattaches: 1},
		"nothing escalated":                   {},
	} {
		if err := bad.check(); err == nil {
			t.Errorf("%s passed", name)
		}
	}
}

func TestRemoteCheckFlagsLocalWork(t *testing.T) {
	if err := checkRemote(degree, 10, 10); err != nil {
		t.Fatalf("all-remote counters were refused: %v", err)
	}
	if err := checkRemote(degree-1, 10, 10); err == nil {
		t.Errorf("a loopback worker passed")
	}
	if err := checkRemote(degree, 9, 10); err == nil {
		t.Errorf("a task that never crossed the wire passed")
	}
}

func TestWindowedP99(t *testing.T) {
	// Twenty windows of minWindow samples each holding 0-99ns ten times
	// over (p99 98ns); a stall fills 30% of one window, 1.5% of all. The
	// windowed p99 is the quiet windows'.
	var ds []time.Duration
	for w := 0; w < 20; w++ {
		for i := 0; i < minWindow; i++ {
			d := time.Duration(i % 100)
			if w == 3 && i < 3*minWindow/10 {
				d = time.Second
			}
			ds = append(ds, d)
		}
	}
	if got := windowedP99(ds); got != 98 {
		t.Errorf("windowedP99 = %v, want 98ns", got)
	}
	if got := quantile(ds, 0.99); got != time.Second {
		t.Errorf("p99 over all samples = %v, want the stall's 1s", got)
	}
}
