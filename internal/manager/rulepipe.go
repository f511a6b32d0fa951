package manager

import (
	"fmt"
	"math"
	"sync"
	"time"

	"repro/internal/abc"
	"repro/internal/contract"
	"repro/internal/rules"
	"repro/internal/simclock"
	"repro/internal/trace"
)

// This file implements the application manager AM_A of every pipeline:
// its reaction policy is stored as rules (§4.2: "the policies are stored as
// JBoss rules"). Child violations are published into the rule engine's
// working memory as ViolationBeans and the PipeRuleSource rules decide the
// reaction. The actuator side (computing the new producer rate and
// assigning the contract) stays a mechanism, implemented by the controller
// below — exactly the policy/mechanism split of P_rol.

// ruleCoordinator wraps a pipeline monitor into a Controller that (a)
// publishes pending child violations as beans and (b) implements the
// incRate/decRate/endStream operations fired by the pipeline rules.
type ruleCoordinator struct {
	mon      abc.Monitor
	producer *Manager
	step     float64
	cap      float64
	floor    float64

	mu        sync.Mutex
	pending   []Violation
	last      Violation // violation that produced the current cycle's beans
	requested float64
	ended     bool
}

func (c *ruleCoordinator) enqueue(_ *Manager, v Violation) {
	c.mu.Lock()
	c.pending = append(c.pending, v)
	c.mu.Unlock()
}

// Beans implements abc.Monitor: the pipeline sensors plus one
// ViolationBean per pending child report. No notEnough report is
// published after the first one that saw the stream end: from then on
// AM_A "stops reacting to notEnough events since it cannot take any
// significant action", so endStream fires exactly once.
func (c *ruleCoordinator) Beans() []rules.Bean {
	out := c.mon.Beans()
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, v := range c.pending {
		done := 0.0
		if v.Tag == rules.TagNotEnoughTasks {
			if c.ended {
				continue
			}
			if v.Snapshot.StreamDone {
				done = 1
				c.ended = true
			}
		}
		b := rules.NewBean(rules.BeanViolation, rules.Num(0)).
			Set("tag", rules.Str(v.Tag)).
			Set("arrival", rules.Num(v.Snapshot.ArrivalRate)).
			Set("done", rules.Num(done))
		out = append(out, b)
		c.last = v
	}
	c.pending = nil
	return out
}

// Snapshot implements abc.Monitor.
func (c *ruleCoordinator) Snapshot() contract.Snapshot { return c.mon.Snapshot() }

// Execute implements abc.Controller: the mechanisms behind the pipeline
// rules' operations.
func (c *ruleCoordinator) Execute(op string) (string, error) {
	c.mu.Lock()
	v := c.last
	c.mu.Unlock()
	switch op {
	case rules.OpIncRate:
		c.mu.Lock()
		// The producer's own rate is part of the base: at the first
		// notEnough the farm's rate meter can still read ~0 and nothing has
		// been requested yet, and incRate must never slow the producer.
		base := math.Max(math.Max(v.Snapshot.ArrivalRate, c.requested), math.Max(c.floor, c.producerRate()))
		c.requested = base * c.step
		if c.cap > 0 && c.requested > c.cap {
			c.requested = c.cap
		}
		target := c.requested
		c.mu.Unlock()
		if c.producer != nil {
			if err := c.producer.AssignContract(contract.MinThroughput(target)); err != nil {
				return "", err
			}
		}
		return fmt.Sprintf("rate->%.3f", target), nil
	case rules.OpDecRate:
		c.mu.Lock()
		base := math.Max(v.Snapshot.ArrivalRate, c.requested)
		c.requested = base / c.step
		target := c.requested
		c.mu.Unlock()
		if c.producer != nil {
			if err := c.producer.AssignContract(contract.MinThroughput(target)); err != nil {
				return "", err
			}
		}
		return fmt.Sprintf("rate->%.3f", target), nil
	case rules.OpEndStream:
		return "input stream exhausted", nil
	default:
		return "", fmt.Errorf("%w: %s", abc.ErrUnsupported, op)
	}
}

// producerRate is the producer's nominal emission rate, one second over
// its source's current interval; 0 when the producer is not a source.
func (c *ruleCoordinator) producerRate() float64 {
	if c.producer == nil {
		return 0
	}
	sa, ok := c.producer.Controller().(*abc.SourceABC)
	if !ok {
		return 0
	}
	iv := sa.Source().Interval()
	if iv <= 0 {
		return 0
	}
	return float64(time.Second) / float64(iv)
}

// NewRuleDrivenPipelineManager builds the application manager AM_A over a
// pipeline monitor, with its reaction policy stored as rules
// (PipeRuleSource): it splits its contract identically over the stage
// managers (pipeline performance model) and answers a child's notEnough
// with incRate and tooMuch with decRate on the producer's rate contract.
// step is the multiplicative rate factor (default 1.3); cap bounds the
// requested rate (0 = uncapped). Attach the stage managers with
// AttachChild before assigning the top-level contract.
func NewRuleDrivenPipelineManager(name string, mon abc.Monitor, producer *Manager, step, cap float64, log *trace.Log, clock simclock.Clock, period time.Duration) (*Manager, error) {
	if step <= 1 {
		step = 1.3
	}
	coord := &ruleCoordinator{
		mon:      mon,
		producer: producer,
		step:     step,
		cap:      cap,
		floor:    0.05,
	}
	return New(Config{
		Name:       name,
		Concern:    "performance",
		Clock:      clock,
		Period:     period,
		Controller: coord,
		Engine:     rules.NewPipeEngine(),
		Log:        log,
		Policy: Policy{
			OnChildViolation: coord.enqueue,
			Split: func(c contract.Contract, n int) ([]contract.Contract, error) {
				return contract.SplitPipeline(c, n, nil)
			},
		},
	})
}
