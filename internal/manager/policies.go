package manager

import (
	"math"
	"time"

	"repro/internal/abc"
	"repro/internal/contract"
	"repro/internal/rules"
	"repro/internal/simclock"
	"repro/internal/trace"
)

// This file provides the standard manager policies of the paper's
// experiments: the farm manager AM_F (Fig. 5 rules parameterized by the
// contract), the producer manager AM_P (rate contracts applied to the
// source actuator) and passive stage managers. The application/pipeline
// manager AM_A that coordinates them hierarchically runs the pipe rule
// file (rulepipe.go).

// throughputBounds extracts the throughput range governing a contract
// (walking conjunctions); a contract with no throughput component yields
// [0, +Inf), which parameterizes the farm rules into best-effort behaviour.
func throughputBounds(c contract.Contract) (lo, hi float64) {
	switch c := c.(type) {
	case contract.ThroughputRange:
		return c.Lo, c.Hi
	case contract.Conjunction:
		for _, sub := range c {
			if tr, ok := sub.(contract.ThroughputRange); ok {
				return tr.Lo, tr.Hi
			}
		}
	}
	return 0, math.Inf(1)
}

// FarmLimits bounds the farm manager's reconfiguration space.
type FarmLimits struct {
	MinWorkers   int     // default 1
	MaxWorkers   int     // default 64
	MaxUnbalance float64 // queue-variance threshold for rebalance; default 4
}

func (l FarmLimits) normalized() FarmLimits {
	if l.MinWorkers < 1 {
		l.MinWorkers = 1
	}
	if l.MaxWorkers < l.MinWorkers {
		l.MaxWorkers = 64
		if l.MaxWorkers < l.MinWorkers {
			l.MaxWorkers = l.MinWorkers
		}
	}
	if l.MaxUnbalance <= 0 {
		l.MaxUnbalance = 4
	}
	return l
}

// NewFarmManager builds the AM of a task-farm behavioural skeleton: the
// Fig. 5 rule engine, re-parameterized from each assigned throughput
// contract, plus the best-effort farm split for its children.
func NewFarmManager(name string, a abc.Controller, log *trace.Log, clock simclock.Clock, period time.Duration, limits FarmLimits) (*Manager, error) {
	limits = limits.normalized()
	mkEngine := func(c contract.Contract) *rules.Engine {
		lo, hi := throughputBounds(c)
		return rules.NewFarmEngine(rules.FarmConstants(
			lo, hi, limits.MinWorkers, limits.MaxWorkers, limits.MaxUnbalance))
	}
	m, err := New(Config{
		Name:       name,
		Concern:    "performance",
		Clock:      clock,
		Period:     period,
		Controller: a,
		Engine:     mkEngine(contract.BestEffort{}),
		Log:        log,
		Policy: Policy{
			OnContract: func(m *Manager, c contract.Contract) {
				m.SetEngine(mkEngine(c))
			},
			Split: contract.SplitFarm,
		},
	})
	if err != nil {
		return nil, err
	}
	return m, nil
}

// NewSourceManager builds the AM of a producer stage (AM_P): it has no
// local rules. A pure rate demand (an unbounded lower-bound contract, the
// shape AM_A's incRate/decRate reactions send) is applied by retargeting
// the emission rate. A bounded range contract — the stage's share of the
// application SLA forwarded by the pipeline split — is only monitored: as
// in the paper, forwarding c_tRange does not by itself make the producer
// faster; only explicit rate contracts do.
func NewSourceManager(name string, a *abc.SourceABC, log *trace.Log, clock simclock.Clock, period time.Duration) (*Manager, error) {
	return New(Config{
		Name:       name,
		Concern:    "performance",
		Clock:      clock,
		Period:     period,
		Controller: a,
		Log:        log,
		Policy: Policy{
			OnContract: func(m *Manager, c contract.Contract) {
				if tr, ok := c.(contract.ThroughputRange); ok && tr.Lo > 0 && !tr.Bounded() {
					a.SetTargetRate(tr.Lo)
				}
			},
		},
	})
}

// NewMonitorManager builds a sensors-only AM for stages with no actuator
// surface (the consumer stage of Fig. 4, whose manager the paper calls
// AM_C).
func NewMonitorManager(name string, ctrl abc.Controller, log *trace.Log, clock simclock.Clock, period time.Duration) (*Manager, error) {
	return New(Config{
		Name:       name,
		Concern:    "performance",
		Clock:      clock,
		Period:     period,
		Controller: ctrl,
		Log:        log,
	})
}
