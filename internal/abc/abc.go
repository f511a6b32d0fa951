// Package abc implements the Autonomic Behaviour Controller of the GCM
// behavioural skeleton (Fig. 2, left): the passive part of autonomic
// management. It provides, for each skeleton kind, the monitoring side —
// sensor beans for the rule engine and contract snapshots for the analyse
// phase — and the actuator side — the mechanisms (add/remove executor,
// balance load, throttle emission, secure a binding) that the manager's
// policies invoke. Policies live in internal/manager; this package is
// mechanism only, which is exactly the policy/mechanism split the paper
// uses to solve P_rol.
package abc

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/contract"
	"repro/internal/metrics"
	"repro/internal/rules"
	"repro/internal/security"
	"repro/internal/skel"
)

// Monitor is the sensor side of an ABC.
type Monitor interface {
	// Beans publishes the current sensor readings as rule-engine facts.
	Beans() []rules.Bean
	// Snapshot publishes the current state in contract-checkable form.
	Snapshot() contract.Snapshot
}

// Controller is a full ABC: sensors plus a named actuator surface.
type Controller interface {
	Monitor
	// Execute performs the named mechanism (rules.Op* constants). The
	// detail string is returned for tracing.
	Execute(op string) (detail string, err error)
}

// ErrUnsupported is returned by Execute for operations the skeleton kind
// does not implement.
var ErrUnsupported = errors.New("abc: operation not supported by this skeleton")

// FarmABC is the ABC of a task-farm behavioural skeleton.
type FarmABC struct {
	farm    *skel.Farm
	auditor *security.Auditor
	prepare skel.PrepareFunc
	// actuator, when set, observes the wall-clock round-trip of every
	// Execute call (recruitment, handshake, rebalance — the full mechanism
	// latency a manager decision pays).
	actuator *metrics.Histogram
	// execFault, when non-nil, may veto an Execute call with an error —
	// the chaos plane's injection point for failing or slow actuators.
	// Execute is the control path, but the hook is nil-gated anyway.
	execFault atomic.Pointer[func(op string) error]
}

// SetExecuteFault installs (or, with nil, removes) a hook consulted at the
// top of every Execute call; a non-nil error from the hook fails the call.
func (a *FarmABC) SetExecuteFault(fn func(op string) error) {
	if fn == nil {
		a.execFault.Store(nil)
		return
	}
	a.execFault.Store(&fn)
}

// NewFarmABC wraps a farm. auditor may be nil when no security concern is
// active.
func NewFarmABC(farm *skel.Farm, auditor *security.Auditor) *FarmABC {
	return &FarmABC{farm: farm, auditor: auditor}
}

// SetPrepare installs the preparation hook run before every new worker
// becomes dispatchable (the two-phase protocol entry point; see
// internal/manager.GeneralManager).
func (a *FarmABC) SetPrepare(p skel.PrepareFunc) { a.prepare = p }

// Prepare returns the installed preparation hook (nil when uncoordinated),
// letting out-of-band recruitment paths — the fault-tolerance manager's
// recovery and replacement, the migration manager's moves — honor the same
// two-phase protocol as ADD_EXECUTOR.
func (a *FarmABC) Prepare() skel.PrepareFunc { return a.prepare }

// Farm returns the underlying skeleton.
func (a *FarmABC) Farm() *skel.Farm { return a.farm }

// Beans implements Monitor with the four sensors of the Fig. 5 rule file.
func (a *FarmABC) Beans() []rules.Bean {
	st := a.farm.Stats()
	return []rules.Bean{
		rules.NewBean(rules.BeanArrivalRate, rules.Num(st.ArrivalRate)),
		rules.NewBean(rules.BeanDepartureRate, rules.Num(st.DepartureRate)),
		rules.NewBean(rules.BeanNumWorker, rules.Num(float64(st.Workers))),
		rules.NewBean(rules.BeanQueueVariance, rules.Num(st.QueueVariance)),
	}
}

// Snapshot implements Monitor.
func (a *FarmABC) Snapshot() contract.Snapshot {
	st := a.farm.Stats()
	s := contract.Snapshot{
		Throughput:    st.DepartureRate,
		ArrivalRate:   st.ArrivalRate,
		ParDegree:     st.Workers,
		QueueVariance: st.QueueVariance,
		ErrorsDropped: st.ErrorsDropped,
		StreamDone:    st.InputDone,
	}
	if a.auditor != nil {
		s.UnsecuredSends = a.auditor.Leaks()
	}
	return s
}

// Stats exposes the raw farm statistics (used by experiment harnesses).
func (a *FarmABC) Stats() skel.FarmStats { return a.farm.Stats() }

// Workers exposes the worker pool (used by the security manager).
func (a *FarmABC) Workers() []skel.WorkerInfo { return a.farm.Workers() }

// SecureBinding rebinds one worker connection onto the given codec.
func (a *FarmABC) SecureBinding(workerID string, c security.Codec) error {
	return a.farm.SetCodec(workerID, c)
}

// SetActuatorHistogram attaches a latency histogram observing every
// Execute round-trip; nil disables observation (the default).
func (a *FarmABC) SetActuatorHistogram(h *metrics.Histogram) { a.actuator = h }

// ActuatorHistogram returns the attached actuator histogram (may be nil).
func (a *FarmABC) ActuatorHistogram() *metrics.Histogram { return a.actuator }

// Execute implements Controller.
func (a *FarmABC) Execute(op string) (string, error) {
	if a.actuator != nil {
		start := time.Now()
		defer func() { a.actuator.ObserveDuration(time.Since(start)) }()
	}
	if fp := a.execFault.Load(); fp != nil {
		if err := (*fp)(op); err != nil {
			return "", err
		}
	}
	switch op {
	case rules.OpAddExecutor:
		before := a.farm.Stats().Workers
		id, err := a.farm.AddWorker(a.prepare)
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("%s (%d->%d)", id, before, before+1), nil
	case rules.OpRemoveExecutor:
		before := a.farm.Stats().Workers
		id, err := a.farm.RemoveWorker()
		if err != nil {
			return "", err
		}
		return fmt.Sprintf("%s (%d->%d)", id, before, before-1), nil
	case rules.OpBalanceLoad:
		a.farm.Rebalance()
		return "queues rebalanced", nil
	default:
		return "", fmt.Errorf("%w: %s", ErrUnsupported, op)
	}
}

// SourceABC is the ABC of a stream source (the Producer stage of Fig. 4).
// Its actuator surface is the emission rate: the incRate / decRate
// contracts of the application manager change the inter-emission interval
// by a multiplicative step.
type SourceABC struct {
	src *skel.Source
	// Step is the multiplicative rate-adjustment factor (default 1.5).
	Step float64
	// MinInterval bounds how fast the source may be driven.
	MinInterval time.Duration
}

// NewSourceABC wraps a source.
func NewSourceABC(src *skel.Source) *SourceABC {
	return &SourceABC{src: src, Step: 1.5, MinInterval: time.Millisecond}
}

// Source returns the underlying stage.
func (a *SourceABC) Source() *skel.Source { return a.src }

// Beans implements Monitor.
func (a *SourceABC) Beans() []rules.Bean {
	doneVal := 0.0
	if a.src.Done() {
		doneVal = 1
	}
	return []rules.Bean{
		rules.NewBean("EmissionRateBean", rules.Num(a.src.Rate())),
		rules.NewBean("StreamDoneBean", rules.Num(doneVal)),
	}
}

// Snapshot implements Monitor: a source's "throughput" is its emission
// rate.
func (a *SourceABC) Snapshot() contract.Snapshot {
	return contract.Snapshot{Throughput: a.src.Rate(), ParDegree: 1, StreamDone: a.src.Done()}
}

// IncRate speeds the source up by one step and returns the new interval.
func (a *SourceABC) IncRate() time.Duration {
	cur := a.src.Interval()
	next := time.Duration(float64(cur) / a.step())
	if next < a.MinInterval {
		next = a.MinInterval
	}
	a.src.SetInterval(next)
	return next
}

// DecRate slows the source down by one step and returns the new interval.
func (a *SourceABC) DecRate() time.Duration {
	cur := a.src.Interval()
	if cur <= 0 {
		cur = a.MinInterval
	}
	next := time.Duration(float64(cur) * a.step())
	a.src.SetInterval(next)
	return next
}

// SetTargetRate sets the interval to hit the given emission rate in
// modelled tasks/second.
func (a *SourceABC) SetTargetRate(tasksPerSec float64) time.Duration {
	if tasksPerSec <= 0 {
		return a.src.Interval()
	}
	next := time.Duration(float64(time.Second) / tasksPerSec)
	if next < a.MinInterval {
		next = a.MinInterval
	}
	a.src.SetInterval(next)
	return next
}

func (a *SourceABC) step() float64 {
	if a.Step <= 1 {
		return 1.5
	}
	return a.Step
}

// Execute implements Controller. The rate operations are driven by
// contract messages rather than local rules, so the names are this
// package's own.
func (a *SourceABC) Execute(op string) (string, error) {
	switch op {
	case "INC_RATE":
		return fmt.Sprintf("interval->%v", a.IncRate()), nil
	case "DEC_RATE":
		return fmt.Sprintf("interval->%v", a.DecRate()), nil
	default:
		return "", fmt.Errorf("%w: %s", ErrUnsupported, op)
	}
}

// SeqABC is the ABC of a sequential stage: sensors only (its single
// actuator in the paper — turning the stage into a farm — is listed as
// future work in §4.2 and reproduced in the farm-of-stage example).
type SeqABC struct {
	seq *skel.Seq
}

// NewSeqABC wraps a sequential stage.
func NewSeqABC(seq *skel.Seq) *SeqABC { return &SeqABC{seq: seq} }

// Beans implements Monitor.
func (a *SeqABC) Beans() []rules.Bean {
	return []rules.Bean{
		rules.NewBean("ServiceRateBean", rules.Num(a.seq.Rate())),
	}
}

// Snapshot implements Monitor.
func (a *SeqABC) Snapshot() contract.Snapshot {
	return contract.Snapshot{Throughput: a.seq.Rate(), ParDegree: 1}
}

// Execute implements Controller.
func (a *SeqABC) Execute(op string) (string, error) {
	return "", fmt.Errorf("%w: %s", ErrUnsupported, op)
}

// SinkABC is the ABC of the terminal stage; its throughput is the
// application's completed-task rate.
type SinkABC struct {
	sink *skel.Sink
}

// NewSinkABC wraps a sink.
func NewSinkABC(sink *skel.Sink) *SinkABC { return &SinkABC{sink: sink} }

// Beans implements Monitor.
func (a *SinkABC) Beans() []rules.Bean {
	return []rules.Bean{
		rules.NewBean("ThroughputBean", rules.Num(a.sink.Rate())),
	}
}

// Snapshot implements Monitor.
func (a *SinkABC) Snapshot() contract.Snapshot {
	return contract.Snapshot{Throughput: a.sink.Rate(), ParDegree: 1}
}

// Execute implements Controller.
func (a *SinkABC) Execute(op string) (string, error) {
	return "", fmt.Errorf("%w: %s", ErrUnsupported, op)
}

// PipeABC is the ABC of a pipeline composite: its contract snapshot is
// taken at the downstream end (the pipeline delivers what its last stage
// delivers) and its input pressure at the upstream end.
type PipeABC struct {
	head Monitor
	tail Monitor
}

// NewPipeABC builds a pipeline ABC from the monitors of its first and last
// stages.
func NewPipeABC(head, tail Monitor) *PipeABC {
	return &PipeABC{head: head, tail: tail}
}

// Beans implements Monitor by merging head and tail sensors.
func (a *PipeABC) Beans() []rules.Bean {
	var out []rules.Bean
	if a.head != nil {
		out = append(out, a.head.Beans()...)
	}
	if a.tail != nil && a.tail != a.head {
		out = append(out, a.tail.Beans()...)
	}
	return out
}

// Snapshot implements Monitor.
func (a *PipeABC) Snapshot() contract.Snapshot {
	var s contract.Snapshot
	if a.tail != nil {
		s = a.tail.Snapshot()
	}
	if a.head != nil {
		hs := a.head.Snapshot()
		s.ArrivalRate = hs.Throughput
		s.StreamDone = hs.StreamDone
	}
	return s
}

// Execute implements Controller.
func (a *PipeABC) Execute(op string) (string, error) {
	return "", fmt.Errorf("%w: %s", ErrUnsupported, op)
}
