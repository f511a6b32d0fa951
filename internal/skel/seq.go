package skel

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/grid"
	"repro/internal/metrics"
)

// Source is the stream generator — the Producer stage of the Fig. 4
// pipeline. It emits Total tasks separated by a settable inter-emission
// interval (modelled time). The SetInterval actuator is what the producer's
// manager drives when the application manager sends incRate / decRate
// contracts.
type Source struct {
	name  string
	env   Env
	total int
	make  func(i int) *Task

	mu       sync.Mutex
	interval time.Duration

	emitted *metrics.RateMeter
	done    atomic.Bool
	hooks   hooks
}

// NewSource builds a source emitting total tasks, one every interval of
// modelled time, built by mk (nil mk yields empty tasks with zero work).
func NewSource(name string, env Env, total int, interval time.Duration, mk func(i int) *Task) *Source {
	if total < 0 {
		panic("skel: negative task count")
	}
	if mk == nil {
		mk = func(i int) *Task { return &Task{ID: NextTaskID()} }
	}
	env = env.Modelled()
	return &Source{
		name:     name,
		env:      env,
		total:    total,
		make:     mk,
		interval: interval,
		emitted:  metrics.NewRateMeter(env.Clock, rateWindow),
	}
}

// rateWindow is the sliding window of every rate meter: 10 s of modelled
// time.
const rateWindow = 10 * time.Second

// Name implements Stage.
func (s *Source) Name() string { return s.name }

// SetInterval changes the inter-emission interval (modelled time). It is
// the producer's rate actuator. Non-positive intervals mean "as fast as
// possible".
func (s *Source) SetInterval(d time.Duration) {
	s.mu.Lock()
	s.interval = d
	s.mu.Unlock()
}

// Interval returns the current inter-emission interval.
func (s *Source) Interval() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.interval
}

// Emitted returns how many tasks have been emitted so far.
func (s *Source) Emitted() int {
	return int(s.emitted.Total())
}

// Done reports whether the source has emitted all its tasks — the
// endStream condition of Fig. 4.
func (s *Source) Done() bool { return s.done.Load() }

// Rate returns the current emission rate in tasks per modelled second.
func (s *Source) Rate() float64 {
	return s.emitted.Rate()
}

// OnEvent registers fn to be called on the source's end-of-stream edge
// (natural exhaustion or cancelation). It returns the unsubscribe
// function. fn must not block.
func (s *Source) OnEvent(fn func()) (cancel func()) { return s.hooks.subscribe(fn) }

// Run implements Stage. in is ignored (a source has no upstream) and may
// be nil. Canceling ctx stops the intake: emission ends early, the output
// closes, and the downstream stages drain what was already emitted.
//
// Emission is paced against absolute deadlines rather than relative
// sleeps: at high time scales the intervals are short enough in wall time
// that per-sleep overshoot would otherwise systematically deflate the
// emission rate the manager contracts for.
func (s *Source) Run(ctx context.Context, _ <-chan *Task, out chan<- *Task) {
	if ctx == nil {
		ctx = context.Background()
	}
	clock := s.env.Clock
	next := clock.Now()
emit:
	for i := 0; i < s.total; i++ {
		interval := s.Interval()
		next = next.Add(interval)
		now := clock.Now()
		if d := next.Sub(now); d > 0 {
			select {
			case <-ctx.Done():
				break emit
			case <-clock.After(d):
			}
		} else if -d > interval {
			// Far behind (e.g. the interval was just shortened): do not
			// burst the whole backlog, resynchronize instead.
			next = now
		}
		t := s.make(i)
		if t.ID == 0 {
			t.ID = NextTaskID()
		}
		t.Created = time.Now()
		select {
		case <-ctx.Done():
			break emit
		case out <- t:
		}
		s.emitted.Mark()
	}
	s.done.Store(true)
	close(out)
	s.hooks.fire()
}

// Seq is a sequential stage placed on a grid node: each task costs its
// nominal Work converted through the node's current effective speed, then
// flows through the stage function.
type Seq struct {
	name string
	env  Env
	fn   Fn
	node *grid.Node
	work time.Duration // per-task override; 0 means use Task.Work

	served *metrics.RateMeter
}

// NewSeq builds a sequential stage on the given node (which must be
// non-nil; the stage allocates one core slot for the duration of Run).
func NewSeq(name string, env Env, node *grid.Node, fn Fn) *Seq {
	if node == nil {
		panic(fmt.Sprintf("skel: stage %s needs a node", name))
	}
	env = env.Modelled()
	return &Seq{
		name:   name,
		env:    env,
		fn:     fn,
		node:   node,
		served: metrics.NewRateMeter(env.Clock, rateWindow),
	}
}

// Name implements Stage.
func (s *Seq) Name() string { return s.name }

// Node returns the stage's placement.
func (s *Seq) Node() *grid.Node { return s.node }

// WithWork makes every task cost d in this stage regardless of the task's
// own Work (multi-stage pipelines give each stage its own cost this way).
// It returns s for chaining and must be called before Run.
func (s *Seq) WithWork(d time.Duration) *Seq {
	s.work = d
	return s
}

// Rate returns the stage's service rate in tasks per modelled second.
func (s *Seq) Rate() float64 {
	return s.served.Rate()
}

// Served returns the number of tasks completed by the stage.
func (s *Seq) Served() uint64 { return s.served.Total() }

// Run implements Stage. A sequential stage drains on cancel: it keeps
// serving until its input closes (the Source upstream stops intake when
// ctx is canceled), so no accepted task is lost to a graceful shutdown.
func (s *Seq) Run(_ context.Context, in <-chan *Task, out chan<- *Task) {
	s.node.Allocate()
	defer s.node.Release()
	for t := range in {
		work := t.Work
		if s.work > 0 {
			work = s.work
		}
		s.env.Clock.Sleep(s.node.ServiceTime(work))
		out <- applyFn(s.fn, t)
		s.served.Mark()
	}
	close(out)
}

// Sink is the terminal stage — the Consumer of Fig. 4. It drains its input
// (optionally through fn for display-like work) and measures the completed
// throughput the application manager checks against the contract.
type Sink struct {
	name string
	fn   Fn

	rate  *metrics.RateMeter
	done  chan struct{}
	hooks hooks
}

// NewSink builds a sink.
func NewSink(name string, env Env, fn Fn) *Sink {
	return &Sink{
		name: name,
		fn:   fn,
		rate: metrics.NewRateMeter(env.Modelled().Clock, rateWindow),
		done: make(chan struct{}),
	}
}

// Name implements Stage.
func (s *Sink) Name() string { return s.name }

// Rate returns the completed-task rate in tasks per modelled second.
func (s *Sink) Rate() float64 {
	return s.rate.Rate()
}

// Consumed returns how many tasks reached the sink.
func (s *Sink) Consumed() int { return int(s.rate.Total()) }

// Done is closed once the whole stream has been consumed.
func (s *Sink) Done() <-chan struct{} { return s.done }

// OnEvent registers fn to be called on the sink's stream-complete edge.
// It returns the unsubscribe function. fn must not block.
func (s *Sink) OnEvent(fn func()) (cancel func()) { return s.hooks.subscribe(fn) }

// Run implements Stage. out may be nil; results are forwarded when it is
// not. The sink drains on cancel: it consumes until its input closes.
func (s *Sink) Run(_ context.Context, in <-chan *Task, out chan<- *Task) {
	for t := range in {
		t = applyFn(s.fn, t)
		s.rate.Mark()
		if out != nil {
			out <- t
		}
	}
	if out != nil {
		close(out)
	}
	close(s.done)
	s.hooks.fire()
}
