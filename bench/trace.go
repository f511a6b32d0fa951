package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/abc"
	"repro/internal/contract"
	"repro/internal/manager"
	"repro/internal/rules"
	"repro/internal/security"
	"repro/internal/skel"
	"repro/internal/telemetry"
)

// span is one timed call the benchmark made into a layer. Spans of one task
// share the task id as ID; spans of one driven MAPE cycle share the cycle
// number. Parent is the Seq of the enclosing span (0 for a root).
type span struct {
	Name   string `json:"name"`
	ID     uint64 `json:"id"`
	Seq    uint64 `json:"span"`
	Parent uint64 `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// recorder keeps the traced run's spans in memory until the run ends. Its
// capacity is fixed up front from the traced task budget; spans beyond it
// are counted, not kept.
type recorder struct {
	base time.Time
	seq  atomic.Uint64

	// cycle and open name the driven MAPE cycle in flight and the span its
	// nested calls belong under. Only the cycle-driving goroutine sets them,
	// and the decorated controller and transport are called synchronously
	// from that goroutine.
	cycle atomic.Uint64
	open  atomic.Uint64

	batches atomic.Uint64 // ids of ExecBatch spans

	mu      sync.Mutex
	spans   []span
	dropped uint64
}

func newRecorder(capacity int) *recorder {
	return &recorder{base: time.Now(), spans: make([]span, 0, capacity)}
}

// next allocates a span sequence number.
func (r *recorder) next() uint64 { return r.seq.Add(1) }

func (r *recorder) add(name string, id, seq, parent uint64, start, end time.Time) {
	s := span{Name: name, ID: id, Seq: seq, Parent: parent,
		Start: int64(start.Sub(r.base)), End: int64(end.Sub(r.base))}
	r.mu.Lock()
	if len(r.spans) < cap(r.spans) {
		r.spans = append(r.spans, s)
	} else {
		r.dropped++
	}
	r.mu.Unlock()
}

// nested records a span for a call made inside the open cycle span.
func (r *recorder) nested(name string, start time.Time) {
	r.add(name, r.cycle.Load(), r.next(), r.open.Load(), start, time.Now())
}

// durations returns the durations of the spans with the given name that
// started at or after from.
func (r *recorder) durations(name string, from time.Time) []time.Duration {
	since := int64(from.Sub(r.base))
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []time.Duration
	for _, s := range r.spans {
		if s.Name == name && s.Start >= since {
			out = append(out, s.dur())
		}
	}
	return out
}

// selfTimes returns, per span name, the self time of each span: its
// duration minus the part of its interval that its child spans cover.
func (r *recorder) selfTimes() map[string][]time.Duration {
	r.mu.Lock()
	defer r.mu.Unlock()
	children := map[uint64][]span{}
	for _, s := range r.spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string][]time.Duration{}
	for _, s := range r.spans {
		out[s.Name] = append(out[s.Name], s.dur()-covered(s, children[s.Seq]))
	}
	return out
}

// covered is the length of the union of the kids' intervals, clipped to
// the parent's.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
	var total int64
	curS, curE := int64(-1), int64(-1)
	for _, k := range kids {
		s, e := max(k.Start, parent.Start), min(k.End, parent.End)
		if e <= s {
			continue
		}
		if s > curE {
			total += curE - curS
			curS, curE = s, e
		} else if e > curE {
			curE = e
		}
	}
	total += curE - curS
	return time.Duration(total)
}

// writeJSONL writes every kept span, one JSON object per line.
func (r *recorder) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, s := range r.spans {
		if err = enc.Encode(s); err != nil {
			break
		}
	}
	r.mu.Unlock()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// timedExecutor wraps the transport session the wire factory returns. It
// forwards Exec, ExecBatch, Rekey and Close unchanged, so the farm takes
// the same batch path and the session sees its own epoch codecs.
type timedExecutor struct {
	inner skel.Executor
	rec   *recorder
}

func (e *timedExecutor) Exec(tc telemetry.TraceContext, taskID uint64, work time.Duration, codec security.Codec, sealed []byte) ([]byte, int64, error) {
	start := time.Now()
	res, n, err := e.inner.Exec(tc, taskID, work, codec, sealed)
	e.rec.add("wire.exec", taskID, e.rec.next(), 0, start, time.Now())
	return res, n, err
}

func (e *timedExecutor) ExecBatch(codec security.Codec, sealed []byte) ([]byte, int64, error) {
	be, ok := e.inner.(skel.BatchExecutor)
	if !ok {
		return nil, 0, errors.New("bench: session has no batch frame")
	}
	start := time.Now()
	res, n, err := be.ExecBatch(codec, sealed)
	e.rec.add("wire.exec_batch", e.rec.batches.Add(1), e.rec.next(), 0, start, time.Now())
	return res, n, err
}

func (e *timedExecutor) Rekey(c security.Codec) (security.Codec, error) {
	start := time.Now()
	wrapped, err := e.inner.Rekey(c)
	e.rec.add("wire.rekey", 0, e.rec.next(), 0, start, time.Now())
	return wrapped, err
}

func (e *timedExecutor) Close() error { return e.inner.Close() }

// timedController wraps the farm's ABC: sensing and actuation calls the
// manager makes become spans nested in the driven cycle.
type timedController struct {
	inner *abc.FarmABC
	rec   *recorder
}

func (c *timedController) Beans() []rules.Bean {
	start := time.Now()
	b := c.inner.Beans()
	c.rec.nested("abc.beans", start)
	return b
}

func (c *timedController) Snapshot() contract.Snapshot {
	start := time.Now()
	s := c.inner.Snapshot()
	c.rec.nested("abc.snapshot", start)
	return s
}

func (c *timedController) Execute(op string) (string, error) {
	start := time.Now()
	d, err := c.inner.Execute(op)
	c.rec.nested("abc.execute", start)
	return d, err
}

// timedTransport wraps the management-plane transport of the remote link.
func timedTransport(t manager.MgmtTransport, rec *recorder) manager.MgmtTransport {
	return func(req []byte) ([]byte, error) {
		start := time.Now()
		rep, err := t(req)
		rec.nested("wire.mgmt", start)
		return rep, err
	}
}
