package skel

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/grid"
)

// Map is the data-parallel face of functional replication: each incoming
// task's payload is scattered into chunks, the chunks are processed in
// parallel on recruited nodes, and the partial results are gathered back
// (or reduced) into a single output task. It models the "data parallel
// computation" variant of §3 with scatter dispatch and gather/reduce
// collection.
type Map struct {
	name string
	cfg  MapConfig
}

// ChunkFn transforms one payload chunk.
type ChunkFn func(chunk []byte) []byte

// ReduceFn folds two partial results (must be associative).
type ReduceFn func(a, b []byte) []byte

// MapConfig parameterizes a Map skeleton.
type MapConfig struct {
	Env Env
	// Degree is the number of parallel chunk executors (default 2).
	Degree int
	// RM supplies placements; Recruit constrains them.
	RM      *grid.ResourceManager
	Recruit grid.Request
	// Chunk is applied to every scattered chunk; nil is identity.
	Chunk ChunkFn
	// Reduce, when non-nil, folds the gathered chunks into one payload;
	// otherwise the chunks are concatenated in order (plain gather).
	Reduce ReduceFn
	// ChunkWork is the nominal per-chunk service time.
	ChunkWork time.Duration
}

// NewMap validates cfg and builds the skeleton.
func NewMap(name string, cfg MapConfig) (*Map, error) {
	if cfg.RM == nil {
		return nil, errors.New("skel: map needs a resource manager")
	}
	if cfg.Degree <= 0 {
		cfg.Degree = 2
	}
	cfg.Env = cfg.Env.Modelled()
	return &Map{name: name, cfg: cfg}, nil
}

// Name implements Stage.
func (m *Map) Name() string { return m.name }

// Run implements Stage. A map stage drains on cancel: it keeps applying
// until its input closes.
func (m *Map) Run(_ context.Context, in <-chan *Task, out chan<- *Task) {
	for t := range in {
		res, err := m.Apply(t)
		if err != nil {
			// A map with no recruitable resources degrades to sequential
			// execution on the calling goroutine.
			res = m.sequential(t)
		}
		out <- res
	}
	close(out)
}

// Apply runs one task through the scatter/compute/gather cycle.
func (m *Map) Apply(t *Task) (*Task, error) {
	chunks := Scatter(t.Payload, m.cfg.Degree)
	nodes := make([]*grid.Node, len(chunks))
	for i := range chunks {
		n, err := m.cfg.RM.Recruit(m.cfg.Recruit)
		if err != nil {
			for _, prev := range nodes[:i] {
				prev.Release()
			}
			return nil, fmt.Errorf("skel: map %s: %w", m.name, err)
		}
		nodes[i] = n
	}
	results := make([][]byte, len(chunks))
	var wg sync.WaitGroup
	for i, chunk := range chunks {
		wg.Add(1)
		go func(i int, chunk []byte) {
			defer wg.Done()
			defer nodes[i].Release()
			m.cfg.Env.Clock.Sleep(nodes[i].ServiceTime(m.cfg.ChunkWork))
			if m.cfg.Chunk != nil {
				chunk = m.cfg.Chunk(chunk)
			}
			results[i] = chunk
		}(i, chunk)
	}
	wg.Wait()
	return m.gather(t, results), nil
}

func (m *Map) sequential(t *Task) *Task {
	chunks := Scatter(t.Payload, m.cfg.Degree)
	results := make([][]byte, len(chunks))
	for i, chunk := range chunks {
		m.cfg.Env.Clock.Sleep(m.cfg.ChunkWork)
		if m.cfg.Chunk != nil {
			chunk = m.cfg.Chunk(chunk)
		}
		results[i] = chunk
	}
	return m.gather(t, results)
}

func (m *Map) gather(t *Task, results [][]byte) *Task {
	out := &Task{ID: t.ID, Work: t.Work, Created: t.Created}
	if m.cfg.Reduce != nil && len(results) > 0 {
		acc := results[0]
		for _, r := range results[1:] {
			acc = m.cfg.Reduce(acc, r)
		}
		out.Payload = acc
		return out
	}
	return out.withGathered(results)
}

func (t *Task) withGathered(results [][]byte) *Task {
	total := 0
	for _, r := range results {
		total += len(r)
	}
	t.Payload = make([]byte, 0, total)
	for _, r := range results {
		t.Payload = append(t.Payload, r...)
	}
	return t
}

// Scatter splits payload into at most parts contiguous chunks of balanced
// size (the scatter dispatch of functional replication). Fewer chunks are
// returned when the payload is shorter than parts; an empty payload yields
// one empty chunk.
func Scatter(payload []byte, parts int) [][]byte {
	if parts <= 0 {
		parts = 1
	}
	if len(payload) == 0 {
		return [][]byte{nil}
	}
	if parts > len(payload) {
		parts = len(payload)
	}
	chunks := make([][]byte, 0, parts)
	base := len(payload) / parts
	extra := len(payload) % parts
	off := 0
	for i := 0; i < parts; i++ {
		size := base
		if i < extra {
			size++
		}
		chunks = append(chunks, payload[off:off+size])
		off += size
	}
	return chunks
}
