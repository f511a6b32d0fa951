package trace

import (
	"encoding/json"
	"io"
)

// Ring is the bounded record store behind every record kind the managers
// keep: autonomic events (Log), decision records (telemetry.Tracer) and
// task spans (telemetry.SpanRing). Once it holds limit records, each Add
// overwrites the oldest one and counts it as dropped; limit 0 keeps every
// record. Ring is not synchronised: its owner guards it with its own lock,
// so side state (kind counts, per-manager last records) changes in the
// same critical section as the record itself.
type Ring[T any] struct {
	buf   []T
	head  int    // index of the oldest record; non-zero only once full
	limit int    // 0 = unbounded
	total uint64 // records ever added
}

// NewRing returns an empty ring keeping the newest limit records (every
// record when limit <= 0).
func NewRing[T any](limit int) *Ring[T] {
	return &Ring[T]{limit: max(limit, 0)}
}

// Add appends v, overwriting the oldest record when the ring is full.
func (r *Ring[T]) Add(v T) {
	r.total++
	if r.limit == 0 || len(r.buf) < r.limit {
		r.buf = append(r.buf, v)
		return
	}
	r.buf[r.head] = v
	if r.head++; r.head == r.limit {
		r.head = 0
	}
}

// Len returns how many records the ring holds.
func (r *Ring[T]) Len() int { return len(r.buf) }

// Total returns how many records were ever added.
func (r *Ring[T]) Total() uint64 { return r.total }

// Dropped returns how many records were overwritten.
func (r *Ring[T]) Dropped() uint64 { return r.total - uint64(len(r.buf)) }

// at returns the i-th oldest retained record, in place.
func (r *Ring[T]) at(i int) *T {
	if i += r.head; i >= len(r.buf) {
		i -= len(r.buf)
	}
	return &r.buf[i]
}

// Last returns a copy of the newest n records, oldest first (all of them
// when n <= 0 or n exceeds Len).
func (r *Ring[T]) Last(n int) []T {
	size := len(r.buf)
	if n <= 0 || n > size {
		n = size
	}
	out := make([]T, n)
	for i := range out {
		out[i] = *r.at(size - n + i)
	}
	return out
}

// Filter returns copies of the records keep accepts, oldest first (nil
// when none does).
func (r *Ring[T]) Filter(keep func(*T) bool) []T {
	var out []T
	for i := range r.buf {
		if rec := r.at(i); keep(rec) {
			out = append(out, *rec)
		}
	}
	return out
}

// Newest calls visit on each record in place, newest first, until visit
// returns false or the records run out. visit may edit the record.
func (r *Ring[T]) Newest(visit func(*T) bool) {
	for i := len(r.buf) - 1; i >= 0; i-- {
		if !visit(r.at(i)) {
			return
		}
	}
}

// WriteJSONL writes recs as one JSON object per line.
func WriteJSONL[T any](w io.Writer, recs []T) error {
	enc := json.NewEncoder(w)
	for i := range recs {
		if err := enc.Encode(recs[i]); err != nil {
			return err
		}
	}
	return nil
}
