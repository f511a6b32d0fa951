package trace

import (
	"bytes"
	"fmt"
	"testing"
)

// ringOf returns a ring of the given limit after adding 1..adds.
func ringOf(limit, adds int) *Ring[int] {
	r := NewRing[int](limit)
	for i := 1; i <= adds; i++ {
		r.Add(i)
	}
	return r
}

func TestRingRetention(t *testing.T) {
	for _, c := range []struct {
		name                string
		limit, adds         int
		want                []int
		wantTotal, wantDrop uint64
	}{
		{"empty", 3, 0, []int{}, 0, 0},
		{"below limit", 3, 2, []int{1, 2}, 2, 0},
		{"exactly full", 3, 3, []int{1, 2, 3}, 3, 0},
		{"wrapped once", 3, 5, []int{3, 4, 5}, 5, 2},
		{"wrapped to head 0", 3, 6, []int{4, 5, 6}, 6, 3},
		{"wrapped many times", 3, 10, []int{8, 9, 10}, 10, 7},
		{"limit 1", 1, 4, []int{4}, 4, 3},
		{"unbounded", 0, 2000, nil, 2000, 0},
		{"negative limit is unbounded", -1, 5, []int{1, 2, 3, 4, 5}, 5, 0},
	} {
		t.Run(c.name, func(t *testing.T) {
			r := ringOf(c.limit, c.adds)
			want := c.want
			if want == nil {
				for i := 1; i <= c.adds; i++ {
					want = append(want, i)
				}
			}
			if got := r.Last(0); fmt.Sprint(got) != fmt.Sprint(want) {
				t.Errorf("Last(0) = %v, want %v", got, want)
			}
			if r.Len() != len(want) || r.Total() != c.wantTotal || r.Dropped() != c.wantDrop {
				t.Errorf("len/total/dropped = %d/%d/%d, want %d/%d/%d",
					r.Len(), r.Total(), r.Dropped(), len(want), c.wantTotal, c.wantDrop)
			}
		})
	}
}

func TestRingLast(t *testing.T) {
	r := ringOf(4, 6) // holds 3 4 5 6, wrapped
	for _, c := range []struct {
		n    int
		want string
	}{
		{-1, "[3 4 5 6]"},
		{0, "[3 4 5 6]"},
		{1, "[6]"},
		{3, "[4 5 6]"},
		{4, "[3 4 5 6]"},
		{9, "[3 4 5 6]"},
	} {
		if got := fmt.Sprint(r.Last(c.n)); got != c.want {
			t.Errorf("Last(%d) = %s, want %s", c.n, got, c.want)
		}
	}
	if got := NewRing[int](4).Last(2); got == nil || len(got) != 0 {
		t.Errorf("Last on an empty ring = %#v, want an empty non-nil slice", got)
	}
	// Last copies: editing the result leaves the ring alone.
	out := r.Last(1)
	out[0] = 99
	if got := fmt.Sprint(r.Last(1)); got != "[6]" {
		t.Errorf("Last aliases the ring: %s", got)
	}
}

func TestRingFilter(t *testing.T) {
	r := ringOf(5, 8) // holds 4..8, wrapped
	even := r.Filter(func(v *int) bool { return *v%2 == 0 })
	if got := fmt.Sprint(even); got != "[4 6 8]" {
		t.Errorf("Filter(even) = %s, want oldest first [4 6 8]", got)
	}
	if none := r.Filter(func(*int) bool { return false }); none != nil {
		t.Errorf("Filter with no match = %v, want nil", none)
	}
}

func TestRingNewest(t *testing.T) {
	r := ringOf(5, 8) // holds 4..8, wrapped
	var seen []int
	r.Newest(func(v *int) bool {
		seen = append(seen, *v)
		*v *= 10 // edits land in place
		return len(seen) < 3
	})
	if got := fmt.Sprint(seen); got != "[8 7 6]" {
		t.Errorf("Newest visited %s, want newest first, stopping after 3: [8 7 6]", got)
	}
	if got := fmt.Sprint(r.Last(0)); got != "[4 5 60 70 80]" {
		t.Errorf("after Newest edits: %s, want [4 5 60 70 80]", got)
	}
	visits := 0
	r.Newest(func(*int) bool { visits++; return true })
	if visits != 5 {
		t.Errorf("Newest without an early stop visited %d records, want 5", visits)
	}
}

func TestWriteJSONL(t *testing.T) {
	var buf bytes.Buffer
	type rec struct {
		K string `json:"k"`
	}
	if err := WriteJSONL(&buf, []rec{{"a"}, {"b"}}); err != nil {
		t.Fatal(err)
	}
	if got, want := buf.String(), "{\"k\":\"a\"}\n{\"k\":\"b\"}\n"; got != want {
		t.Errorf("WriteJSONL = %q, want %q", got, want)
	}
}
