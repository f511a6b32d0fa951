package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
)

// headerLen is the task-id header every payload starts with: it makes each
// payload unique to its task, so a result delivered for the wrong task or
// twice cannot pass the payload check.
const headerLen = 8

// bodiesPerClass is how many distinct seeded bodies each payload size has.
const bodiesPerClass = 64

// sizeClass is one payload size of a workload's mix and its share in
// percent.
type sizeClass struct {
	size    int
	percent int
}

// mixedSizes is the data-plane payload mix: mostly 256 B with a share of
// 4 KiB and 16 KiB, so the seal cost has a tail the way real task streams do.
var mixedSizes = []sizeClass{{256, 90}, {4096, 8}, {16384, 2}}

// smallSizes is the managed-reconfig mix: 256 B only.
var smallSizes = []sizeClass{{256, 100}}

// mix64 is the splitmix64 finalizer: a seeded, well-spread hash of the
// task id picks each task's size class and body.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// fill writes a seeded byte stream into b.
func fill(b []byte, seed uint64) {
	for i := 0; i < len(b); i += 8 {
		seed = mix64(seed)
		var w [8]byte
		binary.LittleEndian.PutUint64(w[:], seed)
		copy(b[i:], w[:])
	}
}

// transform is the worker function of every workload: a keyed byte
// permutation. Byte j of the result is input byte perm[j] XOR key[j]; the
// permutation keeps the id header in place and shuffles the body. Loopback
// workers run it as skel.FarmConfig.Fn, wire servers as ServerConfig.Fn.
type transform struct {
	key   []byte
	perms map[int][]int32
}

func newTransform(seed uint64, sizes []sizeClass) *transform {
	maxSize := 0
	for _, c := range sizes {
		maxSize = max(maxSize, c.size)
	}
	x := &transform{key: make([]byte, maxSize), perms: map[int][]int32{}}
	fill(x.key, seed^0x5eed)
	for _, c := range sizes {
		perm := make([]int32, c.size)
		for j := range perm {
			perm[j] = int32(j)
		}
		// Fisher-Yates over the body only: the header stays put.
		h := seed ^ uint64(c.size)
		for j := c.size - 1; j > headerLen; j-- {
			h = mix64(h)
			k := headerLen + int(h%uint64(j-headerLen+1))
			perm[j], perm[k] = perm[k], perm[j]
		}
		x.perms[c.size] = perm
	}
	return x
}

// apply returns the transformed copy of in. A length outside the mix gets
// the key XOR alone, so a truncated payload still yields a checkable (and
// wrong) result instead of a crash.
func (x *transform) apply(in []byte) []byte {
	out := make([]byte, len(in))
	perm := x.perms[len(in)]
	for j := range out {
		src := j
		if perm != nil {
			src = int(perm[j])
		}
		k := byte(0)
		if j < len(x.key) {
			k = x.key[j]
		}
		out[j] = in[src] ^ k
	}
	return out
}

// taskGen derives every task's payload from the workload seed and the task
// id, and the checker's expected results from the same two numbers: the
// program under test only ever sees the generated payloads.
type taskGen struct {
	seed  uint64
	sizes []sizeClass
	xf    *transform
	// bodies[c][b] is body b of size class c; expected[c][b] is its
	// transform, computed once by the checker's side.
	bodies   [][][]byte
	expected [][][]byte
}

func newTaskGen(seed uint64, sizes []sizeClass) *taskGen {
	g := &taskGen{seed: seed, sizes: sizes, xf: newTransform(seed, sizes)}
	for c, sc := range sizes {
		var bodies, expected [][]byte
		for b := 0; b < bodiesPerClass; b++ {
			body := make([]byte, sc.size)
			fill(body, seed^uint64(c)<<32^uint64(b))
			bodies = append(bodies, body)
			expected = append(expected, g.xf.apply(body))
		}
		g.bodies = append(g.bodies, bodies)
		g.expected = append(g.expected, expected)
	}
	return g
}

// pick returns the size class and body index of task id.
func (g *taskGen) pick(id uint64) (class, body int) {
	h := mix64(g.seed ^ id*0x9e3779b97f4a7c15)
	pct := int(h % 100)
	for c, sc := range g.sizes {
		if pct < sc.percent {
			class = c
			break
		}
		pct -= sc.percent
	}
	return class, int((h >> 32) % bodiesPerClass)
}

// payload builds task id's payload: its seeded body with the id header.
func (g *taskGen) payload(id uint64) []byte {
	c, b := g.pick(id)
	p := append([]byte(nil), g.bodies[c][b]...)
	binary.BigEndian.PutUint64(p, id)
	return p
}

// verify checks one result payload against the transform of task id's
// payload: the header must carry the id under the key, the body must equal
// the body's transform.
func (g *taskGen) verify(id uint64, got []byte) error {
	c, b := g.pick(id)
	want := g.expected[c][b]
	if len(got) != len(want) {
		return fmt.Errorf("task %d: result has %d bytes, want %d", id, len(got), len(want))
	}
	var hdr [headerLen]byte
	binary.BigEndian.PutUint64(hdr[:], id)
	for j := range hdr {
		if got[j] != hdr[j]^g.xf.key[j] {
			return fmt.Errorf("task %d: result header byte %d is wrong", id, j)
		}
	}
	if !bytes.Equal(got[headerLen:], want[headerLen:]) {
		return fmt.Errorf("task %d: result body differs from its transform", id)
	}
	return nil
}

// checker verifies the result stream: every payload is the transform of
// its task's payload and every task id comes back exactly once. It is
// driven by a single collecting goroutine.
type checker struct {
	gen  *taskGen
	seen []uint64 // bitset over task ids
	bad  uint64
	dups uint64
	errs []error // the first few failures, for the report
}

func newChecker(gen *taskGen) *checker { return &checker{gen: gen} }

func (c *checker) fail(err error) {
	if len(c.errs) < 8 {
		c.errs = append(c.errs, err)
	}
}

// result checks one collected result and reports whether it passed.
func (c *checker) result(id uint64, payload []byte) bool {
	w := int(id / 64)
	for w >= len(c.seen) {
		c.seen = append(c.seen, make([]uint64, len(c.seen)+1024)...)
	}
	bit := uint64(1) << (id % 64)
	if c.seen[w]&bit != 0 {
		c.dups++
		c.fail(fmt.Errorf("task %d: delivered twice", id))
		return false
	}
	c.seen[w] |= bit
	if err := c.gen.verify(id, payload); err != nil {
		c.bad++
		c.fail(err)
		return false
	}
	return true
}

// missing counts the ids in [1, sent] that never came back.
func (c *checker) missing(sent uint64) uint64 {
	var n uint64
	for id := uint64(1); id <= sent; id++ {
		w := int(id / 64)
		if w >= len(c.seen) || c.seen[w]&(1<<(id%64)) == 0 {
			n++
			if n == 1 {
				c.fail(fmt.Errorf("task %d: never came back", id))
			}
		}
	}
	return n
}

// failed is the number of failed task checks after the stream of sent
// tasks has ended.
func (c *checker) failed(sent uint64) uint64 { return c.bad + c.dups + c.missing(sent) }
