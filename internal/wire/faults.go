package wire

import (
	"sync"
	"sync/atomic"
	"time"
)

// linkFaults is the chaos surface of one coordinator↔domain link. All
// sessions dialed through one Factory share it, because a real link cut
// takes out every connection riding the link at once; windows are plain
// atomics so the per-exec check costs two loads when the plane is idle.
type linkFaults struct {
	mu   sync.Mutex
	live map[*Session]struct{}

	delayUntil     atomic.Int64 // unix nano; delay window end
	delayNanos     atomic.Int64 // extra latency per exec inside the window
	partitionUntil atomic.Int64 // unix nano; reads/writes stall until then
	drops          atomic.Uint64
}

func newLinkFaults() *linkFaults {
	return &linkFaults{live: map[*Session]struct{}{}}
}

func (lf *linkFaults) register(s *Session) {
	lf.mu.Lock()
	lf.live[s] = struct{}{}
	lf.mu.Unlock()
}

func (lf *linkFaults) forget(s *Session) {
	if lf == nil {
		return
	}
	lf.mu.Lock()
	delete(lf.live, s)
	lf.mu.Unlock()
}

// apply runs the window checks at the top of an exec. A partition stalls
// the frame exchange until the window closes (the link froze, nothing was
// lost); a delay adds latency. Drops are not window-based — they cut the
// connections the moment they are injected, see dropAll.
func (lf *linkFaults) apply(*Session) error {
	if lf == nil {
		return nil
	}
	now := time.Now().UnixNano()
	if until := lf.partitionUntil.Load(); until > now {
		time.Sleep(time.Duration(until - now))
	}
	if lf.delayUntil.Load() > now {
		if d := lf.delayNanos.Load(); d > 0 {
			time.Sleep(time.Duration(d))
		}
	}
	return nil
}

// dropAll severs every live session on the link, mid-exec included: a
// blocked result read returns a connection error, which the farm maps to a
// worker crash. Sessions dialed afterwards connect normally — reconnection
// is recovery recruitment's job, not the transport's.
func (lf *linkFaults) dropAll() int {
	lf.mu.Lock()
	sessions := make([]*Session, 0, len(lf.live))
	for s := range lf.live {
		sessions = append(sessions, s)
	}
	lf.live = map[*Session]struct{}{}
	lf.mu.Unlock()
	for _, s := range sessions {
		s.closeLocked() // atomic close; deliberately not taking s.mu
	}
	if len(sessions) > 0 {
		lf.drops.Add(uint64(len(sessions)))
	}
	return len(sessions)
}

// delay opens a latency window: every exec starting within it pays d.
func (lf *linkFaults) delay(d, window time.Duration) {
	lf.delayNanos.Store(int64(d))
	lf.delayUntil.Store(time.Now().Add(window).UnixNano())
}

// partition stalls the link until the window closes.
func (lf *linkFaults) partition(window time.Duration) {
	lf.partitionUntil.Store(time.Now().Add(window).UnixNano())
}

// Stats are the transport's client-side counters, shared by every session
// of one Factory and cheap enough to bump on the hot path.
type Stats struct {
	dials     atomic.Uint64
	execs     atomic.Uint64
	rekeys    atomic.Uint64
	framesOut atomic.Uint64
}

// StatsSnapshot is a point-in-time copy of the counters.
type StatsSnapshot struct {
	Dials     uint64 // sessions successfully established
	Execs     uint64 // envelope round trips: one per exec-batch frame, however many tasks it carried
	Rekeys    uint64 // binding codecs installed across the wire
	FramesOut uint64 // frames written (exec-batch, rekey and control)
	Drops     uint64 // sessions severed by injected link drops
}

// Snapshot returns the current counter values. drops lives on the fault
// surface, so the Factory passes it in.
func (st *Stats) snapshot(drops uint64) StatsSnapshot {
	return StatsSnapshot{
		Dials:     st.dials.Load(),
		Execs:     st.execs.Load(),
		Rekeys:    st.rekeys.Load(),
		FramesOut: st.framesOut.Load(),
		Drops:     drops,
	}
}
