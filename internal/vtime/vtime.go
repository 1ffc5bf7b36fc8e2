// Package vtime provides the virtual-time primitives used by the simulated
// cluster. Every simulated thread of execution (a task slot, an RPC
// endpoint, a NIC) owns a Clock measured in virtual nanoseconds. Costs are
// modeled, not measured: communication and compute advance clocks according
// to a LogGP-style model, so experiment results are deterministic and
// independent of the host machine.
//
// The rules are the classic ones from distributed virtual-time simulation:
//
//   - local work advances a clock by its modeled cost;
//   - a message carries the sender's clock (plus transport costs) as a
//     timestamp;
//   - receiving a message advances the receiver's clock to at least the
//     message timestamp (causality), never backwards.
//
// The simulation blocks only in this package's waits. Mailbox is the one
// blocking queue between the simulation's layers: a fabric connection's two
// directions and a listener's backlog, an RDMA completion queue, an rpc
// endpoint's dispatch, a stage's task completions, an executor's free task
// slots. Reply is the one-shot value a request completes with: an MPI
// receive or rendezvous send, an Ask's reply, a block batch, the tracker's
// single-flight fetch, the MPI launch's master env. Signal is the one
// coalescing wake-up with a close: an event loop's selector token and a
// collective station slot's. Group is the one join of a fan-out (a
// collective's ranks, the Fig. 3 launch's ranks and the executor mains DPM
// spawns, a reduce task's fetchers) and of every long-lived thread, which
// its owner joins on close (event loops, accept loops, rpc dispatch loops
// and serve pumps, UCR serve loops, executor tasks, a killed executor's loss
// report); its error is the earliest Go call's that failed, not the first
// the host ran. A wait outside this package would be listed with a reason
// in waits.txt, which TestWaitCensus holds true; none is.
package vtime

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Stamp is a point in virtual time, in nanoseconds since the start of the
// simulation. The zero Stamp is the simulation epoch.
type Stamp int64

// Duration converts a time.Duration into virtual nanoseconds.
func Duration(d time.Duration) Stamp { return Stamp(d.Nanoseconds()) }

// Add returns the stamp advanced by d.
func (s Stamp) Add(d time.Duration) Stamp { return s + Stamp(d.Nanoseconds()) }

// Max returns the later of the two stamps.
func Max(a, b Stamp) Stamp {
	if a > b {
		return a
	}
	return b
}

// AsDuration converts the stamp back into a time.Duration from the epoch.
func (s Stamp) AsDuration() time.Duration { return time.Duration(s) }

// String formats the stamp as a duration for human-readable logs.
func (s Stamp) String() string { return fmt.Sprintf("vt+%v", time.Duration(s)) }

// Clock is a monotonic virtual clock owned by one simulated thread of
// execution. The zero value is a clock at the epoch, ready to use.
// Clocks are safe for concurrent use.
type Clock struct {
	now atomic.Int64
}

// Now returns the current virtual time.
func (c *Clock) Now() Stamp { return Stamp(c.now.Load()) }

// Advance moves the clock forward by the modeled cost d and returns the new
// time. Negative durations are ignored.
func (c *Clock) Advance(d time.Duration) Stamp {
	if d <= 0 {
		return c.Now()
	}
	return Stamp(c.now.Add(d.Nanoseconds()))
}

// Observe applies the causality rule: the clock is advanced to at least s.
// It returns the resulting time. Observe never moves the clock backwards.
func (c *Clock) Observe(s Stamp) Stamp {
	for {
		cur := c.now.Load()
		if int64(s) <= cur {
			return Stamp(cur)
		}
		if c.now.CompareAndSwap(cur, int64(s)) {
			return s
		}
	}
}

// ObserveAndAdvance merges an incoming timestamp and then adds local cost,
// a common pattern when handling a received message.
func (c *Clock) ObserveAndAdvance(s Stamp, d time.Duration) Stamp {
	c.Observe(s)
	return c.Advance(d)
}

// interval is one busy span [start, end).
type interval struct {
	start, end Stamp
}

// maxIntervals bounds the busy-list length; beyond it the oldest intervals
// are coalesced (conservatively surrendering their idle gaps).
const maxIntervals = 256

// Resource models a serially-shared resource (a NIC direction, a bus, a
// serialized handler). Occupying it for a duration starting no earlier than
// `ready` returns the interval actually granted; requests queue in virtual
// time, which models contention.
//
// Because the simulation issues Occupy calls in real-time order, not
// virtual-time order, the resource keeps a bounded list of busy intervals
// and backfills idle gaps: a request that is ready before already-granted
// future work uses the idle capacity in between rather than queueing behind
// it. Without backfill, pipelined components that run ahead in virtual time
// would artificially serialize unrelated traffic.
type Resource struct {
	mu sync.Mutex
	// busy is sorted and disjoint. At the length bound it loses its oldest
	// interval with every one it gains, so it is a window that slides along
	// arr, its whole backing array, and moves back to the front when it
	// reaches the end: a full list allocates nothing.
	busy []interval
	arr  []interval
}

// NewResource returns a resource that is free at the epoch.
func NewResource() *Resource { return &Resource{} }

// Occupy reserves the resource for duration d starting no earlier than
// ready. It returns the virtual start and end of the granted interval.
func (r *Resource) Occupy(ready Stamp, d time.Duration) (start, end Stamp) {
	if d < 0 {
		d = 0
	}
	if ready < 0 {
		ready = 0
	}
	need := Stamp(d.Nanoseconds())
	r.mu.Lock()
	defer r.mu.Unlock()

	// Find the first idle gap at or after `ready` that fits `need`. The
	// busy list is sorted and disjoint, so the scan starts at the first
	// interval ending at or after ready, found by binary search: an earlier
	// one neither bounds a gap the request could use nor pushes its start.
	first := sort.Search(len(r.busy), func(i int) bool { return r.busy[i].end >= ready })
	insert := len(r.busy)
	start = ready
	for i := first; i < len(r.busy); i++ {
		iv := r.busy[i]
		if start+need <= iv.start {
			insert = i
			break
		}
		if iv.end > start {
			start = iv.end
		}
	}
	end = start + need
	if len(r.busy) == cap(r.busy) && len(r.arr) > cap(r.busy) {
		r.busy = r.arr[:copy(r.arr, r.busy)] // at the end of the array: back to its front
	}
	r.busy = append(r.busy, interval{})
	if cap(r.busy) > len(r.arr) {
		r.arr = r.busy[:cap(r.busy)] // append moved the list to a larger array
	}
	copy(r.busy[insert+1:], r.busy[insert:])
	r.busy[insert] = interval{start: start, end: end}
	r.coalesce(insert)
	return start, end
}

// coalesce merges the interval at idx with adjacent touching intervals and
// enforces the length bound.
func (r *Resource) coalesce(idx int) {
	// Merge with previous.
	for idx > 0 && r.busy[idx-1].end >= r.busy[idx].start {
		r.busy[idx-1].end = Max(r.busy[idx-1].end, r.busy[idx].end)
		r.busy = append(r.busy[:idx], r.busy[idx+1:]...)
		idx--
	}
	// Merge with next.
	for idx+1 < len(r.busy) && r.busy[idx].end >= r.busy[idx+1].start {
		r.busy[idx].end = Max(r.busy[idx].end, r.busy[idx+1].end)
		r.busy = append(r.busy[:idx+1], r.busy[idx+2:]...)
	}
	// Bound memory: surrender the oldest idle gaps. The first interval is
	// merged into the second and dropped from the front, which moves nothing.
	for len(r.busy) > maxIntervals {
		r.busy[1].start = r.busy[0].start
		r.busy = r.busy[1:]
	}
}
