package metrics

import (
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing event counter, safe for concurrent
// use. Obtain named counters through GetCounter; the scheduler and shuffle
// layers use them to expose fault-tolerance events (fetch retries, map-stage
// resubmissions) to tests and diagnostics.
type Counter struct {
	v atomic.Int64
}

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n (n may be any non-negative delta; negative deltas are a
// programming error but are not checked, matching Prometheus counter
// semantics loosely).
func (c *Counter) Add(n int64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

var (
	countersMu sync.Mutex
	counters   = make(map[string]*Counter)
)

// GetCounter returns the process-wide counter with the given name, creating
// it on first use.
func GetCounter(name string) *Counter {
	countersMu.Lock()
	defer countersMu.Unlock()
	c, ok := counters[name]
	if !ok {
		c = &Counter{}
		counters[name] = c
	}
	return c
}

// CounterValue returns the named counter's current value (0 if it was never
// touched).
func CounterValue(name string) int64 {
	countersMu.Lock()
	c := counters[name]
	countersMu.Unlock()
	if c == nil {
		return 0
	}
	return c.Value()
}

// CounterSnapshot is a point-in-time capture of every registered counter,
// taken with Snapshot. Counters are process-global and never reset, so
// code that wants "this run's" numbers — tests, the experiment harness —
// takes a snapshot before the run and reads deltas after it instead of
// asserting absolute values that leak across runs within a process.
type CounterSnapshot map[string]int64

// Snapshot captures the current value of every registered counter.
func Snapshot() CounterSnapshot {
	countersMu.Lock()
	defer countersMu.Unlock()
	s := make(CounterSnapshot, len(counters))
	for n, c := range counters {
		s[n] = c.Value()
	}
	return s
}

// Delta returns how far each counter moved since the snapshot, omitting
// counters that did not move. Counters registered after the snapshot
// count from zero.
func (s CounterSnapshot) Delta() map[string]int64 {
	out := make(map[string]int64)
	countersMu.Lock()
	defer countersMu.Unlock()
	for n, c := range counters {
		if d := c.Value() - s[n]; d != 0 {
			out[n] = d
		}
	}
	return out
}

// DeltaValue returns one counter's movement since the snapshot.
func (s CounterSnapshot) DeltaValue(name string) int64 {
	return CounterValue(name) - s[name]
}
