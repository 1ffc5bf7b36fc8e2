package shuffle

import (
	"errors"
	"fmt"
	"time"
)

// FetchFailedError reports that a reduce task could not obtain one of its
// shuffle blocks after exhausting retries (Spark's FetchFailedException).
// It identifies the shuffle, the map output, and the location it was
// fetched from, so the DAGScheduler can unregister exactly the lost
// outputs and resubmit the producing map stage instead of blindly
// re-running the reduce task against the same dead executor.
type FetchFailedError struct {
	ShuffleID int
	MapID     int
	ReduceID  int
	// Loc is the executor the block was being fetched from. A zero Loc
	// means the map output metadata itself was missing.
	Loc Location
	Err error
}

// Error implements error.
func (e *FetchFailedError) Error() string {
	if e.Loc.ExecID == "" {
		return fmt.Sprintf("shuffle %d: fetch failed: missing map output %d for reduce %d: %v",
			e.ShuffleID, e.MapID, e.ReduceID, e.Err)
	}
	return fmt.Sprintf("shuffle %d: fetch failed: map %d reduce %d from %s: %v",
		e.ShuffleID, e.MapID, e.ReduceID, e.Loc.ExecID, e.Err)
}

// Unwrap exposes the underlying transport error.
func (e *FetchFailedError) Unwrap() error { return e.Err }

// AsFetchFailed extracts a FetchFailedError from err's chain, if any. A nil
// err, every successful task's, costs nothing: the errors.As target escapes
// to the heap.
func AsFetchFailed(err error) (*FetchFailedError, bool) {
	if err == nil {
		return nil, false
	}
	var ff *FetchFailedError
	if errors.As(err, &ff) {
		return ff, true
	}
	return nil, false
}

// RetryPolicy bounds a reduce task's shuffle fetches, mirroring
// spark.shuffle.io.maxRetries / spark.shuffle.io.retryWait plus a
// per-attempt deadline. All waiting is virtual time: a backoff advances
// the fetch's vtime stamp, never the wall clock, so retry schedules stay
// deterministic across runs.
type RetryPolicy struct {
	// MaxRetries is the number of re-attempts after the first failed
	// fetch (spark.shuffle.io.maxRetries; 0 disables retrying).
	MaxRetries int
	// RetryWait is the backoff before the first retry; it doubles on
	// every subsequent retry (spark.shuffle.io.retryWait).
	RetryWait time.Duration
	// FetchDeadline is the per-attempt virtual-time budget. An attempt
	// whose block arrives later than the deadline counts as a timeout and
	// is retried; 0 disables the deadline.
	FetchDeadline time.Duration
	// JitterFrac spreads retry backoffs: each retry waits an extra uniform
	// duration in [0, JitterFrac*backoff), drawn deterministically from the
	// block id and attempt number. Without it, every reducer that lost a
	// block to the same link flap retries on the same exponential schedule
	// and stampedes the peer in lockstep; 0 disables jitter.
	JitterFrac float64
}

// DefaultRetryPolicy matches Spark's shipped defaults scaled to the
// simulation's microsecond fabric: 3 retries, exponential backoff from
// 200µs with half-backoff jitter, 100ms per-attempt deadline.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{
		MaxRetries:    3,
		RetryWait:     200 * time.Microsecond,
		FetchDeadline: 100 * time.Millisecond,
		JitterFrac:    0.5,
	}
}

// backoff returns the wait before the given retry (1-based), doubling per
// attempt: RetryWait, 2*RetryWait, 4*RetryWait, ...
func (p RetryPolicy) backoff(retry int) time.Duration {
	if retry < 1 || p.RetryWait <= 0 {
		return 0
	}
	return p.RetryWait << uint(retry-1)
}

// jitter returns the extra deterministic wait before the given retry of
// the given block: a uniform draw over [0, JitterFrac*backoff) hashed from
// (key, retry). Two reducers retrying the same peer after one flap decor-
// relate because their block ids differ; the same reducer re-running the
// same schedule draws identical jitter, keeping virtual time reproducible.
func (p RetryPolicy) jitter(key string, retry int) time.Duration {
	if p.JitterFrac <= 0 {
		return 0
	}
	max := time.Duration(p.JitterFrac * float64(p.backoff(retry)))
	if max <= 0 {
		return 0
	}
	h := uint64(1469598103934665603)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint64(key[i])) * 1099511628211
	}
	h ^= uint64(retry)
	h ^= h >> 33
	h *= 0xFF51AFD7ED558CCD
	h ^= h >> 33
	return time.Duration(h % uint64(max))
}
