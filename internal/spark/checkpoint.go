package spark

import (
	"fmt"
	"sync/atomic"
)

// CheckpointLostError is Spark's "Checkpoint block not found": a task
// needed a partition of a local checkpoint that is no longer cached (its
// executor was lost, or the RDD was unpersisted), and the checkpoint has
// no lineage to recompute it from.
type CheckpointLostError struct {
	RDD       int
	Partition int
	Executor  string // where the partition was cached when the lineage was cut
}

func (e *CheckpointLostError) Error() string {
	return fmt.Sprintf("spark: checkpoint block rdd_%d_%d not found: executor %s that held it is lost, or the RDD was unpersisted",
		e.RDD, e.Partition, e.Executor)
}

// localCheckpoint is an RDD waiting for its lineage cut: cut drops its
// dependencies and compute, given where each partition is cached.
type localCheckpoint struct {
	rdd rddBase
	cut func(locs []string)
}

// LocalCheckpoint is Spark's RDD.localCheckpoint: it marks the RDD cached,
// and once a job has cached every partition the driver cuts its lineage.
// The partitions stay on the executors that computed them and never pass
// through the driver; from the cut on, the RDD has no dependencies, and a
// partition that is no longer cached cannot be recomputed: reading it
// fails the task with a *CheckpointLostError (and the job, once the
// task's attempts are spent). It returns the receiver for chaining, and
// must be called before any job computes the RDD.
func (r *RDD[T]) LocalCheckpoint() *RDD[T] {
	// Tasks read the lineage through an atomic pointer, so the driver can
	// drop it while an abandoned attempt (a task on a killed executor)
	// still runs.
	compute := r.compute
	var lineage atomic.Pointer[func(int, *TaskContext) ([]T, error)]
	lineage.Store(&compute)
	var locs []string // written before lineage is cleared, read after
	r.compute = func(part int, tc *TaskContext) ([]T, error) {
		if f := lineage.Load(); f != nil {
			return (*f)(part, tc)
		}
		return nil, &CheckpointLostError{RDD: r.id, Partition: part, Executor: locs[part]}
	}
	c := r.ctx
	c.mu.Lock()
	c.checkpoints = append(c.checkpoints, localCheckpoint{rdd: r, cut: func(at []string) {
		locs, r.deps = at, nil
		lineage.Store(nil)
	}})
	c.mu.Unlock()
	return r.Cache()
}

// cutCheckpoints runs at the end of every successful job: it cuts the
// lineage of each pending local checkpoint whose partitions are all cached,
// and forgets those unpersisted first. It reads the pending list and the
// cache map, and walks no DAG. Dependencies are read only by the driver
// under jobMu, which the caller holds.
func (c *Context) cutCheckpoints() {
	c.mu.Lock()
	defer c.mu.Unlock()
	pending := c.checkpoints[:0]
	for _, ck := range c.checkpoints {
		if !ck.rdd.isCached() {
			continue
		}
		locs := make([]string, ck.rdd.partitions())
		for p := range locs {
			loc, ok := c.cacheLocs[cacheKey{rddID: ck.rdd.rddID(), part: p}]
			if !ok {
				locs = nil
				break
			}
			locs[p] = loc
		}
		if locs == nil {
			pending = append(pending, ck)
			continue
		}
		ck.cut(locs)
	}
	clear(c.checkpoints[len(pending):])
	c.checkpoints = pending
}
