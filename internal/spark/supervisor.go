package spark

import (
	"cmp"
	"fmt"
	"slices"
	"time"

	"mpi4spark/internal/metrics"
	"mpi4spark/internal/obs"
	"mpi4spark/internal/vtime"
)

// executorTimeout is how long an executor stays silent before the driver
// declares it lost (spark.network.timeout, at the simulation's virtual-time
// magnitudes): a killed executor is reported one timeout after its last
// stamped activity (Executor.Kill).
const executorTimeout = 30 * time.Millisecond

// ExecutorLostError marks a task failure caused by the death of the
// executor running it. It is retryable (unlike a FetchFailedError, which
// requires a map-stage resubmission first): the scheduler relaunches the
// task on another executor.
type ExecutorLostError struct {
	ExecID string
	Cause  string
}

func (e *ExecutorLostError) Error() string {
	return fmt.Sprintf("spark: executor %s lost: %s", e.ExecID, e.Cause)
}

// ExecutorReplacer is the deployment hook that forks a replacement for a
// lost executor through the deployment's own launch path — the standalone
// worker re-forks the process, the MPI launcher respawns the DPM seat. It
// returns the attached-ready executor and the virtual time at which it
// became available.
type ExecutorReplacer func(lost *Executor, at vtime.Stamp) (*Executor, vtime.Stamp, error)

// SetExecutorReplacer installs the deployment's replacement hook. Without
// one, a lost executor stays blacklisted and the cluster runs at reduced
// width.
func (c *Context) SetExecutorReplacer(r ExecutorReplacer) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.replacer = r
}

// reportSilent hands the loss of a killed executor, silent since vt minus
// executorTimeout, to a thread the context owns: the loss funnel emits
// events and forks a replacement, and Kill is called from inside Bus.Emit
// and from task bodies. Close joins that thread; after Close nothing is
// reported.
func (c *Context) reportSilent(execID string, vt vtime.Stamp) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return
	}
	c.lossReports.Go(func() error {
		c.handleExecutorLost(execID, vt, "executor timeout")
		return nil
	})
}

// handleExecutorLost is the single funnel for every executor-loss signal:
// a killed executor's timeout, a failed LaunchTask send, a failed
// StatusUpdate, or a fetch failure naming the executor. It blacklists the
// executor, forgets its map outputs (marking the affected shuffles
// incomplete so the next job attempt resubmits exactly the missing map
// tasks), asks the deployment to fork a replacement, and fails the
// executor's in-flight tasks so the stage retries them elsewhere. Repeated
// reports of the same loss fold into the first.
func (c *Context) handleExecutorLost(execID string, vt vtime.Stamp, cause string) {
	c.mu.Lock()
	if c.lostExecs[execID] {
		c.mu.Unlock()
		return
	}
	c.lostExecs[execID] = true
	var lost *Executor
	for _, e := range c.executors {
		if e.id == execID {
			lost = e
			break
		}
	}
	c.mu.Unlock()
	metrics.GetCounter("scheduler.executor.lost").Inc()
	c.bus.Emit(obs.Event{
		Type: obs.EvExecutorLost, VT: vt, Executor: execID, Cause: cause,
	})

	c.forgetExecutorOutputs(execID)
	if lost != nil {
		c.replaceLost(lost, vt)
	}
	// Fail in-flight tasks after the replacement attempt so their retries
	// can already land on the new executor — and so job completion implies
	// the replacement finished, which keeps test assertions simple.
	c.failRunningTasks(execID, vt, cause)
}

// forgetExecutorOutputs unregisters every map output held on execID and
// marks the shuffles that lost outputs incomplete.
func (c *Context) forgetExecutorOutputs(execID string) {
	c.markShufflesIncomplete(c.tracker.UnregisterOutputsOnExecutor(execID))
}

// markShufflesIncomplete flags materialized shuffles for map-stage
// resubmission and invalidates every executor's cached view of their
// output locations (Spark bumps the tracker epoch; in-process
// invalidation is our stand-in).
func (c *Context) markShufflesIncomplete(affected []int) {
	if len(affected) == 0 {
		return
	}
	c.mu.Lock()
	for _, shuffleID := range affected {
		if c.doneShuffles[shuffleID] {
			c.doneShuffles[shuffleID] = false
			metrics.GetCounter("scheduler.map_stage.resubmissions").Inc()
		}
	}
	execs := append([]*Executor(nil), c.executors...)
	c.mu.Unlock()
	for _, e := range execs {
		for _, shuffleID := range affected {
			e.tracker.Invalidate(shuffleID)
		}
	}
}

// replaceLost asks the deployment to fork a replacement and swaps it into
// the lost executor's scheduling position, where placeTask uses it: the
// blacklist is per-process, not per-seat, and the replacement's id is new.
func (c *Context) replaceLost(lost *Executor, vt vtime.Stamp) {
	c.mu.Lock()
	replacer := c.replacer
	c.mu.Unlock()
	if replacer == nil {
		return
	}
	repl, readyVT, err := replacer(lost, vt)
	if err != nil || repl == nil {
		return
	}
	// The replacement registers at the time it came up; the driver's
	// launches to it ride that registration's connection.
	if _, err := repl.Attach(c, readyVT); err != nil {
		return
	}
	c.mu.Lock()
	swapped := false
	for i, e := range c.executors {
		if e == lost {
			c.executors[i] = repl
			swapped = true
			break
		}
	}
	if !swapped {
		c.executors = append(c.executors, repl)
	}
	c.mu.Unlock()
	metrics.GetCounter("scheduler.executor.replaced").Inc()
	c.bus.Emit(obs.Event{
		Type: obs.EvExecutorReplaced, VT: readyVT,
		Executor: lost.id, Replacement: repl.id,
	})
}

// failRunningTasks fails every attempt in flight on the lost executor, in
// attempt-id order: each leaves the attempt table, and a synthetic
// ExecutorLostError completion wakes its stage so the retry machinery
// relaunches the task elsewhere. A real completion that got there first
// wins; a late one finds no record and is dropped.
func (c *Context) failRunningTasks(execID string, vt vtime.Stamp, cause string) {
	var running []*attempt
	c.mu.Lock()
	for id, a := range c.attempts {
		if a.execID == execID {
			running = append(running, a)
			delete(c.attempts, id)
		}
	}
	c.mu.Unlock()
	slices.SortFunc(running, func(a, b *attempt) int { return cmp.Compare(a.id, b.id) })
	for _, a := range running {
		err := &ExecutorLostError{ExecID: execID, Cause: cause}
		// A killed executor emits no TaskEnd of its own (nothing it
		// computed escapes); the synthetic completion's event keeps the
		// log complete so replay sees every attempt resolve.
		c.bus.Emit(obs.Event{
			Type: obs.EvTaskEnd, VT: vt, Job: a.task.stage.jobID,
			Stage: a.task.stage.id, Partition: a.task.part,
			Attempt: a.number, Executor: execID,
			Start: vt, Err: err.Error(),
		})
		a.done.Push(&completion{attempt: a, part: a.task.part, execID: execID, err: err, execVT: vt, driverVT: vt})
	}
}
