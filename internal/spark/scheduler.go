package spark

import (
	"encoding/binary"
	"fmt"

	"mpi4spark/internal/metrics"
	"mpi4spark/internal/obs"
	"mpi4spark/internal/spark/shuffle"
	"mpi4spark/internal/vtime"
)

// findShuffleDeps walks the lineage of final and returns every shuffle
// dependency in topological order (parents before children), deduplicated.
func findShuffleDeps(final rddBase) []*ShuffleDep {
	var order []*ShuffleDep
	seenRDD := make(map[int]bool)
	seenDep := make(map[int]bool)
	var visit func(r rddBase)
	visit = func(r rddBase) {
		if seenRDD[r.rddID()] {
			return
		}
		seenRDD[r.rddID()] = true
		for _, d := range r.dependencies() {
			switch dep := d.(type) {
			case narrowDep:
				visit(dep.parent)
			case *ShuffleDep:
				visit(dep.parent)
				if !seenDep[dep.shuffleID] {
					seenDep[dep.shuffleID] = true
					order = append(order, dep)
				}
			}
		}
	}
	visit(final)
	return order
}

// preferredExecutor walks narrow dependencies looking for a static
// partition pin (receiver blocks, checkpointed state) or a cached ancestor
// partition and returns the executor holding it ("" if none).
func (c *Context) preferredExecutor(r rddBase, part int) string {
	for {
		if loc := r.preferredLoc(part); loc != "" {
			return loc
		}
		if r.isCached() {
			c.mu.Lock()
			exec, ok := c.cacheLocs[cacheKey{rddID: r.rddID(), part: part}]
			c.mu.Unlock()
			if ok {
				return exec
			}
		}
		deps := r.dependencies()
		if len(deps) != 1 {
			return ""
		}
		nd, ok := deps[0].(narrowDep)
		if !ok {
			return ""
		}
		r = nd.parent
	}
}

// runJob executes the DAG rooted at final: all not-yet-materialized
// shuffle map stages in topological order, then the result stage, calling
// collect with each result partition.
//
// A stage that fails with a FetchFailedError (a reduce task exhausted its
// retries against a lost map output) does not fail the job outright: the
// scheduler unregisters every map output on the lost executor, marks the
// affected shuffles incomplete, and re-runs the DAG — which resubmits only
// the missing map tasks, then the consuming stage. Attempts are bounded by
// MaxStageAttempts.
func (c *Context) runJob(final rddBase, resultSize func(any) int, collect func(part int, res any)) error {
	c.jobMu.Lock()
	defer c.jobMu.Unlock()

	c.mu.Lock()
	jobID := c.jobSeq
	c.jobSeq++
	c.mu.Unlock()

	c.bus.Emit(obs.Event{Type: obs.EvJobStart, VT: c.Clock(), Job: jobID})
	finish := func(err error) error {
		e := obs.Event{Type: obs.EvJobEnd, VT: c.Clock(), Job: jobID}
		if err != nil {
			e.Err = err.Error()
		}
		c.bus.Emit(e)
		return err
	}

	deps := findShuffleDeps(final)
	for attempt := 0; ; attempt++ {
		err := c.tryRunJob(jobID, deps, final, resultSize, collect)
		if err == nil {
			return finish(nil)
		}
		ff, ok := shuffle.AsFetchFailed(err)
		if !ok || attempt >= c.cfg.MaxStageAttempts-1 {
			return finish(err)
		}
		c.recoverFetchFailure(ff)
	}
}

// tryRunJob is one attempt at the DAG: every incomplete shuffle map stage
// in topological order, then the result stage.
func (c *Context) tryRunJob(jobID int, deps []*ShuffleDep, final rddBase, resultSize func(any) int, collect func(part int, res any)) error {
	for _, dep := range deps {
		c.mu.Lock()
		done := c.doneShuffles[dep.shuffleID]
		c.mu.Unlock()
		if done {
			continue
		}
		if err := c.runShuffleMapStage(jobID, dep); err != nil {
			return err
		}
	}
	return c.runResultStage(jobID, final, resultSize, collect)
}

// recoverFetchFailure reacts to a lost shuffle block the way the
// DAGScheduler reacts to a FetchFailedException: the executor the fetch
// was against is lost (blacklist, forget its map outputs, replace) via
// the handleExecutorLost funnel, and the shuffle the failure was reported
// against is marked incomplete so the next job attempt resubmits exactly
// the missing map tasks. Concurrent fetch failures from sibling reducers
// fold into one recovery: the stage surfaces a single first failure, and
// an executor already declared lost yields no repeat recovery.
func (c *Context) recoverFetchFailure(ff *shuffle.FetchFailedError) {
	metrics.GetCounter("scheduler.fetch_failed").Inc()
	c.bus.Emit(obs.Event{
		Type: obs.EvFetchFailed, VT: c.Clock(),
		ShuffleID: ff.ShuffleID, MapID: ff.MapID, ReduceID: ff.ReduceID,
		Executor: ff.Loc.ExecID, Err: ff.Error(),
	})
	if ff.Loc.ExecID != "" {
		c.handleExecutorLost(ff.Loc.ExecID, c.Clock(),
			fmt.Sprintf("fetch failed against shuffle %d", ff.ShuffleID))
	}
	c.markShufflesIncomplete(map[int]bool{ff.ShuffleID: true})
}

// runShuffleMapStage executes the map side of one shuffle. On a first run
// it registers the shuffle and runs every map task; on a resubmission
// (after a fetch failure unregistered some outputs) it runs only the map
// tasks whose outputs are missing.
func (c *Context) runShuffleMapStage(jobID int, dep *ShuffleDep) error {
	numMaps := dep.parent.partitions()
	missing, err := c.tracker.MissingOutputs(dep.shuffleID)
	if err != nil {
		// First execution: register and run the full stage.
		c.tracker.RegisterShuffle(dep.shuffleID, numMaps)
		missing = make([]int, numMaps)
		for i := range missing {
			missing[i] = i
		}
	}
	if len(missing) == 0 {
		c.mu.Lock()
		c.doneShuffles[dep.shuffleID] = true
		c.mu.Unlock()
		return nil
	}

	c.mu.Lock()
	c.stageSeq++
	stage := &stageInfo{
		id:    c.stageSeq,
		jobID: jobID,
		name:  fmt.Sprintf("Job%d-ShuffleMapStage", jobID),
		kind:  "ShuffleMapStage",
	}
	c.mu.Unlock()

	tasks := make([]*taskDescriptor, len(missing))
	for i, part := range missing {
		p := part
		tasks[i] = &taskDescriptor{
			stage:      stage,
			part:       p,
			preferred:  c.preferredExecutor(dep.parent, p),
			resultSize: func(any) int { return 16 + 8*dep.numReduce }, // MapStatus sizes
			run: func(tc *TaskContext) (any, *shuffle.MapStatus, error) {
				data, err := dep.parent.computePartition(p, tc)
				if err != nil {
					return nil, nil, err
				}
				parts := dep.write(data, tc)
				st, err := tc.exec.writeMapOutput(tc, dep.shuffleID, p, parts)
				if err != nil {
					return nil, nil, err
				}
				return nil, st, nil
			},
		}
	}
	comps, err := c.launchAndWait(stage, tasks)
	if err != nil {
		return err
	}
	for _, comp := range comps {
		if comp.mapStatus == nil {
			return fmt.Errorf("spark: map task %d returned no status", comp.taskID)
		}
		if err := c.tracker.RegisterMapOutput(dep.shuffleID, comp.part, comp.mapStatus); err != nil {
			return err
		}
	}
	c.mu.Lock()
	c.doneShuffles[dep.shuffleID] = true
	c.mu.Unlock()
	return nil
}

// runResultStage executes the final stage of a job, consulting the
// adaptive planner first: when the tracker's per-reducer sizes justify it,
// the stage runs under a rewritten physical plan (split skewed partitions,
// coalesced runts) instead of one task per partition.
func (c *Context) runResultStage(jobID int, final rddBase, resultSize func(any) int, collect func(part int, res any)) error {
	c.mu.Lock()
	c.stageSeq++
	stage := &stageInfo{
		id:    c.stageSeq,
		jobID: jobID,
		name:  fmt.Sprintf("Job%d-ResultStage", jobID),
		kind:  "ResultStage",
	}
	c.mu.Unlock()

	if plan := c.planResultStage(final); plan != nil {
		return c.runAdaptedResultStage(jobID, stage, final, plan, resultSize, collect)
	}

	tasks := make([]*taskDescriptor, final.partitions())
	for part := 0; part < final.partitions(); part++ {
		p := part
		tasks[part] = &taskDescriptor{
			stage:      stage,
			part:       p,
			preferred:  c.preferredExecutor(final, p),
			resultSize: resultSize,
			run: func(tc *TaskContext) (any, *shuffle.MapStatus, error) {
				data, err := final.computePartition(p, tc)
				return data, nil, err
			},
		}
	}
	comps, err := c.launchAndWait(stage, tasks)
	if err != nil {
		return err
	}
	for _, comp := range comps {
		collect(comp.part, comp.result)
	}
	return nil
}

// placeTask picks the executor for a task: its cache-locality preference
// when available, round-robin otherwise. Executors in `exclude` (previous
// failed attempts of this task) and executors marked unhealthy are skipped
// when any alternative exists. The blacklist is per-process, not per-seat:
// a replacement swapped in for a lost executor arrives under a fresh id
// and is placed like any healthy executor.
func (c *Context) placeTask(t *taskDescriptor, exclude map[string]bool) *Executor {
	c.mu.Lock()
	defer c.mu.Unlock()
	usable := func(e *Executor) bool {
		return !exclude[e.id] && !c.unhealthy[e.id]
	}
	if t.preferred != "" && !exclude[t.preferred] && !c.unhealthy[t.preferred] {
		for _, e := range c.executors {
			if e.id == t.preferred {
				return e
			}
		}
	}
	for tries := 0; tries < len(c.executors); tries++ {
		e := c.executors[c.rrNext%len(c.executors)]
		c.rrNext++
		if usable(e) {
			return e
		}
	}
	// Everything excluded: fall back to plain round robin.
	e := c.executors[c.rrNext%len(c.executors)]
	c.rrNext++
	return e
}

// launchTask sends one task's LaunchTask message at the given time and
// returns when the driver CPU is free again. Unreachable executors are
// skipped, each declared lost with lossCause as the reason, up to the
// cluster size.
func (c *Context) launchTask(t *taskDescriptor, exclude map[string]bool, at vtime.Stamp, lossCause string) (vtime.Stamp, error) {
	payload := make([]byte, taskClosureBytes)
	binary.BigEndian.PutUint64(payload[:8], uint64(t.id))
	var lastErr error
	for tries := 0; tries <= c.executorCount(); tries++ {
		exec := c.placeTask(t, exclude)
		// Record the owner before sending: were the executor declared
		// lost between a successful send and the bookkeeping, the loss
		// handler could otherwise miss this task and strand its waiter.
		c.noteTaskRunning(t.id, exec.id)
		free, err := c.driver.Send(exec.env.Addr(), ExecutorEndpoint, payload, at)
		if err == nil {
			return free, nil
		}
		c.clearTaskRunning(t.id)
		lastErr = err
		c.handleExecutorLost(exec.id, at, fmt.Sprintf("%s: %v", lossCause, err))
	}
	return at, fmt.Errorf("spark: launching task %d: %w", t.id, lastErr)
}

// launchAndWait sends LaunchTask messages for every task, waits for all
// status updates, records the stage timing, and returns the completions.
// Launch messages serialize on the driver CPU, and completions serialize
// through the driver's scheduler endpoint — both real effects at scale.
func (c *Context) launchAndWait(stage *stageInfo, tasks []*taskDescriptor) ([]*completion, error) {
	c.mu.Lock()
	start := c.clock
	sendVT := c.clock
	waitChans := make([]chan *completion, len(tasks))
	for i, t := range tasks {
		c.taskSeq++
		t.id = c.taskSeq
		c.tasks[t.id] = t
		waitChans[i] = make(chan *completion, 1)
		c.waiters[t.id] = waitChans[i]
	}
	c.mu.Unlock()

	c.bus.Emit(obs.Event{
		Type: obs.EvStageSubmitted, VT: start, Job: stage.jobID,
		Stage: stage.id, StageName: stage.name, StageKind: stage.kind,
		Tasks: len(tasks),
	})

	exclusions := make([]map[string]bool, len(tasks))
	for i, t := range tasks {
		exclusions[i] = make(map[string]bool)
		free, err := c.launchTask(t, exclusions[i], sendVT, "task launch failed")
		if err != nil {
			return nil, err
		}
		sendVT = free
	}

	comps := make([]*completion, 0, len(tasks))
	end := sendVT
	var firstErr error
	attempts := make([]int, len(tasks))
	for i := range tasks {
		for {
			comp := <-waitChans[i]
			metrics.GetCounter("scheduler.task.completions").Inc()
			_, fetchFailed := shuffle.AsFetchFailed(comp.err)
			if comp.err != nil && !fetchFailed && attempts[i] < maxTaskAttempts-1 {
				// Retry on a different executor, like Spark's
				// spark.task.maxFailures. The retry relaunches at the
				// failure's driver-side time. Fetch failures are exempt:
				// re-running the reduce task against the same lost map
				// output cannot succeed — the map stage must be
				// resubmitted first, which runJob handles.
				attempts[i]++
				exclusions[i][comp.execID] = true
				t := tasks[i]
				t.attempt.Store(int32(attempts[i]))
				ch := make(chan *completion, 1)
				c.mu.Lock()
				c.tasks[t.id] = t
				c.waiters[t.id] = ch
				c.mu.Unlock()
				waitChans[i] = ch
				if _, err := c.launchTask(t, exclusions[i], comp.driverVT, "task launch failed"); err != nil {
					if firstErr == nil {
						firstErr = err
					}
					break
				}
				continue
			}
			if comp.err != nil && firstErr == nil {
				firstErr = fmt.Errorf("spark: task %d (partition %d) failed after %d attempts: %w",
					comp.taskID, comp.part, attempts[i]+1, comp.err)
			}
			if comp.driverVT > end {
				end = comp.driverVT
			}
			comps = append(comps, comp)
			break
		}
	}

	// Straggler pass: with speculation on and the stage healthy, re-launch
	// tasks that ran far past the stage median and commit whichever attempt
	// finished first in virtual time. A won race can pull the stage end
	// back below the straggler's completion — that is the payoff.
	if c.cfg.Speculation && firstErr == nil && len(comps) >= 2 {
		if c.speculate(stage, tasks, comps) {
			end = sendVT
			for _, comp := range comps {
				if comp.driverVT > end {
					end = comp.driverVT
				}
			}
		}
	}

	// Cleanup task table and record cache locations + metrics.
	timing := StageTiming{
		JobID: stage.jobID,
		Name:  stage.name,
		Kind:  stage.kind,
		Start: start,
		End:   end,
		Tasks: len(tasks),
	}
	c.mu.Lock()
	for _, t := range tasks {
		delete(c.tasks, t.id)
		delete(c.runningOn, t.id)
	}
	for _, comp := range comps {
		for _, ck := range comp.cached {
			c.cacheLocs[ck] = comp.execID
		}
		timing.Records += comp.metrics.Records
		timing.ShuffleBytes += comp.metrics.ShuffleBytes
		if comp.metrics.ShuffleWaitVT > timing.ShuffleWaitMax {
			timing.ShuffleWaitMax = comp.metrics.ShuffleWaitVT
		}
	}
	if firstErr == nil {
		c.stages = append(c.stages, timing)
	}
	c.clock = vtime.Max(c.clock, end)
	c.mu.Unlock()
	done := obs.Event{
		Type: obs.EvStageCompleted, VT: end, Job: stage.jobID,
		Stage: stage.id, StageName: stage.name, StageKind: stage.kind,
		Tasks: len(tasks),
	}
	if firstErr != nil {
		done.Err = firstErr.Error()
	}
	c.bus.Emit(done)
	if firstErr != nil {
		return nil, firstErr
	}
	return comps, nil
}
