package spark

import (
	"encoding/binary"
	"fmt"

	"mpi4spark/internal/metrics"
	"mpi4spark/internal/obs"
	"mpi4spark/internal/spark/shuffle"
	"mpi4spark/internal/vtime"
)

// taskCompletions counts every task completion the driver receives: a
// handle, so the per-task path neither locks the registry nor hashes the
// name.
var taskCompletions = metrics.GetCounter("scheduler.task.completions")

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
			visit(d.parentRDD())
			if dep, ok := d.(*ShuffleDep); ok && !seenDep[dep.shuffleID] {
				seenDep[dep.shuffleID] = true
				order = append(order, dep)
			}
		}
	}
	visit(final)
	return order
}

// preferredExecutor looks for a static partition pin (receiver blocks) or
// a cached partition on r, then on each parent r reads one-to-one, in
// dependency order, and returns the executor holding the first it finds
// ("" if none). A zip therefore prefers its first
// input's executor: a window merge runs where the previous window lives.
func (c *Context) preferredExecutor(r rddBase, part int) string {
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
	for _, d := range r.dependencies() {
		if nd, ok := d.(narrowDep); ok {
			if loc := c.preferredExecutor(nd.parent, part); loc != "" {
				return loc
			}
		}
	}
	return ""
}

// partitionFunc is an action's per-partition function: it maps one result
// partition's records (a []T boxed in any) to what the task sends back.
type partitionFunc func(part int, tc *TaskContext, data any) any

// runJob executes the DAG rooted at final: all not-yet-materialized
// shuffle map stages in topological order, then the result stage. As in
// Spark's runJob(rdd, func, resultHandler), a result task applies fn to its
// partition and returns only fn's result, which the driver hands to handle
// with the partition's index; resultSize models that result's bytes. fn runs
// in executor slots, concurrently, and possibly more than once per
// partition (a retry): only the committed attempt's result reaches handle.
// The one exception is a partition the adaptive planner split: its
// sub-tasks return their records, and the driver merges them and applies
// fn there.
//
// A stage that fails with a FetchFailedError (a reduce task exhausted its
// retries against a lost map output) does not fail the job outright: the
// scheduler unregisters every map output on the lost executor, marks the
// affected shuffles incomplete, and re-runs the DAG — which resubmits only
// the missing map tasks, then the consuming stage. Attempts are bounded by
// MaxStageAttempts.
func (c *Context) runJob(final rddBase, fn partitionFunc, resultSize func(any) int, handle func(part int, res any)) error {
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
		err := c.tryRunJob(jobID, deps, final, fn, resultSize, handle)
		if err == nil {
			c.cutCheckpoints()
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
func (c *Context) tryRunJob(jobID int, deps []*ShuffleDep, final rddBase, fn partitionFunc, resultSize func(any) int, handle func(part int, res any)) error {
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
	return c.runResultStage(jobID, final, fn, resultSize, handle)
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
	c.markShufflesIncomplete([]int{ff.ShuffleID})
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

	// One run and one result size serve the whole stage: a task reads its
	// partition from its TaskContext.
	run := func(tc *TaskContext) (any, *shuffle.MapStatus, error) {
		data, err := dep.parent.computePartition(tc.Partition, tc)
		if err != nil {
			return nil, nil, err
		}
		parts := dep.write(data, tc)
		st, err := tc.exec.writeMapOutput(tc, dep.shuffleID, tc.Partition, parts)
		if err != nil {
			return nil, nil, err
		}
		return nil, st, nil
	}
	resultSize := func(any) int { return 16 + 8*dep.numReduce } // MapStatus sizes
	tasks := newTasks(stage, len(missing), run, resultSize)
	for i, part := range missing {
		tasks[i].part = part
		tasks[i].preferred = c.preferredExecutor(dep.parent, part)
	}
	comps, err := c.launchAndWait(stage, tasks)
	if err != nil {
		return err
	}
	for _, comp := range comps {
		if comp.mapStatus == nil {
			return fmt.Errorf("spark: map task %d returned no status", comp.attempt.id)
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
// the stage's tasks are the planner's (split skewed partitions, coalesced
// runts) instead of one per partition. Every task shares one run that
// applies fn to its TaskContext's partition; coalesced tasks share another
// that does so for their partitions back to back.
func (c *Context) runResultStage(jobID int, final rddBase, fn partitionFunc, resultSize func(any) int, handle func(part int, res any)) error {
	c.mu.Lock()
	c.stageSeq++
	stage := &stageInfo{
		id:    c.stageSeq,
		jobID: jobID,
		name:  fmt.Sprintf("Job%d-ResultStage", jobID),
		kind:  "ResultStage",
	}
	c.mu.Unlock()

	n := final.partitions()
	plan := c.planResultStage(final)
	if plan != nil {
		metrics.GetCounter(CounterAdaptiveSplits).Add(int64(plan.splits))
		metrics.GetCounter(CounterAdaptiveCoalesces).Add(int64(plan.coalesces))
		c.bus.Emit(obs.Event{
			Type: obs.EvStageAdapted, VT: c.Clock(), Job: jobID,
			Stage: stage.id, StageName: stage.name, StageKind: stage.kind,
			ShuffleID: plan.shuffleID,
			Splits:    plan.splits, Coalesces: plan.coalesces, Tasks: len(plan.tasks),
		})
		n = len(plan.tasks)
	}
	run := func(tc *TaskContext) (any, *shuffle.MapStatus, error) {
		data, err := final.computePartition(tc.Partition, tc)
		if err != nil || tc.share.ranged() {
			return data, nil, err
		}
		return fn(tc.Partition, tc, data), nil, nil
	}
	tasks := newTasks(stage, n, run, resultSize)
	for i, t := range tasks {
		t.part = i
		if plan != nil {
			t.share = plan.tasks[i]
			t.part = t.share.parts[0]
		}
		t.preferred = c.preferredExecutor(final, t.part)
	}
	if plan != nil && plan.coalesces > 0 {
		runCoalesced, sizeCoalesced := coalescedTask(final, fn, resultSize)
		for _, t := range tasks {
			if t.share.coalesced() > 0 {
				t.run, t.resultSize = runCoalesced, sizeCoalesced
			}
		}
	}
	comps, err := c.launchAndWait(stage, tasks)
	if err != nil {
		return err
	}

	// Hand results over in partition order. comps is index-aligned with
	// tasks whatever the completion order, the planner lists its tasks in
	// partition order, and a split partition's sub-tasks come
	// consecutively, in map-range order. A split partition is merged through
	// the RDD's partial-merge hook and fn is applied to the merge, both
	// charged on the driver at its latest sub-task's completion.
	var subs []any
	var subVT vtime.Stamp
	for i, comp := range comps {
		share := tasks[i].share
		switch {
		case share.ranged():
			if share.subIdx == 0 {
				subs, subVT = make([]any, share.subCount), 0
			}
			subs[share.subIdx] = comp.result
			subVT = vtime.Max(subVT, comp.driverVT)
			if share.subIdx < share.subCount-1 {
				continue
			}
			tc := &TaskContext{StageID: stage.id, Partition: comp.part, vt: subVT, cpu: c.cfg.CPU}
			res := fn(comp.part, tc, final.mergePartials(tc, subs))
			c.AdvanceClock(tc.vt)
			handle(comp.part, res)
		case share.coalesced() > 0:
			for j, res := range comp.result.(coalescedResult) {
				handle(share.parts[j], res)
			}
		default:
			handle(comp.part, comp.result)
		}
	}
	return nil
}

// newTasks returns n descriptors of one stage, carved from one slab, that
// share the stage's run and resultSize; the caller sets each one's part.
func newTasks(stage *stageInfo, n int, run func(tc *TaskContext) (any, *shuffle.MapStatus, error), resultSize func(any) int) []*taskDescriptor {
	descs := make([]taskDescriptor, n)
	tasks := make([]*taskDescriptor, n)
	for i := range descs {
		d := &descs[i]
		d.stage, d.run, d.resultSize = stage, run, resultSize
		tasks[i] = d
	}
	return tasks
}

// placeTask picks the executor for a task: its cache-locality preference
// when available, round-robin otherwise. Executors in `exclude` (previous
// failed attempts of this task) and executors declared lost are skipped
// when any alternative exists. The blacklist is per-process, not per-seat:
// a replacement swapped in for a lost executor arrives under a fresh id
// and is placed like any healthy executor.
func (c *Context) placeTask(t *taskDescriptor, exclude map[string]bool) *Executor {
	c.mu.Lock()
	defer c.mu.Unlock()
	usable := func(e *Executor) bool {
		return !exclude[e.id] && !c.lostExecs[e.id]
	}
	if t.preferred != "" && !exclude[t.preferred] && !c.lostExecs[t.preferred] {
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

// launchPayload returns the LaunchTask message of attempt id:
// taskClosureBytes whose first eight carry the id, written into dst.
func launchPayload(dst []byte, id int64) []byte {
	binary.BigEndian.PutUint64(dst[:8], uint64(id))
	return dst[:taskClosureBytes:taskClosureBytes]
}

// launchTask enters attempt a into the attempt table under a fresh id and
// sends its LaunchTask message (launchPayload, written into dst) at the
// given time, returning when the driver CPU is free again. Unreachable
// executors are skipped, each declared lost, up to the cluster size; if
// none takes the attempt it leaves the table.
func (c *Context) launchTask(a *attempt, exclude map[string]bool, dst []byte, at vtime.Stamp) (vtime.Stamp, error) {
	c.mu.Lock()
	c.taskSeq++
	a.id = c.taskSeq
	c.attempts[a.id] = a
	c.mu.Unlock()
	payload := launchPayload(dst, a.id)
	var lastErr error
	for tries := 0; tries <= c.executorCount(); tries++ {
		exec := c.placeTask(a.task, exclude)
		// Record the owner before sending: were the executor declared
		// lost between a successful send and the bookkeeping, the loss
		// handler could otherwise miss this attempt and strand its stage.
		c.mu.Lock()
		a.execID = exec.id
		c.mu.Unlock()
		free, err := c.driver.Send(exec.env.Addr(), ExecutorEndpoint, payload, at)
		if err == nil {
			return free, nil
		}
		c.mu.Lock()
		a.execID = ""
		c.mu.Unlock()
		lastErr = err
		c.handleExecutorLost(exec.id, at, fmt.Sprintf("task launch failed: %v", err))
	}
	c.mu.Lock()
	delete(c.attempts, a.id)
	c.mu.Unlock()
	return at, fmt.Errorf("spark: launching task %d: %w", a.id, lastErr)
}

// launchAndWait sends LaunchTask messages for every task, waits for all
// status updates, records the stage timing, and returns the completions.
// Launch messages serialize on the driver CPU, and completions serialize
// through the driver's scheduler endpoint — both real effects at scale.
// Whether it succeeds or fails, the stage ends in one StageCompleted at the
// driver time it ended, with the job clock advanced to it; a stage whose
// launch fails ends at its last send.
func (c *Context) launchAndWait(stage *stageInfo, tasks []*taskDescriptor) ([]*completion, error) {
	start := c.Clock()
	sendVT := start
	// next returns task i's completion; those of later tasks that come first
	// wait in early, so completions are handled in task order.
	early := make([]*completion, len(tasks))
	next := func(i int) *completion {
		for early[i] == nil {
			comp, _ := stage.done.Recv()
			early[comp.attempt.index] = comp
		}
		comp := early[i]
		early[i] = nil
		return comp
	}

	c.bus.Emit(obs.Event{
		Type: obs.EvStageSubmitted, VT: start, Job: stage.jobID,
		Stage: stage.id, StageName: stage.name, StageKind: stage.kind,
		Tasks: len(tasks),
	})

	// The first attempts' records are one slab and their launch payloads
	// windows of another. A retry's payload is its own: the attempt it
	// replaces may still be in flight. A task's exclusions are made on its
	// first retry: a nil map excludes nothing.
	firsts := make([]attempt, len(tasks))
	closures := make([]byte, len(tasks)*taskClosureBytes)
	exclusions := make([]map[string]bool, len(tasks))
	waiting := tasks // the tasks whose completions the stage waits for
	var firstErr error
	for i, t := range tasks {
		firsts[i] = attempt{task: t, index: i}
		free, err := c.launchTask(&firsts[i], nil, closures[i*taskClosureBytes:], sendVT)
		if err != nil {
			// The stage fails at its last send: the attempts already sent
			// leave the table, so what they report is dropped, and no task
			// is waited for.
			c.mu.Lock()
			for _, a := range firsts[:i] {
				delete(c.attempts, a.id)
			}
			c.mu.Unlock()
			firstErr, waiting = err, nil
			break
		}
		sendVT = free
	}

	comps := make([]*completion, 0, len(tasks))
	end := sendVT
	for i, t := range waiting {
		for {
			comp := next(i)
			taskCompletions.Inc()
			_, fetchFailed := shuffle.AsFetchFailed(comp.err)
			if n := comp.attempt.number; comp.err != nil && !fetchFailed && n < maxTaskAttempts-1 {
				// Retry on a different executor, like Spark's
				// spark.task.maxFailures. The retry relaunches at the
				// failure's driver-side time. Fetch failures are exempt:
				// re-running the reduce task against the same lost map
				// output cannot succeed — the map stage must be
				// resubmitted first, which runJob handles.
				if exclusions[i] == nil {
					exclusions[i] = make(map[string]bool)
				}
				exclusions[i][comp.execID] = true
				retry := &attempt{task: t, index: i, number: n + 1}
				if _, err := c.launchTask(retry, exclusions[i], make([]byte, taskClosureBytes), comp.driverVT); err != nil {
					if firstErr == nil {
						firstErr = err
					}
					break
				}
				continue
			}
			if comp.err != nil && firstErr == nil {
				firstErr = fmt.Errorf("spark: task %d (partition %d) failed after %d attempts: %w",
					comp.attempt.id, comp.part, comp.attempt.number+1, comp.err)
			}
			if comp.driverVT > end {
				end = comp.driverVT
			}
			comps = append(comps, comp)
			break
		}
	}

	// Record cache locations and metrics.
	timing := StageTiming{
		JobID: stage.jobID,
		Name:  stage.name,
		Kind:  stage.kind,
		Start: start,
		End:   end,
		Tasks: len(tasks),
	}
	c.mu.Lock()
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
