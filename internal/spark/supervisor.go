package spark

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"mpi4spark/internal/metrics"
	"mpi4spark/internal/obs"
	"mpi4spark/internal/spark/rpc"
	"mpi4spark/internal/vtime"
)

// HeartbeatEndpoint is the driver-side endpoint receiving executor
// liveness heartbeats (Spark's HeartbeatReceiver).
const HeartbeatEndpoint = "HeartbeatReceiver"

// supervisionTick is the wall-clock period of the driver's supervision
// pump. Virtual time only advances when something runs, so a purely
// virtual heartbeat could never expire while the driver sits blocked on a
// dead executor's tasks; the pump provides the missing liveness in real
// time while every heartbeat it emits is still stamped, shipped, and
// costed in virtual time over rpc.Env.
const supervisionTick = time.Millisecond

// Supervision at the simulation's virtual-time magnitudes: an executor
// silent for executorTimeout is lost (spark.network.timeout), which is
// missedBeats consecutive pump rounds of its 2 ms heartbeat
// (spark.executor.heartbeatInterval) going missing.
const (
	executorTimeout = 30 * time.Millisecond
	missedBeats     = 15
)

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

// execHealth is the driver's per-executor liveness record.
type execHealth struct {
	lastSeq int64       // pump sequence of the newest heartbeat received
	lastVT  vtime.Stamp // virtual send time of that heartbeat
}

// heartbeat is the decoded executor → driver liveness message. Its
// arrival is the whole signal: the driver reads who sent it and in which
// pump round, nothing about the executor's slots or tasks.
type heartbeat struct {
	ExecID string
	Seq    int64
}

// encodeHeartbeat serializes a heartbeat as a control-plane string
// payload, matching the deploy control plane's idiom: hb:<exec>:<seq>.
func encodeHeartbeat(hb heartbeat) []byte {
	return []byte(fmt.Sprintf("hb:%s:%d", hb.ExecID, hb.Seq))
}

// decodeHeartbeat parses an encoded heartbeat.
func decodeHeartbeat(payload []byte) (heartbeat, error) {
	parts := strings.Split(string(payload), ":")
	if len(parts) != 3 || parts[0] != "hb" || parts[1] == "" {
		return heartbeat{}, fmt.Errorf("spark: malformed heartbeat %q", payload)
	}
	seq, err := strconv.ParseInt(parts[2], 10, 64)
	if err != nil {
		return heartbeat{}, fmt.Errorf("spark: heartbeat seq: %w", err)
	}
	return heartbeat{ExecID: parts[1], Seq: seq}, nil
}

// receiveHeartbeat is the HeartbeatReceiver endpoint handler.
func (c *Context) receiveHeartbeat(call *rpc.Call) {
	hb, err := decodeHeartbeat(call.Payload)
	if err != nil {
		return
	}
	c.hbMu.Lock()
	h := c.hb[hb.ExecID]
	if h == nil {
		h = &execHealth{}
		c.hb[hb.ExecID] = h
	}
	if hb.Seq > h.lastSeq {
		h.lastSeq = hb.Seq
	}
	if call.VT > h.lastVT {
		h.lastVT = call.VT
	}
	c.hbMu.Unlock()
}

// superviseLoop is the driver's supervision goroutine: each wall-clock
// tick it pumps one heartbeat out of every live executor and expires the
// ones whose heartbeats stopped arriving, until Close stops it.
func (c *Context) superviseLoop() error {
	t := time.NewTicker(supervisionTick)
	defer t.Stop()
	for {
		select {
		case <-c.superStop:
			return nil
		case <-t.C:
			c.superviseTick()
		}
	}
}

// superviseTick runs one pump + expiry round: an executor whose last
// missedBeats heartbeats went missing is lost, exactly like Spark's
// spark.network.timeout tolerating spark.executor.heartbeatInterval
// multiples.
func (c *Context) superviseTick() {
	seq := c.pumpSeq.Add(1)
	c.mu.Lock()
	execs := make([]*Executor, 0, len(c.executors))
	for _, e := range c.executors {
		if !c.lostExecs[e.id] {
			execs = append(execs, e)
		}
	}
	c.mu.Unlock()
	for _, e := range execs {
		e.pumpHeartbeat(seq)
	}
	type victim struct {
		id string
		vt vtime.Stamp
	}
	var victims []victim
	c.hbMu.Lock()
	for _, e := range execs {
		h := c.hb[e.id]
		if h == nil {
			h = &execHealth{}
			c.hb[e.id] = h
		}
		if seq-h.lastSeq > missedBeats {
			// The loss is observed one timeout after the last heartbeat
			// the driver saw (or after the job clock, whichever is later).
			victims = append(victims, victim{e.id, h.lastVT.Add(executorTimeout)})
		}
	}
	c.hbMu.Unlock()
	for _, v := range victims {
		metrics.GetCounter("heartbeat.expired").Inc()
		c.handleExecutorLost(v.id, vtime.Max(v.vt, c.Clock()), "heartbeat timeout")
	}
}

// handleExecutorLost is the single funnel for every executor-loss signal:
// heartbeat expiry, a failed LaunchTask send, a failed StatusUpdate, or a
// fetch failure naming the executor. It blacklists the executor, forgets
// its map outputs (marking the affected shuffles incomplete so the next
// job attempt resubmits exactly the missing map tasks), asks the
// deployment to fork a replacement, and fails the executor's in-flight
// tasks so the stage retries them elsewhere. Repeated reports of the same
// loss fold into the first.
func (c *Context) handleExecutorLost(execID string, vt vtime.Stamp, cause string) {
	c.mu.Lock()
	if c.lostExecs[execID] {
		c.mu.Unlock()
		return
	}
	c.lostExecs[execID] = true
	c.unhealthy[execID] = true
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
	affected := make(map[int]bool)
	for shuffleID, lost := range c.tracker.UnregisterOutputsOnExecutor(execID) {
		if len(lost) > 0 {
			affected[shuffleID] = true
		}
	}
	c.markShufflesIncomplete(affected)
}

// markShufflesIncomplete flags materialized shuffles for map-stage
// resubmission and invalidates every executor's cached view of their
// output locations (Spark bumps the tracker epoch; in-process
// invalidation is our stand-in).
func (c *Context) markShufflesIncomplete(affected map[int]bool) {
	if len(affected) == 0 {
		return
	}
	c.mu.Lock()
	for shuffleID := range affected {
		if c.doneShuffles[shuffleID] {
			c.doneShuffles[shuffleID] = false
			metrics.GetCounter("scheduler.map_stage.resubmissions").Inc()
		}
	}
	execs := append([]*Executor(nil), c.executors...)
	c.mu.Unlock()
	for _, e := range execs {
		for shuffleID := range affected {
			e.tracker.Invalidate(shuffleID)
		}
	}
}

// replaceLost asks the deployment to fork a replacement and swaps it into
// the lost executor's scheduling position, clearing the way for placeTask
// to use it — the blacklist is per-process, not per-seat.
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
	// Seed the replacement's health record at the current pump sequence so
	// it gets a full executorTimeout before it can be expired.
	c.hbMu.Lock()
	c.hb[repl.id] = &execHealth{lastSeq: c.pumpSeq.Load(), lastVT: readyVT}
	c.hbMu.Unlock()
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
	delete(c.unhealthy, repl.id)
	c.mu.Unlock()
	metrics.GetCounter("scheduler.executor.replaced").Inc()
	c.bus.Emit(obs.Event{
		Type: obs.EvExecutorReplaced, VT: readyVT,
		Executor: lost.id, Replacement: repl.id,
	})
}

// failRunningTasks synthesizes an ExecutorLostError completion for every
// task in flight on the lost executor, waking the stage's waiters so the
// retry machinery relaunches the tasks elsewhere. A real completion that
// already claimed the waiter wins; a late one after the synthetic failure
// finds no waiter and is dropped.
func (c *Context) failRunningTasks(execID string, vt vtime.Stamp, cause string) {
	type failure struct {
		w    *vtime.Mailbox[*completion]
		comp *completion
	}
	var failures []failure
	c.mu.Lock()
	for taskID, owner := range c.runningOn {
		if owner != execID {
			continue
		}
		delete(c.runningOn, taskID)
		desc := c.tasks[taskID]
		w := c.waiters[taskID]
		delete(c.waiters, taskID)
		delete(c.comps, taskID)
		if desc == nil || w == nil {
			continue
		}
		failures = append(failures, failure{w, &completion{
			taskID:   taskID,
			part:     desc.part,
			execID:   execID,
			err:      &ExecutorLostError{ExecID: execID, Cause: cause},
			execVT:   vt,
			driverVT: vt,
		}})
	}
	c.mu.Unlock()
	for _, f := range failures {
		// A killed executor emits no TaskEnd of its own (nothing it
		// computed escapes); the synthetic completion's event keeps the
		// log complete so replay sees every attempt resolve.
		desc := c.lookupTask(f.comp.taskID)
		if desc != nil {
			c.bus.Emit(obs.Event{
				Type: obs.EvTaskEnd, VT: vt, Job: desc.stage.jobID,
				Stage: desc.stage.id, Partition: desc.part,
				Attempt: int(desc.attempt.Load()), Executor: execID,
				Start: vt, Err: f.comp.err.Error(),
			})
		}
		f.w.Push(f.comp)
	}
}
