package spark

import (
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mpi4spark/internal/fabric"
	"mpi4spark/internal/metrics"
	"mpi4spark/internal/obs"
	"mpi4spark/internal/spark/rpc"
	"mpi4spark/internal/vtime"
)

// TestSupervisionDetectsKill kills an executor mid-task with no replacer
// installed: the kill's report must declare it lost one executorTimeout
// after its task launched, fail its in-flight task over to the survivor,
// and the job must still finish — at reduced width, with the victim
// blacklisted.
func TestSupervisionDetectsKill(t *testing.T) {
	tc := newTestCluster(t, 2, 1, BackendVanilla)
	victim := tc.execs[1]
	events := &obs.Collector{}
	tc.ctx.Bus().Subscribe(events)

	snap := metrics.Snapshot()

	var startOnce sync.Once
	started := make(chan struct{})
	killed := make(chan struct{})
	go func() {
		<-started
		victim.Kill()
		close(killed)
	}()

	rdd := Generate(tc.ctx, 4, func(part int, taskCtx *TaskContext) []int64 {
		if taskCtx.ExecutorID() == victim.ID() {
			startOnce.Do(func() { close(started) })
			<-killed
		}
		return []int64{int64(part)}
	})
	sum, err := Reduce(rdd, func(a, b int64) int64 { return a + b })
	if err != nil {
		t.Fatalf("job did not survive the kill: %v", err)
	}
	if sum != 0+1+2+3 {
		t.Fatalf("sum = %d, want 6", sum)
	}
	if d := snap.DeltaValue("scheduler.executor.lost"); d != 1 {
		t.Fatalf("scheduler.executor.lost delta = %d, want 1", d)
	}
	if d := snap.DeltaValue("scheduler.executor.replaced"); d != 0 {
		t.Fatalf("scheduler.executor.replaced delta = %d with no replacer, want 0", d)
	}
	// The victim's one started task launched at its last activity; the loss
	// is stamped one timeout later.
	var starts, losses []obs.Event
	for _, e := range events.Events() {
		switch {
		case e.Type == obs.EvTaskStart && e.Executor == victim.ID():
			starts = append(starts, e)
		case e.Type == obs.EvExecutorLost:
			losses = append(losses, e)
		}
	}
	if len(starts) != 1 || len(losses) != 1 {
		t.Fatalf("%d task starts on the victim and %d losses, want 1 and 1", len(starts), len(losses))
	}
	if want := starts[0].VT.Add(executorTimeout); losses[0].VT != want || losses[0].Executor != victim.ID() {
		t.Fatalf("loss of %s at %v, want %s at %v", losses[0].Executor, losses[0].VT, victim.ID(), want)
	}
	tc.ctx.mu.Lock()
	lost := tc.ctx.lostExecs[victim.ID()]
	tc.ctx.mu.Unlock()
	if !lost {
		t.Fatal("victim not blacklisted")
	}
	// Without a replacer the cluster keeps running on the survivor.
	n, err := Count(Generate(tc.ctx, 3, func(part int, taskCtx *TaskContext) []int64 {
		return []int64{1}
	}))
	if err != nil {
		t.Fatalf("follow-up job on shrunken cluster: %v", err)
	}
	if n != 3 {
		t.Fatalf("count = %d, want 3", n)
	}
}

// TestReplacerRestoresWidth installs a fake deployment hook and checks
// the driver swaps the replacement into the lost executor's scheduling
// seat.
func TestReplacerRestoresWidth(t *testing.T) {
	tc := newTestCluster(t, 2, 1, BackendVanilla)
	victim := tc.execs[1]

	snap := metrics.Snapshot()

	tc.ctx.SetExecutorReplacer(func(lost *Executor, at vtime.Stamp) (*Executor, vtime.Stamp, error) {
		node := tc.fab.AddNode("worker-spare")
		env, err := rpc.NewEnv("exec-1.1", node, "rpc", rpc.DefaultEnvConfig())
		if err != nil {
			return nil, 0, err
		}
		tc.envs = append(tc.envs, env)
		repl := NewExecutor(ExecutorConfig{
			ID:      "exec-1.1",
			Node:    node,
			Env:     env,
			Slots:   1,
			CPU:     DefaultCPUModel(),
			StartVT: at,
		})
		tc.execs = append(tc.execs, repl)
		return repl, at, nil
	})

	var startOnce sync.Once
	started := make(chan struct{})
	killed := make(chan struct{})
	go func() {
		<-started
		victim.Kill()
		close(killed)
	}()
	sum, err := Reduce(Generate(tc.ctx, 4, func(part int, taskCtx *TaskContext) []int64 {
		if taskCtx.ExecutorID() == victim.ID() {
			startOnce.Do(func() { close(started) })
			<-killed
		}
		return []int64{int64(part)}
	}), func(a, b int64) int64 { return a + b })
	if err != nil {
		t.Fatalf("job did not survive the kill: %v", err)
	}
	if sum != 6 {
		t.Fatalf("sum = %d, want 6", sum)
	}
	if d := snap.DeltaValue("scheduler.executor.lost"); d != 1 {
		t.Fatalf("scheduler.executor.lost delta = %d, want 1", d)
	}
	if d := snap.DeltaValue("scheduler.executor.replaced"); d != 1 {
		t.Fatalf("scheduler.executor.replaced delta = %d, want 1", d)
	}

	execs := tc.ctx.Executors()
	if len(execs) != 2 {
		t.Fatalf("width = %d, want 2", len(execs))
	}
	ids := map[string]bool{}
	for _, e := range execs {
		ids[e.ID()] = true
	}
	if !ids["exec-1.1"] || ids[victim.ID()] {
		t.Fatalf("scheduling set = %v, want exec-1.1 in place of %s", ids, victim.ID())
	}
	// The replacement actually takes tasks.
	var mu sync.Mutex
	seen := map[string]bool{}
	if _, err := Count(Generate(tc.ctx, 6, func(part int, taskCtx *TaskContext) []int64 {
		mu.Lock()
		seen[taskCtx.ExecutorID()] = true
		mu.Unlock()
		return []int64{1}
	})); err != nil {
		t.Fatalf("post-replacement job: %v", err)
	}
	if !seen["exec-1.1"] {
		t.Fatalf("replacement took no tasks: %v", seen)
	}
}

// TestCloseJoinsKillReport: Close returns only once a killed executor's
// loss report has run, and a Kill after Close reports nothing.
func TestCloseJoinsKillReport(t *testing.T) {
	tc := newTestCluster(t, 2, 1, BackendVanilla)
	snap := metrics.Snapshot()
	tc.execs[1].Kill()
	tc.ctx.Close()
	if d := snap.DeltaValue("scheduler.executor.lost"); d != 1 {
		t.Fatalf("scheduler.executor.lost delta = %d when Close returned, want 1", d)
	}
	tc.execs[0].Kill()
	tc.ctx.lossReports.Wait()
	if d := snap.DeltaValue("scheduler.executor.lost"); d != 1 {
		t.Fatalf("scheduler.executor.lost delta = %d after a Kill after Close, want 1", d)
	}
}

// TestExecutorLostIdempotent folds repeated loss reports for the same
// executor into the first.
func TestExecutorLostIdempotent(t *testing.T) {
	tc := newTestCluster(t, 2, 1, BackendVanilla)
	snap := metrics.Snapshot()
	tc.ctx.handleExecutorLost("exec-1", 10, "test")
	tc.ctx.handleExecutorLost("exec-1", 20, "test again")
	if d := snap.DeltaValue("scheduler.executor.lost"); d != 1 {
		t.Fatalf("scheduler.executor.lost delta = %d, want 1", d)
	}
}

// TestLostExecutorFailsTasksInIDOrder: the attempts in flight on a lost
// executor fail in ascending attempt id, both the synthetic TaskEnd events
// and the completions pushed to the stage's mailbox, whatever order the
// attempt table is held in. Attempts on another executor are left running.
// Ten rounds: map order is ascending by chance now and then, ten times in a
// row almost never.
func TestLostExecutorFailsTasksInIDOrder(t *testing.T) {
	tc := newTestCluster(t, 2, 1, BackendVanilla)
	c := tc.ctx
	events := &obs.Collector{}
	c.Bus().Subscribe(events)
	stage := &stageInfo{id: 7, jobID: 3}
	for round := 0; round < 10; round++ {
		lost := fmt.Sprintf("exec-lost-%d", round)
		completed := new(vtime.Mailbox[*completion])
		c.mu.Lock()
		for id := int64(1); id <= 16; id++ {
			id := id + int64(100*round)
			a := &attempt{id: id, task: &taskDescriptor{stage: stage, part: int(id % 100)}, done: completed, execID: lost}
			if id%2 == 0 {
				a.execID = "exec-0"
			}
			c.attempts[id] = a
		}
		c.mu.Unlock()
		skip := len(events.Events())
		c.failRunningTasks(lost, 1000, "test")

		var ends []int
		for _, e := range events.Events()[skip:] {
			if e.Type == obs.EvTaskEnd {
				ends = append(ends, e.Partition)
			}
		}
		var comps []int64
		for completed.Len() > 0 {
			comp, _ := completed.TryRecv()
			comps = append(comps, comp.attempt.id)
		}
		if len(ends) != 8 || len(comps) != 8 {
			t.Fatalf("round %d: %d TaskEnds and %d completions, want 8 each", round, len(ends), len(comps))
		}
		for i := range comps {
			want := int64(100*round + 2*i + 1)
			if comps[i] != want || ends[i] != int(want%100) {
				t.Fatalf("round %d: failed tasks %v (TaskEnd partitions %v), want ascending odd ids from %d",
					round, comps, ends, 100*round+1)
			}
		}
		c.mu.Lock()
		left := len(c.attempts)
		c.mu.Unlock()
		if want := 8 * (round + 1); left != want {
			t.Fatalf("round %d: %d tasks left running, want %d", round, left, want)
		}
	}
}

// TestSupersededAttemptReportIsDropped: a task body reports its own, still
// running executor lost and keeps running. The loss fails the attempt over
// to the other executor, and the retry's result is the one committed: the
// superseded attempt's StatusUpdate, handled by the driver while the retry
// runs, finds no attempt record and is dropped.
func TestSupersededAttemptReportIsDropped(t *testing.T) {
	tc := newTestCluster(t, 2, 1, BackendVanilla)
	c := tc.ctx
	// probe is a record of the test's own. A StatusUpdate naming it, sent
	// on the victim's connection after the victim's own, reaches its
	// mailbox once the driver has handled the victim's.
	probe := &attempt{id: -1, done: new(vtime.Mailbox[*completion]), comp: &completion{}}
	c.mu.Lock()
	c.attempts[probe.id] = probe
	c.mu.Unlock()

	var victim atomic.Pointer[Executor]
	retrying := make(chan struct{})
	rdd := Generate(c, 1, func(part int, taskCtx *TaskContext) []string {
		e := taskCtx.exec
		if victim.CompareAndSwap(nil, e) {
			// The first attempt: its executor is declared lost under it,
			// and it finishes once the retry runs.
			c.handleExecutorLost(e.id, taskCtx.vt, "test")
			<-retrying
			return []string{e.id}
		}
		close(retrying)
		// The victim runs no other task: once it has none left, its
		// attempt's StatusUpdate is sent, and the probe follows it.
		v := victim.Load()
		v.Wait()
		payload := binary.BigEndian.AppendUint64(nil, uint64(probe.id))
		if _, err := v.env.Send(c.driver.Addr(), SchedulerEndpoint, payload, taskCtx.vt); err != nil {
			t.Error(err)
			return nil
		}
		probe.done.Recv()
		return []string{e.id}
	})

	done := make(chan error, 1)
	var got []string
	go func() {
		var err error
		got, err = Collect(rdd)
		done <- err
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("job did not finish")
	}
	v := victim.Load()
	if len(got) != 1 || got[0] == v.id {
		t.Fatalf("committed %v, want the retry's result, not %s's", got, v.id)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if n := len(c.attempts); n != 0 {
		t.Fatalf("%d attempts left in the table, want 0", n)
	}
}

// TestFailedFirstLaunchLeavesNoAttempt: a stage whose first launch of a
// later task fails on every executor returns the error and takes the
// attempts it already sent out of the attempt table. Both executors are
// declared lost beforehand, so the failed sends fold into those losses and
// fail nothing; the first LaunchTask takes both workers down.
func TestFailedFirstLaunchLeavesNoAttempt(t *testing.T) {
	tc := newTestCluster(t, 2, 1, BackendVanilla)
	c := tc.ctx
	c.mu.Lock()
	for _, e := range tc.execs {
		c.lostExecs[e.id] = true
	}
	c.mu.Unlock()
	var once sync.Once
	tc.fab.SetTransferHook(func(from, _ *fabric.Node, _ fabric.Protocol, _ int, _ vtime.Stamp) {
		if from.Name() == "driver-node" {
			once.Do(func() {
				for _, e := range tc.execs {
					tc.fab.FailNode(e.node.Name())
				}
			})
		}
	})
	if _, err := Count(Generate(c, 2, func(int, *TaskContext) []int64 { return []int64{1} })); err == nil {
		t.Fatal("a job ran with every worker down")
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if n := len(c.attempts); n != 0 {
		t.Fatalf("%d attempts left in the table after the failed launch, want 0", n)
	}
}
