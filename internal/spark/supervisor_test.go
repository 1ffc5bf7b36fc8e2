package spark

import (
	"fmt"
	"sync"
	"testing"

	"mpi4spark/internal/fabric"
	"mpi4spark/internal/metrics"
	"mpi4spark/internal/spark/rpc"
	"mpi4spark/internal/vtime"
)

// newSupervisedCluster is newTestCluster with supervision on: its
// missed-beat budget of 15 pump rounds leaves loaded -race runs ample
// slack before a live executor expires.
func newSupervisedCluster(t *testing.T, workers, slots int) *testCluster {
	t.Helper()
	f := fabric.New(fabric.NewIBHDRModel())
	driverNode := f.AddNode("driver-node")
	driverEnv, err := rpc.NewEnv("driver", driverNode, "rpc", rpc.DefaultEnvConfig())
	if err != nil {
		t.Fatal(err)
	}
	tc := &testCluster{fab: f, envs: []*rpc.Env{driverEnv}}

	var execs []*Executor
	for w := 0; w < workers; w++ {
		node := f.AddNode(fmt.Sprintf("worker%d", w))
		env, err := rpc.NewEnv(fmt.Sprintf("exec-%d", w), node, "rpc", rpc.DefaultEnvConfig())
		if err != nil {
			t.Fatal(err)
		}
		tc.envs = append(tc.envs, env)
		execs = append(execs, NewExecutor(ExecutorConfig{
			ID:    fmt.Sprintf("exec-%d", w),
			Node:  node,
			Env:   env,
			Slots: slots,
			CPU:   DefaultCPUModel(),
		}))
	}
	tc.execs = execs
	cfg := DefaultConfig()
	cfg.DefaultParallelism = workers * slots
	cfg.Supervise = true
	ctx, err := NewContext(cfg, driverEnv, execs, 0)
	if err != nil {
		t.Fatal(err)
	}
	tc.ctx = ctx
	t.Cleanup(func() {
		ctx.Close()
		tc.close()
	})
	return tc
}

func TestHeartbeatCodecRoundTrip(t *testing.T) {
	for _, hb := range []heartbeat{{ExecID: "exec-0", Seq: 7}, {ExecID: "exec-1.2", Seq: 1}} {
		got, err := decodeHeartbeat(encodeHeartbeat(hb))
		if err != nil {
			t.Fatalf("round trip %+v: %v", hb, err)
		}
		if got != hb {
			t.Fatalf("round trip = %+v, want %+v", got, hb)
		}
	}
	// The last entry is the old five-field form (slots and task ids).
	for _, bad := range []string{"", "hb", "hb::1", "hb:e:x", "nope:e:1", "hb:e:1:2:"} {
		if _, err := decodeHeartbeat([]byte(bad)); err == nil {
			t.Fatalf("decode(%q) succeeded", bad)
		}
	}
}

func TestReceiveHeartbeatMonotonic(t *testing.T) {
	tc := newTestCluster(t, 1, 1, BackendVanilla)
	c := tc.ctx

	send := func(seq int64, vt vtime.Stamp) {
		c.receiveHeartbeat(&rpc.Call{
			From:    "exec-0",
			Payload: encodeHeartbeat(heartbeat{ExecID: "exec-0", Seq: seq}),
			VT:      vt,
		})
	}
	send(3, 100)
	// A stale heartbeat (lower seq, earlier VT) must not roll seq/VT back.
	send(1, 50)
	c.hbMu.Lock()
	h := c.hb["exec-0"]
	seq, vt := h.lastSeq, h.lastVT
	c.hbMu.Unlock()
	if seq != 3 || vt != 100 {
		t.Fatalf("stale heartbeat rolled back seq/vt to %d/%v", seq, vt)
	}
	// A malformed payload is dropped without touching state.
	c.receiveHeartbeat(&rpc.Call{From: "exec-0", Payload: []byte("garbage"), VT: 999})
	c.hbMu.Lock()
	vt = c.hb["exec-0"].lastVT
	c.hbMu.Unlock()
	if vt != 100 {
		t.Fatalf("malformed heartbeat advanced vt to %v", vt)
	}
}

// TestSupervisionDetectsKill kills an executor mid-task with no replacer
// installed: heartbeat expiry must declare it lost, fail its in-flight
// task over to the survivor, and the job must still finish — at reduced
// width, with the victim blacklisted.
func TestSupervisionDetectsKill(t *testing.T) {
	tc := newSupervisedCluster(t, 2, 1)
	victim := tc.execs[1]

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
	if d := snap.DeltaValue("heartbeat.expired"); d < 1 {
		t.Fatalf("heartbeat.expired delta = %d, want >= 1", d)
	}
	tc.ctx.mu.Lock()
	lost, unhealthy := tc.ctx.lostExecs[victim.ID()], tc.ctx.unhealthy[victim.ID()]
	tc.ctx.mu.Unlock()
	if !lost || !unhealthy {
		t.Fatalf("victim not blacklisted: lost=%v unhealthy=%v", lost, unhealthy)
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
	tc := newSupervisedCluster(t, 2, 1)
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
	if d := snap.DeltaValue("scheduler.executor.replaced"); d != 1 {
		t.Fatalf("scheduler.executor.replaced delta = %d, want 1", d)
	}
	if snap.DeltaValue("heartbeat.sent") < 1 {
		t.Fatal("no heartbeats recorded")
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
