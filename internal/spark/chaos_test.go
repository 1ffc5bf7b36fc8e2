// Chaos suite: kill a worker node that holds registered map outputs and
// require the job to complete anyway through FetchFailed-driven map-stage
// resubmission — on every backend the paper compares (IPoIB, RDMA,
// MPI-Basic, MPI-Optimized).
//
// The test lives in an external package so it can drive the two launch
// paths the backends use: deploy.StartCluster (standalone master/worker,
// Vanilla + RDMA) and core.LaunchMPICluster (the Fig. 3 mpiexec wrapper
// flow, both MPI designs).
package spark_test

import (
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"mpi4spark/internal/core"
	"mpi4spark/internal/fabric"
	"mpi4spark/internal/metrics"
	"mpi4spark/internal/obs"
	"mpi4spark/internal/spark"
	"mpi4spark/internal/spark/deploy"
	"mpi4spark/internal/spark/rpc"
	"mpi4spark/internal/spark/shuffle"
	"mpi4spark/internal/spark/shuffleservice"
)

const chaosWorkers = 3

// chaosCluster is one running cluster plus the handles the chaos tests
// poke at.
type chaosCluster struct {
	fab *fabric.Fabric
	ctx *spark.Context
	// workerNodes[i] hosts exec-i (and, for the standalone path, worker-i).
	workerNodes []*fabric.Node
	close       func()
}

// newChaosCluster launches a three-worker cluster on the requested
// backend, using the backend's real launch path.
func newChaosCluster(t *testing.T, backend spark.Backend) *chaosCluster {
	t.Helper()
	return newChaosClusterCfg(t, backend, func(*spark.Config) {})
}

// newChaosClusterCfg is newChaosCluster with a config hook (the
// supervision tests turn heartbeats on through it).
func newChaosClusterCfg(t *testing.T, backend spark.Backend, tune func(*spark.Config)) *chaosCluster {
	t.Helper()
	f, wn := chaosFabric()
	cfg := spark.DefaultConfig()
	cfg.DefaultParallelism = 2 * chaosWorkers
	tune(&cfg)
	cl, err := launchChaos(f, wn, backend, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cc := &chaosCluster{fab: f, ctx: cl.Ctx, workerNodes: wn, close: cl.Close}
	t.Cleanup(cc.close)
	return cc
}

// chaosFabric is a fabric with the chaos suite's worker nodes.
func chaosFabric() (*fabric.Fabric, []*fabric.Node) {
	f := fabric.New(fabric.NewIBHDRModel())
	wn := make([]*fabric.Node, chaosWorkers)
	for i := range wn {
		wn[i] = f.AddNode(fmt.Sprintf("w%d", i))
	}
	return f, wn
}

// launchChaos launches a cluster on f's workers wn through the backend's
// own launch flow, adding its master and driver nodes.
func launchChaos(f *fabric.Fabric, wn []*fabric.Node, backend spark.Backend, cfg spark.Config) (*deploy.Cluster, error) {
	launch := deploy.StartCluster
	if backend == spark.BackendMPIBasic || backend == spark.BackendMPIOpt {
		launch = core.LaunchMPICluster
	}
	return launch(deploy.Config{
		Fabric:         f,
		WorkerNodes:    wn,
		MasterNode:     f.AddNode("master"),
		DriverNode:     f.AddNode("driver"),
		SlotsPerWorker: 2,
		Backend:        backend,
		Spark:          cfg,
	})
}

// TestFailedForkFailsLaunch: an executor whose fork fails (its rpc port
// is already bound on its node) fails the launch with an error on every
// backend, instead of the standalone flow starting a cluster short of it
// or the MPI flow waiting forever for it.
func TestFailedForkFailsLaunch(t *testing.T) {
	for _, backend := range chaosBackends {
		t.Run(backend.String(), func(t *testing.T) {
			f, wn := chaosFabric()
			squatter, err := rpc.NewEnv("squatter", wn[1], "exec-rpc-1", rpc.DefaultEnvConfig())
			if err != nil {
				t.Fatal(err)
			}
			defer squatter.Shutdown()
			done := make(chan error, 1)
			go func() {
				cl, err := launchChaos(f, wn, backend, spark.DefaultConfig())
				if err == nil {
					cl.Close()
				}
				done <- err
			}()
			select {
			case err := <-done:
				if err == nil {
					t.Fatal("launch succeeded with exec-1's port taken")
				}
			case <-time.After(5 * time.Second):
				t.Fatal("launch has not returned 5 s after exec-1's fork failed")
			}
		})
	}
}

func chaosConf(parts int) spark.ShuffleConf[int64, int64] {
	return spark.ShuffleConf[int64, int64]{
		Codec: spark.PairCodec[int64, int64]{Key: spark.Int64Codec{}, Val: spark.Int64Codec{}},
		Ops:   spark.Int64Key{},
		Parts: parts,
	}
}

// chaosBackends is the cross-transport matrix.
var chaosBackends = []spark.Backend{
	spark.BackendVanilla,
	spark.BackendRDMA,
	spark.BackendMPIBasic,
	spark.BackendMPIOpt,
}

// verifySums checks the ReduceByKey result: keys 0..9, each key summed
// over nParts partitions of 40 records with value partition+1.
func verifySums(t *testing.T, out []spark.Pair[int64, int64], nParts int) {
	t.Helper()
	if len(out) != 10 {
		t.Fatalf("keys = %d, want 10", len(out))
	}
	var wantPerKey int64
	for p := 0; p < nParts; p++ {
		wantPerKey += 4 * int64(p+1) // 40 records/partition, 10 keys
	}
	for _, kv := range out {
		if kv.V != wantPerKey {
			t.Fatalf("key %d sum = %d, want %d", kv.K, kv.V, wantPerKey)
		}
	}
}

// TestChaosMapOutputLossResubmission is the headline chaos scenario: job 1
// materializes a shuffle (its map outputs registered across all three
// workers); a worker node then dies; job 2 reuses the shuffle, so its
// reduce tasks fetch from the dead worker, hit FetchFailedError, and the
// scheduler must unregister the lost outputs, resubmit only the missing
// map tasks on the survivors, and re-run the reduce stage to the correct
// answer.
func TestChaosMapOutputLossResubmission(t *testing.T) {
	const nParts = 6
	for _, backend := range chaosBackends {
		t.Run(backend.String(), func(t *testing.T) {
			cc := newChaosCluster(t, backend)

			pairs := spark.Generate(cc.ctx, nParts, func(part int, tc *spark.TaskContext) []spark.Pair[int64, int64] {
				out := make([]spark.Pair[int64, int64], 40)
				for i := range out {
					out[i] = spark.Pair[int64, int64]{K: int64(i % 10), V: int64(part + 1)}
				}
				tc.ChargeRecords(len(out), 16*len(out))
				return out
			})
			summed := spark.ReduceByKey(pairs, chaosConf(nParts), func(a, b int64) int64 { return a + b })

			// Job 1: materialize the shuffle and finish cleanly.
			out, err := spark.Collect(summed)
			if err != nil {
				t.Fatalf("job 1: %v", err)
			}
			verifySums(t, out, nParts)

			snap := metrics.Snapshot()

			// Kill the worker hosting exec-1: its registered map outputs
			// become unfetchable.
			cc.fab.FailNode(cc.workerNodes[1].Name())

			// Job 2 reuses the shuffle; it must recover via resubmission.
			out, err = spark.Collect(summed)
			if err != nil {
				t.Fatalf("job 2 did not survive map output loss: %v", err)
			}
			verifySums(t, out, nParts)

			if d := snap.DeltaValue("scheduler.fetch_failed"); d == 0 {
				t.Fatal("recovery recorded no fetch failures")
			}
			if d := snap.DeltaValue("scheduler.map_stage.resubmissions"); d == 0 {
				t.Fatal("recovery recorded no map-stage resubmission")
			}

			// A third job keeps working against the shrunken cluster.
			n, err := spark.Count(summed)
			if err != nil {
				t.Fatalf("job 3: %v", err)
			}
			if n != 10 {
				t.Fatalf("job 3 count = %d, want 10", n)
			}
		})
	}
}

// TestChaosExecutorKillMidReduceWithService is the push-merge payoff
// scenario: with the external shuffle service enabled, job 1 materializes
// a shuffle whose outputs live on the per-worker services, then job 2's
// first reduce task to land on exec-1 triggers a synchronous process kill
// — a mid-reduce executor loss on every backend. Because the services (not
// the dead executor) host the map outputs, recovery must cost only the
// failed-over reduce attempts: zero map-stage resubmissions, and a result
// bit-identical to the pre-kill run. The service-off flavor of the same
// loss — where resubmission IS required — stays covered by
// TestChaosMapOutputLossResubmission above.
func TestChaosExecutorKillMidReduceWithService(t *testing.T) {
	const nParts = 6
	for _, backend := range chaosBackends {
		t.Run(backend.String(), func(t *testing.T) {
			cc := newChaosClusterCfg(t, backend, func(cfg *spark.Config) {
				superviseChaos(cfg)
				cfg.ExternalShuffleService = true
			})
			victim := cc.ctx.Executors()[1]

			pairs := spark.Generate(cc.ctx, nParts, func(part int, tc *spark.TaskContext) []spark.Pair[int64, int64] {
				out := make([]spark.Pair[int64, int64], 40)
				for i := range out {
					out[i] = spark.Pair[int64, int64]{K: int64(i % 10), V: int64(part + 1)}
				}
				tc.ChargeRecords(len(out), 16*len(out))
				return out
			})
			summed := spark.ReduceByKey(pairs, chaosConf(nParts), func(a, b int64) int64 { return a + b })

			// Job 1 is the no-kill baseline: map outputs are pushed to the
			// services and the reduce fetches merged runs from them.
			snap := metrics.Snapshot()
			baseline, err := spark.Collect(summed)
			if err != nil {
				t.Fatalf("baseline job: %v", err)
			}
			verifySums(t, baseline, nParts)
			if d := snap.DeltaValue(shuffleservice.CounterPushedBytes); d == 0 {
				t.Fatal("service enabled but nothing was pushed")
			}
			if d := snap.DeltaValue(shuffleservice.CounterServedBytes); d == 0 {
				t.Fatal("service enabled but reduce fetched nothing from it")
			}

			// Arm the chaos trigger: the first reduce (ResultStage) task to
			// start on the victim kills its process synchronously, before
			// the task's fetch begins — a loss with the reduce mid-flight.
			var (
				mu       sync.Mutex
				kinds    = map[int]string{}
				armed    = true
				killOnce sync.Once
			)
			cc.ctx.Bus().Subscribe(obs.ListenerFunc(func(e obs.Event) {
				switch e.Type {
				case obs.EvStageSubmitted:
					mu.Lock()
					kinds[e.Stage] = e.StageKind
					mu.Unlock()
				case obs.EvTaskStart:
					mu.Lock()
					kind, on := kinds[e.Stage], armed
					mu.Unlock()
					if on && kind == "ResultStage" && e.Executor == victim.ID() {
						killOnce.Do(func() {
							mu.Lock()
							armed = false
							mu.Unlock()
							victim.Kill()
						})
					}
				}
			}))

			snap = metrics.Snapshot()
			out, err := spark.Collect(summed)
			if err != nil {
				t.Fatalf("job with mid-reduce executor kill: %v", err)
			}
			sort.Slice(out, func(a, b int) bool { return out[a].K < out[b].K })
			sort.Slice(baseline, func(a, b int) bool { return baseline[a].K < baseline[b].K })
			if !reflect.DeepEqual(out, baseline) {
				t.Fatalf("recovered result differs from no-kill run:\n got %+v\nwant %+v", out, baseline)
			}

			if d := snap.DeltaValue("scheduler.executor.lost"); d < 1 {
				t.Fatalf("scheduler.executor.lost delta = %d, want >= 1", d)
			}
			// The headline assertion: the map outputs survived on the
			// services, so the scheduler never re-ran the map stage.
			if d := snap.DeltaValue("scheduler.map_stage.resubmissions"); d != 0 {
				t.Fatalf("map stage resubmitted %d times with the service on, want 0", d)
			}
			if d := snap.DeltaValue(shuffleservice.CounterServedBytes); d == 0 {
				t.Fatal("recovered reduce did not fetch from the services")
			}
		})
	}
}

// TestChaosStageAttemptsExhausted is the negative control: with stage
// re-attempts capped at one, the same map-output loss must surface to the
// caller as a typed FetchFailedError naming the dead executor — not a
// hang, and not a spurious success.
func TestChaosStageAttemptsExhausted(t *testing.T) {
	const nParts = 6
	f, wn := chaosFabric()
	cfg := spark.DefaultConfig()
	cfg.DefaultParallelism = 2 * chaosWorkers
	cfg.MaxStageAttempts = 1 // first FetchFailed is terminal
	cl, err := launchChaos(f, wn, spark.BackendVanilla, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	pairs := spark.Generate(cl.Ctx, nParts, func(part int, tc *spark.TaskContext) []spark.Pair[int64, int64] {
		out := make([]spark.Pair[int64, int64], 40)
		for i := range out {
			out[i] = spark.Pair[int64, int64]{K: int64(i % 10), V: int64(part + 1)}
		}
		return out
	})
	summed := spark.ReduceByKey(pairs, chaosConf(nParts), func(a, b int64) int64 { return a + b })
	if _, err := spark.Collect(summed); err != nil {
		t.Fatalf("job 1: %v", err)
	}

	f.FailNode(wn[1].Name())

	_, err = spark.Collect(summed)
	if err == nil {
		t.Fatal("job succeeded with zero stage re-attempts and lost map outputs")
	}
	ff, ok := shuffle.AsFetchFailed(err)
	if !ok {
		t.Fatalf("error is not a FetchFailedError: %v", err)
	}
	// Two detection orders are possible: a reduce task fetching against
	// the dead node surfaces a transfer failure naming exec-1, or a task
	// launch aimed at the dead node loses the executor first — proactively
	// unregistering its outputs — and the reduce task then hits the
	// metadata flavor (no location: nothing left to unregister). Both are
	// typed fetch failures against the same shuffle.
	if ff.Loc.ExecID != "exec-1" && ff.Loc.ExecID != "" {
		t.Fatalf("FetchFailedError names %q, want exec-1 or a metadata failure (err: %v)", ff.Loc.ExecID, err)
	}
	if ff.ShuffleID != 1 {
		t.Fatalf("FetchFailedError shuffle = %d, want 1 (err: %v)", ff.ShuffleID, err)
	}
}

// superviseChaos turns supervision on: its missed-beat budget of 15 pump
// rounds expires a genuinely dead executor within a few wall-clock
// milliseconds while a loaded -race run has ample slack before a live
// executor's beats count as late.
func superviseChaos(cfg *spark.Config) {
	cfg.Supervise = true
}

// TestChaosExecutorKillNarrowJob kills an executor process mid-stage
// during a narrow-only (no shuffle) job on every backend. Nothing ever
// fetches from the victim and a dead process sends no status update, so
// the only loss signal is its heartbeat going silent: the driver must
// expire it, fail its in-flight tasks over to the survivors, respawn a
// replacement through the backend's own launch path (worker re-fork in
// standalone, DPM seat respawn under the MPI launcher), and schedule
// follow-up work across the restored cluster width.
func TestChaosExecutorKillNarrowJob(t *testing.T) {
	const nParts = 2 * chaosWorkers
	for _, backend := range chaosBackends {
		t.Run(backend.String(), func(t *testing.T) {
			snap := metrics.Snapshot()

			cc := newChaosClusterCfg(t, backend, superviseChaos)
			victim := cc.ctx.Executors()[1]

			// The victim dies only once one of its tasks is actually on a
			// slot, guaranteeing a mid-stage loss with in-flight work.
			var startOnce sync.Once
			started := make(chan struct{})
			killed := make(chan struct{})
			go func() {
				<-started
				victim.Kill()
				close(killed)
			}()

			data := spark.Generate(cc.ctx, nParts, func(part int, tc *spark.TaskContext) []int64 {
				if tc.ExecutorID() == victim.ID() {
					startOnce.Do(func() { close(started) })
					<-killed // hold the slot until the process dies
				}
				out := make([]int64, 50)
				for i := range out {
					out[i] = int64(part*50 + i)
				}
				tc.ChargeRecords(len(out), 8*len(out))
				return out
			})
			sum, err := spark.Reduce(data, func(a, b int64) int64 { return a + b })
			if err != nil {
				t.Fatalf("narrow job did not survive the executor kill: %v", err)
			}
			n := int64(nParts * 50)
			if want := n * (n - 1) / 2; sum != want {
				t.Fatalf("sum = %d, want %d", sum, want)
			}

			if d := snap.DeltaValue("scheduler.executor.lost"); d < 1 {
				t.Fatalf("scheduler.executor.lost delta = %d, want >= 1", d)
			}
			if d := snap.DeltaValue("scheduler.executor.replaced"); d < 1 {
				t.Fatalf("scheduler.executor.replaced delta = %d, want >= 1", d)
			}
			if d := snap.DeltaValue("heartbeat.sent"); d < 1 {
				t.Fatalf("heartbeat.sent delta = %d, want >= 1", d)
			}
			if d := snap.DeltaValue("heartbeat.expired"); d < 1 {
				t.Fatalf("heartbeat.expired delta = %d, want >= 1", d)
			}

			// Replacement restored the cluster width in place.
			execs := cc.ctx.Executors()
			if len(execs) != chaosWorkers {
				t.Fatalf("cluster width = %d executors, want %d", len(execs), chaosWorkers)
			}
			for _, e := range execs {
				if e.ID() == victim.ID() {
					t.Fatalf("victim %s still scheduled after replacement", victim.ID())
				}
			}

			// Post-recovery scheduling spreads across the original width:
			// the blacklist is per-process, and the replacement is healthy.
			var mu sync.Mutex
			seen := make(map[string]bool)
			probe := spark.Generate(cc.ctx, nParts, func(part int, tc *spark.TaskContext) []int64 {
				mu.Lock()
				seen[tc.ExecutorID()] = true
				mu.Unlock()
				return []int64{1}
			})
			if _, err := spark.Count(probe); err != nil {
				t.Fatalf("post-recovery job: %v", err)
			}
			if len(seen) != chaosWorkers {
				t.Fatalf("post-recovery tasks ran on %d executors (%v), want %d", len(seen), seen, chaosWorkers)
			}

			// And a full shuffle round-trips through the replacement.
			pairs := spark.Generate(cc.ctx, nParts, func(part int, tc *spark.TaskContext) []spark.Pair[int64, int64] {
				out := make([]spark.Pair[int64, int64], 40)
				for i := range out {
					out[i] = spark.Pair[int64, int64]{K: int64(i % 10), V: int64(part + 1)}
				}
				tc.ChargeRecords(len(out), 16*len(out))
				return out
			})
			summed := spark.ReduceByKey(pairs, chaosConf(nParts), func(a, b int64) int64 { return a + b })
			out, err := spark.Collect(summed)
			if err != nil {
				t.Fatalf("post-recovery shuffle job: %v", err)
			}
			verifySums(t, out, nParts)
		})
	}
}
