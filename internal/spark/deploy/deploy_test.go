package deploy

import (
	"fmt"
	"testing"

	"mpi4spark/internal/fabric"
	"mpi4spark/internal/spark"
)

func testConfig(workers int, backend spark.Backend) Config {
	f := fabric.New(fabric.NewIBHDRModel())
	wn := make([]*fabric.Node, workers)
	for i := range wn {
		wn[i] = f.AddNode(fmt.Sprintf("w%d", i))
	}
	return Config{
		Fabric:         f,
		WorkerNodes:    wn,
		MasterNode:     f.AddNode("master"),
		DriverNode:     f.AddNode("driver"),
		SlotsPerWorker: 2,
		Backend:        backend,
		Spark:          spark.DefaultConfig(),
	}
}

func TestStartClusterVanilla(t *testing.T) {
	cl, err := StartCluster(testConfig(3, spark.BackendVanilla))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if len(cl.Executors) != 3 {
		t.Fatalf("executors = %d", len(cl.Executors))
	}
	if cl.Ctx.TotalSlots() != 6 {
		t.Fatalf("slots = %d", cl.Ctx.TotalSlots())
	}
	// Smoke job through the deployed cluster.
	r := spark.Parallelize(cl.Ctx, []int64{1, 2, 3, 4, 5, 6}, 3)
	sum, err := spark.Reduce(r, func(a, b int64) int64 { return a + b })
	if err != nil || sum != 21 {
		t.Fatalf("sum = %d, %v", sum, err)
	}
}

func TestStartClusterRDMA(t *testing.T) {
	cl, err := StartCluster(testConfig(2, spark.BackendRDMA))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	conf := spark.ShuffleConf[int64, int64]{
		Codec: spark.PairCodec[int64, int64]{Key: spark.Int64Codec{}, Val: spark.Int64Codec{}},
		Ops:   spark.Int64Key{},
		Parts: 4,
	}
	pairs := spark.Generate(cl.Ctx, 4, func(part int, tc *spark.TaskContext) []spark.Pair[int64, int64] {
		out := make([]spark.Pair[int64, int64], 100)
		for i := range out {
			out[i] = spark.Pair[int64, int64]{K: int64(i % 10), V: 1}
		}
		return out
	})
	f := cl.Ctx.Executors()[0].Node().Fabric()
	f.ResetStats()
	n, err := spark.Count(spark.GroupByKey(pairs, conf))
	if err != nil || n != 10 {
		t.Fatalf("groups = %d, %v", n, err)
	}
	if f.Stats().BytesFor(fabric.RDMA) == 0 {
		t.Fatal("RDMA backend shuffled no bytes over verbs")
	}
}

func TestStartClusterRejectsMPIBackends(t *testing.T) {
	cfg := testConfig(1, spark.BackendMPIOpt)
	if _, err := StartCluster(cfg); err == nil {
		t.Fatal("standalone deploy accepted an MPI backend")
	}
}

func TestStartClusterNoWorkers(t *testing.T) {
	cfg := testConfig(1, spark.BackendVanilla)
	cfg.WorkerNodes = nil
	if _, err := StartCluster(cfg); err == nil {
		t.Fatal("no-worker deploy succeeded")
	}
}

func TestNodeFailureReroutesTasks(t *testing.T) {
	cfg := testConfig(3, spark.BackendVanilla)
	cl, err := StartCluster(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	// Kill one worker node mid-cluster: the scheduler blacklists its
	// executor and reroutes tasks to the survivors, so a recomputable job
	// still succeeds (Spark's spark.task.maxFailures behaviour). Lost
	// shuffle outputs are likewise recovered — FetchFailed-driven
	// map-stage resubmission, covered by the chaos suite in
	// internal/spark/chaos_test.go.
	cfg.Fabric.FailNode("w1")
	r := spark.Parallelize(cl.Ctx, make([]int64, 300), 6)
	n, err := spark.Count(r)
	if err != nil {
		t.Fatalf("job did not survive node failure: %v", err)
	}
	if n != 300 {
		t.Fatalf("count = %d", n)
	}
	// A second job also routes around the failed node.
	if _, err := spark.Count(r); err != nil {
		t.Fatalf("second job failed: %v", err)
	}
}

// TestRelaunchGetsAttemptQualifiedID is the executor ID/port collision
// regression: asking a worker to fork a second executor must yield an
// attempt-qualified identity (exec-0.1 on a fresh rpc port), never a
// duplicate of the live exec-0.
func TestRelaunchGetsAttemptQualifiedID(t *testing.T) {
	cl, err := StartCluster(testConfig(2, spark.BackendVanilla))
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	data, _, err := cl.MasterEnv.Ask(cl.Workers[0].Addr(), WorkerEndpoint, []byte("launch-executor"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := string(data); got != "launched:exec-0.1" {
		t.Fatalf("relaunch reply = %q, want launched:exec-0.1", got)
	}
}
