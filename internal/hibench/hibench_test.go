package hibench

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"mpi4spark/internal/core"
	"mpi4spark/internal/fabric"
	"mpi4spark/internal/metrics"
	"mpi4spark/internal/spark"
	"mpi4spark/internal/spark/deploy"
)

func testCluster(t *testing.T, workers, slots int) *deploy.Cluster {
	t.Helper()
	return backendCluster(t, workers, slots, spark.BackendVanilla)
}

// backendCluster launches a cluster on the requested transport backend
// through the backend's own launch flow.
func backendCluster(t *testing.T, workers, slots int, backend spark.Backend) *deploy.Cluster {
	t.Helper()
	f := fabric.New(fabric.NewIBHDRModel())
	wn := make([]*fabric.Node, workers)
	for i := range wn {
		wn[i] = f.AddNode(fmt.Sprintf("w%d", i))
	}
	launch := deploy.StartCluster
	if backend == spark.BackendMPIBasic || backend == spark.BackendMPIOpt {
		launch = core.LaunchMPICluster
	}
	cl, err := launch(deploy.Config{
		Fabric:         f,
		WorkerNodes:    wn,
		MasterNode:     f.AddNode("master"),
		DriverNode:     f.AddNode("driver"),
		SlotsPerWorker: slots,
		Backend:        backend,
		Spark:          spark.DefaultConfig(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	return cl
}

func TestSVMConverges(t *testing.T) {
	cl := testCluster(t, 2, 2)
	res, err := RunSVM(cl.Ctx, MLConfig{Parts: 4, PerPart: 300, Dim: 10, Iterations: 4, StepSize: 0.1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if math.IsNaN(res.Metric) || res.Metric <= 0 || res.Metric > 1.0 {
		t.Fatalf("final hinge loss = %v (separable-ish data should be < 1)", res.Metric)
	}
	if res.Total <= 0 || len(res.Stages) == 0 {
		t.Fatal("no timing recorded")
	}
}

func TestLRDecreasesLoss(t *testing.T) {
	cl := testCluster(t, 2, 2)
	short, err := RunLogisticRegression(cl.Ctx, MLConfig{Parts: 4, PerPart: 300, Dim: 10, Iterations: 1, Seed: 3, StepSize: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	long, err := RunLogisticRegression(cl.Ctx, MLConfig{Parts: 4, PerPart: 300, Dim: 10, Iterations: 6, Seed: 3, StepSize: 0.5})
	if err != nil {
		t.Fatal(err)
	}
	if !(long.Metric < short.Metric) {
		t.Fatalf("log-loss did not decrease: %v -> %v", short.Metric, long.Metric)
	}
}

func TestGMMLikelihoodImproves(t *testing.T) {
	cl := testCluster(t, 2, 2)
	one, err := RunGMM(cl.Ctx, GMMConfig{Parts: 4, PerPart: 200, Dim: 4, K: 2, Iterations: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	five, err := RunGMM(cl.Ctx, GMMConfig{Parts: 4, PerPart: 200, Dim: 4, K: 2, Iterations: 5, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if !(five.Metric >= one.Metric) {
		t.Fatalf("EM log-likelihood decreased: %v -> %v", one.Metric, five.Metric)
	}
}

func TestLDAAggregatesViaCollective(t *testing.T) {
	cl := testCluster(t, 2, 2)
	snap := metrics.Snapshot()
	res, err := RunLDA(cl.Ctx, LDAConfig{Parts: 4, DocsPer: 50, Vocab: 200, WordsPer: 20, K: 4, Iterations: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	// Each iteration's dense topic-word statistics ride the collective
	// layer (reduce or ring allreduce), not a vocabulary-wide shuffle.
	ops := snap.DeltaValue(metrics.CollectiveReduceOps) +
		snap.DeltaValue(metrics.CollectiveAllreduceOps)
	if ops < 2 {
		t.Fatalf("LDA ran %d collective aggregations, want >= one per iteration", ops)
	}
	if math.IsNaN(res.Metric) || math.IsInf(res.Metric, 0) {
		t.Fatalf("metric = %v", res.Metric)
	}
}

// TestMLResultsUnchangedAcrossBackends checks the acceptance criterion
// that LR and GMM produce identical model metrics on the collective
// aggregation path regardless of the transport underneath it.
func TestMLResultsUnchangedAcrossBackends(t *testing.T) {
	lrCfg := MLConfig{Parts: 4, PerPart: 200, Dim: 8, Iterations: 3, StepSize: 0.1, Seed: 21}
	gmmCfg := GMMConfig{Parts: 4, PerPart: 200, Dim: 4, K: 2, Iterations: 3, Seed: 22}
	var lrRef, gmmRef float64
	for i, backend := range []spark.Backend{spark.BackendVanilla, spark.BackendMPIBasic, spark.BackendMPIOpt} {
		cl := backendCluster(t, 2, 2, backend).Ctx
		lr, err := RunLogisticRegression(cl, lrCfg)
		if err != nil {
			t.Fatalf("%v LR: %v", backend, err)
		}
		gmm, err := RunGMM(cl, gmmCfg)
		if err != nil {
			t.Fatalf("%v GMM: %v", backend, err)
		}
		if i == 0 {
			lrRef, gmmRef = lr.Metric, gmm.Metric
			continue
		}
		if lr.Metric != lrRef {
			t.Fatalf("%v LR metric %v != reference %v", backend, lr.Metric, lrRef)
		}
		if gmm.Metric != gmmRef {
			t.Fatalf("%v GMM metric %v != reference %v", backend, gmm.Metric, gmmRef)
		}
	}
}

func TestTeraSortCorrectness(t *testing.T) {
	cl := testCluster(t, 2, 2)
	res, err := RunTeraSort(cl.Ctx, TeraSortConfig{Parts: 4, RowsPer: 400, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metric != 1600 {
		t.Fatalf("records = %v", res.Metric)
	}
}

func TestRepartitionMovesEverything(t *testing.T) {
	cl := testCluster(t, 2, 2)
	res, err := RunRepartition(cl.Ctx, RepartitionConfig{Parts: 4, RowsPer: 500, ValueSize: 128, OutParts: 8, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metric != 2000 {
		t.Fatalf("records = %v", res.Metric)
	}
	var shuffled int64
	for _, s := range res.Stages {
		shuffled += s.ShuffleBytes
	}
	// Repartition must shuffle at least the full payload volume.
	if shuffled < int64(4*500*128) {
		t.Fatalf("shuffled %d bytes, want >= payload volume %d", shuffled, 4*500*128)
	}
}

func TestNWeightConservesMassStructure(t *testing.T) {
	cl := testCluster(t, 2, 2)
	res, err := RunNWeight(cl.Ctx, NWeightConfig{Parts: 4, Vertices: 400, Degree: 4, Hops: 2, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	if res.Metric <= 0 {
		t.Fatalf("association mass = %v", res.Metric)
	}
	// Two hops with two shuffles each (join + reduce) plus setup: at
	// least 4 shuffle-map stages must have run.
	maps := 0
	for _, s := range res.Stages {
		if s.Kind == "ShuffleMapStage" {
			maps++
		}
	}
	if maps < 4 {
		t.Fatalf("shuffle-map stages = %d, want >= 4", maps)
	}
}

func TestWorkloadsDeterministic(t *testing.T) {
	cfg := MLConfig{Parts: 2, PerPart: 100, Dim: 5, Iterations: 2, StepSize: 0.1, Seed: 42}
	a, err := RunSVM(testCluster(t, 2, 1).Ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSVM(testCluster(t, 2, 1).Ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Metric != b.Metric {
		t.Fatalf("nondeterministic SVM: %v vs %v", a.Metric, b.Metric)
	}
}

// TestRunRejectsZeroSize: every Run* rejects a config with any one field
// but its seed zeroed, before it runs anything: no default workload, and
// no division by a zero Parts.
func TestRunRejectsZeroSize(t *testing.T) {
	ctx := testCluster(t, 2, 1).Ctx
	eachZeroed(t, "SVM", MLConfig{Parts: 2, PerPart: 10, Dim: 2, Iterations: 1, StepSize: 0.1}, func(c MLConfig) (*Result, error) { return RunSVM(ctx, c) })
	eachZeroed(t, "LR", MLConfig{Parts: 2, PerPart: 10, Dim: 2, Iterations: 1, StepSize: 0.1}, func(c MLConfig) (*Result, error) { return RunLogisticRegression(ctx, c) })
	eachZeroed(t, "GMM", GMMConfig{Parts: 2, PerPart: 10, Dim: 2, K: 2, Iterations: 1}, func(c GMMConfig) (*Result, error) { return RunGMM(ctx, c) })
	eachZeroed(t, "LDA", LDAConfig{Parts: 2, DocsPer: 2, Vocab: 10, WordsPer: 2, K: 2, Iterations: 1}, func(c LDAConfig) (*Result, error) { return RunLDA(ctx, c) })
	eachZeroed(t, "TeraSort", TeraSortConfig{Parts: 2, RowsPer: 10}, func(c TeraSortConfig) (*Result, error) { return RunTeraSort(ctx, c) })
	eachZeroed(t, "Repartition", RepartitionConfig{Parts: 2, RowsPer: 10, ValueSize: 8, OutParts: 2}, func(c RepartitionConfig) (*Result, error) { return RunRepartition(ctx, c) })
	eachZeroed(t, "NWeight", NWeightConfig{Parts: 2, Vertices: 10, Degree: 2, Hops: 1}, func(c NWeightConfig) (*Result, error) { return RunNWeight(ctx, c) })
}

// eachZeroed runs valid with each field but Seed zeroed in turn and fails
// the test where run returns no error.
func eachZeroed[C any](t *testing.T, workload string, valid C, run func(C) (*Result, error)) {
	t.Helper()
	typ := reflect.TypeOf(valid)
	for i := 0; i < typ.NumField(); i++ {
		if typ.Field(i).Name == "Seed" {
			continue
		}
		c := valid
		reflect.ValueOf(&c).Elem().Field(i).SetZero()
		if res, err := run(c); err == nil {
			t.Errorf("%s with %s = 0 ran (metric %v), want an error", workload, typ.Field(i).Name, res.Metric)
		}
	}
}
