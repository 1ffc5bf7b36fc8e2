package ohb

import (
	"fmt"
	"testing"

	"mpi4spark/internal/fabric"
	"mpi4spark/internal/spark"
	"mpi4spark/internal/spark/deploy"
)

func testCluster(t *testing.T, workers, slots int) *deploy.Cluster {
	t.Helper()
	f := fabric.New(fabric.NewIBHDRModel())
	wn := make([]*fabric.Node, workers)
	for i := range wn {
		wn[i] = f.AddNode(fmt.Sprintf("w%d", i))
	}
	cl, err := deploy.StartCluster(deploy.Config{
		Fabric:         f,
		WorkerNodes:    wn,
		MasterNode:     f.AddNode("master"),
		DriverNode:     f.AddNode("driver"),
		SlotsPerWorker: slots,
		Backend:        spark.BackendVanilla,
		Spark:          spark.DefaultConfig(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	return cl
}

// TestConfigValidate: a config is a complete description. Validate
// accepts a full one as it is and rejects one with any field out of range,
// filling nothing.
func TestConfigValidate(t *testing.T) {
	full := Config{Mappers: 2, Reducers: 2, PairsPerMapper: 100, ValueBytes: 100, KeyRange: 51, Seed: 1}
	if err := full.Validate(); err != nil {
		t.Fatal(err)
	}
	for name, bad := range map[string]func(*Config){
		"zero":           func(c *Config) { *c = Config{} },
		"Mappers":        func(c *Config) { c.Mappers = 0 },
		"Reducers":       func(c *Config) { c.Reducers = -1 },
		"PairsPerMapper": func(c *Config) { c.PairsPerMapper = 0 },
		"ValueBytes":     func(c *Config) { c.ValueBytes = 0 },
		"KeyRange":       func(c *Config) { c.KeyRange = 0 },
	} {
		c := full
		bad(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("%s: %+v validated", name, c)
		}
	}
}

func TestGroupByTestStageStructure(t *testing.T) {
	cl := testCluster(t, 2, 2)
	res, err := RunGroupByTest(cl.Ctx, Config{
		Mappers: 4, Reducers: 4, PairsPerMapper: 500, ValueBytes: 64, KeyRange: 50, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Output < 40 || res.Output > 50 {
		t.Fatalf("distinct groups = %d, want close to 50", res.Output)
	}
	names := make([]string, len(res.Stages))
	for i, s := range res.Stages {
		names[i] = s.Name
	}
	want := []string{"Job0-ResultStage", "Job1-ShuffleMapStage", "Job1-ResultStage"}
	if len(names) != 3 {
		t.Fatalf("stages = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("stage %d = %q, want %q (paper's Fig. 10 breakdown)", i, names[i], want[i])
		}
	}
	if res.ShuffleReadTime() <= 0 {
		t.Fatal("no shuffle read time recorded")
	}
	if res.Total <= 0 {
		t.Fatal("no total time")
	}
}

func TestSortByTestStageStructure(t *testing.T) {
	cl := testCluster(t, 2, 2)
	res, err := RunSortByTest(cl.Ctx, Config{
		Mappers: 4, Reducers: 4, PairsPerMapper: 300, ValueBytes: 32, KeyRange: 1000, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Output != 1200 {
		t.Fatalf("sorted records = %d, want 1200", res.Output)
	}
	// Paper's SortBy labels: Job0 gen, Job1 sampling, Job2 sort.
	var sawJob2Map, sawJob2Result, genTimed bool
	for _, s := range res.Stages {
		switch s.Name {
		case "Job2-ShuffleMapStage":
			sawJob2Map = true
		case "Job2-ResultStage":
			sawJob2Result = true
		case "Job0-ResultStage":
			genTimed = s.Duration() > 0
		}
	}
	if !sawJob2Map || !sawJob2Result {
		t.Fatalf("missing Job2 stages (paper labels); got %+v", res.Stages)
	}
	if !genTimed {
		t.Fatal("no data-generation stage time")
	}
}

func TestGroupByDeterministicAcrossRuns(t *testing.T) {
	cfg := Config{Mappers: 4, Reducers: 4, PairsPerMapper: 200, ValueBytes: 16, KeyRange: 40, Seed: 7}
	c1 := testCluster(t, 2, 2)
	r1, err := RunGroupByTest(c1.Ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	c2 := testCluster(t, 2, 2)
	r2, err := RunGroupByTest(c2.Ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Output != r2.Output {
		t.Fatalf("outputs differ: %d vs %d", r1.Output, r2.Output)
	}
	// Virtual shuffle volume must match exactly (determinism).
	if r1.Stages[2].ShuffleBytes != r2.Stages[2].ShuffleBytes {
		t.Fatalf("shuffle bytes differ: %d vs %d", r1.Stages[2].ShuffleBytes, r2.Stages[2].ShuffleBytes)
	}
}
