// Command mpirun demonstrates the paper's Figure 3 launch flow on the
// simulated cluster: SPMD wrapper ranks fork the Spark roles (workers,
// master, driver), the workers exchange executor specifications with
// MPI_Allgather and spawn the executors collectively with
// MPI_Comm_spawn_multiple, and the resulting MPI4Spark cluster runs a
// demonstration job (a distributed word count).
//
// Usage:
//
//	mpirun -np 4                 # 4 wrapper ranks: 2 workers + master + driver
//	mpirun -np 10 -design basic  # 8 workers under MPI4Spark-Basic
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"mpi4spark/internal/core"
	"mpi4spark/internal/fabric"
	"mpi4spark/internal/spark"
)

func main() {
	var (
		np     = flag.Int("np", 4, "number of wrapper ranks (workers = np-2)")
		design = flag.String("design", "optimized", "optimized|basic")
		slots  = flag.Int("slots", 2, "executor cores per worker")
	)
	flag.Parse()
	if *np < 3 {
		fmt.Fprintln(os.Stderr, "mpirun: need -np >= 3 (at least one worker plus master and driver)")
		os.Exit(1)
	}
	workers := *np - 2

	var d core.Design
	switch *design {
	case "optimized":
		d = core.DesignOptimized
	case "basic":
		d = core.DesignBasic
	default:
		fmt.Fprintf(os.Stderr, "mpirun: unknown -design %q (optimized|basic)\n", *design)
		os.Exit(1)
	}

	f := fabric.New(fabric.NewIBHDRModel())
	wn := make([]*fabric.Node, workers)
	for i := range wn {
		wn[i] = f.AddNode(fmt.Sprintf("node-%c", 'A'+i))
	}
	masterNode := f.AddNode("node-master")
	driverNode := f.AddNode("node-driver")

	fmt.Printf("Step A: launching %d wrapper processes under the MPI launcher\n", *np)
	for r := 0; r < workers; r++ {
		fmt.Printf("  rank %d -> worker %d on %s\n", r, r, wn[r].Name())
	}
	fmt.Printf("  rank %d -> master on %s\n", workers, masterNode.Name())
	fmt.Printf("  rank %d -> driver on %s\n", workers+1, driverNode.Name())

	sparkCfg := spark.DefaultConfig()
	sparkCfg.DefaultParallelism = workers * *slots
	cl, err := core.LaunchMPICluster(core.ClusterConfig{
		Fabric:         f,
		WorkerNodes:    wn,
		MasterNode:     masterNode,
		DriverNode:     driverNode,
		SlotsPerWorker: *slots,
		Design:         d,
		Spark:          sparkCfg,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "mpirun:", err)
		os.Exit(1)
	}
	defer cl.Close()

	fmt.Printf("Step B: Spark roles forked; workers allgathered executor specs\n")
	fmt.Printf("Step C: %d executors spawned via MPI_Comm_spawn_multiple (DPM_COMM + intercomm)\n",
		len(cl.Executors))
	for _, e := range cl.Executors {
		fmt.Printf("  %s on %s (%d slots)\n", e.ID(), e.Node().Name(), e.Slots())
	}

	// Demonstration workload: distributed word count through the full
	// RDD/shuffle path, now communicating per the selected design.
	corpus := []string{
		"spark meets mpi", "mpi for spark", "netty meets mpi",
		"high performance spark", "mpi mpi mpi",
	}
	lines := spark.Parallelize(cl.Ctx, corpus, workers)
	words := spark.FlatMap(lines, strings.Fields)
	pairs := spark.Map(words, func(w string) spark.Pair[string, int64] {
		return spark.Pair[string, int64]{K: w, V: 1}
	})
	conf := spark.ShuffleConf[string, int64]{
		Codec: spark.PairCodec[string, int64]{Key: spark.StringCodec{}, Val: spark.Int64Codec{}},
		Ops:   spark.StringKey{},
		Parts: workers,
	}
	counts, err := spark.Collect(spark.ReduceByKey(pairs, conf, func(a, b int64) int64 { return a + b }))
	if err != nil {
		fmt.Fprintln(os.Stderr, "mpirun: job failed:", err)
		os.Exit(1)
	}
	fmt.Printf("\nword count over %s (%d distinct words):\n", d, len(counts))
	for _, p := range counts {
		fmt.Printf("  %-12s %d\n", p.K, p.V)
	}
	for _, s := range cl.Ctx.Stages() {
		fmt.Printf("stage %-22s %v\n", s.Name, s.Duration().AsDuration())
	}
}
