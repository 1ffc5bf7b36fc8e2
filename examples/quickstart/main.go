// Quickstart: a distributed word count on an MPI4Spark cluster.
//
// It shows the complete public API surface a user touches: building a
// simulated fabric, launching the MPI4Spark cluster (the paper's Fig. 3
// flow), composing RDD transformations, and running actions.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"sort"
	"strings"

	"mpi4spark/internal/core"
	"mpi4spark/internal/fabric"
	"mpi4spark/internal/spark"
	"mpi4spark/internal/spark/deploy"
)

func main() {
	// 1. A simulated 2-worker cluster on an InfiniBand HDR fabric.
	f := fabric.New(fabric.NewIBHDRModel())
	workers := []*fabric.Node{f.AddNode("w0"), f.AddNode("w1")}
	master, driver := f.AddNode("master"), f.AddNode("driver")

	// 2. Launch MPI4Spark (Optimized design): mpiexec-style wrapper ranks,
	//    DPM-spawned executors, MPI-backed Netty underneath Spark.
	cl, err := core.LaunchMPICluster(deploy.Config{
		Fabric:         f,
		WorkerNodes:    workers,
		MasterNode:     master,
		DriverNode:     driver,
		SlotsPerWorker: 2,
		Backend:        spark.BackendMPIOpt,
		Spark:          spark.DefaultConfig(),
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Close()

	// 3. Compose RDD transformations exactly as in Spark.
	corpus := []string{
		"it is what it is",
		"what is mpi",
		"mpi is a message passing interface",
	}
	lines := spark.Parallelize(cl.Ctx, corpus, 4)
	words := spark.FlatMap(lines, strings.Fields)
	ones := spark.Map(words, func(w string) spark.Pair[string, int64] {
		return spark.Pair[string, int64]{K: w, V: 1}
	})
	counts := spark.ReduceByKey(ones, spark.ShuffleConf[string, int64]{
		Codec: spark.PairCodec[string, int64]{Key: spark.StringCodec{}, Val: spark.Int64Codec{}},
		Ops:   spark.StringKey{},
		Parts: 4,
	}, func(a, b int64) int64 { return a + b })

	// 4. Run an action; the shuffle bodies just crossed the simulated
	//    fabric over MPI rendezvous while headers stayed on sockets.
	out, err := spark.Collect(counts)
	if err != nil {
		log.Fatal(err)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].V > out[j].V })
	fmt.Println("word counts:")
	for _, p := range out {
		fmt.Printf("  %-10s %d\n", p.K, p.V)
	}

	fmt.Println("\nstage breakdown (virtual time):")
	for _, s := range cl.Ctx.Stages() {
		fmt.Printf("  %-22s %v\n", s.Name, s.Duration().AsDuration())
	}
}
