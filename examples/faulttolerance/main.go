// Fault-tolerance example: first a worker node dies mid-application and
// the scheduler reroutes its tasks to the survivors; then an executor
// process on a healthy node is killed, the driver declares it lost one
// executor timeout after its last activity (ExecutorLost → replacement),
// and the worker forks a replacement — the extension built on the
// MPI_Comm_connect/accept direction the paper names as future work
// (task retry with executor blacklisting, FetchFailed-driven map-stage
// resubmission for lost shuffle outputs, and executor loss and
// replacement; see DESIGN.md §6).
//
//	go run ./examples/faulttolerance
package main

import (
	"fmt"
	"log"

	"mpi4spark/internal/fabric"
	"mpi4spark/internal/metrics"
	"mpi4spark/internal/obs"
	"mpi4spark/internal/spark"
	"mpi4spark/internal/spark/deploy"
)

func main() {
	f := fabric.New(fabric.NewIBHDRModel())
	workers := []*fabric.Node{f.AddNode("w0"), f.AddNode("w1"), f.AddNode("w2")}
	cfg := spark.DefaultConfig()
	cl, err := deploy.StartCluster(deploy.Config{
		Fabric:         f,
		WorkerNodes:    workers,
		MasterNode:     f.AddNode("master"),
		DriverNode:     f.AddNode("driver"),
		SlotsPerWorker: 2,
		Backend:        spark.BackendVanilla,
		Spark:          cfg,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cl.Close()

	data := spark.Generate(cl.Ctx, 6, func(part int, tc *spark.TaskContext) []int64 {
		out := make([]int64, 1000)
		for i := range out {
			out[i] = int64(part*1000 + i)
		}
		tc.ChargeRecords(len(out), 8*len(out))
		return out
	})

	sum, err := spark.Reduce(data, func(a, b int64) int64 { return a + b })
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("before failure: sum = %d across %d executors\n", sum, len(cl.Executors))

	// Materialize a shuffle so w1 holds registered map outputs when it
	// dies: losing them forces the scheduler down the FetchFailed path,
	// not just task rerouting.
	conf := spark.ShuffleConf[int64, int64]{
		Codec: spark.PairCodec[int64, int64]{Key: spark.Int64Codec{}, Val: spark.Int64Codec{}},
		Ops:   spark.Int64Key{},
		Parts: 6,
	}
	byKey := spark.ReduceByKey(
		spark.KeyBy(data, func(v int64) int64 { return v % 10 }),
		conf,
		func(a, b int64) int64 { return a + b },
	)
	if _, err := spark.Collect(byKey); err != nil {
		log.Fatal(err)
	}

	// --- Act 1: node death. The whole worker goes down, so there is
	// nothing left to fork a replacement from: the cluster must keep
	// running at reduced width.
	fmt.Println("injecting failure: node w1 goes down")
	f.FailNode("w1")

	// The same jobs run again. Map-only tasks destined for w1's executor
	// fail to launch and get rerouted; reduce tasks fetching w1's shuffle
	// blocks hit FetchFailedError, and the scheduler resubmits exactly the
	// lost map tasks on the survivors.
	sum2, err := spark.Reduce(data, func(a, b int64) int64 { return a + b })
	if err != nil {
		log.Fatalf("job did not survive the failure: %v", err)
	}
	fmt.Printf("after failure:  sum = %d (identical), rerouted around w1\n", sum2)

	groups, err := spark.Collect(byKey)
	if err != nil {
		log.Fatalf("shuffle job did not survive the failure: %v", err)
	}
	fmt.Printf("after failure:  %d shuffle groups recovered via %d map-stage resubmission(s)\n",
		len(groups), metrics.CounterValue("scheduler.map_stage.resubmissions"))

	// --- Act 2: executor process death on a healthy node. The process
	// dies silently — no failed fetch, no status update — so the driver
	// declares it lost 30ms of virtual time after its last activity
	// (spark.network.timeout), and the owning worker forks an
	// attempt-qualified replacement (exec-2.1).
	var victim *spark.Executor
	for _, e := range cl.Ctx.Executors() {
		if e.ID() == "exec-2" {
			victim = e
		}
	}
	fmt.Println("injecting failure: executor process exec-2 killed (node w2 stays up)")
	replaced := make(chan struct{})
	cl.Ctx.Bus().Subscribe(obs.ListenerFunc(func(e obs.Event) {
		if e.Type == obs.EvExecutorReplaced {
			close(replaced)
		}
	}))
	victim.Kill()

	// The cluster is idle, so the kill's own report is the only loss
	// signal: wait for the replacement before the next job.
	<-replaced

	sum3, err := spark.Reduce(data, func(a, b int64) int64 { return a + b })
	if err != nil {
		log.Fatalf("job did not survive the executor kill: %v", err)
	}
	execs := cl.Ctx.Executors()
	ids := make([]string, len(execs))
	for i, e := range execs {
		ids[i] = e.ID()
	}
	fmt.Printf("after kill:     sum = %d (identical), executors now %v\n", sum3, ids)
	fmt.Printf("executor loss:  %d executor(s) lost, %d replaced\n",
		metrics.CounterValue("scheduler.executor.lost"), metrics.CounterValue("scheduler.executor.replaced"))
	for _, s := range cl.Ctx.Stages() {
		fmt.Printf("  %-22s %v\n", s.Name, s.Duration().AsDuration())
	}
}
