package spark_test

import (
	"fmt"
	"runtime"
	"testing"

	"mpi4spark/internal/harness"
	"mpi4spark/internal/spark"
)

// taskObjects is what one ReduceByKey job costs in heap objects beyond its
// fixed part, split by what scales it: a map task, a reduce task, and a
// block (one map task's output for one reducer, which crosses once).
type taskObjects struct{ perMap, perReduce, perBlock float64 }

// measureTaskObjects runs ReduceByKey jobs of M map and R reduce tasks for
// M, R in {lo, 2lo} on ctx, each map task writing one pair to every reducer,
// and solves the four job costs for the three slopes: a job costs
// fixed + M*perMap + R*perReduce + M*R*perBlock objects.
func measureTaskObjects(t *testing.T, ctx *spark.Context, lo, reps int) taskObjects {
	t.Helper()
	conf := func(parts int) spark.ShuffleConf[int64, int64] {
		return spark.ShuffleConf[int64, int64]{
			Codec: spark.PairCodec[int64, int64]{Key: spark.Int64Codec{}, Val: spark.Int64Codec{}},
			Ops:   spark.Int64Key{},
			Parts: parts,
		}
	}
	job := func(maps, reduces int) {
		// Two records per key and task, keys 0..reduces-1: the map-side
		// combine leaves one pair per reducer, and Int64Key sends key k to
		// reducer k (reduces is a power of two).
		in := spark.Generate(ctx, maps, func(part int, tc *spark.TaskContext) []spark.Pair[int64, int64] {
			out := make([]spark.Pair[int64, int64], 0, 2*reduces)
			for i := 0; i < 2*reduces; i++ {
				out = append(out, spark.Pair[int64, int64]{K: int64(i % reduces), V: 1})
			}
			return out
		})
		got, err := spark.Collect(spark.ReduceByKey(in, conf(reduces), func(a, b int64) int64 { return a + b }))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != reduces {
			t.Fatalf("%d maps x %d reduces: %d keys, want %d", maps, reduces, len(got), reduces)
		}
		for _, p := range got {
			if p.V != int64(2*maps) {
				t.Fatalf("%d maps x %d reduces: key %d sums to %d, want %d", maps, reduces, p.K, p.V, 2*maps)
			}
		}
	}
	cost := func(maps, reduces int) float64 {
		job(maps, reduces) // warm: map growth, pools, connections
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		for i := 0; i < reps; i++ {
			job(maps, reduces)
		}
		runtime.ReadMemStats(&m1)
		return float64(m1.Mallocs-m0.Mallocs) / float64(reps)
	}
	hi := 2 * lo
	base, moreMaps, moreReduces, both := cost(lo, lo), cost(hi, lo), cost(lo, hi), cost(hi, hi)
	var o taskObjects
	o.perBlock = (both - moreMaps - moreReduces + base) / float64((hi-lo)*(hi-lo))
	o.perMap = (moreMaps-base)/float64(hi-lo) - float64(lo)*o.perBlock
	o.perReduce = (moreReduces-base)/float64(hi-lo) - float64(lo)*o.perBlock
	return o
}

// TestTaskAllocationBudget holds the host cost of a task, in heap objects,
// on every backend: per map task and per reduce task of a ReduceByKey, with
// the cost of the blocks between them (TestMessageAllocationBudget's
// subject) taken out. What is left is the task's messages (LaunchTask,
// StatusUpdate, a reduce task's batch request and reply), the records and
// blocks it produces, and a fixed handful of control-plane objects.
// Measured over fifteen runs: 24-28 per map task on every backend and
// 35-41 per reduce task (RDMA 25-27: its blocks cross no rpc pipeline). The
// budgets sit above that spread; the race detector, whose sync.Pool drops a
// share of what is put back, is not measured.
func TestTaskAllocationBudget(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("allocation budgets are measured without the race detector")
	}
	budgets := map[spark.Backend]taskObjects{
		spark.BackendVanilla:  {perMap: 30, perReduce: 41},
		spark.BackendRDMA:     {perMap: 30, perReduce: 30},
		spark.BackendMPIBasic: {perMap: 32, perReduce: 44},
		spark.BackendMPIOpt:   {perMap: 30, perReduce: 40},
	}
	for _, backend := range []spark.Backend{spark.BackendVanilla, spark.BackendRDMA, spark.BackendMPIBasic, spark.BackendMPIOpt} {
		t.Run(fmt.Sprint(backend), func(t *testing.T) {
			cl, err := harness.BuildCluster(harness.ClusterSpec{System: harness.Frontera, Workers: 2, SlotsPerWorker: 2, Backend: backend})
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			got := measureTaskObjects(t, cl.Ctx, 8, 5)
			t.Logf("%s: %.1f objects per map task, %.1f per reduce task, %.1f per block", backend, got.perMap, got.perReduce, got.perBlock)
			b := budgets[backend]
			if got.perMap > b.perMap {
				t.Errorf("a map task allocates %.1f objects, budget %.0f", got.perMap, b.perMap)
			}
			if got.perReduce > b.perReduce {
				t.Errorf("a reduce task allocates %.1f objects, budget %.0f", got.perReduce, b.perReduce)
			}
		})
	}
}
