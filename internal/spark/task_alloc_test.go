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

// reduceJobCost runs a ReduceByKey job of the given map and reduce tasks on
// ctx reps times after one warm-up (map growth, pools, connections) and
// returns what one run allocates, in heap objects and bytes. Each map task
// writes two records for every key in [0, keys): the map-side combine leaves
// one pair per key, and Int64Key sends key k to reducer k mod reduces
// (reduces is a power of two).
func reduceJobCost(t *testing.T, ctx *spark.Context, maps, reduces, keys, reps int) (objects, bytes float64) {
	t.Helper()
	conf := spark.ShuffleConf[int64, int64]{
		Codec: spark.PairCodec[int64, int64]{Key: spark.Int64Codec{}, Val: spark.Int64Codec{}},
		Ops:   spark.Int64Key{},
		Parts: reduces,
	}
	job := func() {
		in := spark.Generate(ctx, maps, func(part int, tc *spark.TaskContext) []spark.Pair[int64, int64] {
			out := make([]spark.Pair[int64, int64], 0, 2*keys)
			for i := 0; i < 2*keys; i++ {
				out = append(out, spark.Pair[int64, int64]{K: int64(i % keys), V: 1})
			}
			return out
		})
		got, err := spark.Collect(spark.ReduceByKey(in, conf, func(a, b int64) int64 { return a + b }))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != keys {
			t.Fatalf("%d maps x %d reduces: %d keys, want %d", maps, reduces, len(got), keys)
		}
		for _, p := range got {
			if p.V != int64(2*maps) {
				t.Fatalf("%d maps x %d reduces: key %d sums to %d, want %d", maps, reduces, p.K, p.V, 2*maps)
			}
		}
	}
	job()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < reps; i++ {
		job()
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.Mallocs-m0.Mallocs) / float64(reps), float64(m1.TotalAlloc-m0.TotalAlloc) / float64(reps)
}

// measureTaskObjects runs ReduceByKey jobs of M map and R reduce tasks for
// M, R in {lo, 2lo} on ctx, each map task writing one pair to every reducer,
// and solves the four job costs for the three slopes: a job costs
// fixed + M*perMap + R*perReduce + M*R*perBlock objects.
func measureTaskObjects(t *testing.T, ctx *spark.Context, lo, reps int) taskObjects {
	t.Helper()
	cost := func(maps, reduces int) float64 {
		objects, _ := reduceJobCost(t, ctx, maps, reduces, reduces, reps)
		return objects
	}
	hi := 2 * lo
	base, moreMaps, moreReduces, both := cost(lo, lo), cost(hi, lo), cost(lo, hi), cost(hi, hi)
	var o taskObjects
	o.perBlock = (both - moreMaps - moreReduces + base) / float64((hi-lo)*(hi-lo))
	o.perMap = (moreMaps-base)/float64(hi-lo) - float64(lo)*o.perBlock
	o.perReduce = (moreReduces-base)/float64(hi-lo) - float64(lo)*o.perBlock
	return o
}

// manyKeys is the map task whose bytes TestTaskAllocationBudget holds: 1,024
// records over 512 keys, combined into 512 pairs of 16 bytes.
const manyKeys = 512

// measureMapBytes is the heap bytes one more map task of manyKeys keys costs
// a ReduceByKey job of lo reduce tasks, from lo and 2lo map tasks: its
// generated input, partitioning, combine and encoded output, and its blocks'
// way to the reducers.
func measureMapBytes(t *testing.T, ctx *spark.Context, lo, reps int) float64 {
	t.Helper()
	_, few := reduceJobCost(t, ctx, lo, lo, manyKeys, reps)
	_, more := reduceJobCost(t, ctx, 2*lo, lo, manyKeys, reps)
	return (more - few) / float64(lo)
}

// TestTaskAllocationBudget holds the host cost of a task, in heap objects
// and a map task's bytes, on every backend: per map task and per reduce task of a ReduceByKey, with
// the cost of the blocks between them (TestMessageAllocationBudget's
// subject) taken out. What is left is the task's messages (LaunchTask,
// StatusUpdate, a reduce task's batch request and reply), the records and
// blocks it produces, and a fixed handful of control-plane objects.
// Measured over fifteen runs: 21-25 per map task on every backend and
// 33-38 per reduce task (RDMA 24-27: its blocks cross no rpc pipeline). A
// map task of manyKeys keys costs 39.4-40.8 KB, of which its input is 16 KB
// and its combined pairs and encoded blocks 8 KB each; its permutation and
// combine slab are carved from its slot's scratch, which the slot's earlier
// tasks grew, so they cost nothing: nothing on the map side grows per key or
// per block. The budgets sit above that spread; the race detector, whose
// sync.Pool drops a share of what is put back, is not measured.
func TestTaskAllocationBudget(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("allocation budgets are measured without the race detector")
	}
	budgets := map[spark.Backend]taskObjects{
		spark.BackendVanilla:  {perMap: 26, perReduce: 39},
		spark.BackendRDMA:     {perMap: 26, perReduce: 29},
		spark.BackendMPIBasic: {perMap: 28, perReduce: 41},
		spark.BackendMPIOpt:   {perMap: 26, perReduce: 38},
	}
	const mapBytesBudget = 43_000
	for _, backend := range []spark.Backend{spark.BackendVanilla, spark.BackendRDMA, spark.BackendMPIBasic, spark.BackendMPIOpt} {
		t.Run(fmt.Sprint(backend), func(t *testing.T) {
			cl, err := harness.BuildCluster(harness.ClusterSpec{System: harness.Frontera, Workers: 2, SlotsPerWorker: 2, Backend: backend})
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			got := measureTaskObjects(t, cl.Ctx, 8, 5)
			mapBytes := measureMapBytes(t, cl.Ctx, 8, 5)
			t.Logf("%s: %.1f objects per map task, %.1f per reduce task, %.1f per block; %.0f bytes per map task of %d keys",
				backend, got.perMap, got.perReduce, got.perBlock, mapBytes, manyKeys)
			b := budgets[backend]
			if got.perMap > b.perMap {
				t.Errorf("a map task allocates %.1f objects, budget %.0f", got.perMap, b.perMap)
			}
			if got.perReduce > b.perReduce {
				t.Errorf("a reduce task allocates %.1f objects, budget %.0f", got.perReduce, b.perReduce)
			}
			if mapBytes > mapBytesBudget {
				t.Errorf("a map task of %d keys allocates %.0f bytes, budget %d", manyKeys, mapBytes, mapBytesBudget)
			}
		})
	}
}
