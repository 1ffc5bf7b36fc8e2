package spark_test

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"mpi4spark/internal/harness"
	"mpi4spark/internal/obs"
	"mpi4spark/internal/spark"
	"mpi4spark/internal/vtime"
)

// A task that reads two shuffles issues both reads when it starts, as
// Spark's CoGroupedRDD and ZippedPartitionsRDD create every parent's reader
// before consuming a record. These tests run a Join and a ZipPartitions
// over two shuffles on every backend, check the output against a
// single-process reference, and compare the two-shuffle job's fetch wait
// with the same two reads run as single-shuffle jobs: read one after the
// other, the waits would add up.

const (
	overlapMaps    = 4    // map partitions per side
	overlapReduces = 2    // reduce partitions of every shuffle
	overlapRecords = 1024 // records per map partition
	overlapKeys    = 1024 // distinct keys per side; the sides share half
)

// overlapSide generates one side's records: map partition p's i-th record
// has key lo + i mod overlapKeys and value 1000p + i.
func overlapSide(ctx *spark.Context, lo int64) *spark.RDD[spark.Pair[int64, int64]] {
	return spark.Generate(ctx, overlapMaps, func(part int, tc *spark.TaskContext) []spark.Pair[int64, int64] {
		out := make([]spark.Pair[int64, int64], overlapRecords)
		for i := range out {
			out[i] = spark.Pair[int64, int64]{K: lo + int64(i%overlapKeys), V: int64(1000*part + i)}
		}
		tc.ChargeRecords(len(out), 16*len(out))
		return out
	})
}

// overlapRef is overlapSide's records, in one process.
func overlapRef(lo int64) []spark.Pair[int64, int64] {
	var out []spark.Pair[int64, int64]
	for part := 0; part < overlapMaps; part++ {
		for i := 0; i < overlapRecords; i++ {
			out = append(out, spark.Pair[int64, int64]{K: lo + int64(i%overlapKeys), V: int64(1000*part + i)})
		}
	}
	return out
}

// overlapJobs is one consumer of two shuffles: the job that reads both
// (two), the same shuffle of each side alone (single), and the two-shuffle
// job's expected output (want), each output rendered canonically.
type overlapJobs struct {
	two    func(ctx *spark.Context) (string, error)
	single func(ctx *spark.Context, lo int64) error
	want   string
}

func int64Conf() spark.ShuffleConf[int64, int64] {
	return spark.ShuffleConf[int64, int64]{
		Codec: spark.PairCodec[int64, int64]{Key: spark.Int64Codec{}, Val: spark.Int64Codec{}},
		Ops:   spark.Int64Key{},
		Parts: overlapReduces,
	}
}

func sum(a, b int64) int64 { return a + b }

// joinJobs joins the two sides; a side alone is the same shuffle read by
// GroupByKey (a join combines nothing on the map side).
func joinJobs() overlapJobs {
	rights := map[int64][]int64{}
	for _, r := range overlapRef(overlapKeys / 2) {
		rights[r.K] = append(rights[r.K], r.V)
	}
	var want []string
	for _, l := range overlapRef(0) {
		for _, v := range rights[l.K] {
			want = append(want, fmt.Sprint(l.K, l.V, v))
		}
	}
	slices.Sort(want)
	return overlapJobs{
		two: func(ctx *spark.Context) (string, error) {
			out, err := spark.Collect(spark.Join(overlapSide(ctx, 0), int64Conf(), overlapSide(ctx, overlapKeys/2), int64Conf()))
			rows := make([]string, len(out))
			for i, p := range out {
				rows[i] = fmt.Sprint(p.K, p.V.K, p.V.V)
			}
			slices.Sort(rows)
			return strings.Join(rows, ";"), err
		},
		single: func(ctx *spark.Context, lo int64) error {
			_, err := spark.Collect(spark.GroupByKey(overlapSide(ctx, lo), int64Conf()))
			return err
		},
		want: strings.Join(want, ";"),
	}
}

// zipJobs zips the two sides' ReduceByKey outputs and adds them per key; a
// side alone is its ReduceByKey.
func zipJobs() overlapJobs {
	sums := map[int64]int64{}
	for _, p := range append(overlapRef(0), overlapRef(overlapKeys/2)...) {
		sums[p.K] += p.V
	}
	var want []string
	for k, v := range sums {
		want = append(want, fmt.Sprint(k, v))
	}
	slices.Sort(want)
	reduced := func(ctx *spark.Context, lo int64) *spark.RDD[spark.Pair[int64, int64]] {
		return spark.ReduceByKey(overlapSide(ctx, lo), int64Conf(), sum)
	}
	return overlapJobs{
		two: func(ctx *spark.Context) (string, error) {
			zipped, err := spark.ZipPartitions([]*spark.RDD[spark.Pair[int64, int64]]{reduced(ctx, 0), reduced(ctx, overlapKeys/2)},
				func(_ int, tc *spark.TaskContext, parts [][]spark.Pair[int64, int64]) ([]spark.Pair[int64, int64], error) {
					return spark.MergeByKey(tc, spark.Int64Key{}, parts, nil, sum, nil), nil
				})
			if err != nil {
				return "", err
			}
			out, err := spark.Collect(zipped)
			rows := make([]string, len(out))
			for i, p := range out {
				rows[i] = fmt.Sprint(p.K, p.V)
			}
			slices.Sort(rows)
			return strings.Join(rows, ";"), err
		},
		single: func(ctx *spark.Context, lo int64) error {
			_, err := spark.Collect(reduced(ctx, lo))
			return err
		},
		want: strings.Join(want, ";"),
	}
}

// runOverlap runs, on one cluster of the backend (one P, as every harness
// cell), a warm-up job that connects the executors, each side's
// single-shuffle job, and the two-shuffle job, and checks the latter's
// output. It returns the fetch wait of the two-shuffle job and of the two
// single-shuffle jobs together. One slot per executor keeps a task's two
// reads the only traffic on its links, and the full per-record cost (no
// core consolidation) gives the second read compute to hide behind.
func runOverlap(t *testing.T, backend spark.Backend, jobs overlapJobs) (two, singles vtime.Stamp) {
	t.Helper()
	var mu sync.Mutex
	var wait vtime.Stamp
	measure := func(job func() error) (vtime.Stamp, error) {
		mu.Lock()
		before := wait
		mu.Unlock()
		err := job()
		mu.Lock()
		defer mu.Unlock()
		return wait - before, err
	}
	_, err := harness.Cell{
		Spec: harness.ClusterSpec{System: harness.Frontera, Workers: 2, SlotsPerWorker: 1, Backend: backend, CPU: spark.DefaultCPUModel()},
		Setup: func(cl *harness.Cluster) error {
			cl.Ctx.Bus().Subscribe(obs.ListenerFunc(func(e obs.Event) {
				if e.Type != obs.EvTaskEnd {
					return
				}
				mu.Lock()
				wait += e.FetchWait
				mu.Unlock()
			}))
			return jobs.single(cl.Ctx, 1000)
		},
		Job: func(cl *harness.Cluster) error {
			for _, lo := range []int64{0, overlapKeys / 2} {
				w, err := measure(func() error { return jobs.single(cl.Ctx, lo) })
				if err != nil {
					return err
				}
				singles += w
			}
			var got string
			w, err := measure(func() (err error) {
				got, err = jobs.two(cl.Ctx)
				return err
			})
			if err != nil {
				return err
			}
			if got != jobs.want {
				t.Errorf("two-shuffle output differs from the single-process reference:\n got %.200s\nwant %.200s", got, jobs.want)
			}
			two = w
			return nil
		},
	}.Run()
	if err != nil {
		t.Fatal(err)
	}
	return two, singles
}

func testReadsOverlap(t *testing.T, jobs func() overlapJobs) {
	for _, backend := range chaosBackends {
		t.Run(backend.String(), func(t *testing.T) {
			two, singles := runOverlap(t, backend, jobs())
			t.Logf("%s fetch wait: two-shuffle job %v, single-shuffle jobs %v", t.Name(), two, singles)
			if singles == 0 {
				t.Fatal("the single-shuffle jobs waited for nothing; the test proves nothing")
			}
			if 4*two >= 3*singles {
				t.Errorf("two-shuffle job waited %v for its reads, not under 3/4 of the %v the two reads take one after the other",
					two, singles)
			}
		})
	}
}

func TestJoinReadsOverlap(t *testing.T) { testReadsOverlap(t, joinJobs) }

func TestZipReadsOverlap(t *testing.T) { testReadsOverlap(t, zipJobs) }
