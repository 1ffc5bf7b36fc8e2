package spark_test

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"mpi4spark/internal/metrics"
	"mpi4spark/internal/spark"
)

// actionResults is what every action returns over the skewed GroupBy, in
// a form that compares with reflect.DeepEqual.
type actionResults struct {
	Count     int64
	Reduce    [2]int64 // key sum, value sum
	Aggregate int64
	Top       []string
	Collect   []string
}

// groupString renders a group with its values sorted: a split partition's
// merge may list a group's values in another order than one task does.
func groupString(p spark.Pair[int64, []int64]) string {
	vs := append([]int64(nil), p.V...)
	sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
	return fmt.Sprint(p.K, vs)
}

func sumOf(vs []int64) int64 {
	var s int64
	for _, v := range vs {
		s += v
	}
	return s
}

// runActions runs Count, Reduce, Aggregate, Top and Collect over one
// skewed shuffled RDD. Each action's partition function runs in the
// result tasks, so the functions here are pure.
func runActions(t *testing.T, grouped *spark.RDD[spark.Pair[int64, []int64]]) actionResults {
	t.Helper()
	var res actionResults
	var err error
	if res.Count, err = spark.Count(grouped); err != nil {
		t.Fatal(err)
	}
	red, err := spark.Reduce(grouped, func(a, b spark.Pair[int64, []int64]) spark.Pair[int64, []int64] {
		return spark.Pair[int64, []int64]{K: a.K + b.K, V: []int64{sumOf(a.V) + sumOf(b.V)}}
	})
	if err != nil {
		t.Fatal(err)
	}
	res.Reduce = [2]int64{red.K, sumOf(red.V)}
	res.Aggregate, err = spark.Aggregate(grouped,
		func() int64 { return 0 },
		func(acc int64, p spark.Pair[int64, []int64]) int64 {
			return acc + (p.K+1)*1_000_003*int64(len(p.V)) + sumOf(p.V)
		},
		func(a, b int64) int64 { return a + b }, 8)
	if err != nil {
		t.Fatal(err)
	}
	top, err := spark.Top(grouped, 3, func(a, b spark.Pair[int64, []int64]) bool {
		if len(a.V) != len(b.V) {
			return len(a.V) < len(b.V)
		}
		return a.K < b.K
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range top {
		res.Top = append(res.Top, groupString(p))
	}
	all, err := spark.Collect(grouped)
	if err != nil {
		t.Fatal(err)
	}
	verifySkewedGroups(t, all)
	for _, p := range all {
		res.Collect = append(res.Collect, groupString(p))
	}
	return res
}

// TestActionsAgreeAcrossPlans runs every action over the skewed GroupBy
// with adaptive execution off and on (a split hot partition and coalesced
// runts), each with speculation off and on against a 20x-slower worker.
// The actions' partition functions run in coalesced tasks, in speculative
// copies and, for the split partition, on the driver after the merge:
// every action must give the same result in all four configurations. Run
// under -race, it also checks that the functions are safe to run in
// concurrent slot goroutines.
func TestActionsAgreeAcrossPlans(t *testing.T) {
	var want *actionResults
	for _, c := range []struct {
		adaptive, speculation bool
	}{{false, false}, {true, false}, {false, true}, {true, true}} {
		name := fmt.Sprintf("adaptive=%v/speculation=%v", c.adaptive, c.speculation)
		t.Run(name, func(t *testing.T) {
			snap := metrics.Snapshot()
			cc := newChaosClusterCfg(t, spark.BackendVanilla, func(cfg *spark.Config) {
				cfg.AdaptiveExecution = c.adaptive
				cfg.AdaptiveTargetBytes = 2 << 10
				cfg.Speculation = c.speculation
			})
			if c.speculation {
				slow := cc.workerNodes[1]
				slow.SetCores(1)
				for i := 0; i < 19; i++ {
					t.Cleanup(slow.Spin())
				}
			}
			got := runActions(t, spark.GroupByKey(skewedPairs(cc.ctx), chaosConf(skewParts)))
			cc.close()

			splits := snap.DeltaValue(spark.CounterAdaptiveSplits)
			coalesces := snap.DeltaValue(spark.CounterAdaptiveCoalesces)
			if c.adaptive && (splits == 0 || coalesces == 0) {
				t.Fatalf("adaptive plan made %d splits and %d coalesces, want both; test proves nothing", splits, coalesces)
			}
			launched := snap.DeltaValue(spark.CounterSpecLaunched)
			if c.speculation && launched == 0 {
				t.Fatal("no speculative attempt launched; test proves nothing")
			}
			t.Logf("%d splits, %d coalesces, %d speculative attempts", splits, coalesces, launched)
			if want == nil {
				want = &got
				return
			}
			if !reflect.DeepEqual(got, *want) {
				t.Fatalf("actions differ from the unadapted plan:\n got %+v\nwant %+v", got, *want)
			}
		})
	}
}
