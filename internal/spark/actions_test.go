package spark

import (
	"sync"
	"testing"

	"mpi4spark/internal/metrics"
)

// TestResultTaskReturnsActionResult holds runJob to its contract on a
// skewed GroupBy whose result stage the adaptive planner both splits and
// coalesces: a result task applies the action's partition function (here
// Count's) and its completion carries only that result, an int64, never
// the partition's records. A split partition's sub-tasks are the one
// exception: they send records, and the driver applies the function to
// their merge. resultSize sees exactly what each completion carries.
func TestResultTaskReturnsActionResult(t *testing.T) {
	const parts = 6
	cfg := DefaultConfig()
	cfg.AdaptiveExecution = true
	cfg.AdaptiveTargetBytes = 2 << 10
	c := newTestClusterWith(t, 3, 2, BackendVanilla, cfg)
	pairs := Generate(c.ctx, parts, func(part int, tc *TaskContext) []Pair[int64, int64] {
		out := make([]Pair[int64, int64], 0, 200)
		for i := 0; i < 200; i++ {
			k := int64(0) // hot key: 70% of the pairs
			if i >= 140 {
				k = int64(1 + i%9)
			}
			out = append(out, Pair[int64, int64]{K: k, V: int64(part*1000 + i)})
		}
		return out
	})
	grouped := GroupByKey(pairs, ShuffleConf[int64, int64]{
		Codec: PairCodec[int64, int64]{Key: Int64Codec{}, Val: Int64Codec{}},
		Ops:   Int64Key{},
		Parts: parts,
	})
	snap := metrics.Snapshot()
	var mu sync.Mutex
	inTask, onDriver, subTasks := 0, 0, 0
	counts := make([]int64, parts)
	handled := 0
	err := c.ctx.runJob(grouped, func(_ int, tc *TaskContext, data any) any {
		mu.Lock()
		if tc.exec != nil {
			inTask++
		} else {
			onDriver++
		}
		mu.Unlock()
		return int64(len(data.([]Pair[int64, []int64])))
	}, func(res any) int {
		switch res.(type) {
		case int64:
		case []Pair[int64, []int64]:
			mu.Lock()
			subTasks++
			mu.Unlock()
		default:
			t.Errorf("a result task's completion carries %T", res)
		}
		return 8
	}, func(part int, res any) {
		counts[part] = res.(int64)
		handled++
	})
	if err != nil {
		t.Fatal(err)
	}

	splits := snap.DeltaValue(CounterAdaptiveSplits)
	if splits == 0 || snap.DeltaValue(CounterAdaptiveCoalesces) == 0 {
		t.Fatal("the planner did not both split and coalesce; test proves nothing")
	}
	if handled != parts {
		t.Fatalf("handle called %d times, want once per partition (%d)", handled, parts)
	}
	if int64(onDriver) != splits || inTask != parts-onDriver {
		t.Fatalf("partition function ran %d times in tasks and %d on the driver, want %d and %d (one per split partition)",
			inTask, onDriver, parts-int(splits), splits)
	}
	if int64(subTasks) < 2*splits {
		t.Fatalf("%d sub-task completions carried records, want >= %d", subTasks, 2*splits)
	}
	var groups int64
	for _, n := range counts {
		groups += n
	}
	if groups != 10 {
		t.Fatalf("groups counted = %d, want 10", groups)
	}
}
