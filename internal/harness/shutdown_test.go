package harness

import (
	"fmt"
	"runtime"
	"sync"
	"testing"

	"mpi4spark/internal/obs"
	"mpi4spark/internal/spark"
)

// TestClosedClusterLeavesNoGoroutine: a closed cluster has joined every
// thread it started. On each backend, with the shuffle service off and on,
// and once with an executor killed from inside its first reduce task, the
// goroutine count right after Close (no sleep, no yield) is the count before
// the cluster was built.
func TestClosedClusterLeavesNoGoroutine(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	// The previous test's runner goroutine can still be on its way out, and
	// on one P it stays runnable until this one yields: let it exit before
	// the first count, or that count includes it.
	runtime.Gosched()
	const workers, mappers = 3, 6
	type cell struct {
		backend       spark.Backend
		service, kill bool
	}
	var cells []cell
	for _, b := range backends {
		cells = append(cells, cell{b, false, false}, cell{b, true, false})
	}
	cells = append(cells, cell{spark.BackendMPIOpt, false, true})
	for _, c := range cells {
		name := fmt.Sprintf("%s service=%v kill=%v", c.backend, c.service, c.kill)
		before := runtime.NumGoroutine()
		cl, err := BuildCluster(ClusterSpec{System: Frontera, Workers: workers, Backend: c.backend,
			ShuffleService: c.service})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		pairs := spark.Generate(cl.Ctx, mappers, func(part int, tc *spark.TaskContext) []spark.Pair[int64, int64] {
			out := make([]spark.Pair[int64, int64], 64)
			for i := range out {
				out[i] = spark.Pair[int64, int64]{K: int64(i % 16), V: int64(part + 1)}
			}
			return out
		})
		summed := spark.ReduceByKey(pairs, int64Conf(mappers), func(a, b int64) int64 { return a + b })
		var once sync.Once
		killed := false
		if c.kill {
			// The victim's process dies on its own task's thread, the moment
			// its first reduce task starts.
			victim := cl.Ctx.Executors()[1]
			var mu sync.Mutex
			kinds := map[int]string{}
			cl.Ctx.Bus().Subscribe(obs.ListenerFunc(func(e obs.Event) {
				mu.Lock()
				defer mu.Unlock()
				switch {
				case e.Type == obs.EvStageSubmitted:
					kinds[e.Stage] = e.StageKind
				case e.Type == obs.EvTaskStart && kinds[e.Stage] == "ResultStage" && e.Executor == victim.ID():
					once.Do(func() {
						victim.Kill()
						killed = true
					})
				}
			}))
		}
		got, err := spark.Collect(summed)
		if err != nil || len(got) != 16 {
			t.Errorf("%s: %d keys, %v; want 16", name, len(got), err)
		}
		cl.Close()
		if after := runtime.NumGoroutine(); after != before {
			t.Errorf("%s: %d goroutines after Close, %d before the build", name, after, before)
		}
		if killed != c.kill {
			t.Errorf("%s: executor killed = %v", name, killed)
		}
	}
}
