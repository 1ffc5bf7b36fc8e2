package harness

import (
	"fmt"
	"sort"
	"sync"
	"testing"
	"time"

	"mpi4spark/internal/fabric"
	"mpi4spark/internal/obs"
	"mpi4spark/internal/ohb"
	"mpi4spark/internal/spark"
)

// TestJobsDialNoControlConnection: executors register with the driver when
// the cluster starts, and the driver reaches each one over that
// registration connection. So after BuildCluster a narrow job opens no
// connection at all, and a GroupBy job opens only the executor-to-executor
// connections its shuffle fetches ride (none on RDMA, whose blocks move
// over UCR queue pairs). The driver and the master dial nothing.
func TestJobsDialNoControlConnection(t *testing.T) {
	const workers = 4
	for _, b := range backends {
		t.Run(b.String(), func(t *testing.T) {
			cl, err := BuildCluster(ClusterSpec{System: Frontera, Workers: workers, Backend: b, SlotsPerWorker: 2})
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			nodes := []*fabric.Node{cl.Fabric.Node("driver"), cl.Fabric.Node("master")}
			for i := 0; i < workers; i++ {
				nodes = append(nodes, cl.Fabric.Node(fmt.Sprintf("w%d", i)))
			}
			dials := func() (total int64) {
				for _, n := range nodes {
					total += n.Dials()
					n.ResetTraffic()
				}
				return total
			}
			dials()
			data := spark.Generate(cl.Ctx, 2*workers, func(part int, tc *spark.TaskContext) []int64 { return []int64{int64(part)} })
			if n, err := spark.Count(data); err != nil || n != 2*workers {
				t.Fatalf("count = %d, %v", n, err)
			}
			if d := dials(); d != 0 {
				t.Fatalf("a narrow job opened %d connections, want 0", d)
			}

			res, err := ohb.RunGroupByTest(cl.Ctx, ohb.Config{Mappers: 2 * workers, Reducers: 2 * workers, PairsPerMapper: 2000, ValueBytes: 64, KeyRange: 300, Seed: 3})
			if err != nil || res.Output != 300 {
				t.Fatalf("groups = %d, %v", res.Output, err)
			}
			for _, n := range nodes {
				d := n.Dials()
				switch {
				case n.Name() == "driver" || n.Name() == "master":
					if d != 0 {
						t.Errorf("%s opened %d connections during the job, want 0", n.Name(), d)
					}
				case b == spark.BackendRDMA && d != 0:
					t.Errorf("%s opened %d connections, want 0: RDMA shuffle blocks ride UCR", n.Name(), d)
				case d > workers-1:
					t.Errorf("%s opened %d connections, want at most one per peer executor (%d)", n.Name(), d, workers-1)
				}
			}
		})
	}
}

// TestFirstJobLaunchesAtSendCost: the first job's launches are spaced by
// the driver's per-launch send cost alone (about 12 µs on the socket
// transports), as its second wave is, because no launch waits for a
// connection to be established. Sixteen tasks on eight executors: the
// first wave (one task per executor) may be no further apart than the
// second. A driver that dialed each executor on its first launch spread
// the first wave about 116 µs apart.
func TestFirstJobLaunchesAtSendCost(t *testing.T) {
	const workers, slots = 8, 2
	for _, b := range backends {
		t.Run(b.String(), func(t *testing.T) {
			cl, err := BuildCluster(ClusterSpec{System: Frontera, Workers: workers, Backend: b, SlotsPerWorker: slots})
			if err != nil {
				t.Fatal(err)
			}
			defer cl.Close()
			var mu sync.Mutex
			var starts []time.Duration
			cl.Ctx.Bus().Subscribe(obs.ListenerFunc(func(e obs.Event) {
				if e.Type == obs.EvTaskStart && e.Job == 0 {
					mu.Lock()
					starts = append(starts, e.VT.AsDuration())
					mu.Unlock()
				}
			}))
			data := spark.Generate(cl.Ctx, workers*slots, func(part int, tc *spark.TaskContext) []int64 { return []int64{int64(part)} })
			if _, err := spark.Count(data); err != nil {
				t.Fatal(err)
			}
			mu.Lock()
			defer mu.Unlock()
			if len(starts) != workers*slots {
				t.Fatalf("%d tasks started, want %d", len(starts), workers*slots)
			}
			sort.Slice(starts, func(i, j int) bool { return starts[i] < starts[j] })
			widest := func(s []time.Duration) (w time.Duration) {
				for i := 1; i < len(s); i++ {
					w = max(w, s[i]-s[i-1])
				}
				return w
			}
			first, second := widest(starts[:workers]), widest(starts[workers:])
			if first > second {
				t.Fatalf("first-wave launches up to %v apart, second wave %v: %v", first, second, starts)
			}
		})
	}
}
