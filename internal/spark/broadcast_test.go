package spark_test

import (
	"sync"
	"testing"

	"mpi4spark/internal/metrics"
	"mpi4spark/internal/mpi"
	"mpi4spark/internal/spark"
)

// TestBroadcastLateJoinerPullsOverChunkFetch: an executor that joins after a
// broadcast was seeded (the replacement the driver respawns for a killed
// one) pulls the blob from the driver's block server on its first Value, on
// every backend. The pull is one block fetch request to the driver, in
// chunks of the executor's shuffle chunk size (eager-sized on MPI-Opt), so
// the driver's NIC carries the blob once; the copy lands in the executor's
// block manager, where Destroy frees it.
func TestBroadcastLateJoinerPullsOverChunkFetch(t *testing.T) {
	const blob = 256 << 10
	for _, backend := range chaosBackends {
		t.Run(backend.String(), func(t *testing.T) {
			cc := newChaosCluster(t, backend)
			b := spark.NewBroadcast(cc.ctx, int64(42), blob)
			late := replaceExecutor(t, cc, 1)
			base := late.BlockManager().StoredBytes()

			driver := cc.ctx.Driver().Node()
			driver.ResetTraffic()
			snap := metrics.Snapshot()
			// One task per executor: placement is round-robin.
			execs := cc.ctx.Executors()
			out, err := spark.Collect(spark.Generate(cc.ctx, len(execs), func(part int, tc *spark.TaskContext) []int64 {
				return []int64{b.Value(tc)}
			}))
			if err != nil {
				t.Fatal(err)
			}
			if len(out) != len(execs) {
				t.Fatalf("%d values for %d tasks", len(out), len(execs))
			}
			for _, v := range out {
				if v != 42 {
					t.Fatalf("Value = %d, want 42", v)
				}
			}
			if d := snap.DeltaValue("shuffle.fetch.requests"); d != 1 {
				t.Fatalf("%d fetch requests, want the late joiner's one", d)
			}
			wantChunks := int64(1)
			if backend == spark.BackendMPIOpt {
				wantChunks = blob / mpi.DefaultEagerThreshold
			}
			if d := snap.DeltaValue("shuffle.fetch.chunks"); d != wantChunks {
				t.Fatalf("the blob crossed in %d chunks, want %d", d, wantChunks)
			}
			if tx := driver.TxBytes(); tx < blob || tx >= 2*blob {
				t.Fatalf("driver tx = %d bytes for a %d-byte blob, want it once", tx, blob)
			}
			if got := late.BlockManager().StoredBytes(); got != base+blob {
				t.Fatalf("late joiner stores %d bytes, want %d (its pulled copy)", got, base+blob)
			}
			b.Destroy()
			if got := late.BlockManager().StoredBytes(); got != base {
				t.Fatalf("late joiner stores %d bytes after Destroy, want %d", got, base)
			}
		})
	}
}

// replaceExecutor kills executor i of cc while one of its tasks holds a
// slot, runs that job to completion through the loss, and returns the
// replacement the driver swapped into i's seat.
func replaceExecutor(t *testing.T, cc *chaosCluster, i int) *spark.Executor {
	t.Helper()
	victim := cc.ctx.Executors()[i]
	var once sync.Once
	started, killed := make(chan struct{}), make(chan struct{})
	go func() {
		<-started
		victim.Kill()
		close(killed)
	}()
	if _, err := spark.Count(spark.Generate(cc.ctx, 2*chaosWorkers, func(part int, tc *spark.TaskContext) []int64 {
		if tc.ExecutorID() == victim.ID() {
			once.Do(func() { close(started) })
			<-killed // hold the slot until the process dies
		}
		return []int64{int64(part)}
	})); err != nil {
		t.Fatalf("job did not survive the kill: %v", err)
	}
	repl := cc.ctx.Executors()[i]
	if repl == victim {
		t.Fatalf("%s was not replaced", victim.ID())
	}
	return repl
}
