package spark

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"mpi4spark/internal/metrics"
	"mpi4spark/internal/obs"
)

// TestBroadcastSeedMovesOBOverDriverLink is the acceptance check for the
// collective broadcast wiring: seeding a B-byte blob to E executors must
// move O(B) bytes over the driver's link (the chunk chain forwards
// executor-to-executor), not the E·B of a driver fan-out.
func TestBroadcastSeedMovesOBOverDriverLink(t *testing.T) {
	const B = 4 << 20
	const workers = 5
	c := newTestCluster(t, workers, 1, BackendVanilla)
	driverNode := c.ctx.Driver().Node()
	driverNode.ResetTraffic()
	b := NewBroadcast(c.ctx, int64(7), B)
	defer b.Destroy()
	tx := driverNode.TxBytes()
	if tx < B {
		t.Fatalf("driver tx = %d, want >= blob size %d", tx, B)
	}
	if tx > B+B/4 {
		t.Fatalf("driver tx = %d for a %d-byte blob: not O(B); fan-out would be %d", tx, B, workers*B)
	}
	// Every executor must hold the seeded copy.
	for _, e := range c.ctx.Executors() {
		if e.BlockManager().StoredBytes() < B {
			t.Fatalf("executor %s stores %d bytes, want >= %d", e.ID(), e.BlockManager().StoredBytes(), B)
		}
	}
}

// TestBroadcastDestroyFreesExecutorCopies checks the destroy invalidation
// propagates: cached copies and their accounted bytes leave every
// executor, and reading afterwards panics.
func TestBroadcastDestroyFreesExecutorCopies(t *testing.T) {
	c := newTestCluster(t, 3, 1, BackendVanilla)
	baseline := make(map[string]int64)
	for _, e := range c.ctx.Executors() {
		baseline[e.ID()] = e.BlockManager().StoredBytes()
	}
	b := NewBroadcast(c.ctx, "payload", 1<<20)
	for _, e := range c.ctx.Executors() {
		if got := e.BlockManager().StoredBytes(); got != baseline[e.ID()]+1<<20 {
			t.Fatalf("executor %s stores %d bytes after seed, want %d", e.ID(), got, baseline[e.ID()]+1<<20)
		}
	}
	before := c.ctx.Clock()
	b.Destroy()
	if c.ctx.Clock() <= before {
		t.Fatal("destroy did not advance the clock (no invalidation traffic)")
	}
	for _, e := range c.ctx.Executors() {
		if got := e.BlockManager().StoredBytes(); got != baseline[e.ID()] {
			t.Fatalf("executor %s stores %d bytes after destroy, want %d", e.ID(), got, baseline[e.ID()])
		}
	}
	b.Destroy() // idempotent
	defer func() {
		if recover() == nil {
			t.Fatal("Value on destroyed broadcast did not panic")
		}
	}()
	b.Value(&TaskContext{})
}

// TestBroadcastIDsCountPerContext: a broadcast's id names its block, whose
// length goes on the wire, so it must not depend on what other contexts in
// the process broadcast. Two contexts both name their first broadcast
// broadcast_1, and their second broadcast_2.
func TestBroadcastIDsCountPerContext(t *testing.T) {
	for run := 0; run < 2; run++ {
		c := newTestCluster(t, 2, 1, BackendVanilla)
		for want := 1; want <= 2; want++ {
			b := NewBroadcast(c.ctx, want, 0)
			if id := b.blockID(); id != fmt.Sprintf("broadcast_%d", want) {
				t.Fatalf("context %d names broadcast %d %s", run, want, id)
			}
			b.Destroy()
		}
	}
}

func TestTreeAggregateMatchesReference(t *testing.T) {
	// Small (binomial reduce) and large (ring allreduce) vector paths;
	// integer-valued floats make the sum order-independent and exact.
	for _, dim := range []int{16, 12000} {
		c := newTestCluster(t, 3, 2, BackendVanilla)
		const parts = 6
		data := Generate(c.ctx, parts, func(part int, tc *TaskContext) []int64 {
			out := make([]int64, 50)
			for i := range out {
				out[i] = int64(part*50 + i)
			}
			return out
		})
		got, err := TreeAggregate(data, dim, func(part int, tc *TaskContext, items []int64) []float64 {
			v := make([]float64, dim)
			for _, x := range items {
				v[int(x)%dim] += float64(x)
			}
			return v
		})
		if err != nil {
			t.Fatalf("dim=%d: %v", dim, err)
		}
		want := make([]float64, dim)
		for part := 0; part < parts; part++ {
			for i := 0; i < 50; i++ {
				x := int64(part*50 + i)
				want[int(x)%dim] += float64(x)
			}
		}
		if len(got) != dim {
			t.Fatalf("dim=%d: result has %d elements", dim, len(got))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("dim=%d elem %d: got %v want %v", dim, i, got[i], want[i])
			}
		}
	}
}

// TestTreeAggregateFallbackOrder makes TreeAggregate's collective combine
// fail (the driver's station is closed) so that the driver sums the
// executors' vectors itself, with magnitudes whose float sum depends on the
// order: 1e16, 1 and -1e16 give 0 in that order and 1 in another. Every
// combine must give the same bits, the sum in the collective's executor
// order.
func TestTreeAggregateFallbackOrder(t *testing.T) {
	c := newTestCluster(t, 3, 1, BackendVanilla)
	c.ctx.collDriver.Close()
	_, execs := c.ctx.collectiveGroup()
	if len(execs) != 3 {
		t.Fatalf("%d executors in the collective, want 3", len(execs))
	}
	values := []float64{1e16, 1, -1e16}
	accs := make(map[string][]float64)
	want := 0.0
	for i, e := range execs {
		accs[e.id] = []float64{values[i]}
		want += values[i]
	}
	for run := 0; run < 50; run++ {
		got, err := c.ctx.combineExecutorVectors(1, accs)
		if err != nil {
			t.Fatal(err)
		}
		if got[0] != want {
			t.Fatalf("combine %d = %v, want %v (the executor-order sum)", run, got[0], want)
		}
	}
}

// TestTreeAggregateCountsExecutorsOutsideTheGroup: an executor that died
// after its tasks committed is outside the collective, and its vector still
// counts. Three executors' vectors of ones combine to threes, through the
// small-vector reduce and the large-vector allreduce alike, with one of the
// three dead: the driver contributes its vector to the collective.
func TestTreeAggregateCountsExecutorsOutsideTheGroup(t *testing.T) {
	c := newTestCluster(t, 3, 1, BackendVanilla)
	execs := c.ctx.Executors()
	accs := make(map[string][]float64)
	execs[1].Kill()
	if _, live := c.ctx.collectiveGroup(); len(live) != 2 {
		t.Fatalf("%d executors in the collective, want 2", len(live))
	}
	for _, dim := range []int{1, 12000} {
		for _, e := range execs {
			accs[e.id] = make([]float64, dim)
			for i := range accs[e.id] {
				accs[e.id][i] = 1
			}
		}
		before := c.ctx.Clock()
		got, err := c.ctx.combineExecutorVectors(dim, accs)
		if err != nil {
			t.Fatalf("dim=%d: %v", dim, err)
		}
		if c.ctx.Clock() <= before {
			t.Fatalf("dim=%d: the clock stood still: the combine fell back instead of running the collective", dim)
		}
		for i, x := range got {
			if x != 3 {
				t.Fatalf("dim=%d elem %d: %v, want 3", dim, i, x)
			}
		}
	}
}

// TestTreeAggregateCommittedAttempts runs TreeAggregate while one executor
// is killed inside one of its own tasks, so the partitions it was running
// are computed twice: once by attempts whose results die with it, once by
// their retries. Each partition's vector must count once, from its
// committed attempt: the result equals the partition-order sum on the
// driver, exactly (integer-valued floats make the sum order-independent).
func TestTreeAggregateCommittedAttempts(t *testing.T) {
	const parts, dim = 12, 8
	c := newTestClusterWith(t, 3, 2, BackendVanilla, DefaultConfig())
	events := &obs.Collector{}
	c.ctx.Bus().Subscribe(events)
	victim := c.execs[1]
	var killed atomic.Bool
	data := Generate(c.ctx, parts, func(part int, tc *TaskContext) []int64 {
		out := make([]int64, 20)
		for i := range out {
			out[i] = int64(part*20 + i)
		}
		return out
	})
	seq := func(part int, items []int64) []float64 {
		v := make([]float64, dim)
		for _, x := range items {
			v[int(x)%dim] += float64(x * int64(part+1))
		}
		return v
	}
	snap := metrics.Snapshot()
	got, err := TreeAggregate(data, dim, func(part int, tc *TaskContext, items []int64) []float64 {
		if tc.exec == victim && killed.CompareAndSwap(false, true) {
			// The attempt computes its vector, but nothing it computed
			// escapes the dead process.
			victim.Kill()
		}
		tc.Charge(500 * time.Microsecond)
		return seq(part, items)
	})
	if err != nil {
		t.Fatal(err)
	}
	if d := snap.DeltaValue("scheduler.executor.lost"); d != 1 {
		t.Fatalf("scheduler.executor.lost delta = %d, want 1; test proves nothing", d)
	}
	retried := false
	for _, e := range events.Events() {
		retried = retried || e.Type == obs.EvTaskEnd && e.Attempt >= 1
	}
	if !retried {
		t.Fatal("no TaskEnd of a retry; test proves nothing")
	}
	want := make([]float64, dim)
	for part := 0; part < parts; part++ {
		items := make([]int64, 20)
		for i := range items {
			items[i] = int64(part*20 + i)
		}
		for i, x := range seq(part, items) {
			want[i] += x
		}
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("elem %d: got %v want %v", i, got[i], want[i])
		}
	}
}

// TestConcurrentBroadcasts creates and destroys broadcasts from many
// goroutines while jobs read them — the overlapping-stages shape the CI
// race shard runs.
func TestConcurrentBroadcasts(t *testing.T) {
	c := newTestCluster(t, 3, 2, BackendVanilla)
	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			b := NewBroadcast(c.ctx, int64(i), 256<<10)
			data := Generate(c.ctx, 3, func(part int, tc *TaskContext) []int64 {
				return []int64{b.Value(tc)}
			})
			out, err := Collect(data)
			if err != nil {
				errCh <- err
				return
			}
			for _, v := range out {
				if v != int64(i) {
					errCh <- fmt.Errorf("broadcast %d read %d", i, v)
					return
				}
			}
			b.Destroy()
		}(i)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}
