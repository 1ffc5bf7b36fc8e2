package spark

import (
	"errors"
	"fmt"
	"sort"
	"testing"
)

func TestUnion(t *testing.T) {
	c := newTestCluster(t, 2, 2, BackendVanilla)
	a := Parallelize(c.ctx, []int64{1, 2, 3}, 2)
	b := Parallelize(c.ctx, []int64{4, 5}, 2)
	u := Union(a, b)
	if u.NumPartitions() != 4 {
		t.Fatalf("partitions = %d", u.NumPartitions())
	}
	out, err := Collect(u)
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	want := []int64{1, 2, 3, 4, 5}
	if len(out) != len(want) {
		t.Fatalf("out = %v", out)
	}
	for i := range want {
		if out[i] != want[i] {
			t.Fatalf("out = %v", out)
		}
	}
}

func TestUnionOfShuffledRDDs(t *testing.T) {
	// Union across shuffle outputs exercises multi-parent lineage walking.
	c := newTestCluster(t, 2, 2, BackendVanilla)
	mk := func(base int64) *RDD[Pair[int64, int64]] {
		pairs := Generate(c.ctx, 2, func(part int, tc *TaskContext) []Pair[int64, int64] {
			out := make([]Pair[int64, int64], 20)
			for i := range out {
				out[i] = Pair[int64, int64]{K: base + int64(i%5), V: 1}
			}
			return out
		})
		return ReduceByKey(pairs, int64Conf(2), func(a, b int64) int64 { return a + b })
	}
	u := Union(mk(0), mk(100))
	n, err := Count(u)
	if err != nil {
		t.Fatal(err)
	}
	if n != 10 {
		t.Fatalf("count = %d, want 10 distinct keys", n)
	}
}

// TestZipPartitionsRejectsUnequalCounts: inputs whose partition counts
// differ, or none, are a typed error, not a panic in a task.
func TestZipPartitionsRejectsUnequalCounts(t *testing.T) {
	c := newTestCluster(t, 2, 2, BackendVanilla)
	keep := func(_ int, _ *TaskContext, parts [][]int64) ([]int64, error) { return parts[0], nil }
	for _, ins := range [][]*RDD[int64]{
		{Parallelize(c.ctx, []int64{1, 2, 3}, 2), Parallelize(c.ctx, []int64{4, 5}, 3)},
		nil,
	} {
		_, err := ZipPartitions(ins, keep)
		var ze *ZipError
		if !errors.As(err, &ze) {
			t.Fatalf("%d inputs: got %v, want *ZipError", len(ins), err)
		}
	}
}

// TestZipMergesCoPartitionedPairs folds two reduced RDDs that share a
// partitioner with a third subtracted, partition by partition: a key only
// in the subtracted input drops out, and the merge prefers the executor
// that caches its first input's partition.
func TestZipMergesCoPartitionedPairs(t *testing.T) {
	c := newTestCluster(t, 2, 2, BackendVanilla)
	sum := func(a, b int64) int64 { return a + b }
	reduced := func(keys ...int64) *RDD[Pair[int64, int64]] {
		pairs := make([]Pair[int64, int64], len(keys))
		for i, k := range keys {
			pairs[i] = Pair[int64, int64]{K: k, V: 10 * k}
		}
		return ReduceByKey(Parallelize(c.ctx, pairs, 2), int64Conf(3), sum)
	}
	prev := reduced(1, 2, 3, 4).Cache()
	if _, err := Count(prev); err != nil {
		t.Fatal(err)
	}
	merged, err := ZipPartitions([]*RDD[Pair[int64, int64]]{prev, reduced(2, 5), reduced(1, 1, 7)},
		func(_ int, tc *TaskContext, parts [][]Pair[int64, int64]) ([]Pair[int64, int64], error) {
			return MergeByKey(tc, Int64Key{}, parts[:2], parts[2:], sum, func(a, b int64) int64 { return a - b }), nil
		})
	if err != nil {
		t.Fatal(err)
	}
	for p := 0; p < merged.NumPartitions(); p++ {
		c.ctx.mu.Lock()
		want := c.ctx.cacheLocs[cacheKey{rddID: prev.id, part: p}]
		c.ctx.mu.Unlock()
		if got := c.ctx.preferredExecutor(merged, p); got != want {
			t.Errorf("partition %d prefers %q, want %q where the first input is cached", p, got, want)
		}
	}
	out, err := Collect(merged)
	if err != nil {
		t.Fatal(err)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].K < out[j].K })
	want := []Pair[int64, int64]{{1, -10}, {2, 40}, {3, 30}, {4, 40}, {5, 50}}
	if fmt.Sprint(out) != fmt.Sprint(want) {
		t.Fatalf("merged %v, want %v", out, want)
	}
}

// TestUnpersistDropsCachedPartitions: Unpersist empties both the
// executors' caches and the driver's record of where partitions live, and
// a later job neither reads nor refills them.
func TestUnpersistDropsCachedPartitions(t *testing.T) {
	c := newTestCluster(t, 2, 2, BackendVanilla)
	r := Parallelize(c.ctx, []int64{1, 2, 3, 4, 5}, 4).Cache()
	count := func() {
		t.Helper()
		if n, err := Count(r); err != nil || n != 5 {
			t.Fatalf("count = %d, %v", n, err)
		}
	}
	locs := func() int {
		c.ctx.mu.Lock()
		defer c.ctx.mu.Unlock()
		return len(c.ctx.cacheLocs)
	}
	count()
	if got := c.ctx.CachedPartitions(); got != 4 || locs() != 4 {
		t.Fatalf("after caching: %d partitions cached, %d located; want 4 and 4", got, locs())
	}
	r.Unpersist()
	count()
	if got := c.ctx.CachedPartitions(); got != 0 || locs() != 0 {
		t.Fatalf("after Unpersist: %d partitions cached, %d located; want none", got, locs())
	}
}
