package spark

import (
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
