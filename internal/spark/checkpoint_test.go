package spark

import (
	"errors"
	"sync/atomic"
	"testing"
)

// TestLocalCheckpointCutsLineage: the job that materializes every
// partition of a local checkpoint leaves it with no dependencies; a second
// action reads the cache without recomputing the parent; and once the RDD
// is unpersisted a read fails with *CheckpointLostError instead of
// recomputing from the forgotten lineage.
func TestLocalCheckpointCutsLineage(t *testing.T) {
	c := newTestCluster(t, 2, 2, BackendVanilla)
	var computed atomic.Int64
	parent := Generate(c.ctx, 4, func(part int, tc *TaskContext) []int64 {
		computed.Add(1)
		return []int64{int64(part), int64(part) + 10}
	})
	ck := Map(parent, func(v int64) int64 { return 2 * v }).LocalCheckpoint()
	if len(ck.deps) != 1 {
		t.Fatalf("before its first job the checkpoint has %d dependencies, want its parent", len(ck.deps))
	}
	const want = 2 * (0 + 1 + 2 + 3 + 10 + 11 + 12 + 13)
	sum := func() {
		t.Helper()
		if got, err := Reduce(ck, func(a, b int64) int64 { return a + b }); err != nil || got != want {
			t.Fatalf("sum = %d, %v; want %d", got, err, want)
		}
	}
	sum()
	c.ctx.mu.Lock()
	pending := len(c.ctx.checkpoints)
	c.ctx.mu.Unlock()
	if len(ck.deps) != 0 || pending != 0 {
		t.Fatalf("after the materializing job: %d dependencies, %d checkpoints pending; want none", len(ck.deps), pending)
	}
	sum()
	if n := computed.Load(); n != 4 {
		t.Fatalf("parent computed %d partitions over two actions, want 4 (the second reads the cache)", n)
	}
	ck.Unpersist()
	_, err := Count(ck)
	var lost *CheckpointLostError
	if !errors.As(err, &lost) {
		t.Fatalf("read after Unpersist: got %v, want *CheckpointLostError", err)
	}
	if lost.RDD != ck.id || lost.Executor == "" {
		t.Fatalf("lost checkpoint names rdd %d on %q, want rdd %d on the executor that cached it", lost.RDD, lost.Executor, ck.id)
	}
	if n := computed.Load(); n != 4 {
		t.Fatalf("parent recomputed after the lineage cut: %d partitions computed, want 4", n)
	}
}
