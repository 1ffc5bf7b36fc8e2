package spark

import (
	"fmt"
	"slices"
)

// Union concatenates two RDDs of the same type without a shuffle: the
// result has the partitions of both inputs, left's first. Partition pins
// (WithPreferred) carry through, so a union of pinned receiver blocks
// keeps its locality.
func Union[T any](a, b *RDD[T]) *RDD[T] {
	deps := []Dependency{rangeDep{parent: a}, rangeDep{parent: b}}
	na := a.nParts
	u := newRDD(a.ctx, a.nParts+b.nParts, deps, func(part int, tc *TaskContext) ([]T, error) {
		var src *RDD[T]
		idx := part
		if part < na {
			src = a
		} else {
			src = b
			idx = part - na
		}
		return src.partition(idx, tc)
	})
	u.prefFn = func(part int) string {
		if part < na {
			return a.preferredLoc(part)
		}
		return b.preferredLoc(part - na)
	}
	return u
}

// UnionAll folds Union over any number of inputs (at least one), keeping
// partition order: ins[0]'s partitions first, then ins[1]'s, and so on.
func UnionAll[T any](ins ...*RDD[T]) *RDD[T] {
	u := ins[0]
	for _, in := range ins[1:] {
		u = Union(u, in)
	}
	return u
}

// ZipError reports inputs ZipPartitions cannot zip: none, or partition
// counts that differ.
type ZipError struct{ Counts []int }

func (e *ZipError) Error() string {
	return fmt.Sprintf("spark: cannot zip RDDs with partition counts %v", e.Counts)
}

// ZipPartitions is Spark's zipPartitions: partition p of the result is f
// applied to partition p of every input, in input order, each read through
// its RDD (from cache where it is cached). Every dependency is one-to-one,
// as Spark's CoGroupedRDD makes them for parents that share its
// partitioner, so a merge of co-partitioned inputs runs in one task per
// partition with no shuffle; the task prefers the executor of the first
// input that has its partition pinned or cached. Inputs whose partition
// counts differ, or no inputs, are a *ZipError.
func ZipPartitions[T, U any](ins []*RDD[T], f func(part int, tc *TaskContext, parts [][]T) ([]U, error)) (*RDD[U], error) {
	counts := make([]int, len(ins))
	deps := make([]Dependency, len(ins))
	for i, in := range ins {
		counts[i], deps[i] = in.nParts, narrowDep{parent: in}
	}
	if len(ins) == 0 || slices.ContainsFunc(counts, func(n int) bool { return n != counts[0] }) {
		return nil, &ZipError{Counts: counts}
	}
	return newRDD(ins[0].ctx, counts[0], deps, func(part int, tc *TaskContext) ([]U, error) {
		parts := make([][]T, len(ins))
		for i, in := range ins {
			var err error
			if parts[i], err = in.partition(part, tc); err != nil {
				return nil, err
			}
		}
		return f(part, tc, parts)
	}), nil
}

// FromPartitions builds an RDD over pre-materialized driver-held slices —
// one partition per slice. Streaming uses it for receiver blocks and for
// checkpointed state: the data needs no recompute, so a task just scans
// it, charged at recordBytes per record. Pair it with WithPreferred to pin
// partitions where the data physically lives.
func FromPartitions[T any](ctx *Context, parts [][]T, recordBytes int) *RDD[T] {
	return newRDD(ctx, len(parts), nil, func(part int, tc *TaskContext) ([]T, error) {
		data := parts[part]
		tc.ChargeRecords(len(data), len(data)*recordBytes)
		return data, nil
	})
}
