package spark

// Union concatenates two RDDs of the same type without a shuffle: the
// result has the partitions of both inputs, left's first. Partition pins
// (WithPreferred) carry through, so a union of pinned receiver blocks
// keeps its locality.
func Union[T any](a, b *RDD[T]) *RDD[T] {
	deps := []Dependency{narrowDep{parent: a}, narrowDep{parent: b}}
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
		data, err := src.computePartition(idx, tc)
		if err != nil {
			return nil, err
		}
		return data.([]T), nil
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
