package spark

import (
	"errors"
	"sort"
)

// ErrEmptyRDD is returned by Reduce on an empty dataset.
var ErrEmptyRDD = errors.New("spark: reduce of empty RDD")

// Collect materializes the RDD on the driver, ordered by partition: each
// task passes its partition through unchanged. The result transfer back to
// the driver is charged at an estimated 16 bytes per record; use actions
// with explicit codecs when byte-exact accounting matters.
func Collect[T any](r *RDD[T]) ([]T, error) {
	parts := make([][]T, r.nParts)
	err := r.ctx.runJob(r, func(_ int, _ *TaskContext, data any) any {
		return data
	}, func(data any) int {
		return 16 * r.records(data)
	}, func(part int, data any) {
		parts[part] = data.([]T)
	})
	if err != nil {
		return nil, err
	}
	var out []T
	for _, p := range parts {
		out = append(out, p...)
	}
	return out, nil
}

// Count returns the number of records. Each task counts its partition.
func Count[T any](r *RDD[T]) (int64, error) {
	var total int64
	err := r.ctx.runJob(r, func(_ int, _ *TaskContext, data any) any {
		return int64(len(data.([]T)))
	}, func(any) int { return 8 }, func(_ int, n any) {
		total += n.(int64)
	})
	if err != nil {
		return 0, err
	}
	return total, nil
}

// Reduce combines all records with f (associative and commutative): each
// task folds its partition, and the driver folds the partitions' results
// in partition order. f runs inside tasks, concurrently and possibly more
// than once per partition (a retry, a speculative copy), so it must be
// pure.
func Reduce[T any](r *RDD[T], f func(a, b T) T) (T, error) {
	partials := make([]*T, r.nParts)
	err := r.ctx.runJob(r, func(_ int, _ *TaskContext, data any) any {
		items := data.([]T)
		if len(items) == 0 {
			return (*T)(nil)
		}
		acc := items[0]
		for _, v := range items[1:] {
			acc = f(acc, v)
		}
		return &acc
	}, func(any) int { return 64 }, func(part int, p any) {
		partials[part] = p.(*T)
	})
	var zero T
	if err != nil {
		return zero, err
	}
	var acc *T
	for _, p := range partials {
		if p == nil {
			continue
		}
		if acc == nil {
			v := *p
			acc = &v
		} else {
			v := f(*acc, *p)
			acc = &v
		}
	}
	if acc == nil {
		return zero, ErrEmptyRDD
	}
	return *acc, nil
}

// Aggregate folds every record into a per-partition accumulator with seqOp
// and merges the accumulators on the driver with combOp, in partition
// order. zero must return a fresh accumulator value. zero and seqOp run
// inside tasks, concurrently and possibly more than once per partition (a
// retry, a speculative copy), so they must be pure. resultBytes sizes the
// per-partition result for transfer accounting (pass 0 for a small
// default).
func Aggregate[T, A any](r *RDD[T], zero func() A, seqOp func(A, T) A, combOp func(A, A) A, resultBytes int) (A, error) {
	if resultBytes <= 0 {
		resultBytes = 128
	}
	partials := make([]A, r.nParts)
	err := r.ctx.runJob(r, func(_ int, _ *TaskContext, data any) any {
		acc := zero()
		for _, v := range data.([]T) {
			acc = seqOp(acc, v)
		}
		return acc
	}, func(any) int { return resultBytes }, func(part int, acc any) {
		partials[part] = acc.(A)
	})
	var out A
	if err != nil {
		return out, err
	}
	out = zero()
	for _, p := range partials {
		out = combOp(out, p)
	}
	return out, nil
}

// Top returns the n largest records under less: each task sorts a copy of
// its partition and keeps its n largest, and the driver merges them. less
// runs inside tasks, concurrently and possibly more than once per
// partition (a retry, a speculative copy), so it must be pure.
func Top[T any](r *RDD[T], n int, less func(a, b T) bool) ([]T, error) {
	if n < 1 {
		return nil, nil
	}
	parts := make([][]T, r.nParts)
	err := r.ctx.runJob(r, func(_ int, _ *TaskContext, data any) any {
		items := append([]T(nil), data.([]T)...)
		sort.Slice(items, func(i, j int) bool { return less(items[j], items[i]) })
		if len(items) > n {
			items = items[:n]
		}
		return items
	}, func(any) int { return 16 * n }, func(part int, items any) {
		parts[part] = items.([]T)
	})
	if err != nil {
		return nil, err
	}
	var all []T
	for _, p := range parts {
		all = append(all, p...)
	}
	sort.Slice(all, func(i, j int) bool { return less(all[j], all[i]) })
	if len(all) > n {
		all = all[:n]
	}
	return all, nil
}
