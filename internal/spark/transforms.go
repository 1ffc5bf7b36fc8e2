package spark

// Parallelize distributes a driver-side slice across numParts partitions.
func Parallelize[T any](ctx *Context, items []T, numParts int) *RDD[T] {
	if numParts < 1 {
		numParts = ctx.cfg.DefaultParallelism
	}
	data := append([]T(nil), items...)
	return newRDD(ctx, numParts, nil, func(part int, tc *TaskContext) ([]T, error) {
		lo := part * len(data) / numParts
		hi := (part + 1) * len(data) / numParts
		out := append([]T(nil), data[lo:hi]...)
		tc.ChargeRecords(len(out), 0)
		return out, nil
	})
}

// Generate creates an RDD whose partitions are produced by gen on the
// executors — the data-generation pattern of the OHB and HiBench
// workloads. gen must be deterministic in part for fault-tolerant
// recomputation and must charge its own costs via tc.
func Generate[T any](ctx *Context, numParts int, gen func(part int, tc *TaskContext) []T) *RDD[T] {
	if numParts < 1 {
		numParts = ctx.cfg.DefaultParallelism
	}
	return newRDD(ctx, numParts, nil, func(part int, tc *TaskContext) ([]T, error) {
		return gen(part, tc), nil
	})
}

// Map applies f to every record.
func Map[T, U any](in *RDD[T], f func(T) U) *RDD[U] {
	return newRDD(in.ctx, in.nParts, []Dependency{narrowDep{parent: in}}, func(part int, tc *TaskContext) ([]U, error) {
		data, err := in.computePartition(part, tc)
		if err != nil {
			return nil, err
		}
		items := data.([]T)
		out := make([]U, len(items))
		for i, v := range items {
			out[i] = f(v)
		}
		tc.ChargeRecords(len(items), 0)
		return out, nil
	})
}

// Filter keeps records satisfying pred.
func Filter[T any](in *RDD[T], pred func(T) bool) *RDD[T] {
	return newRDD(in.ctx, in.nParts, []Dependency{narrowDep{parent: in}}, func(part int, tc *TaskContext) ([]T, error) {
		data, err := in.computePartition(part, tc)
		if err != nil {
			return nil, err
		}
		items := data.([]T)
		out := make([]T, 0, len(items))
		for _, v := range items {
			if pred(v) {
				out = append(out, v)
			}
		}
		tc.ChargeRecords(len(items), 0)
		return out, nil
	})
}

// FlatMap applies f to every record and concatenates the results.
func FlatMap[T, U any](in *RDD[T], f func(T) []U) *RDD[U] {
	return newRDD(in.ctx, in.nParts, []Dependency{narrowDep{parent: in}}, func(part int, tc *TaskContext) ([]U, error) {
		data, err := in.computePartition(part, tc)
		if err != nil {
			return nil, err
		}
		items := data.([]T)
		var out []U
		for _, v := range items {
			out = append(out, f(v)...)
		}
		tc.ChargeRecords(len(items)+len(out), 0)
		return out, nil
	})
}

// MapPartitions applies f to each whole partition. f is responsible for
// charging its own compute costs via tc.
func MapPartitions[T, U any](in *RDD[T], f func(part int, tc *TaskContext, items []T) ([]U, error)) *RDD[U] {
	return newRDD(in.ctx, in.nParts, []Dependency{narrowDep{parent: in}}, func(part int, tc *TaskContext) ([]U, error) {
		data, err := in.computePartition(part, tc)
		if err != nil {
			return nil, err
		}
		return f(part, tc, data.([]T))
	})
}

// KeyBy turns records into pairs keyed by f.
func KeyBy[T any, K any](in *RDD[T], f func(T) K) *RDD[Pair[K, T]] {
	return Map(in, func(v T) Pair[K, T] { return Pair[K, T]{K: f(v), V: v} })
}
