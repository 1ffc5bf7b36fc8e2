package spark

import (
	"slices"
	"sort"

	"mpi4spark/internal/collective"
	"mpi4spark/internal/vtime"
)

// TreeAggregate aggregates dim-wide float64 vectors produced per partition
// by seq, combining element-wise by addition. Unlike Aggregate, partition
// results never fan into the driver: each executor folds its partitions'
// vectors into one executor-local accumulator during the job, and the
// per-executor accumulators are then combined with a collective — a
// binomial tree reduce for small vectors, a chunked ring allreduce for
// large ones — so the final combine is O(log E) or bandwidth-optimal
// instead of E point-to-point transfers. This is the simulation's
// counterpart of Spark's RDD.treeAggregate, the aggregation path of MLlib
// (LR, SVM, KMeans, GMM gradient/statistics summing).
func TreeAggregate[T any](r *RDD[T], dim int, seq func(part int, tc *TaskContext, items []T) []float64) ([]float64, error) {
	// Each partition's vector and the executor that computed it travel in
	// its committed task's result (one record, 16 modelled bytes), so a
	// retried or speculative attempt the scheduler did not commit counts
	// nowhere. The probe is a narrow child of r, so the adaptive planner
	// never splits its stage and every vector is computed on an executor.
	probe := MapPartitions(r, func(part int, tc *TaskContext, items []T) ([]vectorPartial, error) {
		return []vectorPartial{{v: seq(part, tc, items), home: tc.ExecutorID()}}, nil
	})
	partials, err := Collect(probe)
	if err != nil {
		return nil, err
	}
	// Folded in partition order: folding as tasks finish would make the
	// float addition order depend on goroutine scheduling and break
	// run-to-run determinism.
	accs := make(map[string][]float64)
	for _, p := range partials {
		a := accs[p.home]
		if a == nil {
			a = make([]float64, dim)
			accs[p.home] = a
		}
		for i := 0; i < len(p.v) && i < dim; i++ {
			a[i] += p.v[i]
		}
	}
	return r.ctx.combineExecutorVectors(dim, accs)
}

// vectorPartial is one partition's TreeAggregate vector and the executor
// that computed it.
type vectorPartial struct {
	v    []float64
	home string
}

// combineExecutorVectors runs the collective combine of TreeAggregate: the
// driver (rank 0, contributing zeros) and every live executor reduce their
// vectors. If the collective fails (an executor died mid-op), the combine
// falls back to a driver-local sum — the numbers stay right and only the
// communication modeling of this one combine is lost.
func (c *Context) combineExecutorVectors(dim int, accs map[string][]float64) ([]float64, error) {
	group, execs := c.collectiveGroup()
	payloadLen := 8 * dim
	if group.Size() >= 2 {
		op := collective.NextOpID()
		at := c.Clock()
		kind := "allreduce"
		if payloadLen <= collective.SmallLimit {
			kind = "reduce"
		}
		var result []float64
		var driverDone vtime.Stamp
		err := group.Run(op, kind, payloadLen, func(rank int) error {
			var in []byte
			if rank == 0 {
				in = make([]byte, payloadLen) // driver contributes zeros
			} else {
				v := accs[execs[rank-1].id]
				if v == nil {
					v = make([]float64, dim)
				}
				in = collective.EncodeFloat64s(v)
			}
			var out []byte
			var vt vtime.Stamp
			var err error
			if kind == "reduce" {
				out, vt, err = group.Reduce(op, rank, 0, in, collective.Float64Sum, at)
			} else {
				out, vt, err = group.Allreduce(op, rank, in, collective.Float64Sum, at)
			}
			if err == nil && rank == 0 {
				result, driverDone = collective.DecodeFloat64s(out), vt
			}
			return err
		})
		if err == nil {
			c.AdvanceClock(driverDone)
			return result, nil
		}
	}
	// Driver-local fallback (single-executor context or failed collective),
	// summed in the collective's executor order, then any other executor's
	// vector by id: in map order the floats' last bit would differ from run
	// to run.
	order := make([]string, len(execs), len(execs)+len(accs))
	for i, e := range execs {
		order[i] = e.id
	}
	for id := range accs {
		if !slices.Contains(order[:len(execs)], id) {
			order = append(order, id)
		}
	}
	sort.Strings(order[len(execs):])
	out := make([]float64, dim)
	for _, id := range order {
		v := accs[id]
		for i := 0; i < len(v) && i < dim; i++ {
			out[i] += v[i]
		}
	}
	return out, nil
}
