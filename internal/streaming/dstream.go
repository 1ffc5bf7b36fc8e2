package streaming

import (
	"mpi4spark/internal/spark"
)

// DStream is a discretized stream: a lazily-computed sequence of RDDs,
// one per batch interval. Batches are computed on demand when an output
// operation (or a window reaching back) pulls them, memoized, and
// forgotten once no dependent stream can reference them anymore.
//
// A nil RDD for a batch is meaningful: "no output this interval" (e.g. a
// sliding window between slide boundaries).
type DStream[T any] struct {
	sc      *StreamingContext
	compute func(batch int) (*spark.RDD[T], error)

	hist     map[int]*spark.RDD[T]
	done     map[int]bool // computed, possibly to nil
	remember int          // batches of history dependents may reach back
}

func newDStream[T any](sc *StreamingContext, compute func(int) (*spark.RDD[T], error)) *DStream[T] {
	d := &DStream[T]{
		sc:       sc,
		compute:  compute,
		hist:     make(map[int]*spark.RDD[T]),
		done:     make(map[int]bool),
		remember: 1,
	}
	sc.register(d)
	return d
}

// getOrCompute returns the stream's RDD for a batch, computing and
// memoizing it on first request. Negative batches (before the stream
// started) are nil.
func (d *DStream[T]) getOrCompute(batch int) (*spark.RDD[T], error) {
	if batch < 0 {
		return nil, nil
	}
	if d.done[batch] {
		return d.hist[batch], nil
	}
	r, err := d.compute(batch)
	if err != nil {
		return nil, err
	}
	d.done[batch] = true
	if r != nil {
		d.hist[batch] = r
	}
	return r, nil
}

// need widens how far back dependents may reach into this stream.
func (d *DStream[T]) need(batches int) {
	if batches > d.remember {
		d.remember = batches
	}
}

// forget implements forgettable.
func (d *DStream[T]) forget(olderThan int) {
	for b := range d.done {
		if b <= olderThan {
			delete(d.done, b)
			delete(d.hist, b)
		}
	}
}

// rememberDepth implements forgettable.
func (d *DStream[T]) rememberDepth() int { return d.remember }

// Union merges two streams batch-wise: batch b of the result is the
// union of both parents' batch b (or whichever produced output).
func Union[T any](a, b *DStream[T]) *DStream[T] {
	return newDStream(a.sc, func(batch int) (*spark.RDD[T], error) {
		ra, err := a.getOrCompute(batch)
		if err != nil {
			return nil, err
		}
		rb, err := b.getOrCompute(batch)
		if err != nil {
			return nil, err
		}
		switch {
		case ra == nil:
			return rb, nil
		case rb == nil:
			return ra, nil
		}
		return spark.UnionAll(ra, rb), nil
	})
}

// ReduceByKey reduces each batch independently through the shuffle path.
func ReduceByKey[K comparable, V any](in *DStream[spark.Pair[K, V]], conf spark.ShuffleConf[K, V], f func(a, b V) V) *DStream[spark.Pair[K, V]] {
	return newDStream(in.sc, func(b int) (*spark.RDD[spark.Pair[K, V]], error) {
		r, err := in.getOrCompute(b)
		if err != nil || r == nil {
			return nil, err
		}
		return spark.ReduceByKey(r, conf, f), nil
	})
}

// Foreach registers an output operation: every batch, the stream's RDD
// is collected to the driver and handed to f. Batch numbers are 1-based
// (matching BatchStat.Batch); items is nil on intervals the stream
// produced nothing (e.g. between slide boundaries).
func Foreach[T any](d *DStream[T], f func(batch int, items []T) error) {
	sc := d.sc
	sc.outputs = append(sc.outputs, func(b int) error {
		r, err := d.getOrCompute(b)
		if err != nil {
			return err
		}
		if r == nil {
			return f(b+1, nil)
		}
		items, err := spark.Collect(r)
		if err != nil {
			return err
		}
		return f(b+1, items)
	})
}
