package streaming

import (
	"fmt"
	"sort"
	"time"

	"mpi4spark/internal/spark"
)

// windowBatches converts window/slide durations to batch counts,
// enforcing that both are positive multiples of the batch interval. A
// zero slide defaults to the batch interval (a tumbling window when
// slide == window, output every batch otherwise).
func (sc *StreamingContext) windowBatches(window, slide time.Duration) (wb, sb int, err error) {
	itv := sc.cfg.BatchInterval
	if slide == 0 {
		slide = itv
	}
	if window <= 0 || window%itv != 0 {
		return 0, 0, &spark.ConfigError{Field: "streaming.Window", Reason: fmt.Sprintf("window %v must be a positive multiple of the batch interval %v", window, itv)}
	}
	if slide <= 0 || slide%itv != 0 {
		return 0, 0, &spark.ConfigError{Field: "streaming.Slide", Reason: fmt.Sprintf("slide %v must be a positive multiple of the batch interval %v", slide, itv)}
	}
	return int(window / itv), int(slide / itv), nil
}

// checkpointEvery is how many slides an inverse-reduced window's state
// may accumulate lineage before it is materialized to the driver and
// rebuilt as pinned partitions.
const checkpointEvery = 5

// ReduceByKeyAndWindow reduces pairs over a sliding window. With invF
// nil every window recomputes from the per-batch partial reductions;
// with invF (the inverse of f, e.g. subtraction for sums) each window is
// computed incrementally from the previous one: add the batches that
// slid in, inverse-subtract the batches that slid out. keep (optional)
// drops keys whose windowed value is no longer interesting (e.g. zero
// counts), which bounds incremental state; nil keeps everything.
//
// Every RDD a window reads (the partials, the previous window, a
// checkpoint) is hash-partitioned into conf.Parts partitions, so a window
// is one narrow merge (spark.ZipPartitions) and runs no shuffle of its
// own, as Spark's ReducedWindowedDStream cogroups RDDs that share its
// partitioner. The partials are persisted: each is reduced once, when it
// enters the window, and read from cache when it leaves. The incremental
// path carries state across batches, so every checkpointEvery slides the
// window is materialized to the driver and rebuilt as pinned partitions,
// cutting the lineage chain.
func ReduceByKeyAndWindow[K comparable, V any](
	in *DStream[spark.Pair[K, V]],
	conf spark.ShuffleConf[K, V],
	f func(a, b V) V,
	invF func(a, b V) V,
	window, slide time.Duration,
	keep func(K, V) bool,
) (*DStream[spark.Pair[K, V]], error) {
	wb, sb, err := in.sc.windowBatches(window, slide)
	if err != nil {
		return nil, err
	}
	if conf.Parts < 1 {
		return nil, &spark.ConfigError{Field: "streaming.Parts", Reason: fmt.Sprintf("a window merges inputs of one partition count, not %d", conf.Parts)}
	}
	sc := in.sc
	red := ReduceByKey(in, conf, f) // per-batch partials
	red.need(wb + sb)
	// partials appends the partials of batches lo..hi to ins, persisted.
	partials := func(ins []*spark.RDD[spark.Pair[K, V]], lo, hi int) ([]*spark.RDD[spark.Pair[K, V]], error) {
		for i := lo; i <= hi; i++ {
			r, err := red.getOrCompute(i)
			if err != nil {
				return nil, err
			}
			if r != nil {
				ins = append(ins, r.Cache())
			}
		}
		return ins, nil
	}

	var out *DStream[spark.Pair[K, V]]
	out = newDStream(sc, func(b int) (*spark.RDD[spark.Pair[K, V]], error) {
		if (b+1)%sb != 0 {
			return nil, nil
		}
		// Folded with f: the previous window, if still remembered, and the
		// partials that slid in, or else every partial in the window.
		// Folded with invF: the partials that slid out.
		var ins []*spark.RDD[spark.Pair[K, V]]
		lo := b - wb + 1
		prev := out.hist[b-sb]
		incremental := invF != nil && prev != nil
		if incremental {
			ins, lo = append(ins, prev), b-sb+1
		}
		ins, err := partials(ins, lo, b)
		added := len(ins)
		if err == nil && incremental {
			ins, err = partials(ins, b-wb-sb+1, b-wb)
		}
		if err != nil || len(ins) == 0 {
			return nil, err
		}
		result, err := spark.ZipPartitions(ins, func(_ int, tc *spark.TaskContext, parts [][]spark.Pair[K, V]) ([]spark.Pair[K, V], error) {
			return spark.MergeByKey(tc, conf.Ops, parts[:added], parts[added:], f, invF), nil
		})
		if err != nil {
			return nil, err
		}
		if keep != nil {
			result = spark.Filter(result, func(p spark.Pair[K, V]) bool { return keep(p.K, p.V) })
		}
		if slideNo := (b + 1) / sb; invF != nil && slideNo%checkpointEvery == 0 {
			return checkpointPairs(sc.ctx, result, conf)
		}
		return result.Cache(), nil
	})
	out.need(sb + 1) // the incremental path reads its own b-sb window
	return out, nil
}

// checkpointPairs materializes a pair RDD to the driver and rebuilds it
// as freshly-pinned cached partitions — the streaming checkpoint. The
// rebuilt RDD has no lineage into earlier batches, so forgotten history
// can never be re-demanded, and its partitioning/order is canonical
// (hash partitioned, key-sorted) regardless of which path produced it. A
// partition stays on the executor that computed it, where the partials it
// merged are cached.
func checkpointPairs[K comparable, V any](ctx *spark.Context, r *spark.RDD[spark.Pair[K, V]], conf spark.ShuffleConf[K, V]) (*spark.RDD[spark.Pair[K, V]], error) {
	rows, err := spark.Collect(r)
	if err != nil {
		return nil, err
	}
	part := spark.HashPartitioner[K]{N: conf.Parts, Ops: conf.Ops}
	parts := make([][]spark.Pair[K, V], conf.Parts)
	for _, p := range rows {
		i := part.PartitionFor(p.K)
		parts[i] = append(parts[i], p)
	}
	for _, ps := range parts {
		sort.Slice(ps, func(i, j int) bool { return conf.Ops.Less(ps[i].K, ps[j].K) })
	}
	execs := ctx.Executors()
	prefs := make([]string, conf.Parts)
	for i := range prefs {
		if prefs[i] = r.PreferredLocation(i); prefs[i] == "" {
			prefs[i] = execs[i%len(execs)].ID()
		}
	}
	return spark.FromPartitions(ctx, parts, 16).WithPreferred(prefs).Cache(), nil
}
