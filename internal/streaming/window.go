package streaming

import (
	"fmt"
	"sort"
	"time"

	"mpi4spark/internal/bytebuf"
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

// sv is the add/subtract cell incremental windowed reduction shuffles:
// contributions entering the window merge into Add, contributions
// leaving it merge into Sub, and the new window value is
// invF(prev+Add, Sub).
type sv[V any] struct {
	Add, Sub       V
	HasAdd, HasSub bool
}

type svCodec[V any] struct{ val spark.Codec[V] }

func (c svCodec[V]) Encode(buf *bytebuf.Buf, s sv[V]) {
	var flags byte
	if s.HasAdd {
		flags |= 1
	}
	if s.HasSub {
		flags |= 2
	}
	buf.WriteByte(flags)
	if s.HasAdd {
		c.val.Encode(buf, s.Add)
	}
	if s.HasSub {
		c.val.Encode(buf, s.Sub)
	}
}

func (c svCodec[V]) Decode(buf *bytebuf.Buf) (sv[V], error) {
	flags, err := buf.ReadByte()
	if err != nil {
		return sv[V]{}, err
	}
	var s sv[V]
	if flags&1 != 0 {
		if s.Add, err = c.val.Decode(buf); err != nil {
			return sv[V]{}, err
		}
		s.HasAdd = true
	}
	if flags&2 != 0 {
		if s.Sub, err = c.val.Decode(buf); err != nil {
			return sv[V]{}, err
		}
		s.HasSub = true
	}
	return s, nil
}

// ReduceByKeyAndWindow reduces pairs over a sliding window. With invF
// nil every window recomputes from the per-batch partial reductions;
// with invF (the inverse of f, e.g. subtraction for sums) each window is
// computed incrementally from the previous one: add the batches that
// slid in, inverse-subtract the batches that slid out. keep (optional)
// drops keys whose windowed value is no longer interesting (e.g. zero
// counts), which bounds incremental state; nil keeps everything.
//
// The incremental path carries state across batches, so every
// CheckpointInterval slides the windowed RDD is materialized to the
// driver and rebuilt as pinned partitions, cutting the lineage chain.
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
	sc := in.sc
	red := ReduceByKey(in, conf, f) // per-batch partials
	red.need(wb + sb)

	// recompute unions the window's partials and re-reduces; the fallback
	// for the first window and for post-checkpoint restarts.
	recompute := func(b int) (*spark.RDD[spark.Pair[K, V]], error) {
		var parts []*spark.RDD[spark.Pair[K, V]]
		for i := b - wb + 1; i <= b; i++ {
			r, err := red.getOrCompute(i)
			if err != nil {
				return nil, err
			}
			if r != nil {
				parts = append(parts, r)
			}
		}
		if len(parts) == 0 {
			return nil, nil
		}
		return spark.ReduceByKey(spark.UnionAll(parts...), conf, f), nil
	}

	svConf := spark.ShuffleConf[K, sv[V]]{
		Codec: spark.PairCodec[K, sv[V]]{Key: conf.Codec.Key, Val: svCodec[V]{conf.Codec.Val}},
		Ops:   conf.Ops,
		Parts: conf.Parts,
	}
	mergeSV := func(a, b sv[V]) sv[V] {
		out := a
		if b.HasAdd {
			if out.HasAdd {
				out.Add = f(out.Add, b.Add)
			} else {
				out.Add, out.HasAdd = b.Add, true
			}
		}
		if b.HasSub {
			if out.HasSub {
				out.Sub = f(out.Sub, b.Sub)
			} else {
				out.Sub, out.HasSub = b.Sub, true
			}
		}
		return out
	}

	var out *DStream[spark.Pair[K, V]]
	out = newDStream(sc, func(b int) (*spark.RDD[spark.Pair[K, V]], error) {
		if (b+1)%sb != 0 {
			return nil, nil
		}
		var result *spark.RDD[spark.Pair[K, V]]
		prev := out.hist[b-sb] // previous window, if still remembered
		if invF == nil || prev == nil {
			if result, err = recompute(b); err != nil {
				return nil, err
			}
			if result == nil {
				return nil, nil
			}
		} else {
			// Incremental: prev window + partials sliding in (tagged Add)
			// + partials sliding out (tagged Sub), reduced per key.
			parts := []*spark.RDD[spark.Pair[K, sv[V]]]{
				spark.Map(prev, func(p spark.Pair[K, V]) spark.Pair[K, sv[V]] {
					return spark.Pair[K, sv[V]]{K: p.K, V: sv[V]{Add: p.V, HasAdd: true}}
				}),
			}
			tag := func(i int, hasAdd bool) error {
				r, err := red.getOrCompute(i)
				if err != nil || r == nil {
					return err
				}
				parts = append(parts, spark.Map(r, func(p spark.Pair[K, V]) spark.Pair[K, sv[V]] {
					s := sv[V]{}
					if hasAdd {
						s.Add, s.HasAdd = p.V, true
					} else {
						s.Sub, s.HasSub = p.V, true
					}
					return spark.Pair[K, sv[V]]{K: p.K, V: s}
				}))
				return nil
			}
			for i := b - sb + 1; i <= b; i++ { // slid in
				if err := tag(i, true); err != nil {
					return nil, err
				}
			}
			for i := b - wb - sb + 1; i <= b-wb; i++ { // slid out
				if err := tag(i, false); err != nil {
					return nil, err
				}
			}
			merged := spark.ReduceByKey(spark.UnionAll(parts...), svConf, mergeSV)
			result = spark.FlatMap(merged, func(p spark.Pair[K, sv[V]]) []spark.Pair[K, V] {
				if !p.V.HasAdd {
					return nil // fully slid out
				}
				v := p.V.Add
				if p.V.HasSub {
					v = invF(v, p.V.Sub)
				}
				return []spark.Pair[K, V]{{K: p.K, V: v}}
			})
		}
		if keep != nil {
			result = spark.Filter(result, func(p spark.Pair[K, V]) bool { return keep(p.K, p.V) })
		}
		if slideNo := (b + 1) / sb; slideNo%sc.cfg.CheckpointInterval == 0 {
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
// (hash partitioned, key-sorted) regardless of which path produced it.
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
		prefs[i] = execs[i%len(execs)].ID()
	}
	return spark.FromPartitions(ctx, parts, 16).WithPreferred(prefs).Cache(), nil
}
