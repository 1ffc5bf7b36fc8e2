package spark

import (
	"sort"
	"sync/atomic"
	"time"

	"mpi4spark/internal/bytebuf"
)

// ShuffleConf bundles what a wide transformation needs to move pairs across
// the cluster: a wire codec, key operations, and the reduce-side partition
// count.
type ShuffleConf[K, V any] struct {
	Codec PairCodec[K, V]
	Ops   KeyOps[K]
	Parts int
}

// partitionWrite builds the map-side write function for a shuffle: bucket
// pairs with the partitioner, optionally pre-combine, and serialize each
// bucket.
func partitionWrite[K, V any](conf ShuffleConf[K, V], p Partitioner[K], combine func(tc *TaskContext, bucket []Pair[K, V]) []Pair[K, V]) func(any, *TaskContext) [][]byte {
	// Encoded bytes per record, learned from the last bucket any task of
	// this shuffle serialized (last writer wins), so that only the buckets
	// encoded before the shuffle's first one is done — not the first bucket
	// of every map task — go into a guessed-size workspace.
	var learned atomic.Int64
	return func(data any, tc *TaskContext) [][]byte {
		pairs := data.([]Pair[K, V])
		n := p.NumPartitions()
		// Count, then carve: one partitioner call per record, one slice for
		// all the buckets, each bucket exactly its own size.
		part := make([]int32, len(pairs))
		counts := make([]int, n)
		for j, pr := range pairs {
			i := p.PartitionFor(pr.K)
			part[j] = int32(i)
			counts[i]++
		}
		buckets := make([][]Pair[K, V], n)
		store := make([]Pair[K, V], len(pairs))
		off := 0
		for i, c := range counts {
			buckets[i] = store[off : off : off+c]
			off += c
		}
		for j, pr := range pairs {
			i := part[j]
			buckets[i] = append(buckets[i], pr)
		}
		tc.ChargeRecords(len(pairs), 0)
		out := make([][]byte, n)
		var bytes int
		perRec := int(learned.Load())
		for i, b := range buckets {
			if combine != nil {
				b = combine(tc, b)
			}
			if len(b) == 0 {
				continue
			}
			hint := 0
			if perRec > 0 {
				hint = 4 + perRec*(len(b)+1)
			}
			out[i] = EncodePairsHint(conf.Codec, b, hint)
			bytes += len(out[i])
			perRec = len(out[i]) / len(b)
			learned.Store(int64(perRec))
		}
		// Serialization cost for the written shuffle data.
		tc.Charge(time.Duration(tc.cpu.NsPerByte * float64(bytes)))
		return out
	}
}

// fetchDecode reads and deserializes all batches for a reduce partition
// into one slice sized from the batches' record counts. The decoded values
// may alias the fetched blocks (see Codec).
func fetchDecode[K, V any](conf ShuffleConf[K, V], dep *ShuffleDep, reduceID int, tc *TaskContext) ([]Pair[K, V], error) {
	blocks, err := tc.FetchShuffle(dep.shuffleID, reduceID)
	if err != nil {
		return nil, err
	}
	var records, bytes int
	for _, b := range blocks {
		records += batchCount(b)
		bytes += len(b)
	}
	if records > bytes {
		records = bytes // a count no batch of this size can hold: let append grow instead
	}
	out := make([]Pair[K, V], 0, records)
	var reader bytebuf.Buf // one for all blocks, not one per block
	for _, b := range blocks {
		if out, err = appendPairsFrom(conf.Codec, out, &reader, b); err != nil {
			return nil, err
		}
	}
	tc.ChargeRecords(len(out), bytes)
	return out, nil
}

// newShuffleStage wires a wide dependency from `in` and returns it.
func newShuffleStage[K, V any](in *RDD[Pair[K, V]], conf ShuffleConf[K, V], p Partitioner[K], combine func(*TaskContext, []Pair[K, V]) []Pair[K, V]) *ShuffleDep {
	return &ShuffleDep{
		shuffleID: in.ctx.nextShuffleID(),
		parent:    in,
		numReduce: p.NumPartitions(),
		write:     partitionWrite(conf, p, combine),
	}
}

// GroupByKey groups all values sharing a key into one sequence — the OHB
// GroupBy benchmark's core transformation. K must be comparable. Decoded
// values are read-only and may pin their block (see Codec): the groups hold
// the values as decoded, not copies.
func GroupByKey[K comparable, V any](in *RDD[Pair[K, V]], conf ShuffleConf[K, V]) *RDD[Pair[K, []V]] {
	if conf.Parts < 1 {
		conf.Parts = in.nParts
	}
	dep := newShuffleStage(in, conf, HashPartitioner[K]{N: conf.Parts, Ops: conf.Ops}, nil)
	out := newRDD(in.ctx, conf.Parts, []Dependency{dep}, func(part int, tc *TaskContext) ([]Pair[K, []V], error) {
		pairs, err := fetchDecode(conf, dep, part, tc)
		if err != nil {
			return nil, err
		}
		// Count, then carve: number the keys in first-appearance order and
		// count their values, then cut every group out of one value slice,
		// instead of growing a slice per key.
		index := make(map[K]int32)
		group := make([]int32, len(pairs))
		var sizes []int32
		for j, p := range pairs {
			g, ok := index[p.K]
			if !ok {
				g = int32(len(sizes))
				index[p.K] = g
				sizes = append(sizes, 0)
			}
			group[j] = g
			sizes[g]++
		}
		out := make([]Pair[K, []V], len(sizes))
		vals := make([]V, len(pairs))
		off := 0
		for g, n := range sizes {
			end := off + int(n)
			out[g].V = vals[off:off:end]
			off = end
		}
		for j, p := range pairs {
			o := &out[group[j]]
			o.K = p.K
			o.V = append(o.V, p.V)
		}
		tc.ChargeRecords(len(pairs), 0)
		return out, nil
	})
	// Split sub-tasks each group their map-range slice; concatenating the
	// per-key value lists in map-range order rebuilds the full groups with
	// values in the same per-map order an unsplit task would see.
	out.partialMerge = func(tc *TaskContext, parts [][]Pair[K, []V]) []Pair[K, []V] {
		// Count, then carve, as above: size every key's merged group first,
		// then cut the groups out of one value slice.
		idx := make(map[K]int)
		var merged []Pair[K, []V]
		var sizes []int
		n, total := 0, 0
		for _, sub := range parts {
			n += len(sub)
			for _, pr := range sub {
				i, ok := idx[pr.K]
				if !ok {
					i = len(merged)
					idx[pr.K] = i
					merged = append(merged, Pair[K, []V]{K: pr.K})
					sizes = append(sizes, 0)
				}
				sizes[i] += len(pr.V)
				total += len(pr.V)
			}
		}
		vals := make([]V, total)
		off := 0
		for i, c := range sizes {
			merged[i].V = vals[off : off : off+c]
			off += c
		}
		for _, sub := range parts {
			for _, pr := range sub {
				m := &merged[idx[pr.K]]
				m.V = append(m.V, pr.V...)
			}
		}
		tc.ChargeRecords(n, 0)
		return merged
	}
	return out
}

// ReduceByKey merges values per key with f, combining map-side first (the
// standard Spark optimization that shrinks shuffle volume).
func ReduceByKey[K comparable, V any](in *RDD[Pair[K, V]], conf ShuffleConf[K, V], f func(a, b V) V) *RDD[Pair[K, V]] {
	if conf.Parts < 1 {
		conf.Parts = in.nParts
	}
	combine := func(tc *TaskContext, bucket []Pair[K, V]) []Pair[K, V] {
		if len(bucket) == 0 {
			return bucket
		}
		acc := make(map[K]V, len(bucket))
		for _, p := range bucket {
			if cur, ok := acc[p.K]; ok {
				acc[p.K] = f(cur, p.V)
			} else {
				acc[p.K] = p.V
			}
		}
		tc.ChargeRecords(len(bucket), 0)
		out := make([]Pair[K, V], 0, len(acc))
		for k, v := range acc {
			out = append(out, Pair[K, V]{K: k, V: v})
		}
		return out
	}
	dep := newShuffleStage(in, conf, HashPartitioner[K]{N: conf.Parts, Ops: conf.Ops}, combine)
	out := newRDD(in.ctx, conf.Parts, []Dependency{dep}, func(part int, tc *TaskContext) ([]Pair[K, V], error) {
		pairs, err := fetchDecode(conf, dep, part, tc)
		if err != nil {
			return nil, err
		}
		acc := make(map[K]V, len(pairs))
		for _, p := range pairs {
			if cur, ok := acc[p.K]; ok {
				acc[p.K] = f(cur, p.V)
			} else {
				acc[p.K] = p.V
			}
		}
		tc.ChargeRecords(len(pairs), 0)
		out := make([]Pair[K, V], 0, len(acc))
		for k, v := range acc {
			out = append(out, Pair[K, V]{K: k, V: v})
		}
		return out, nil
	})
	// f is associative, so reducing the sub-tasks' per-key partials in
	// map-range order equals reducing the full partition.
	out.partialMerge = func(tc *TaskContext, parts [][]Pair[K, V]) []Pair[K, V] {
		idx := make(map[K]int)
		var merged []Pair[K, V]
		n := 0
		for _, sub := range parts {
			n += len(sub)
			for _, pr := range sub {
				if i, ok := idx[pr.K]; ok {
					merged[i].V = f(merged[i].V, pr.V)
				} else {
					idx[pr.K] = len(merged)
					merged = append(merged, pr)
				}
			}
		}
		tc.ChargeRecords(n, 0)
		return merged
	}
	return out
}

// SortByKey returns an RDD whose partitions are globally ordered: a range
// partitioner (built from the provided key sample) routes keys, and each
// reduce partition sorts locally — the OHB SortBy and TeraSort pattern.
// Use SampleKeys to obtain the sample. Decoded values are read-only and may
// pin their block (see Codec): sorting moves the records, never their bytes.
func SortByKey[K comparable, V any](in *RDD[Pair[K, V]], conf ShuffleConf[K, V], sample []K) *RDD[Pair[K, V]] {
	if conf.Parts < 1 {
		conf.Parts = in.nParts
	}
	p := NewRangePartitioner(sample, conf.Parts, conf.Ops)
	// The partitioner dedupes equal bounds from degenerate samples, so the
	// RDD's width must come from it, not conf.Parts — a wider RDD would
	// index past the tracker's per-reduce size arrays.
	dep := newShuffleStage(in, conf, p, nil)
	out := newRDD(in.ctx, p.NumPartitions(), []Dependency{dep}, func(part int, tc *TaskContext) ([]Pair[K, V], error) {
		pairs, err := fetchDecode(conf, dep, part, tc)
		if err != nil {
			return nil, err
		}
		sort.Slice(pairs, func(i, j int) bool { return conf.Ops.Less(pairs[i].K, pairs[j].K) })
		tc.ChargeSort(len(pairs))
		return pairs, nil
	})
	// Sub-tasks sort their map-range slices; re-sorting the concatenation
	// restores the partition's global order (equal-key order is
	// unspecified either way — sort.Slice is unstable).
	out.partialMerge = func(tc *TaskContext, parts [][]Pair[K, V]) []Pair[K, V] {
		var merged []Pair[K, V]
		for _, sub := range parts {
			merged = append(merged, sub...)
		}
		sort.Slice(merged, func(i, j int) bool { return conf.Ops.Less(merged[i].K, merged[j].K) })
		tc.ChargeSort(len(merged))
		return merged
	}
	return out
}

// SampleKeys runs a lightweight job collecting roughly `per` keys per
// partition, for building range partitioners driver-side (Spark's
// RangePartitioner does the same sampling pass).
func SampleKeys[K, V any](in *RDD[Pair[K, V]], per int) ([]K, error) {
	if per < 1 {
		per = 16
	}
	sampled := MapPartitions(in, func(part int, tc *TaskContext, items []Pair[K, V]) ([]K, error) {
		if len(items) == 0 {
			return nil, nil
		}
		step := len(items)/per + 1
		var out []K
		for i := 0; i < len(items); i += step {
			out = append(out, items[i].K)
		}
		tc.ChargeRecords(len(items), 0)
		return out, nil
	})
	groups, err := Collect(sampled)
	if err != nil {
		return nil, err
	}
	return groups, nil
}

// Repartition redistributes records round-robin across n partitions via a
// full shuffle — HiBench's Repartition micro-benchmark.
func Repartition[K comparable, V any](in *RDD[Pair[K, V]], conf ShuffleConf[K, V], n int) *RDD[Pair[K, V]] {
	if n < 1 {
		n = in.nParts
	}
	conf.Parts = n
	// Round-robin via hash of a rotating counter is approximated with the
	// key hash, salted per map partition by Spark; plain hash partitioning
	// gives the same all-to-all traffic pattern.
	dep := newShuffleStage(in, conf, HashPartitioner[K]{N: n, Ops: conf.Ops}, nil)
	out := newRDD(in.ctx, n, []Dependency{dep}, func(part int, tc *TaskContext) ([]Pair[K, V], error) {
		return fetchDecode(conf, dep, part, tc)
	})
	// Concatenating map-range slices in map order is exactly the block
	// order an unsplit task decodes.
	out.partialMerge = func(tc *TaskContext, parts [][]Pair[K, V]) []Pair[K, V] {
		var merged []Pair[K, V]
		for _, sub := range parts {
			merged = append(merged, sub...)
		}
		tc.ChargeRecords(len(merged), 0)
		return merged
	}
	return out
}

// Join inner-joins two pair RDDs on their keys (an extension beyond the
// paper's benchmarks, exercising multi-parent stages). Join deliberately
// sets no partialMerge: a map-range slice reads the SAME range of both
// sides, so records pushed by a left map in-range would never meet their
// right-side matches pushed by out-of-range maps. Coalescing and
// speculation still apply to join stages; only splitting is off.
func Join[K comparable, V, W any](left *RDD[Pair[K, V]], lconf ShuffleConf[K, V], right *RDD[Pair[K, W]], rconf ShuffleConf[K, W]) *RDD[Pair[K, Pair[V, W]]] {
	parts := lconf.Parts
	if parts < 1 {
		parts = left.nParts
	}
	lp := HashPartitioner[K]{N: parts, Ops: lconf.Ops}
	rp := HashPartitioner[K]{N: parts, Ops: rconf.Ops}
	ldep := newShuffleStage(left, ShuffleConf[K, V]{Codec: lconf.Codec, Ops: lconf.Ops, Parts: parts}, lp, nil)
	rdep := newShuffleStage(right, ShuffleConf[K, W]{Codec: rconf.Codec, Ops: rconf.Ops, Parts: parts}, rp, nil)
	return newRDD(left.ctx, parts, []Dependency{ldep, rdep}, func(part int, tc *TaskContext) ([]Pair[K, Pair[V, W]], error) {
		lpairs, err := fetchDecode(ShuffleConf[K, V]{Codec: lconf.Codec, Ops: lconf.Ops}, ldep, part, tc)
		if err != nil {
			return nil, err
		}
		rpairs, err := fetchDecode(ShuffleConf[K, W]{Codec: rconf.Codec, Ops: rconf.Ops}, rdep, part, tc)
		if err != nil {
			return nil, err
		}
		lm := make(map[K][]V)
		for _, p := range lpairs {
			lm[p.K] = append(lm[p.K], p.V)
		}
		var out []Pair[K, Pair[V, W]]
		for _, p := range rpairs {
			for _, v := range lm[p.K] {
				out = append(out, Pair[K, Pair[V, W]]{K: p.K, V: Pair[V, W]{K: v, V: p.V}})
			}
		}
		tc.ChargeRecords(len(lpairs)+len(rpairs)+len(out), 0)
		return out, nil
	})
}
