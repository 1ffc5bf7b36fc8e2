package spark

import (
	"sort"
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

// combiner pre-combines a map task's buckets: bucket i is pairs[order[k]] for
// k in [ends[i-1], ends[i]). It returns the combined buckets back to back,
// each in the order it wants written, and rewrites ends to bound them.
type combiner[K, V any] func(tc *TaskContext, pairs []Pair[K, V], order []int32, ends []int) []Pair[K, V]

// partitionWrite builds the map-side write function for a shuffle: order
// the pairs by partition, optionally pre-combine the buckets, and serialize
// bucket after bucket into one buffer per map task whose segments are the
// blocks (Spark's sort shuffle: one data file plus an index per map task).
func partitionWrite[K, V any](conf ShuffleConf[K, V], p Partitioner[K], combine combiner[K, V]) func(any, *TaskContext) [][]byte {
	return func(data any, tc *TaskContext) [][]byte {
		pairs := data.([]Pair[K, V])
		n := p.NumPartitions()
		// Count, then place: one partitioner call per record and a stable
		// permutation, not a copy: bucket i is pairs[order[ends[i-1]:ends[i]]].
		part := make([]int32, len(pairs))
		ends := make([]int, n)
		for j, pr := range pairs {
			i := p.PartitionFor(pr.K)
			part[j] = int32(i)
			ends[i]++
		}
		at := 0
		for i, c := range ends {
			ends[i] = at
			at += c
		}
		order := make([]int32, len(pairs))
		for j, i := range part {
			order[ends[i]] = int32(j)
			ends[i]++
		}
		tc.ChargeRecords(len(pairs), 0)
		if combine != nil {
			pairs, order = combine(tc, pairs, order, ends), nil
		}
		out := make([][]byte, n)
		if len(pairs) == 0 {
			return out
		}
		// Size the buffer from the task's first record: exact when records
		// are fixed-size; otherwise it grows, or is trimmed of its slack.
		var first bytebuf.Buf
		conf.Codec.Encode(&first, pairs[0])
		buf := bytebuf.New(first.ReadableBytes()*len(pairs) + 4*n)
		lo := 0
		for i, hi := range ends {
			if hi > lo {
				encodeBatch(conf.Codec, buf, pairs, order, lo, hi)
			}
			lo, ends[i] = hi, buf.WriterIndex() // from here on, where block i ends in buf
		}
		// A block's capacity ends where it does: an append to it reallocates
		// instead of writing into its neighbour. An empty bucket has no block.
		whole := trimmed(buf)
		lo = 0
		for i, hi := range ends {
			if hi > lo {
				out[i] = whole[lo:hi:hi]
			}
			lo = hi
		}
		// Serialization cost for the written shuffle data.
		tc.Charge(time.Duration(tc.cpu.NsPerByte * float64(len(whole))))
		return out
	}
}

// foldShuffle reads a reduce partition and calls f on each record in block
// order, holding none; it returns their count, charged with the blocks' bytes.
func foldShuffle[K, V any](codec PairCodec[K, V], dep *ShuffleDep, reduceID int, tc *TaskContext, f func(Pair[K, V])) (int, error) {
	blocks, err := tc.FetchShuffle(dep.shuffleID, reduceID)
	if err != nil {
		return 0, err
	}
	r, n := newPairReader(codec, blocks), 0
	for p := (Pair[K, V]{}); r.next(&p); n++ {
		f(p)
	}
	if r.err != nil {
		return 0, r.err
	}
	tc.ChargeRecords(n, r.bytes)
	return n, nil
}

// fetchDecode reads a reduce partition into one slice, for the
// transformations whose output is that slice. The decoded values may alias
// the fetched blocks (see Codec).
func fetchDecode[K, V any](conf ShuffleConf[K, V], dep *ShuffleDep, reduceID int, tc *TaskContext) ([]Pair[K, V], error) {
	blocks, err := tc.FetchShuffle(dep.shuffleID, reduceID)
	if err != nil {
		return nil, err
	}
	r := newPairReader(conf.Codec, blocks)
	out, err := r.collect()
	if err != nil {
		return nil, err
	}
	tc.ChargeRecords(len(out), r.bytes)
	return out, nil
}

// keyIndex numbers keys in first-appearance order. Output order comes from
// it and a slice, never from ranging over a map: one seed, one order.
type keyIndex[K comparable] map[K]int32

func (x keyIndex[K]) of(k K) (g int32, fresh bool) {
	g, ok := x[k]
	if !ok {
		g = int32(len(x))
		x[k] = g
	}
	return g, !ok
}

// newShuffleStage wires a wide dependency from `in` and returns it.
func newShuffleStage[K, V any](in *RDD[Pair[K, V]], conf ShuffleConf[K, V], p Partitioner[K], combine combiner[K, V]) *ShuffleDep {
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
		blocks, err := tc.FetchShuffle(dep.shuffleID, part)
		if err != nil {
			return nil, err
		}
		r := newPairReader(conf.Codec, blocks)
		again := *r // the second pass re-reads the same blocks
		// Count, then carve, in two decode passes and no record slice: number
		// the keys in first-appearance order and count their values, then cut
		// every group out of one value slice and place the values.
		index := make(keyIndex[K])
		group := make([]int32, 0, r.records)
		var sizes []int32
		var p Pair[K, V]
		for r.next(&p) {
			g, fresh := index.of(p.K)
			if fresh {
				sizes = append(sizes, 0)
			}
			group = append(group, g)
			sizes[g]++
		}
		if r.err != nil {
			return nil, r.err
		}
		out := make([]Pair[K, []V], len(sizes))
		vals := make([]V, len(group))
		off := 0
		for g, n := range sizes {
			end := off + int(n)
			out[g].V = vals[off:off:end]
			off = end
		}
		for _, g := range group {
			again.next(&p)
			o := &out[g]
			o.K = p.K
			o.V = append(o.V, p.V)
		}
		if again.err != nil {
			return nil, again.err
		}
		tc.ChargeRecords(len(group), r.bytes)
		tc.ChargeRecords(len(group), 0)
		return out, nil
	})
	// Split sub-tasks each group their map-range slice; concatenating the
	// per-key value lists in map-range order rebuilds the full groups with
	// values in the same per-map order an unsplit task would see.
	out.partialMerge = func(tc *TaskContext, parts [][]Pair[K, []V]) []Pair[K, []V] {
		// Count, then carve, as above: size every key's merged group first,
		// then cut the groups out of one value slice.
		idx := make(keyIndex[K])
		var merged []Pair[K, []V]
		var sizes []int
		n, total := 0, 0
		for _, sub := range parts {
			n += len(sub)
			for _, pr := range sub {
				i, fresh := idx.of(pr.K)
				if fresh {
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
	// start returns an empty index and accumulator with room for 64 keys, the
	// initial capacity of Spark's AppendOnlyMap: a small reduce never regrows.
	start := func() (keyIndex[K], []Pair[K, V]) { return make(keyIndex[K], 64), make([]Pair[K, V], 0, 64) }
	// reduce folds p into its key's entry of acc (first-appearance order).
	reduce := func(index keyIndex[K], acc []Pair[K, V], p Pair[K, V]) []Pair[K, V] {
		if g, fresh := index.of(p.K); !fresh {
			acc[g].V = f(acc[g].V, p.V)
			return acc
		}
		return append(acc, p)
	}
	// Buckets hold disjoint keys, so one index serves a whole map task and
	// numbers each bucket's keys contiguously, in first-appearance order.
	combine := func(tc *TaskContext, pairs []Pair[K, V], order []int32, ends []int) []Pair[K, V] {
		index, out := start()
		lo := 0
		for i, hi := range ends {
			for _, j := range order[lo:hi] {
				out = reduce(index, out, pairs[j])
			}
			tc.ChargeRecords(hi-lo, 0)
			lo, ends[i] = hi, len(out)
		}
		return out
	}
	dep := newShuffleStage(in, conf, HashPartitioner[K]{N: conf.Parts, Ops: conf.Ops}, combine)
	out := newRDD(in.ctx, conf.Parts, []Dependency{dep}, func(part int, tc *TaskContext) ([]Pair[K, V], error) {
		index, out := start()
		n, err := foldShuffle(conf.Codec, dep, part, tc, func(p Pair[K, V]) { out = reduce(index, out, p) })
		if err != nil {
			return nil, err
		}
		tc.ChargeRecords(n, 0)
		return out, nil
	})
	// f is associative, so reducing the sub-tasks' per-key partials in
	// map-range order equals reducing the full partition.
	out.partialMerge = func(tc *TaskContext, parts [][]Pair[K, V]) []Pair[K, V] {
		index, merged := start()
		n := 0
		for _, sub := range parts {
			n += len(sub)
			for _, pr := range sub {
				merged = reduce(index, merged, pr)
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
		// Build the left side's table from its stream, probe it with the
		// right side's: neither side is held as records.
		lm := make(map[K][]V)
		nl, err := foldShuffle(lconf.Codec, ldep, part, tc, func(p Pair[K, V]) { lm[p.K] = append(lm[p.K], p.V) })
		if err != nil {
			return nil, err
		}
		var out []Pair[K, Pair[V, W]]
		nr, err := foldShuffle(rconf.Codec, rdep, part, tc, func(p Pair[K, W]) {
			for _, v := range lm[p.K] {
				out = append(out, Pair[K, Pair[V, W]]{K: p.K, V: Pair[V, W]{K: v, V: p.V}})
			}
		})
		if err != nil {
			return nil, err
		}
		tc.ChargeRecords(nl+nr+len(out), 0)
		return out, nil
	})
}
