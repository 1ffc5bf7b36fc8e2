package spark

import (
	"math/bits"
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
// scratch has one slot per position of order, free for the combiner's use.
type combiner[K, V any] func(tc *TaskContext, pairs []Pair[K, V], order []int32, ends []int, scratch []int32) []Pair[K, V]

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
		part := tc.indices(2 * len(pairs))
		part, order := part[:len(pairs):len(pairs)], part[len(pairs):]
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
		for j, i := range part {
			order[ends[i]] = int32(j)
			ends[i]++
		}
		tc.ChargeRecords(len(pairs), 0)
		if combine != nil {
			// part is dead once order is built: the combiner's scratch.
			pairs, order = combine(tc, pairs, order, ends, part), nil
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
// it and a slice, never from ranging over a map: one seed, one order. It
// keeps no keys: one open-addressing slab holds the numbers, probed linearly
// from the top bits of KeyOps.Hash and doubled before it is half full, and a
// probe compares against the key the caller holds at each number (an
// output's own entry, or a record). Per size that is one slab, where a map
// costs a header, a directory and a table of wider slots.
type keyIndex[K comparable] struct {
	ops   KeyOps[K]
	n     int     // numbers filed
	slots []int32 // a power of two of them, each a number plus one; 0 is free
	shift uint    // 64 - log2(len(slots))
}

// initialKeys is the room a keyed output starts with, the initial capacity
// of Spark's AppendOnlyMap: a small one never regrows.
const initialKeys = 64

// newKeyIndex returns an index with room for initialKeys keys.
func newKeyIndex[K comparable](ops KeyOps[K]) keyIndex[K] {
	x := keyIndex[K]{ops: ops}
	x.use(make([]int32, 2*initialKeys))
	return x
}

// use empties slab, a power of two of slots, and indexes into it.
func (x *keyIndex[K]) use(slab []int32) {
	clear(slab)
	x.slots, x.shift, x.n = slab, uint(65-bits.Len(uint(len(slab)))), 0
}

// numberOf returns the number x files k under, where held[g].K is the key
// the caller holds at number g. A key not seen before is filed under next,
// where the caller then holds it, and comes back fresh. held is a slice of
// pairs, not a lookup function, so that a probe compares keys in place
// rather than through a call.
func numberOf[K comparable, X any](x *keyIndex[K], held []Pair[K, X], k K, next int32) (g int32, fresh bool) {
	mask := uint64(len(x.slots) - 1)
	i := home(x.ops.Hash(k), x.shift)
	for ; x.slots[i] != 0; i = (i + 1) & mask {
		if g := x.slots[i] - 1; held[g].K == k {
			return g, false
		}
	}
	x.n++
	if 2*x.n > len(x.slots) {
		// Double the slab and file every number in it again.
		old := x.slots
		x.slots, x.shift = make([]int32, 2*len(old)), x.shift-1
		for _, s := range old {
			if s != 0 {
				x.slots[x.free(held[s-1].K)] = s
			}
		}
		i = x.free(k)
	}
	x.slots[i] = next + 1
	return next, true
}

// free is the first free slot on k's probe path.
func (x *keyIndex[K]) free(k K) uint64 {
	mask := uint64(len(x.slots) - 1)
	i := home(x.ops.Hash(k), x.shift)
	for x.slots[i] != 0 {
		i = (i + 1) & mask
	}
	return i
}

// home is a first probe into a slab of 1<<(64-shift) slots: the top bits of
// h, mixed once more.
func home(h uint64, shift uint) uint64 {
	return (h * 0x9E3779B97F4A7C15) >> shift
}

// combineExact is ReduceByKey's map-side combine. Buckets hold disjoint
// keys, so each bucket's keys are numbered on their own, in first-appearance
// order, through one keyIndex that files the records' own indices in pairs
// (a probe compares against the record's key), over one slab sized from the
// task's largest bucket so that it is at most half full and never grows,
// emptied between buckets. A record's group number goes into scratch at its
// index; the combined slice is then allocated at its exact length and
// folded in one pass over order.
func combineExact[K comparable, V any](ops KeyOps[K], f func(a, b V) V) combiner[K, V] {
	return func(tc *TaskContext, pairs []Pair[K, V], order []int32, ends []int, group []int32) []Pair[K, V] {
		largest, lo := 0, 0
		for _, hi := range ends {
			largest, lo = max(largest, hi-lo), hi
		}
		slab := tc.indices(slabSize(largest))
		index := keyIndex[K]{ops: ops}
		groups := int32(0)
		lo = 0
		for i, hi := range ends {
			index.use(slab[:slabSize(hi-lo)])
			for _, j := range order[lo:hi] {
				if rep, fresh := numberOf(&index, pairs, pairs[j].K, j); fresh {
					group[j] = groups
					groups++
				} else {
					group[j] = group[rep]
				}
			}
			tc.ChargeRecords(hi-lo, 0)
			lo, ends[i] = hi, int(groups)
		}
		// Groups first appear in number order: the record that reaches the
		// next unseen number opens it.
		out := make([]Pair[K, V], groups)
		next := int32(0)
		for _, j := range order {
			if g := group[j]; g == next {
				out[g] = pairs[j]
				next++
			} else {
				out[g].V = f(out[g].V, pairs[j].V)
			}
		}
		return out
	}
}

// slabSize is the least power of two that holds n positions at most half
// full.
func slabSize(n int) int {
	if n == 0 {
		return 1
	}
	return 2 << bits.Len(uint(n-1))
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
		return groupBlocks(conf, blocks, tc)
	})
	// Split sub-tasks each group their map-range slice; concatenating the
	// per-key value lists in map-range order rebuilds the full groups with
	// values in the same per-map order an unsplit task would see.
	out.partialMerge = func(tc *TaskContext, parts [][]Pair[K, []V]) []Pair[K, []V] {
		// Count, then carve: size every key's merged group first, then cut
		// the groups out of one value slice.
		idx := newKeyIndex(conf.Ops)
		var merged []Pair[K, []V]
		var sizes []int
		n, total := 0, 0
		for _, sub := range parts {
			n += len(sub)
			for _, pr := range sub {
				i, fresh := numberOf(&idx, merged, pr.K, int32(len(merged)))
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
				i, _ := numberOf(&idx, merged, pr.K, int32(len(merged)))
				m := &merged[i]
				m.V = append(m.V, pr.V...)
			}
		}
		tc.ChargeRecords(n, 0)
		return merged
	}
	return out
}

// groupBlocks is GroupByKey's reduce side over a task's fetched blocks: the
// keys in first-appearance order, each with its values in block order. One
// decode pass numbers each record's key and counts its values, keeping the
// value in record order beside its group number (in the task's index
// scratch); then one in-place cycle permutation moves every value into its
// group's window of the same slice, keeping block order within a group.
func groupBlocks[K comparable, V any](conf ShuffleConf[K, V], blocks [][]byte, tc *TaskContext) ([]Pair[K, []V], error) {
	r := newPairReader(conf.Codec, blocks)
	index := newKeyIndex(conf.Ops)
	counts := make([]Pair[K, int32], 0, initialKeys)
	vals := make([]V, 0, r.records)
	group := tc.indices(r.records)[:0]
	var p Pair[K, V]
	for r.next(&p) {
		g, fresh := numberOf(&index, counts, p.K, int32(len(counts)))
		if fresh {
			counts = append(counts, Pair[K, int32]{K: p.K})
		}
		counts[g].V++
		vals = append(vals, p.V)
		group = append(group, g)
	}
	if r.err != nil {
		return nil, r.err
	}
	// A group's count becomes where its window starts, and a record's
	// group number its place: the next free one in its group's window.
	// Each group's count then ends up where its window ends.
	out := make([]Pair[K, []V], len(counts))
	at := int32(0)
	for g, c := range counts {
		out[g].K, counts[g].V, at = c.K, at, at+c.V
	}
	for i, g := range group {
		group[i] = counts[g].V
		counts[g].V++
	}
	for i := range group {
		for to := group[i]; to != int32(i); to = group[i] {
			vals[i], vals[to] = vals[to], vals[i]
			group[i], group[to] = group[to], to
		}
	}
	lo := int32(0)
	for g, c := range counts {
		out[g].V, lo = vals[lo:c.V:c.V], c.V
	}
	n := len(vals)
	tc.ChargeRecords(n, r.bytes)
	tc.ChargeRecords(n, 0)
	return out, nil
}

// ReduceByKey merges values per key with f, combining map-side first (the
// standard Spark optimization that shrinks shuffle volume).
func ReduceByKey[K comparable, V any](in *RDD[Pair[K, V]], conf ShuffleConf[K, V], f func(a, b V) V) *RDD[Pair[K, V]] {
	if conf.Parts < 1 {
		conf.Parts = in.nParts
	}
	// start returns an empty index and accumulator with room for
	// initialKeys keys.
	start := func() (keyIndex[K], []Pair[K, V]) {
		return newKeyIndex(conf.Ops), make([]Pair[K, V], 0, initialKeys)
	}
	// reduce folds p into its key's entry of acc (first-appearance order).
	reduce := func(index *keyIndex[K], acc []Pair[K, V], p Pair[K, V]) []Pair[K, V] {
		if g, fresh := numberOf(index, acc, p.K, int32(len(acc))); !fresh {
			acc[g].V = f(acc[g].V, p.V)
			return acc
		}
		return append(acc, p)
	}
	dep := newShuffleStage(in, conf, HashPartitioner[K]{N: conf.Parts, Ops: conf.Ops}, combineExact(conf.Ops, f))
	out := newRDD(in.ctx, conf.Parts, []Dependency{dep}, func(part int, tc *TaskContext) ([]Pair[K, V], error) {
		index, out := start()
		n, err := foldShuffle(conf.Codec, dep, part, tc, func(p Pair[K, V]) { out = reduce(&index, out, p) })
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
				merged = reduce(&index, merged, pr)
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
