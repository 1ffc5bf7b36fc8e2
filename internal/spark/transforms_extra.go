package spark

import "math/rand"

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

// Distinct removes duplicate records via a shuffle keyed on the record
// itself (K comparable).
func Distinct[K comparable](in *RDD[K], codec Codec[K], ops KeyOps[K], numParts int) *RDD[K] {
	pairs := Map(in, func(k K) Pair[K, int64] { return Pair[K, int64]{K: k, V: 1} })
	conf := ShuffleConf[K, int64]{
		Codec: PairCodec[K, int64]{Key: codec, Val: Int64Codec{}},
		Ops:   ops,
		Parts: numParts,
	}
	deduped := ReduceByKey(pairs, conf, func(a, b int64) int64 { return 1 })
	return Map(deduped, func(p Pair[K, int64]) K { return p.K })
}

// Sample keeps each record with probability fraction, deterministically
// derived from seed and the partition index (sampling without replacement,
// Bernoulli, like RDD.sample(false, fraction, seed)).
func Sample[T any](in *RDD[T], fraction float64, seed int64) *RDD[T] {
	if fraction <= 0 {
		fraction = 0
	}
	if fraction >= 1 {
		fraction = 1
	}
	return MapPartitions(in, func(part int, tc *TaskContext, items []T) ([]T, error) {
		rng := rand.New(rand.NewSource(seed + int64(part)))
		out := make([]T, 0, int(float64(len(items))*fraction)+1)
		for _, v := range items {
			if rng.Float64() < fraction {
				out = append(out, v)
			}
		}
		tc.ChargeRecords(len(items), 0)
		return out, nil
	})
}

// ZipWithIndex pairs every record with its global index (ordered by
// partition, then position), like RDD.zipWithIndex. It materializes
// per-partition counts with one extra pass, as Spark does.
func ZipWithIndex[T any](in *RDD[T]) (*RDD[Pair[int64, T]], error) {
	counts := make([]int64, in.nParts)
	err := in.ctx.runJob(in, func(any) int { return 8 }, func(part int, data any) {
		counts[part] = int64(len(data.([]T)))
	})
	if err != nil {
		return nil, err
	}
	offsets := make([]int64, in.nParts)
	var acc int64
	for i, c := range counts {
		offsets[i] = acc
		acc += c
	}
	return newRDD(in.ctx, in.nParts, []Dependency{narrowDep{parent: in}}, func(part int, tc *TaskContext) ([]Pair[int64, T], error) {
		data, err := in.computePartition(part, tc)
		if err != nil {
			return nil, err
		}
		items := data.([]T)
		out := make([]Pair[int64, T], len(items))
		for i, v := range items {
			out[i] = Pair[int64, T]{K: offsets[part] + int64(i), V: v}
		}
		tc.ChargeRecords(len(items), 0)
		return out, nil
	}), nil
}

// CoGroup groups two pair RDDs by key, producing for every key the value
// lists from both sides — the primitive underneath joins.
func CoGroup[K comparable, V, W any](left *RDD[Pair[K, V]], lconf ShuffleConf[K, V], right *RDD[Pair[K, W]], rconf ShuffleConf[K, W]) *RDD[Pair[K, Pair[[]V, []W]]] {
	parts := lconf.Parts
	if parts < 1 {
		parts = left.nParts
	}
	lp := HashPartitioner[K]{N: parts, Ops: lconf.Ops}
	rp := HashPartitioner[K]{N: parts, Ops: rconf.Ops}
	ldep := newShuffleStage(left, ShuffleConf[K, V]{Codec: lconf.Codec, Ops: lconf.Ops, Parts: parts}, lp, nil)
	rdep := newShuffleStage(right, ShuffleConf[K, W]{Codec: rconf.Codec, Ops: rconf.Ops, Parts: parts}, rp, nil)
	return newRDD(left.ctx, parts, []Dependency{ldep, rdep}, func(part int, tc *TaskContext) ([]Pair[K, Pair[[]V, []W]], error) {
		// One entry per key in first-appearance order, left side first.
		index := make(keyIndex[K])
		var out []Pair[K, Pair[[]V, []W]]
		slot := func(k K) *Pair[[]V, []W] {
			g, fresh := index.of(k)
			if fresh {
				out = append(out, Pair[K, Pair[[]V, []W]]{K: k})
			}
			return &out[g].V
		}
		nl, err := foldShuffle(lconf.Codec, ldep, part, tc, func(p Pair[K, V]) {
			g := slot(p.K)
			g.K = append(g.K, p.V)
		})
		if err != nil {
			return nil, err
		}
		nr, err := foldShuffle(rconf.Codec, rdep, part, tc, func(p Pair[K, W]) {
			g := slot(p.K)
			g.V = append(g.V, p.V)
		})
		if err != nil {
			return nil, err
		}
		tc.ChargeRecords(nl+nr, 0)
		return out, nil
	})
}
