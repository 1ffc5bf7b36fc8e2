package spark

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"mpi4spark/internal/spark/shuffle"
)

// TestPartitionWriteBlocksAreSegmentsOfOneBuffer: the blocks of a map task
// are cap-limited windows onto one buffer, so an append to a block
// reallocates instead of writing into the next block, whose bytes (and the
// CRC32C that travels in MapStatus.Sums) stay intact. Variable-size records
// make the size guess overshoot or undershoot; either way no block carries
// slack.
func TestPartitionWriteBlocksAreSegmentsOfOneBuffer(t *testing.T) {
	codec := PairCodec[int64, []byte]{Key: Int64Codec{}, Val: BytesCodec{}}
	for _, size := range []func(i int) int{
		func(int) int { return 100 },         // the guess is exact
		func(i int) int { return 300 - i/4 }, // first record is the largest: overshoot, trimmed
		func(i int) int { return i / 4 },     // first record is the smallest: the buffer grows
	} {
		pairs := make([]Pair[int64, []byte], 1000)
		for i := range pairs {
			pairs[i] = Pair[int64, []byte]{K: int64(i), V: bytes.Repeat([]byte{byte(i)}, size(i))}
		}
		p := HashPartitioner[int64]{N: 7, Ops: Int64Key{}}
		blocks := partitionWrite(ShuffleConf[int64, []byte]{Codec: codec, Parts: 7}, p, nil)(pairs, &TaskContext{})
		for i, b := range blocks {
			if cap(b) != len(b) {
				t.Fatalf("block %d: capacity %d beyond its %d bytes", i, cap(b), len(b))
			}
		}
		pristine := make([][]byte, len(blocks))
		sums := make([]uint32, len(blocks))
		for i, b := range blocks {
			pristine[i] = append([]byte(nil), b...)
			sums[i] = shuffle.Checksum(b)
		}
		for i := range blocks {
			grown := append(blocks[i], 0xFF)
			if &grown[0] == &blocks[i][0] {
				t.Fatalf("append to block %d did not reallocate", i)
			}
		}
		for i, b := range blocks {
			if !bytes.Equal(b, pristine[i]) || shuffle.Checksum(b) != sums[i] {
				t.Fatalf("block %d changed after appends to its neighbours", i)
			}
		}
	}
}

// TestPartitionWriteAllocatesPerTaskNotPerBlock: a map task's allocations do
// not depend on how many blocks it writes (one buffer, one order, one index),
// and no allocation is as large as a copy of the records.
func TestPartitionWriteAllocatesPerTaskNotPerBlock(t *testing.T) {
	codec := PairCodec[int64, []byte]{Key: Int64Codec{}, Val: BytesCodec{}}
	val := make([]byte, 100)
	pairs := make([]Pair[int64, []byte], 4096)
	for i := range pairs {
		pairs[i] = Pair[int64, []byte]{K: int64(i), V: val}
	}
	allocs := func(n int) float64 {
		write := partitionWrite(ShuffleConf[int64, []byte]{Codec: codec, Parts: n}, HashPartitioner[int64]{N: n, Ops: Int64Key{}}, nil)
		tc := &TaskContext{}
		return testing.AllocsPerRun(10, func() { write(pairs, tc) })
	}
	few, many := allocs(2), allocs(256)
	if few != many || few > 10 {
		t.Fatalf("a map task allocates %.0f objects for 2 blocks and %.0f for 256; want the same, at most 10", few, many)
	}
}

// sumBucket keeps a bucket's first record per key, summing the rest into it.
func sumBucket[K comparable](bucket []Pair[K, int64]) []Pair[K, int64] {
	var out []Pair[K, int64]
	at := map[K]int{}
	for _, p := range bucket {
		if i, ok := at[p.K]; ok {
			out[i].V += p.V
		} else {
			at[p.K] = len(out)
			out = append(out, p)
		}
	}
	return out
}

// perBucketSum is the reference combiner: it copies each bucket out and
// sums it alone.
func perBucketSum[K comparable](tc *TaskContext, pairs []Pair[K, int64], order []int32, ends []int, _ []int32) []Pair[K, int64] {
	var out []Pair[K, int64]
	lo := 0
	for i, hi := range ends {
		var bucket []Pair[K, int64]
		for _, j := range order[lo:hi] {
			bucket = append(bucket, pairs[j])
		}
		out = append(out, sumBucket(bucket)...)
		lo, ends[i] = hi, len(out)
	}
	return out
}

// diffCombine holds every block each write gives to EncodePairs of its
// summed naive bucket, byte for byte: nil where the bucket is empty, and no
// capacity past its bytes.
func diffCombine[K comparable](t *testing.T, codec PairCodec[K, int64], p Partitioner[K], pairs []Pair[K, int64], writes map[string]func(any, *TaskContext) [][]byte) {
	t.Helper()
	buckets := make([][]Pair[K, int64], p.NumPartitions())
	for _, pr := range pairs {
		i := p.PartitionFor(pr.K)
		buckets[i] = append(buckets[i], pr)
	}
	for name, write := range writes {
		got := write(pairs, &TaskContext{})
		for i, b := range buckets {
			var want []byte
			if len(b) > 0 {
				want = EncodePairs(codec, sumBucket(b))
			}
			if !bytes.Equal(got[i], want) || (want == nil) != (got[i] == nil) || cap(got[i]) != len(got[i]) {
				t.Fatalf("%s: block %d is %d bytes (cap %d), want %d", name, i, len(got[i]), cap(got[i]), len(want))
			}
		}
	}
}

// TestPartitionWriteCombineDifferential is the differential test's combine
// leg: with a combiner every block equals EncodePairs of its combined naive
// bucket, for a reference combiner that copies each bucket out and for
// ReduceByKey's own, which numbers each bucket's keys in place. The shapes:
// hash-partitioned keys spread, few and hot; one bucket holding every record;
// empty buckets between full ones; string keys; and a hash under which every
// key collides.
func TestPartitionWriteCombineDifferential(t *testing.T) {
	add := func(a, b int64) int64 { return a + b }
	codec := PairCodec[int64, int64]{Key: Int64Codec{}, Val: Int64Codec{}}
	rng := rand.New(rand.NewSource(2022))
	gen := func(records, keys int) []Pair[int64, int64] {
		pairs := make([]Pair[int64, int64], records)
		for i := range pairs {
			pairs[i] = Pair[int64, int64]{K: int64(rng.Intn(keys)), V: rng.Int63n(100)}
		}
		return pairs
	}
	for _, keys := range []int{1, 5, 400} {
		pairs := gen(1000, keys)
		for _, n := range []int{1, 7, 64} {
			t.Run(fmt.Sprintf("hash/keys=%d/n=%d", keys, n), func(t *testing.T) {
				conf := ShuffleConf[int64, int64]{Codec: codec, Ops: Int64Key{}, Parts: n}
				p := HashPartitioner[int64]{N: n, Ops: Int64Key{}}
				c := newTestCluster(t, 1, 1, BackendVanilla)
				reduced := ReduceByKey(Parallelize(c.ctx, pairs, 1), conf, add)
				diffCombine(t, codec, p, pairs, map[string]func(any, *TaskContext) [][]byte{
					"per-bucket":  partitionWrite(conf, p, perBucketSum[int64]),
					"ReduceByKey": reduced.deps[0].(*ShuffleDep).write,
				})
			})
		}
	}
	// Range partitioners place keys [0, 400) where a case wants them.
	for _, c := range []struct {
		name   string
		bounds []int64
	}{
		{"one-bucket", []int64{-20, -10, 1000, 2000}},          // bucket 2 holds every record
		{"empty-between", []int64{-5, 99, 150, 150, 150, 299}}, // buckets 0, 3 and 4 empty
	} {
		t.Run(c.name, func(t *testing.T) {
			pairs := gen(1000, 400)
			conf := ShuffleConf[int64, int64]{Codec: codec, Ops: Int64Key{}, Parts: len(c.bounds) + 1}
			p := RangePartitioner[int64]{Bounds: c.bounds, Ops: Int64Key{}}
			diffCombine(t, codec, p, pairs, map[string]func(any, *TaskContext) [][]byte{
				"per-bucket":   partitionWrite(conf, p, perBucketSum[int64]),
				"combineExact": partitionWrite(conf, p, combineExact(conf.Ops, add)),
			})
		})
	}
	t.Run("string-keys", func(t *testing.T) {
		codec := PairCodec[string, int64]{Key: StringCodec{}, Val: Int64Codec{}}
		pairs := make([]Pair[string, int64], 1000)
		for i := range pairs {
			key := rng.Intn(300)
			pairs[i] = Pair[string, int64]{K: fmt.Sprintf("k%0*d", 1+key%9, key), V: rng.Int63n(100)}
		}
		conf := ShuffleConf[string, int64]{Codec: codec, Ops: StringKey{}, Parts: 7}
		p := HashPartitioner[string]{N: 7, Ops: StringKey{}}
		diffCombine(t, codec, p, pairs, map[string]func(any, *TaskContext) [][]byte{
			"per-bucket":   partitionWrite(conf, p, perBucketSum[string]),
			"combineExact": partitionWrite(conf, p, combineExact(conf.Ops, add)),
		})
	})
	t.Run("colliding", func(t *testing.T) {
		// Every key hashes alike: one bucket, and every probe walks past
		// every key numbered before it.
		pairs := gen(1000, 400)
		conf := ShuffleConf[int64, int64]{Codec: codec, Ops: collidingKeys{}, Parts: 7}
		p := HashPartitioner[int64]{N: 7, Ops: collidingKeys{}}
		diffCombine(t, codec, p, pairs, map[string]func(any, *TaskContext) [][]byte{
			"per-bucket":   partitionWrite(conf, p, perBucketSum[int64]),
			"combineExact": partitionWrite(conf, p, combineExact(conf.Ops, add)),
		})
	})
}

// TestPairReaderWalksBlocks: one cursor over a task's blocks yields the
// concatenation of DecodePairs of each, skipping the zero-length blocks a
// split sub-task gets outside its map range, and a copy taken before reading
// is a second pass.
func TestPairReaderWalksBlocks(t *testing.T) {
	codec := PairCodec[string, []byte]{Key: StringCodec{}, Val: BytesCodec{}}
	all := benchPairs(60)
	blocks := [][]byte{EncodePairs(codec, all[:10]), nil, EncodePairs(codec, all[10:11]), {}, EncodePairs(codec, nil), EncodePairs(codec, all[11:])}
	var want []Pair[string, []byte]
	for _, b := range blocks {
		ps, err := DecodePairs(codec, b)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, ps...)
	}
	r := newPairReader(codec, blocks)
	again := *r
	if r.records != 60 || r.bytes != len(blocks[0])+len(blocks[2])+4+len(blocks[5]) {
		t.Fatalf("blocks announce %d records in %d bytes", r.records, r.bytes)
	}
	for pass, r := range []*pairReader[string, []byte]{r, &again} {
		var got []Pair[string, []byte]
		var p Pair[string, []byte]
		for r.next(&p) {
			got = append(got, p)
		}
		if r.err != nil || !reflect.DeepEqual(got, want) || len(got) != 60 {
			t.Fatalf("pass %d: %d records, err %v; want the %d of the blocks in order", pass, len(got), r.err, len(want))
		}
		if r.next(&p) || r.err != nil {
			t.Fatalf("pass %d: next after the last record = true or err %v", pass, r.err)
		}
	}
}

// TestPairReaderErrorTexts pins the decode errors to the text they had
// before the cursor: a short header is the buffer's error as it is, a
// truncated or over-announced batch names the record it broke at. The error
// is sticky and the collecting callers return no partial slice.
func TestPairReaderErrorTexts(t *testing.T) {
	codec := PairCodec[int64, []byte]{Key: Int64Codec{}, Val: BytesCodec{}}
	batch := EncodePairs(codec, []Pair[int64, []byte]{{K: 1, V: []byte("first")}, {K: 2, V: []byte("second")}, {K: 3, V: []byte("third")}})
	over := append([]byte(nil), batch...)
	over[3] = 5 // announces 5 records, holds 3
	hostile := []byte{0xFF, 0xFF, 0xFF, 0xFF, 0, 0, 0, 0}
	for _, c := range []struct {
		data    []byte
		decoded int
		want    string
	}{
		{batch[:2], 0, "bytebuf: read 4 bytes, only 2 readable"},
		{batch[:4], 0, "spark: corrupt shuffle batch at record 0: bytebuf: read 8 bytes, only 0 readable"},
		{batch[:10], 0, "spark: corrupt shuffle batch at record 0: bytebuf: read 8 bytes, only 6 readable"},
		{batch[:21], 1, "spark: corrupt shuffle batch at record 1: bytebuf: read 8 bytes, only 0 readable"},
		{batch[:len(batch)-1], 2, "spark: corrupt shuffle batch at record 2: bytebuf: read 5 bytes, only 4 readable"},
		{over, 3, "spark: corrupt shuffle batch at record 3: bytebuf: read 8 bytes, only 0 readable"},
		{hostile, 0, "spark: corrupt shuffle batch at record 0: bytebuf: read 8 bytes, only 4 readable"},
	} {
		if out, err := DecodePairs(codec, c.data); err == nil || err.Error() != c.want || out != nil {
			t.Fatalf("DecodePairs(%d bytes) = %d pairs, %v; want nil and %q", len(c.data), len(out), err, c.want)
		}
		// Behind a good block, the record index restarts with the batch.
		r := newPairReader(codec, [][]byte{batch, c.data, batch})
		n := 0
		var p Pair[int64, []byte]
		for r.next(&p) {
			n++
		}
		if n != 3+c.decoded || r.err == nil || r.err.Error() != c.want || r.next(&p) {
			t.Fatalf("%d bytes behind a good block: %d records, %v; want %d and %q", len(c.data), n, r.err, 3+c.decoded, c.want)
		}
	}
	// A count no batch of this size can hold does not size the slice.
	if r := newPairReader(codec, [][]byte{hostile}); r.records != len(hostile) {
		t.Fatalf("hostile header sizes the slice at %d records for %d bytes", r.records, len(hostile))
	}
}

// FuzzDecodePairs: whatever the bytes, decoding returns records or an error,
// never panics or sizes memory from a header the bytes cannot back, and the
// decoded values are windows onto the input that an append cannot grow into
// their neighbours.
func FuzzDecodePairs(f *testing.F) {
	codec := PairCodec[int64, []byte]{Key: Int64Codec{}, Val: BytesCodec{}}
	f.Add(EncodePairs(codec, []Pair[int64, []byte]{{K: 1, V: []byte("first")}, {K: -2, V: nil}, {K: 3, V: []byte("third")}}))
	f.Fuzz(func(t *testing.T, data []byte) {
		pristine := append([]byte(nil), data...)
		out, err := DecodePairs(codec, data)
		if err != nil {
			if out != nil {
				t.Fatalf("error %v with %d records", err, len(out))
			}
			return
		}
		if 12*len(out) > len(data) {
			t.Fatalf("%d records out of %d bytes", len(out), len(data))
		}
		for i := range out {
			if cap(out[i].V) != len(out[i].V) {
				t.Fatalf("record %d: value capacity %d beyond its %d bytes", i, cap(out[i].V), len(out[i].V))
			}
			_ = append(out[i].V, 0xFF)
		}
		if !bytes.Equal(data, pristine) {
			t.Fatal("decoding or appending to a decoded value wrote into the batch")
		}
		// What decoded re-encodes to a prefix-equal batch: the header and
		// every record are where the input had them.
		if len(out) > 0 {
			if re := EncodePairs(codec, out); !bytes.Equal(re, data[:len(re)]) {
				t.Fatal("re-encoding the decoded records differs from the input")
			}
		}
	})
}

// shuffleSums returns the CRC32C of every block of every map output of the
// RDD's first shuffle dependency, as registered with the tracker.
func shuffleSums(t *testing.T, ctx *Context, deps []Dependency) [][]uint32 {
	t.Helper()
	var sums [][]uint32
	for _, d := range deps {
		sts, err := ctx.tracker.Outputs(d.(*ShuffleDep).shuffleID)
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range sts {
			sums = append(sums, st.Sums)
		}
	}
	return sums
}

// TestKeyedOutputOrderIsDeterministic: one seed, one order. Two runs of the
// same ReduceByKey job and of the same Join job in one process write the
// same block bytes (MapStatus.Sums) and collect in the same order; the order
// is the keys' first appearance, not Go's map iteration order.
func TestKeyedOutputOrderIsDeterministic(t *testing.T) {
	gen := func(salt int64) func(part int, tc *TaskContext) []Pair[int64, int64] {
		return func(part int, tc *TaskContext) []Pair[int64, int64] {
			rng := rand.New(rand.NewSource(2022 + salt + int64(part)))
			out := make([]Pair[int64, int64], 400)
			for i := range out {
				out[i] = Pair[int64, int64]{K: int64(rng.Intn(64)), V: rng.Int63n(1000)}
			}
			return out
		}
	}
	run := func() (reduced, joined string, sums [][]uint32) {
		c := newTestCluster(t, 2, 2, BackendVanilla)
		left := Generate(c.ctx, 4, gen(0))
		red := ReduceByKey(left, int64Conf(4), func(a, b int64) int64 { return a + b })
		r, err := Collect(red)
		if err != nil {
			t.Fatal(err)
		}
		sums = shuffleSums(t, c.ctx, red.deps)
		j := Join(left, int64Conf(4), Generate(c.ctx, 4, gen(100)), int64Conf(4))
		g, err := Collect(j)
		if err != nil {
			t.Fatal(err)
		}
		return fmt.Sprint(r), fmt.Sprint(g), append(sums, shuffleSums(t, c.ctx, j.deps)...)
	}
	r0, g0, s0 := run()
	for i := 1; i < 3; i++ {
		r, g, s := run()
		if r != r0 {
			t.Fatalf("run %d: ReduceByKey collected in another order:\n%.200s\n%.200s", i, r, r0)
		}
		if g != g0 {
			t.Fatalf("run %d: Join collected in another order:\n%.200s\n%.200s", i, g, g0)
		}
		if !reflect.DeepEqual(s, s0) {
			t.Fatalf("run %d: map outputs have other checksums: the blocks' bytes differ between runs", i)
		}
	}
}
