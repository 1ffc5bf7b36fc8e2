package spark

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"mpi4spark/internal/vtime"
)

// diffPartitionWrite runs the map-side writer over pairs and holds every
// block to the reference: EncodePairs of the bucket a naive in-order pass
// builds, nil where that bucket is empty. The blocks' bytes go on the wire
// and their CRC32C travels in MapStatus.Sums, so "equal" means equal bytes.
// The same write function serves every map task of a shuffle, so it is
// called twice, and the virtual time it charges is held to the model's
// formula for (records, written bytes).
func diffPartitionWrite[K, V any](t *testing.T, codec PairCodec[K, V], p Partitioner[K], pairs []Pair[K, V]) {
	t.Helper()
	n := p.NumPartitions()
	buckets := make([][]Pair[K, V], n)
	for _, pr := range pairs {
		i := p.PartitionFor(pr.K)
		buckets[i] = append(buckets[i], pr)
	}
	want := make([][]byte, n)
	total := 0
	for i, b := range buckets {
		if len(b) > 0 {
			want[i] = EncodePairs(codec, b)
			total += len(want[i])
		}
	}
	cpu := DefaultCPUModel()
	wantVT := vtime.Stamp(0).
		Add(time.Duration(cpu.NsPerRecord * float64(len(pairs)))).
		Add(time.Duration(cpu.NsPerByte * float64(total)))

	write := partitionWrite(ShuffleConf[K, V]{Codec: codec, Parts: n}, p, nil)
	for task := 0; task < 2; task++ {
		tc := &TaskContext{cpu: cpu}
		got := write(pairs, tc)
		if len(got) != n {
			t.Fatalf("task %d: %d blocks for %d partitions", task, len(got), n)
		}
		for i := range got {
			if want[i] == nil {
				if got[i] != nil {
					t.Fatalf("task %d: block %d of an empty bucket is %d bytes, want nil", task, i, len(got[i]))
				}
				continue
			}
			if !bytes.Equal(got[i], want[i]) {
				t.Fatalf("task %d: block %d (%d records) differs from EncodePairs of its bucket: %d bytes, want %d",
					task, i, len(buckets[i]), len(got[i]), len(want[i]))
			}
		}
		if tc.vt != wantVT {
			t.Fatalf("task %d: charged vt %v, want %v", task, tc.vt, wantVT)
		}
	}
}

// diffShapes are the key distributions every record type is run through:
// spread keys, few keys (most buckets of a wide shuffle stay empty), one hot
// key (a single bucket holds everything) and no input at all.
var diffShapes = []struct {
	name    string
	records int
	keys    int
}{
	{"spread", 1500, 1 << 20},
	{"fewkeys", 400, 5},
	{"hot", 300, 1},
	{"empty", 0, 1},
}

// diffPartitioners returns a hash and a range partitioner over n partitions;
// the range bounds come from a sample of the keys, as SortByKey's do.
func diffPartitioners[K any](n int, ops KeyOps[K], sample []K) map[string]Partitioner[K] {
	return map[string]Partitioner[K]{
		"hash":  HashPartitioner[K]{N: n, Ops: ops},
		"range": NewRangePartitioner(sample, n, ops),
	}
}

func diffRun[K, V any](t *testing.T, codec PairCodec[K, V], ops KeyOps[K], gen func(rng *rand.Rand, key int) Pair[K, V]) {
	for _, shape := range diffShapes {
		for _, n := range []int{1, 7, 64} {
			rng := rand.New(rand.NewSource(int64(2022 + 31*n + shape.records)))
			pairs := make([]Pair[K, V], shape.records)
			sample := make([]K, 0, len(pairs))
			for i := range pairs {
				pairs[i] = gen(rng, rng.Intn(shape.keys))
				if i%8 == 0 {
					sample = append(sample, pairs[i].K)
				}
			}
			for pname, p := range diffPartitioners(n, ops, sample) {
				t.Run(fmt.Sprintf("%s/%s/%d", shape.name, pname, n), func(t *testing.T) {
					diffPartitionWrite(t, codec, p, pairs)
				})
			}
		}
	}
}

// TestPartitionWriteDifferential pins the map-side writer's output to the
// naive bucket-then-encode reference over seeded random inputs of the three
// record shapes the workloads shuffle: fixed-size keys with variable-size
// byte values, variable-size string keys, and float vectors.
func TestPartitionWriteDifferential(t *testing.T) {
	t.Run("int64-bytes", func(t *testing.T) {
		codec := PairCodec[int64, []byte]{Key: Int64Codec{}, Val: BytesCodec{}}
		diffRun[int64, []byte](t, codec, Int64Key{}, func(rng *rand.Rand, key int) Pair[int64, []byte] {
			v := make([]byte, rng.Intn(200)) // zero-length values included
			rng.Read(v)
			return Pair[int64, []byte]{K: int64(key) - 7, V: v}
		})
	})
	t.Run("int64-bytes-fixed", func(t *testing.T) {
		// Every record the same size, as in every benchmark workload.
		codec := PairCodec[int64, []byte]{Key: Int64Codec{}, Val: BytesCodec{}}
		diffRun[int64, []byte](t, codec, Int64Key{}, func(rng *rand.Rand, key int) Pair[int64, []byte] {
			v := make([]byte, 100)
			rng.Read(v)
			return Pair[int64, []byte]{K: int64(key), V: v}
		})
	})
	t.Run("string-int64", func(t *testing.T) {
		codec := PairCodec[string, int64]{Key: StringCodec{}, Val: Int64Codec{}}
		diffRun[string, int64](t, codec, StringKey{}, func(rng *rand.Rand, key int) Pair[string, int64] {
			return Pair[string, int64]{K: fmt.Sprintf("k%0*d", 1+key%9, key), V: rng.Int63()}
		})
	})
	t.Run("int64-floats", func(t *testing.T) {
		codec := PairCodec[int64, []float64]{Key: Int64Codec{}, Val: Float64SliceCodec{}}
		diffRun[int64, []float64](t, codec, Int64Key{}, func(rng *rand.Rand, key int) Pair[int64, []float64] {
			v := make([]float64, rng.Intn(12))
			for i := range v {
				v[i] = rng.NormFloat64()
			}
			return Pair[int64, []float64]{K: int64(key), V: v}
		})
	})
}
