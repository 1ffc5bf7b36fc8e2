package spark

import (
	"bytes"
	"fmt"
	"testing"

	"mpi4spark/internal/bytebuf"
)

func benchPairs(n int) []Pair[string, []byte] {
	pairs := make([]Pair[string, []byte], n)
	for i := range pairs {
		pairs[i] = Pair[string, []byte]{
			K: fmt.Sprintf("key-%06d", i),
			V: make([]byte, 100),
		}
	}
	return pairs
}

// encodePairsUnpooled is the pre-pooling encoder: a fresh zero-capacity
// buffer that reallocates as it grows. Kept as the benchmark baseline.
func encodePairsUnpooled[K, V any](codec PairCodec[K, V], pairs []Pair[K, V]) []byte {
	buf := bytebuf.New(0)
	buf.WriteUint32(uint32(len(pairs)))
	for _, p := range pairs {
		codec.Encode(buf, p)
	}
	return buf.Bytes()
}

// BenchmarkEncodePairs compares the pooled, size-hinted encoder against
// the unpooled baseline it replaced. The pooled path with a learned hint
// should show fewer allocs/op: one output copy instead of a realloc
// ladder.
func BenchmarkEncodePairs(b *testing.B) {
	codec := PairCodec[string, []byte]{Key: StringCodec{}, Val: BytesCodec{}}
	pairs := benchPairs(2000)
	hint := len(EncodePairs(codec, pairs)) // a learned hint from the previous batch

	b.Run("unpooled", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			encodePairsUnpooled(codec, pairs)
		}
	})
	b.Run("pooled-hint", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			EncodePairsHint(codec, pairs, hint)
		}
	})
}

// TestEncodePairsPooledFewerAllocs pins the benchmark's claim as a
// regression test: the pooled size-hinted path must allocate strictly
// less than the unpooled baseline.
func TestEncodePairsPooledFewerAllocs(t *testing.T) {
	codec := PairCodec[string, []byte]{Key: StringCodec{}, Val: BytesCodec{}}
	pairs := benchPairs(2000)
	want := EncodePairs(codec, pairs)
	hint := len(want)

	unpooled := testing.AllocsPerRun(20, func() {
		encodePairsUnpooled(codec, pairs)
	})
	pooled := testing.AllocsPerRun(20, func() {
		EncodePairsHint(codec, pairs, hint)
	})
	if pooled >= unpooled {
		t.Fatalf("pooled allocs/op = %.0f, unpooled = %.0f; pooling should allocate less", pooled, unpooled)
	}
	if got := EncodePairsHint(codec, pairs, hint); string(got) != string(want) {
		t.Fatal("pooled encoding differs from baseline")
	}
}

// TestAppendPairsFillsPresizedSlice pins fetchDecode's single allocation: a
// slice sized from the batches' announced counts is filled in place, batch
// after batch, without regrowth.
func TestAppendPairsFillsPresizedSlice(t *testing.T) {
	codec := PairCodec[string, []byte]{Key: StringCodec{}, Val: BytesCodec{}}
	batches := [][]byte{EncodePairs(codec, benchPairs(300)), nil, EncodePairs(codec, benchPairs(700))}
	n := 0
	for _, b := range batches {
		n += batchCount(b)
	}
	if n != 1000 {
		t.Fatalf("batch counts sum to %d", n)
	}
	out := make([]Pair[string, []byte], 0, n)
	base := &out[:1][0]
	for _, b := range batches {
		var err error
		if out, err = appendPairs(codec, out, b); err != nil {
			t.Fatal(err)
		}
	}
	if len(out) != n || cap(out) != n || &out[0] != base {
		t.Fatalf("decoded %d pairs into cap %d (presized %d), moved=%v", len(out), cap(out), n, &out[0] != base)
	}
	if out[300].K != "key-000000" || out[999].K != "key-000699" {
		t.Fatalf("batches decoded out of order: %q, %q", out[300].K, out[999].K)
	}
}

// TestDecodedValuesAliasBatchAppendSafe pins the by-reference decode and its
// one safety net: a decoded []byte value is a window onto the encoded batch,
// not a copy, and its capacity ends where it does — so a consumer appending
// to a value reallocates instead of writing into the next record.
func TestDecodedValuesAliasBatchAppendSafe(t *testing.T) {
	codec := PairCodec[int64, []byte]{Key: Int64Codec{}, Val: BytesCodec{}}
	in := []Pair[int64, []byte]{{K: 1, V: []byte("first")}, {K: 2, V: []byte("second")}, {K: 3, V: nil}}
	batch := EncodePairs(codec, in)
	pristine := append([]byte(nil), batch...)
	out, err := DecodePairs(codec, batch)
	if err != nil {
		t.Fatal(err)
	}
	v := out[0].V
	if off := bytes.Index(batch, []byte("first")); &v[0] != &batch[off] {
		t.Fatal("decoded value is a copy, not a window onto the batch")
	}
	if cap(v) != len(v) {
		t.Fatalf("decoded value has capacity %d beyond its %d bytes", cap(v), len(v))
	}
	grown := append(v, 0xFF)
	if !bytes.Equal(batch, pristine) {
		t.Fatal("append to a decoded value wrote into the batch")
	}
	if string(grown[:5]) != "first" || out[1].K != 2 || string(out[1].V) != "second" || len(out[2].V) != 0 {
		t.Fatalf("records after the appended-to value changed: %+v", out)
	}
}
