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

// encodePairsUnpooled is the unhinted encoder: a fresh zero-capacity
// buffer that reallocates as it grows. Kept as the benchmark baseline.
func encodePairsUnpooled[K, V any](codec PairCodec[K, V], pairs []Pair[K, V]) []byte {
	buf := bytebuf.New(0)
	buf.WriteUint32(uint32(len(pairs)))
	for _, p := range pairs {
		codec.Encode(buf, p)
	}
	return buf.Bytes()
}

// BenchmarkEncodePairs compares the size-hinted encoder against the
// unhinted baseline it replaced. With a learned hint the returned batch is
// the one allocation, instead of a realloc ladder.
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
	b.Run("hinted", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			EncodePairsHint(codec, pairs, hint)
		}
	})
}

// TestEncodePairsPooledFewerAllocs pins the benchmark's claim as a
// regression test: the size-hinted path allocates the returned batch and
// its buffer header, strictly less than the baseline's ladder.
func TestEncodePairsPooledFewerAllocs(t *testing.T) {
	codec := PairCodec[string, []byte]{Key: StringCodec{}, Val: BytesCodec{}}
	pairs := benchPairs(2000)
	want := EncodePairs(codec, pairs)
	hint := len(want)

	unpooled := testing.AllocsPerRun(20, func() {
		encodePairsUnpooled(codec, pairs)
	})
	hinted := testing.AllocsPerRun(20, func() {
		EncodePairsHint(codec, pairs, hint)
	})
	if hinted != 2 || hinted >= unpooled {
		t.Fatalf("hinted allocs/op = %.0f (want 2), unhinted = %.0f", hinted, unpooled)
	}
	if cap(want) != len(want) {
		t.Fatalf("unhinted batch has capacity %d beyond its %d bytes", cap(want), len(want))
	}
	if got := EncodePairsHint(codec, pairs, hint); string(got) != string(want) {
		t.Fatal("hinted encoding differs from baseline")
	}
}

// TestAppendPairsFillsPresizedSlice pins fetchDecode's single allocation: a
// slice sized from the batches' announced counts is filled in place, batch
// after batch, without regrowth.
func TestAppendPairsFillsPresizedSlice(t *testing.T) {
	codec := PairCodec[string, []byte]{Key: StringCodec{}, Val: BytesCodec{}}
	batches := [][]byte{EncodePairs(codec, benchPairs(300)), nil, EncodePairs(codec, benchPairs(700))}
	if r := newPairReader(codec, batches); r.records != 1000 || r.bytes != len(batches[0])+len(batches[2]) {
		t.Fatalf("batches announce %d records in %d bytes", r.records, r.bytes)
	}
	var out []Pair[string, []byte]
	allocs := testing.AllocsPerRun(10, func() {
		var err error
		if out, err = newPairReader(codec, batches).collect(); err != nil {
			t.Fatal(err)
		}
	})
	// The slice, the reader (it escapes through the codec interface), and
	// one 10-byte key string per record.
	if want := float64(2 + 1000); allocs != want {
		t.Fatalf("collect allocated %.0f objects for 1000 records, want %.0f", allocs, want)
	}
	if len(out) != 1000 || cap(out) != 1000 {
		t.Fatalf("decoded %d pairs into cap %d (presized 1000)", len(out), cap(out))
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
