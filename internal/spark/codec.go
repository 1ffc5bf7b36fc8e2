// Package spark is a miniature Apache Spark: lazy RDDs with narrow and
// wide (shuffle) dependencies, a DAG scheduler that splits jobs into
// ShuffleMapStages and ResultStages at shuffle boundaries, executors with
// task slots, in-memory caching with locality-aware scheduling, and a
// pluggable communication backend (Vanilla/Netty, RDMA-Spark/UCR, and the
// MPI4Spark designs from internal/core).
//
// Everything runs on the simulated cluster of internal/fabric; performance
// is accounted in virtual time so experiments are deterministic.
package spark

import (
	"encoding/binary"
	"fmt"
	"math"

	"mpi4spark/internal/bytebuf"
)

// Codec serializes values of type T into shuffle blocks and back.
//
// An encoded batch is immutable once written. Decode may return a value
// that aliases the buffer it read from (BytesCodec does): decoded values
// are read-only and may pin their block, that is, a value kept after the
// task keeps the whole fetched block it points into reachable (the Go
// sub-slice rule), and a block read locally is a segment of its map task's
// one buffer, so it keeps that whole buffer reachable; every block of a map
// output already lives until the cluster closes (no running program removes
// a shuffle's blocks), so nothing is pinned for longer.
// A consumer that needs to modify a value copies it first.
type Codec[T any] interface {
	Encode(buf *bytebuf.Buf, v T)
	Decode(buf *bytebuf.Buf) (T, error)
}

// Int64Codec encodes int64 values big-endian.
type Int64Codec struct{}

// Encode implements Codec.
func (Int64Codec) Encode(buf *bytebuf.Buf, v int64) { buf.WriteInt64(v) }

// Decode implements Codec.
func (Int64Codec) Decode(buf *bytebuf.Buf) (int64, error) { return buf.ReadInt64() }

// Float64Codec encodes float64 values as IEEE-754 bits.
type Float64Codec struct{}

// Encode implements Codec.
func (Float64Codec) Encode(buf *bytebuf.Buf, v float64) {
	buf.WriteUint64(floatBits(v))
}

// Decode implements Codec.
func (Float64Codec) Decode(buf *bytebuf.Buf) (float64, error) {
	u, err := buf.ReadUint64()
	return floatFromBits(u), err
}

// StringCodec encodes strings length-prefixed.
type StringCodec struct{}

// Encode implements Codec.
func (StringCodec) Encode(buf *bytebuf.Buf, v string) { buf.WriteString(v) }

// Decode implements Codec.
func (StringCodec) Decode(buf *bytebuf.Buf) (string, error) { return buf.ReadString() }

// BytesCodec encodes byte slices length-prefixed. Decode is by reference:
// decoded values are read-only and may pin their block (see Codec).
type BytesCodec struct{}

// Encode implements Codec.
func (BytesCodec) Encode(buf *bytebuf.Buf, v []byte) {
	buf.WriteUint32(uint32(len(v)))
	buf.WriteBytes(v)
}

// Decode implements Codec. The value is a sub-slice of buf's bytes whose
// capacity ends at the value, so an append to it reallocates instead of
// writing into the next record.
func (BytesCodec) Decode(buf *bytebuf.Buf) ([]byte, error) {
	n, err := buf.ReadUint32()
	if err != nil {
		return nil, err
	}
	return buf.ReadSlice(int(n))
}

// Float64SliceCodec encodes []float64 (feature vectors in the ML
// workloads).
type Float64SliceCodec struct{}

// Encode implements Codec.
func (Float64SliceCodec) Encode(buf *bytebuf.Buf, v []float64) {
	buf.WriteUint32(uint32(len(v)))
	for _, x := range v {
		buf.WriteUint64(floatBits(x))
	}
}

// Decode implements Codec.
func (Float64SliceCodec) Decode(buf *bytebuf.Buf) ([]float64, error) {
	n, err := buf.ReadUint32()
	if err != nil {
		return nil, err
	}
	out := make([]float64, n)
	for i := range out {
		u, err := buf.ReadUint64()
		if err != nil {
			return nil, err
		}
		out[i] = floatFromBits(u)
	}
	return out, nil
}

// Pair is a key-value record, the currency of wide transformations.
type Pair[K, V any] struct {
	K K
	V V
}

// PairCodec combines key and value codecs.
type PairCodec[K, V any] struct {
	Key Codec[K]
	Val Codec[V]
}

// Encode implements Codec.
func (c PairCodec[K, V]) Encode(buf *bytebuf.Buf, p Pair[K, V]) {
	c.Key.Encode(buf, p.K)
	c.Val.Encode(buf, p.V)
}

// Decode implements Codec.
func (c PairCodec[K, V]) Decode(buf *bytebuf.Buf) (Pair[K, V], error) {
	k, err := c.Key.Decode(buf)
	if err != nil {
		return Pair[K, V]{}, err
	}
	v, err := c.Val.Decode(buf)
	if err != nil {
		return Pair[K, V]{}, err
	}
	return Pair[K, V]{K: k, V: v}, nil
}

// KeyOps supplies the key operations wide transformations need: hashing
// for hash partitioning and ordering for sorts and range partitioning.
type KeyOps[K any] interface {
	Hash(K) uint64
	Less(a, b K) bool
}

// Int64Key is KeyOps for int64.
type Int64Key struct{}

// Hash implements KeyOps.
func (Int64Key) Hash(k int64) uint64 {
	// Fibonacci hashing spreads sequential keys.
	return uint64(k) * 0x9E3779B97F4A7C15
}

// Less implements KeyOps.
func (Int64Key) Less(a, b int64) bool { return a < b }

// StringKey is KeyOps for string.
type StringKey struct{}

// Hash implements KeyOps: FNV-1a over the bytes, finished with splitmix64's
// mixer so that the low bits a partitioner reduces by depend on every byte.
// The function is fixed, so a key lands in the same partition, and a job
// prints its output in the same order, in every process.
func (StringKey) Hash(k string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(k); i++ {
		h ^= uint64(k[i])
		h *= 1099511628211
	}
	h = (h ^ h>>30) * 0xBF58476D1CE4E5B9
	h = (h ^ h>>27) * 0x94D049BB133111EB
	return h ^ h>>31
}

// Less implements KeyOps.
func (StringKey) Less(a, b string) bool { return a < b }

// EncodePairs serializes a record batch: a count followed by the records.
func EncodePairs[K, V any](codec PairCodec[K, V], pairs []Pair[K, V]) []byte {
	return EncodePairsHint(codec, pairs, 0)
}

// EncodePairsHint is EncodePairs with the batch's encoded size in bytes as a
// hint, typically learned from a previous batch: an accurate hint makes the
// returned batch the encoder's one allocation.
func EncodePairsHint[K, V any](codec PairCodec[K, V], pairs []Pair[K, V], hint int) []byte {
	if hint <= 0 {
		hint = 4 + 16*len(pairs)
	}
	buf := bytebuf.New(hint)
	encodeBatch(codec, buf, pairs, nil, 0, len(pairs))
	return trimmed(buf)
}

// encodeBatch appends one record batch to buf: the count, then the records
// pairs[order[lo]] … pairs[order[hi-1]], or pairs[lo:hi] when order is nil.
func encodeBatch[K, V any](codec PairCodec[K, V], buf *bytebuf.Buf, pairs []Pair[K, V], order []int32, lo, hi int) {
	buf.WriteUint32(uint32(hi - lo))
	for at := lo; at < hi; at++ {
		j := at
		if order != nil {
			j = int(order[at])
		}
		codec.Encode(buf, pairs[j])
	}
}

// trimmed returns what was written to buf with cap == len: uncopied, unless
// a size guess overshot by more than an eighth and would pin the slack.
func trimmed(buf *bytebuf.Buf) []byte {
	b := buf.Readable()
	if buf.WritableBytes() > len(b)/8 {
		return buf.Bytes()
	}
	return b[:len(b):len(b)]
}

// DecodePairs parses a record batch produced by EncodePairs. data is
// immutable from here on: the decoded values may alias it (see Codec).
func DecodePairs[K, V any](codec PairCodec[K, V], data []byte) ([]Pair[K, V], error) {
	if len(data) == 0 {
		return nil, nil
	}
	return newPairReader(codec, [][]byte{data}).collect()
}

// pairReader is a cursor over the records of encoded batches (a reduce
// task's fetched blocks) in batch order, used as a bufio.Scanner is: for
// r.next(&p) { use p }, then check r.err. Empty batches are skipped (a split
// sub-task's blocks outside its map range). The records' values may alias the
// batches (see Codec). A copy of an unread reader is a second pass.
type pairReader[K, V any] struct {
	codec       PairCodec[K, V]
	blocks      [][]byte    // batches not yet opened
	buf         bytebuf.Buf // the open batch: one reader for all of them
	count, left uint32      // records the open batch announced; of those, unread
	err         error
	// The batches' total size, and the records their headers announce, for
	// sizing a slice: clamped to bytes, which no honest count exceeds.
	records, bytes int
}

func newPairReader[K, V any](codec PairCodec[K, V], blocks [][]byte) *pairReader[K, V] {
	r := &pairReader[K, V]{codec: codec, blocks: blocks}
	for _, b := range blocks {
		if len(b) >= 4 {
			r.records += int(binary.BigEndian.Uint32(b))
		}
		r.bytes += len(b)
	}
	r.records = min(r.records, r.bytes)
	return r
}

// next reads the next record into *p (the caller's, so that a record is not
// a heap store); false after the last one and on an error, which stays in
// r.err.
func (r *pairReader[K, V]) next(p *Pair[K, V]) bool {
	for r.left == 0 && r.err == nil {
		if len(r.blocks) == 0 {
			return false
		}
		if b := r.blocks[0]; len(b) > 0 {
			r.buf.SetBytes(b)
			r.count, r.err = r.buf.ReadUint32()
			r.left = r.count
		}
		r.blocks = r.blocks[1:]
	}
	if r.err == nil {
		if *p, r.err = r.codec.Decode(&r.buf); r.err != nil {
			r.err = fmt.Errorf("spark: corrupt shuffle batch at record %d: %w", r.count-r.left, r.err)
		}
		r.left--
	}
	return r.err == nil
}

// collect returns the remaining records in one slice sized from the headers.
func (r *pairReader[K, V]) collect() ([]Pair[K, V], error) {
	out := make([]Pair[K, V], 0, r.records)
	for p := (Pair[K, V]{}); r.next(&p); {
		out = append(out, p)
	}
	if r.err != nil {
		return nil, r.err
	}
	return out, nil
}

func floatBits(f float64) uint64 { return math.Float64bits(f) }

func floatFromBits(u uint64) float64 { return math.Float64frombits(u) }
