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
	"hash/maphash"
	"math"

	"mpi4spark/internal/bytebuf"
)

// Codec serializes values of type T into shuffle blocks and back.
//
// An encoded batch is immutable once written. Decode may return a value
// that aliases the buffer it read from (BytesCodec does): decoded values
// are read-only and may pin their block, that is, a value kept after the
// task keeps the whole fetched block it points into reachable (the Go
// sub-slice rule). A consumer that needs to modify a value copies it first.
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

var hashSeed = maphash.MakeSeed()

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

// Hash implements KeyOps.
func (StringKey) Hash(k string) uint64 { return maphash.String(hashSeed, k) }

// Less implements KeyOps.
func (StringKey) Less(a, b string) bool { return a < b }

// EncodePairs serializes a record batch: a count followed by the records.
func EncodePairs[K, V any](codec PairCodec[K, V], pairs []Pair[K, V]) []byte {
	return EncodePairsHint(codec, pairs, 0)
}

// EncodePairsHint is EncodePairs with a workspace size hint in bytes,
// typically learned from the previous batch's encoded size. The encode
// workspace comes from the buffer pool; an accurate hint avoids every
// mid-encode growth reallocation, leaving one exact-size allocation for
// the returned batch.
func EncodePairsHint[K, V any](codec PairCodec[K, V], pairs []Pair[K, V], hint int) []byte {
	if hint <= 0 {
		hint = 4 + 16*len(pairs)
	}
	buf := bytebuf.Get(hint)
	buf.WriteUint32(uint32(len(pairs)))
	for _, p := range pairs {
		codec.Encode(buf, p)
	}
	out := buf.Bytes()
	buf.Release()
	return out
}

// DecodePairs parses a record batch produced by EncodePairs. data is
// immutable from here on: the decoded values may alias it (see Codec).
func DecodePairs[K, V any](codec PairCodec[K, V], data []byte) ([]Pair[K, V], error) {
	if len(data) == 0 {
		return nil, nil
	}
	return appendPairs(codec, make([]Pair[K, V], 0, batchCount(data)), data)
}

// batchCount returns the record count an encoded batch announces in its
// first four bytes (0 for an empty or truncated batch).
func batchCount(data []byte) int {
	if len(data) < 4 {
		return 0
	}
	return int(binary.BigEndian.Uint32(data))
}

// appendPairs decodes a record batch produced by EncodePairs onto out, so
// a reader of many batches can size one slice for all of them. The decoded
// values may alias data, as with DecodePairs.
func appendPairs[K, V any](codec PairCodec[K, V], out []Pair[K, V], data []byte) ([]Pair[K, V], error) {
	return appendPairsFrom(codec, out, new(bytebuf.Buf), data)
}

// appendPairsFrom is appendPairs reading through buf, which it re-points at
// data: a reader of many batches brings one reader for all of them.
func appendPairsFrom[K, V any](codec PairCodec[K, V], out []Pair[K, V], buf *bytebuf.Buf, data []byte) ([]Pair[K, V], error) {
	if len(data) == 0 {
		return out, nil
	}
	buf.SetBytes(data)
	n, err := buf.ReadUint32()
	if err != nil {
		return nil, err
	}
	for i := uint32(0); i < n; i++ {
		p, err := codec.Decode(buf)
		if err != nil {
			return nil, fmt.Errorf("spark: corrupt shuffle batch at record %d: %w", i, err)
		}
		out = append(out, p)
	}
	return out, nil
}

func floatBits(f float64) uint64 { return math.Float64bits(f) }

func floatFromBits(u uint64) float64 { return math.Float64frombits(u) }
