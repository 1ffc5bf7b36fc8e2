// End-to-end tests of the record-level ownership rule on all four backends:
// decoded shuffle values alias the blocks they arrived in, a fetched block is
// an ordinary garbage-collected slice, and so a job's results stay valid
// whatever the block stores and the buffer pools do afterwards — and the
// allocation that decoding by reference saves stays saved.
package harness

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"

	"mpi4spark/internal/bytebuf"
	"mpi4spark/internal/metrics"
	"mpi4spark/internal/ohb"
	"mpi4spark/internal/spark"
)

// ownedValue is the n-byte value of record seq: the sequence number, then a
// byte stream it alone determines, so that a value can be verified from its
// own first bytes wherever it ends up.
func ownedValue(seq uint64, n int) []byte {
	v := make([]byte, n)
	binary.BigEndian.PutUint64(v, seq)
	x := seq*0x9E3779B97F4A7C15 + 1
	for i := 8; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		v[i] = byte(x)
	}
	return v
}

// churnPools cycles scribbled buffers through every class of the default
// pool, so memory a kept value wrongly shares with the pool is overwritten.
func churnPools() {
	for round := 0; round < 4; round++ {
		var held []*bytebuf.Buf
		for _, class := range bytebuf.DefaultClasses {
			for i := 0; i < 8; i++ {
				b := bytebuf.Get(class)
				b.WriteBytes(bytes.Repeat([]byte{0xA5}, class))
				held = append(held, b)
			}
		}
		for _, b := range held {
			b.Release()
		}
	}
}

// TestDecodedValuesOutliveTheirTask runs a GroupByKey whose blocks cross the
// wire as one chunk and as several, keeps the result, removes the shuffle
// from every executor's block store, collects garbage and churns every pool
// class: each kept value must still hold exactly its record's bytes.
func TestDecodedValuesOutliveTheirTask(t *testing.T) {
	const mappers, reducers, keys = 4, 2, 8
	shapes := []struct {
		name                string
		multiChunk          bool
		perMapper, valBytes int
	}{
		{"single-chunk", false, 64, 512},    // ~16 KiB blocks: under every transport's chunk size
		{"multi-chunk", true, 40, 64 << 10}, // ~1.25 MiB blocks: over the 1 MiB rpc chunk, UCR's 128 KiB and the MPI eager threshold
	}
	for _, backend := range backends {
		for _, shape := range shapes {
			backend, shape := backend, shape
			t.Run(backend.String()+"/"+shape.name, func(t *testing.T) {
				cl, err := BuildCluster(ClusterSpec{System: Frontera, Workers: 2, Backend: backend, SlotsPerWorker: 2})
				if err != nil {
					t.Fatal(err)
				}
				defer cl.Close()
				in := spark.Generate(cl.Ctx, mappers, func(part int, tc *spark.TaskContext) []spark.Pair[int64, []byte] {
					out := make([]spark.Pair[int64, []byte], shape.perMapper)
					for i := range out {
						seq := uint64(part*shape.perMapper + i)
						out[i] = spark.Pair[int64, []byte]{K: int64(seq % keys), V: ownedValue(seq, shape.valBytes)}
					}
					return out
				})
				snap := metrics.Snapshot()
				groups, err := spark.Collect(spark.GroupByKey(in, spark.ShuffleConf[int64, []byte]{
					Codec: spark.PairCodec[int64, []byte]{Key: spark.Int64Codec{}, Val: spark.BytesCodec{}},
					Ops:   spark.Int64Key{},
					Parts: reducers,
				}))
				if err != nil {
					t.Fatal(err)
				}
				blocks, chunks := snap.DeltaValue("shuffle.fetch.batched_blocks"), snap.DeltaValue("shuffle.fetch.chunks")
				if blocks == 0 || shape.multiChunk == (chunks == blocks) {
					t.Fatalf("%d remote blocks arrived in %d chunks: not the %s shape", blocks, chunks, shape.name)
				}

				for _, e := range cl.Ctx.Executors() {
					for id := 0; id < 4; id++ {
						e.BlockManager().RemoveShuffle(id)
					}
				}
				runtime.GC()
				runtime.GC() // a second cycle empties what the first moved to the pools' victim caches
				churnPools()

				seen := make(map[uint64]bool)
				for _, g := range groups {
					for _, v := range g.V {
						if len(v) != shape.valBytes {
							t.Fatalf("key %d: value of %d bytes, want %d", g.K, len(v), shape.valBytes)
						}
						seq := binary.BigEndian.Uint64(v)
						if int64(seq%keys) != g.K || seen[seq] {
							t.Fatalf("key %d: value claims record %d (seen before: %v)", g.K, seq, seen[seq])
						}
						seen[seq] = true
						if !bytes.Equal(v, ownedValue(seq, shape.valBytes)) {
							t.Fatalf("key %d: value of record %d changed after its task ended", g.K, seq)
						}
					}
				}
				if len(seen) != mappers*shape.perMapper {
					t.Fatalf("%d records survived, want %d", len(seen), mappers*shape.perMapper)
				}
			})
		}
	}
}

// TestGroupByAllocationBudget holds OHB GroupByTest — 8 MiB of 100-byte
// values as 16x16 single-chunk blocks on 4 workers — to 0.3 mallocs per
// shuffled record and 2.6x the payload in allocated bytes on every backend:
// 0.08-0.10 and 2.26-2.28x measured (3.0x while a map task copied its records
// into buckets and its blocks out of a workspace, and a reduce task decoded
// into a record slice before grouping; 4.0-4.1x and 1.1-1.2 mallocs per
// record while decode copied each value out of its block). SortByTest, whose
// reduce output is the decoded record slice, is held to its measured
// 1.82-1.84x plus 15 %.
func TestGroupByAllocationBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation budgets are measured without the race detector")
	}
	const parts, valueBytes, payload = 16, 100, 8 << 20
	cfg := ohb.Config{
		Mappers: parts, Reducers: parts,
		PairsPerMapper: payload / parts / (valueBytes + 8),
		ValueBytes:     valueBytes,
		Seed:           2022,
	}
	records := float64(cfg.Mappers * cfg.PairsPerMapper)
	for _, leg := range []struct {
		name    string
		run     func(*spark.Context, ohb.Config) (*ohb.Result, error)
		perByte float64
	}{
		{"GroupBy", ohb.RunGroupByTest, 2.6},
		{"SortBy", ohb.RunSortByTest, 2.1},
	} {
		for _, backend := range backends {
			cl, err := BuildCluster(ClusterSpec{System: Frontera, Workers: 4, Backend: backend, SlotsPerWorker: 2})
			if err != nil {
				t.Fatal(err)
			}
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			_, err = leg.run(cl.Ctx, cfg)
			runtime.ReadMemStats(&m1)
			cl.Close()
			if err != nil {
				t.Fatalf("%s on %v: %v", leg.name, backend, err)
			}
			perRecord := float64(m1.Mallocs-m0.Mallocs) / records
			perByte := float64(m1.TotalAlloc-m0.TotalAlloc) / payload
			t.Logf("%s on %v: %.3f mallocs per record, %.2fx the payload allocated", leg.name, backend, perRecord, perByte)
			if perRecord > 0.3 || perByte > leg.perByte {
				t.Errorf("%s on %v: %.3f mallocs per shuffled record (budget 0.3), %.2fx the payload allocated (budget %.1fx)", leg.name, backend, perRecord, perByte, leg.perByte)
			}
		}
	}
}
