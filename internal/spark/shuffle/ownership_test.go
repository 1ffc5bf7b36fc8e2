// Buffer-ownership tests for the by-reference data path, on all four
// transports: what a fetch returns stays valid whatever the server and the
// buffer pools do afterwards, and the allocation the zero-copy path saves
// stays saved.
package shuffle_test

import (
	"bytes"
	"math/rand"
	"runtime"
	"testing"

	"mpi4spark/internal/bytebuf"
	"mpi4spark/internal/spark/rpc"
	"mpi4spark/internal/spark/shuffle"
	"mpi4spark/internal/spark/storage"
	"mpi4spark/internal/vtime"
)

// churnPools cycles scribbled buffers through every class of the default
// pool, so memory a fetched block wrongly shares with the pool is
// overwritten.
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

// TestFetchedBlocksSurviveChurn fetches blocks that cross the wire as one
// chunk (adopted by reference) and as several (reassembled in an exact-size
// buffer that never came from a pool), then replaces the served block ids in
// the server's block manager, collects garbage and churns every pool class:
// there is nothing to release, so for as long as a fetched block is
// referenced its bytes and their CRC32C must be those that were written.
func TestFetchedBlocksSurviveChurn(t *testing.T) {
	const shuffleID, nMaps = 11, 6
	shapes := []struct {
		name      string
		blockSize int
	}{
		{"single-chunk", 48 << 10},
		{"multi-chunk", 300 << 10}, // 64 KiB rpc chunks below; 128 KiB UCR chunks
	}
	forEachTransport(t, func(t *testing.T, transport string) {
		for _, shape := range shapes {
			shape := shape
			t.Run(shape.name, func(t *testing.T) {
				cl := newConfCluster(t, transport, 2)
				reducer, server := cl.peers[0], cl.peers[1]
				reducer.sm.ChunkBytes = 64 << 10
				rng := rand.New(rand.NewSource(int64(shape.blockSize)))
				want := make([][]byte, nMaps)
				statuses := make([]*shuffle.MapStatus, nMaps)
				for m := range statuses {
					block := make([]byte, shape.blockSize+m)
					rng.Read(block)
					want[m] = append([]byte(nil), block...)
					statuses[m] = server.sm.WriteMapOutput(shuffleID, m, [][]byte{block}, server.loc)
				}

				results, _, err := fetchGuarded(t, reducer, shuffleID, 0, statuses, 0)
				if err != nil {
					t.Fatal(err)
				}
				for m := range statuses {
					server.bm.Put(storage.ShuffleBlockID(shuffleID, m, 0), bytes.Repeat([]byte{0x5A}, shape.blockSize+m))
				}
				runtime.GC()
				churnPools()

				for m, r := range results {
					if r.Release != nil {
						t.Fatalf("map %d: fetched block carries a release function", m)
					}
					if !bytes.Equal(r.Data, want[m]) {
						t.Fatalf("map %d: fetched bytes changed after the server overwrote the block and the pools churned", m)
					}
					if got, sum := shuffle.Checksum(r.Data), statuses[m].Sums[0]; got != sum {
						t.Fatalf("map %d: CRC32C %08x, written %08x", m, got, sum)
					}
				}
			})
		}
	})
}

// allocPerCall returns the bytes the process allocates per call of fn,
// measured over 20 calls after 2 warm-ups.
func allocPerCall(fn func()) float64 {
	bytes, _ := memPerCall(2, 20, fn)
	return bytes
}

// memPerCall returns the bytes and the heap objects the process allocates
// per call of fn, measured over calls calls after warm warm-ups.
func memPerCall(warm, calls int, fn func()) (bytes, mallocs float64) {
	for i := 0; i < warm; i++ {
		fn()
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < calls; i++ {
		fn()
	}
	runtime.ReadMemStats(&m1)
	return float64(m1.TotalAlloc-m0.TotalAlloc) / float64(calls), float64(m1.Mallocs-m0.Mallocs) / float64(calls)
}

// TestFetchAllocationBudget holds the shuffle read path, a reducer fetching
// 8 blocks from one peer, to a quarter of the payload in allocation on every
// transport, for blocks that cross as one chunk and as several alike: the
// chunks of a block are consecutive windows of the served block and are
// adopted (bytebuf.Reassembly). (Before bodies crossed the wire by reference
// the single-chunk case was 2.1-2.3x on nio, ucr and mpi-basic; an exact-size
// reassembly buffer per multi-chunk block made that case 1.0-1.1x.)
func TestFetchAllocationBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation budgets are measured without the race detector")
	}
	const shuffleID, nMaps = 12, 8
	shapes := []struct {
		name       string
		blockSize  int
		chunkBytes int // rpc reply chunk; UCR always chunks at 128 KiB
		budget     float64
	}{
		{"single-chunk", 64 << 10, shuffle.DefaultChunkBytes, 0.25},
		{"multi-chunk", 300 << 10, 64 << 10, 0.25},
	}
	forEachTransport(t, func(t *testing.T, transport string) {
		for _, shape := range shapes {
			cl := newConfCluster(t, transport, 2)
			reducer, server := cl.peers[0], cl.peers[1]
			reducer.sm.ChunkBytes = shape.chunkBytes
			statuses := make([]*shuffle.MapStatus, nMaps)
			for m := range statuses {
				statuses[m] = server.sm.WriteMapOutput(shuffleID, m, [][]byte{confBlock(m, 0, shape.blockSize)}, server.loc)
			}
			var at vtime.Stamp
			perCall := allocPerCall(func() {
				results, vt, err := reducer.sm.FetchShuffleParts(shuffleID, 0, statuses, reducer.id, reducer.bts, at)
				if err != nil {
					t.Fatal(err)
				}
				for _, r := range results {
					if len(r.Data) != shape.blockSize {
						t.Fatalf("fetched %d bytes of map %d", len(r.Data), r.MapID)
					}
				}
				at = vt
			})
			if x := perCall / float64(nMaps*shape.blockSize); x > shape.budget {
				t.Fatalf("%s: FetchShuffleParts allocates %.2fx its payload, budget %.2fx", shape.name, x, shape.budget)
			}
		}
	})
}

// TestAskAllocationBudget holds a 4 MiB Env.Ask echo to one payload's worth
// of allocation on the three rpc transports (it was 12x; ROADMAP item 2
// asked for under 3x).
func TestAskAllocationBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation budgets are measured without the race detector")
	}
	const size = 4 << 20
	for _, transport := range []string{"nio", "mpi-basic", "mpi-opt"} {
		transport := transport
		t.Run(transport, func(t *testing.T) {
			cl := newConfCluster(t, transport, 2)
			client, server := cl.peers[0].env, cl.peers[1].env
			if err := server.RegisterEndpoint("echo", func(c *rpc.Call) { c.Reply(c.Payload, c.VT) }); err != nil {
				t.Fatal(err)
			}
			payload := bytes.Repeat([]byte{7}, size)
			var at vtime.Stamp
			perCall := allocPerCall(func() {
				reply, vt, err := client.Ask(server.Addr(), "echo", payload, at)
				if err != nil || len(reply) != size {
					t.Fatalf("echo: %d bytes, %v", len(reply), err)
				}
				at = vt
			})
			if x := perCall / size; x > 1 {
				t.Fatalf("a 4 MiB Ask echo allocates %.2fx its payload, budget 1x", x)
			}
		})
	}
}

// TestMessageAllocationBudget holds the fixed cost of a message, in heap
// objects and not bytes: a reducer fetching 8 blocks of 512 B from one peer,
// per block, and a 64-byte Env.Ask echo, per call, over 300 calls after 20
// warm-ups. Measured 4.5 / 5.6 / 5.5 per block and 9 / 11 / 9 per echo on
// nio / mpi-basic / mpi-opt, and 3.3 on UCR, which crosses no pipeline: per
// message, the bytes that cross the wire (and on MPI its envelope) and the
// decoded message. The budgets leave room for the race detector, under
// which make race-all runs this and sync.Pool drops a share of the contexts
// put back (5.6 / 6.8 / 6.6, UCR 3.3, and 11 / 13 / 11 there).
func TestMessageAllocationBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation budgets are measured without the race detector")
	}
	const shuffleID, nMaps, blockSize, askSize = 13, 8, 512, 64
	budgets := map[string]struct{ perBlock, perAsk float64 }{
		"nio": {7, 13}, "mpi-basic": {8, 15}, "mpi-opt": {8, 13}, "ucr": {perBlock: 4},
	}
	forEachTransport(t, func(t *testing.T, transport string) {
		budget := budgets[transport]
		cl := newConfCluster(t, transport, 2)
		reducer, server := cl.peers[0], cl.peers[1]
		statuses := make([]*shuffle.MapStatus, nMaps)
		for m := range statuses {
			statuses[m] = server.sm.WriteMapOutput(shuffleID, m, [][]byte{confBlock(m, 0, blockSize)}, server.loc)
		}
		var at vtime.Stamp
		_, perFetch := memPerCall(20, 300, func() {
			results, vt, err := reducer.sm.FetchShuffleParts(shuffleID, 0, statuses, reducer.id, reducer.bts, at)
			if err != nil || len(results) != nMaps {
				t.Fatalf("fetch: %d blocks, %v", len(results), err)
			}
			at = vt
		})
		perBlock := perFetch / nMaps
		t.Logf("%s: fetch of %d x %d B: %.1f objects per block", transport, nMaps, blockSize, perBlock)
		if perBlock > budget.perBlock {
			t.Errorf("a fetch of %d blocks of %d B allocates %.1f objects per block, budget %.0f", nMaps, blockSize, perBlock, budget.perBlock)
		}
		if server.env == nil {
			return // UCR carries block fetches only
		}
		if err := server.env.RegisterEndpoint("echo", func(c *rpc.Call) { c.Reply(c.Payload, c.VT) }); err != nil {
			t.Fatal(err)
		}
		payload := bytes.Repeat([]byte{7}, askSize)
		_, perAsk := memPerCall(20, 300, func() {
			reply, vt, err := reducer.env.Ask(server.env.Addr(), "echo", payload, at)
			if err != nil || len(reply) != askSize {
				t.Fatalf("echo: %d bytes, %v", len(reply), err)
			}
			at = vt
		})
		t.Logf("%s: %d-byte Ask echo: %.1f objects", transport, askSize, perAsk)
		if perAsk > budget.perAsk {
			t.Errorf("a %d-byte Ask echo allocates %.1f objects, budget %.0f", askSize, perAsk, budget.perAsk)
		}
	})
}
