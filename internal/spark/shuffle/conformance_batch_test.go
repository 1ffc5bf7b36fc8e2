// Batched-fetch conformance cases: the grouped ChunkFetchRequest path
// (one request per peer, chunked reply) exercised across the same four
// transports as the base suite — request-count accounting, batches
// spanning local and remote blocks, chunk-boundary block sizes, and a
// node failing mid-batch.
package shuffle_test

import (
	"bytes"
	"sync"
	"testing"

	"mpi4spark/internal/fabric"
	"mpi4spark/internal/metrics"
	"mpi4spark/internal/spark/shuffle"
	"mpi4spark/internal/vtime"
)

// TestConformanceBatchedSingleRequest fetches several blocks that all
// live on one remote peer and asserts they ride a single batched request
// rather than one round-trip per block.
func TestConformanceBatchedSingleRequest(t *testing.T) {
	forEachTransport(t, func(t *testing.T, transport string) {
		cl := newConfCluster(t, transport, 2)
		const shuffleID, nMaps = 11, 5
		statuses := make([]*shuffle.MapStatus, nMaps)
		server := cl.peers[1]
		for m := 0; m < nMaps; m++ {
			statuses[m] = server.sm.WriteMapOutput(shuffleID, m, [][]byte{confBlock(m, 0, 3000)}, server.loc)
		}

		snap := metrics.Snapshot()
		results, _, err := fetchGuarded(t, cl.peers[0], shuffleID, 0, statuses, 0)
		if err != nil {
			t.Fatal(err)
		}
		for m := range results {
			if !bytes.Equal(results[m].Data, confBlock(m, 0, 3000)) {
				t.Fatalf("map %d corrupted", m)
			}
		}
		if d := snap.DeltaValue("shuffle.fetch.requests"); d != 1 {
			t.Fatalf("%d blocks from one peer took %d requests, want 1", nMaps, d)
		}
		if d := snap.DeltaValue("shuffle.fetch.batched_blocks"); d != nMaps {
			t.Fatalf("batched_blocks delta = %d, want %d", d, nMaps)
		}
	})
}

// TestConformanceBatchLocalRemote mixes blocks served from the reducer's
// own block manager with a remote batch: local blocks must be read
// without any request, remote ones grouped into one.
func TestConformanceBatchLocalRemote(t *testing.T) {
	forEachTransport(t, func(t *testing.T, transport string) {
		cl := newConfCluster(t, transport, 2)
		const shuffleID = 12
		local, remote := cl.peers[0], cl.peers[1]
		statuses := []*shuffle.MapStatus{
			local.sm.WriteMapOutput(shuffleID, 0, [][]byte{confBlock(0, 0, 2048)}, local.loc),
			remote.sm.WriteMapOutput(shuffleID, 1, [][]byte{confBlock(1, 0, 4096)}, remote.loc),
			local.sm.WriteMapOutput(shuffleID, 2, [][]byte{confBlock(2, 0, 1024)}, local.loc),
			remote.sm.WriteMapOutput(shuffleID, 3, [][]byte{confBlock(3, 0, 512)}, remote.loc),
		}

		snap := metrics.Snapshot()
		results, _, err := fetchGuarded(t, local, shuffleID, 0, statuses, 0)
		if err != nil {
			t.Fatal(err)
		}
		sizes := []int{2048, 4096, 1024, 512}
		for m := range results {
			if !bytes.Equal(results[m].Data, confBlock(m, 0, sizes[m])) {
				t.Fatalf("map %d corrupted", m)
			}
		}
		if d := snap.DeltaValue("shuffle.fetch.requests"); d != 1 {
			t.Fatalf("mixed batch took %d requests, want 1 (locals are free)", d)
		}
		if d := snap.DeltaValue("shuffle.fetch.bytes_local"); d != 2048+1024 {
			t.Fatalf("bytes_local delta = %d, want %d", d, 2048+1024)
		}
		if d := snap.DeltaValue("shuffle.fetch.bytes_remote"); d != 4096+512 {
			t.Fatalf("bytes_remote delta = %d, want %d", d, 4096+512)
		}
	})
}

// TestConformanceChunkBoundaries streams blocks sized exactly at the
// chunking edges — empty, one byte, one full chunk, one chunk plus a
// byte — through a manager configured with a tiny chunk size.
func TestConformanceChunkBoundaries(t *testing.T) {
	forEachTransport(t, func(t *testing.T, transport string) {
		cl := newConfCluster(t, transport, 2)
		const shuffleID, chunk = 13, 4096
		cl.peers[0].sm.ChunkBytes = chunk
		server := cl.peers[1]
		sizes := []int{0, 1, chunk, chunk + 1}
		statuses := make([]*shuffle.MapStatus, len(sizes))
		for m, n := range sizes {
			var part []byte
			if n > 0 {
				part = confBlock(m, 0, n)
			}
			statuses[m] = server.sm.WriteMapOutput(shuffleID, m, [][]byte{part}, server.loc)
		}

		snap := metrics.Snapshot()
		results, vt, err := fetchGuarded(t, cl.peers[0], shuffleID, 0, statuses, 0)
		if err != nil {
			t.Fatal(err)
		}
		for m, n := range sizes {
			want := []byte(nil)
			if n > 0 {
				want = confBlock(m, 0, n)
			}
			if !bytes.Equal(results[m].Data, want) {
				t.Fatalf("size %d: got %d bytes, want %d", n, len(results[m].Data), n)
			}
		}
		if vt <= 0 {
			t.Fatal("chunked fetch was free")
		}
		// Chunk accounting on the transports that honor the manager's
		// chunk size (UCR chunks by its own config): 1 + 1 + 2 chunks for
		// the non-empty blocks; the empty block is skipped, not fetched.
		if transport != "ucr" {
			if d := snap.DeltaValue("shuffle.fetch.chunks"); d != 4 {
				t.Fatalf("chunks delta = %d, want 4", d)
			}
		}
	})
}

// TestConformanceBatchMidFailure kills the serving node while a
// multi-block batch is streaming and requires a FetchFailedError naming
// that server — the batch must not hang, succeed silently, or blame the
// wrong executor.
func TestConformanceBatchMidFailure(t *testing.T) {
	forEachTransport(t, func(t *testing.T, transport string) {
		cl := newConfCluster(t, transport, 2)
		const shuffleID, nMaps = 14, 4
		victim := cl.peers[1]
		statuses := make([]*shuffle.MapStatus, nMaps)
		for m := 0; m < nMaps; m++ {
			statuses[m] = victim.sm.WriteMapOutput(shuffleID, m, [][]byte{confBlock(m, 0, 256<<10)}, victim.loc)
		}

		// Same per-transport trigger as the single-block failure test: on
		// sockets and UCR the first bulk transfer out of the victim is
		// chunk data; on MPI the victim's first protocol send is.
		trigger := func(from *fabric.Node, proto fabric.Protocol, n int) bool {
			if from != victim.nd {
				return false
			}
			switch transport {
			case "mpi-basic", "mpi-opt":
				return proto == fabric.MPIEager || proto == fabric.MPIRendezvous
			default:
				return n >= 64<<10
			}
		}
		var once sync.Once
		cl.fab.SetTransferHook(func(from, to *fabric.Node, proto fabric.Protocol, n int, at vtime.Stamp) {
			if trigger(from, proto, n) {
				once.Do(func() { cl.fab.FailNode(victim.nd.Name()) })
			}
		})
		defer cl.fab.SetTransferHook(nil)

		_, _, err := fetchGuarded(t, cl.peers[0], shuffleID, 0, statuses, 0)
		if err == nil {
			t.Fatal("batched fetch from mid-stream-failed node succeeded")
		}
		ff, ok := shuffle.AsFetchFailed(err)
		if !ok {
			t.Fatalf("got %v, want FetchFailedError", err)
		}
		if ff.Loc.ExecID != victim.id {
			t.Fatalf("failure blamed %q, want %q", ff.Loc.ExecID, victim.id)
		}
		if ff.ShuffleID != shuffleID || ff.ReduceID != 0 {
			t.Fatalf("failure ids = shuffle %d reduce %d", ff.ShuffleID, ff.ReduceID)
		}
	})
}
