// Fault-injection conformance: the same targeted fault matrix — push
// corruption rejected at ingest, duplicate delivery idempotent on push and
// fetch, partition-then-heal with bit-identical bytes — executed against
// all four transport configurations, with the injection counters of the
// fault plane reconciled exactly against the integrity pipeline's
// detections. (The end-to-end mixed-fault runs live in
// internal/harness's netchaos experiment and test.)
package shuffleservice_test

import (
	"bytes"
	"testing"
	"time"

	"mpi4spark/internal/faults"
	"mpi4spark/internal/metrics"
	"mpi4spark/internal/spark"
	"mpi4spark/internal/spark/shuffle"
	"mpi4spark/internal/spark/shuffleservice"
	"mpi4spark/internal/spark/storage"
	"mpi4spark/internal/vtime"
)

// faultyCluster builds a 2-node svcCluster with the given plan installed
// on its fabric before any traffic flows.
func faultyCluster(t testing.TB, transport string, plan faults.Plan) *svcCluster {
	t.Helper()
	cl := newSvcCluster(t, transport, 2)
	cl.fab.SetFaultPlane(faults.NewPlane(plan))
	return cl
}

func planeCounters(t testing.TB, cl *svcCluster) faults.Counters {
	t.Helper()
	p, ok := cl.fab.FaultPlane().(*faults.Plane)
	if !ok {
		t.Fatal("fault plane not installed")
	}
	return p.Counters()
}

// TestFaultConformancePushCorruptionRejected pushes a block across a link
// that corrupts every payload: the service must reject it at ingest (the
// corrupt bytes never enter a merged run), and the plane's injection count
// must reconcile exactly with the detection counter.
func TestFaultConformancePushCorruptionRejected(t *testing.T) {
	forEachTransport(t, func(t *testing.T, transport string) {
		cl := faultyCluster(t, transport, faults.Plan{
			Seed:  7,
			Rules: []faults.LinkRule{{CorruptRate: 1}},
		})
		src, dst := cl.peers[0], cl.peers[1]
		block := svcBlock(0, 0, 512)

		snap := metrics.Snapshot()
		_, _, err := src.env.PushBlock(dst.svc.Addr(), 1, 0, 0, block, shuffle.Checksum(block), 0)
		if err == nil {
			t.Fatal("corrupted push was accepted")
		}
		injected := planeCounters(t, cl).Corrupts
		detected := snap.DeltaValue(shuffle.CounterCorruptDetected)
		if injected == 0 {
			t.Fatal("corruption seam dead: nothing injected on a rate-1 link")
		}
		if detected != injected {
			t.Fatalf("injected %d corruptions but detected %d", injected, detected)
		}
		// The poisoned block never reached the merge.
		if got := snap.DeltaValue(shuffleservice.CounterPushedBytes); got != 0 {
			t.Fatalf("corrupt block entered the service (%d bytes accepted)", got)
		}
	})
}

// TestFaultConformanceDupPushIdempotent pushes across a link that
// duplicates every frame: the service must merge the block exactly once
// (the replay acks AckDuplicate) and a fetch must return the original
// bytes exactly.
func TestFaultConformanceDupPushIdempotent(t *testing.T) {
	forEachTransport(t, func(t *testing.T, transport string) {
		cl := faultyCluster(t, transport, faults.Plan{
			Seed:  7,
			Rules: []faults.LinkRule{{DupRate: 1}},
		})
		src, dst := cl.peers[0], cl.peers[1]
		parts := [][]byte{svcBlock(0, 0, 2048)}

		snap := metrics.Snapshot()
		st := pushMapOutputTo(t, src, dst, 1, 0, parts)
		if dups := planeCounters(t, cl).Dups; dups == 0 {
			t.Fatal("dup seam dead: nothing duplicated on a rate-1 link")
		}
		if got, want := snap.DeltaValue(shuffleservice.CounterPushedBytes), int64(len(parts[0])); got != want {
			t.Fatalf("duplicated push accepted %d bytes, want %d (exactly one merge)", got, want)
		}

		results, _, err := fetchGuarded(t, dst, 1, 0, []*shuffle.MapStatus{st}, 0)
		if err != nil {
			t.Fatalf("fetch after dup push: %v", err)
		}
		if len(results) != 1 || !bytes.Equal(results[0].Data, parts[0]) {
			t.Fatal("dup-push fetch returned wrong bytes")
		}
	})
}

// TestFaultConformanceDupFetchIdempotent serves a multi-chunk fetch across
// a link that duplicates every frame: replayed chunks must be dropped by
// the receiver's offset guard and the reassembled block must be
// bit-identical.
func TestFaultConformanceDupFetchIdempotent(t *testing.T) {
	forEachTransport(t, func(t *testing.T, transport string) {
		cl := faultyCluster(t, transport, faults.Plan{
			Seed:  7,
			Rules: []faults.LinkRule{{DupRate: 1}},
		})
		src, dst := cl.peers[0], cl.peers[1]
		// Several chunks' worth of data so mid-stream duplicates fire on
		// every transport (UCR only duplicates non-final chunks).
		parts := [][]byte{svcBlock(0, 0, 300<<10)}
		st := pushMapOutputTo(t, src, dst, 2, 0, parts)

		results, _, err := fetchGuarded(t, src, 2, 0, []*shuffle.MapStatus{st}, 0)
		if err != nil {
			t.Fatalf("fetch across dup link: %v", err)
		}
		if len(results) != 1 || !bytes.Equal(results[0].Data, parts[0]) {
			t.Fatal("dup-delivery fetch returned wrong bytes")
		}
	})
}

// TestFaultConformancePartitionHeal starts a fetch while the two nodes are
// partitioned: the attempt fails (or is transparently delayed, on the
// MPI/RDMA runtimes), the retry schedule outlives the window, and the
// fetch completes after the heal with bit-identical bytes.
func TestFaultConformancePartitionHeal(t *testing.T) {
	forEachTransport(t, func(t *testing.T, transport string) {
		window := faults.Window{Start: 0, End: vtime.Stamp(150 * time.Microsecond)}
		cl := faultyCluster(t, transport, faults.Plan{
			Seed:       7,
			Partitions: []faults.Partition{{A: []string{"node0"}, B: []string{"node1"}, Window: window}},
		})
		src, dst := cl.peers[0], cl.peers[1]
		parts := [][]byte{svcBlock(0, 0, 4096)}
		// Push before the window opens is impossible (it starts at 0), so
		// push through the service-local peer instead: dst pushes to its
		// own node-local service, which the partition never cuts.
		st := pushMapOutputTo(t, dst, dst, 3, 0, parts)

		results, endVT, err := fetchGuarded(t, src, 3, 0, []*shuffle.MapStatus{st}, 0)
		if err != nil {
			t.Fatalf("fetch across partition-then-heal: %v", err)
		}
		if len(results) != 1 || !bytes.Equal(results[0].Data, parts[0]) {
			t.Fatal("partition-heal fetch returned wrong bytes")
		}
		if endVT < window.End {
			t.Fatalf("fetch completed at %v, inside the partition window (ends %v)", endVT, window.End)
		}
	})
}

// TestFaultConformanceCorruptFetchLeavesStoreIntact fetches across a link
// that corrupts every served body and duplicates every frame. Bodies cross
// the wire by reference, so the damage must land on a copy: the fetch
// fails its integrity checks, the block the service stores is untouched,
// and once the link heals a refetch returns the stored bytes exactly —
// for a block served as one chunk (adopted by the reducer as it arrives)
// and for a multi-chunk one (replayed chunks dropped during reassembly).
// The block is a record batch: the values decoded, by reference, from the
// refetched block must be bit-identical to those of a clean decode.
func TestFaultConformanceCorruptFetchLeavesStoreIntact(t *testing.T) {
	codec := spark.PairCodec[int64, []byte]{Key: spark.Int64Codec{}, Val: spark.BytesCodec{}}
	forEachTransport(t, func(t *testing.T, transport string) {
		for _, size := range []int{2048, 300 << 10} {
			cl := newSvcCluster(t, transport, 2)
			src, dst := cl.peers[0], cl.peers[1]
			src.sm.ChunkBytes = 64 << 10 // the large block is multi-chunk on every transport
			const shuffleID, mapID = 4, 0
			pairs := make([]spark.Pair[int64, []byte], 16)
			for i := range pairs {
				pairs[i] = spark.Pair[int64, []byte]{K: int64(i), V: svcBlock(mapID, i, size/len(pairs))}
			}
			parts := [][]byte{spark.EncodePairs(codec, pairs)}
			// Pushed over a clean link; the faults start with the fetch.
			statuses := []*shuffle.MapStatus{pushMapOutputTo(t, src, dst, shuffleID, mapID, parts)}

			cl.fab.SetFaultPlane(faults.NewPlane(faults.Plan{
				Seed:  7,
				Rules: []faults.LinkRule{{CorruptRate: 1, DupRate: 1}},
			}))
			snap := metrics.Snapshot()
			if _, _, err := fetchGuarded(t, src, shuffleID, 0, statuses, 0); err == nil {
				t.Fatalf("%d-byte block: fetch across an always-corrupting link succeeded", size)
			}
			if injected, detected := planeCounters(t, cl).Corrupts, snap.DeltaValue(shuffle.CounterCorruptDetected); injected == 0 || detected != injected {
				t.Fatalf("%d-byte block: injected %d corruptions, detected %d", size, injected, detected)
			}
			stored, ok := dst.svc.BlockManager().Get(storage.ShuffleBlockID(shuffleID, mapID, 0))
			if !ok || !bytes.Equal(stored, parts[0]) {
				t.Fatalf("%d-byte block: in-flight corruption reached the service's stored block", size)
			}

			cl.fab.SetFaultPlane(nil)
			results, _, err := fetchGuarded(t, src, shuffleID, 0, statuses, 0)
			if err != nil {
				t.Fatalf("%d-byte block: refetch over the healed link: %v", size, err)
			}
			if !bytes.Equal(results[mapID].Data, stored) {
				t.Fatalf("%d-byte block: refetch differs from the stored bytes", size)
			}
			got, err := spark.DecodePairs(codec, results[mapID].Data)
			if err != nil || len(got) != len(pairs) {
				t.Fatalf("%d-byte block: refetch decodes to %d records, %v", size, len(got), err)
			}
			for i, p := range got {
				if p.K != pairs[i].K || !bytes.Equal(p.V, pairs[i].V) {
					t.Fatalf("%d-byte block: record %d decoded from the refetch differs from the one written", size, i)
				}
			}
		}
	})
}

// pushMapOutputTo mirrors pushMapOutput but pushes src's partitions to
// dst's service (cross-node when src != dst), so link faults apply.
func pushMapOutputTo(t testing.TB, src, dst *svcPeer, shuffleID, mapID int, parts [][]byte) *shuffle.MapStatus {
	t.Helper()
	sizes := make([]int64, len(parts))
	sums := make([]uint32, len(parts))
	for r, part := range parts {
		sizes[r] = int64(len(part))
		sums[r] = shuffle.Checksum(part)
		if len(part) == 0 {
			continue
		}
		ack, _, err := src.env.PushBlock(dst.svc.Addr(), shuffleID, mapID, r, part, sums[r], 0)
		if err != nil {
			t.Fatalf("push %d/%d/%d: %v", shuffleID, mapID, r, err)
		}
		if s := string(ack); s != shuffleservice.AckPushed && s != shuffleservice.AckDuplicate {
			t.Fatalf("push %d/%d/%d: ack %q", shuffleID, mapID, r, s)
		}
	}
	return &shuffle.MapStatus{Loc: dst.svc.Location(), Sizes: sizes, Sums: sums}
}

// TestFaultConformanceStaleRunFallsBack: a service holds a push for a map
// whose status now points at another service (the map task pushed, failed,
// and ran again on another node). That service's merged run is then longer
// than the blocks the reducer expects of it: the read misses on length,
// counts no corruption, and the per-block path serves the group byte-exact.
// A bit flipped in a run that does split still counts exactly once: every
// injected corruption is detected, and none twice.
func TestFaultConformanceStaleRunFallsBack(t *testing.T) {
	forEachTransport(t, func(t *testing.T, transport string) {
		const shuffleID, size = 14, 2048
		cl := newSvcCluster(t, transport, 2)
		reducer, remote := cl.peers[0], cl.peers[1]
		parts := func(m int) [][]byte { return [][]byte{svcBlock(m, 0, size), svcBlock(m, 1, size+m)} }
		statuses := []*shuffle.MapStatus{
			pushMapOutput(t, remote, shuffleID, 0, parts(0)),
			nil, // map 1, below
			pushMapOutput(t, remote, shuffleID, 2, parts(2)),
		}
		// Map 1's first attempt pushed partition 0 to the remote service and
		// failed; its retry pushed everything to the reducer's node.
		pushMapOutput(t, remote, shuffleID, 1, [][]byte{svcBlock(1, 0, size)})
		statuses[1] = pushMapOutput(t, reducer, shuffleID, 1, parts(1))

		snap := metrics.Snapshot()
		results, _, err := fetchGuarded(t, reducer, shuffleID, 0, statuses, 0)
		if err != nil {
			t.Fatal(err)
		}
		for m := range statuses {
			if !bytes.Equal(results[m].Data, svcBlock(m, 0, size)) {
				t.Fatalf("stale run: map %d differs from its block", m)
			}
		}
		if d := snap.DeltaValue(shuffle.CounterCorruptDetected); d != 0 {
			t.Fatalf("stale run counted %d corruptions, want 0", d)
		}
		if d := snap.DeltaValue("shuffle.fetch.merged_runs"); d != 1 {
			t.Fatalf("merged_runs delta = %d, want 1 (the stale run misses, the other lands)", d)
		}

		// Partition 1 holds no stale block: the remote run of maps 0 and 2
		// splits, and a flip in it is one detection before the fallback.
		cl.fab.SetFaultPlane(faults.NewPlane(faults.Plan{Seed: 7, Rules: []faults.LinkRule{{CorruptRate: 1}}}))
		snap = metrics.Snapshot()
		if _, _, err := fetchGuarded(t, reducer, shuffleID, 1, statuses, 0); err == nil {
			t.Fatal("fetch across an always-corrupting link succeeded")
		}
		if injected, detected := planeCounters(t, cl).Corrupts, snap.DeltaValue(shuffle.CounterCorruptDetected); injected == 0 || detected != injected {
			t.Fatalf("injected %d corruptions, detected %d", injected, detected)
		}
	})
}
