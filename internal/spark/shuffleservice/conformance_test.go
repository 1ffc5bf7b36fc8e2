// Cross-transport conformance suite for the external shuffle service's
// push/merge/fetch round trip: the same behavioral matrix — chunk-boundary
// block sizes, non-merged fallback fetches, duplicate-push idempotence,
// exact counter accounting — executed against all four transport
// configurations (NIO sockets, MPI4Spark-Basic, MPI4Spark-Optimized,
// UCR/verbs). The suite lives in an external test package so it can wire
// up internal/core's MPI transports without an import cycle (core imports
// spark, which imports shuffleservice).
package shuffleservice_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"mpi4spark/internal/core"
	"mpi4spark/internal/fabric"
	"mpi4spark/internal/metrics"
	"mpi4spark/internal/mpi"
	"mpi4spark/internal/rdma"
	"mpi4spark/internal/spark/rpc"
	"mpi4spark/internal/spark/shuffle"
	"mpi4spark/internal/spark/shuffleservice"
	"mpi4spark/internal/spark/storage"
	"mpi4spark/internal/ucr"
	"mpi4spark/internal/vtime"
)

var conformanceTransports = []string{"nio", "mpi-basic", "mpi-opt", "ucr"}

func forEachTransport(t *testing.T, fn func(t *testing.T, transport string)) {
	for _, tr := range conformanceTransports {
		tr := tr
		t.Run(tr, func(t *testing.T) { fn(t, tr) })
	}
}

// svcPeer is one executor-shaped pusher/reducer plus its node-local
// external shuffle service on a separate endpoint.
type svcPeer struct {
	id  string
	nd  *fabric.Node
	env *rpc.Env
	bm  *storage.BlockManager
	sm  *shuffle.Manager
	bts shuffle.BlockTransferService
	svc *shuffleservice.Service
}

type svcCluster struct {
	fab   *fabric.Fabric
	peers []*svcPeer
}

type svcRegistry struct {
	mu      sync.Mutex
	servers map[string]*ucr.Server
}

func (r *svcRegistry) UCRServer(id string) (*ucr.Server, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.servers[id]
	return s, ok
}

// newSvcCluster builds n nodes, each hosting one executor-shaped peer and
// one shuffle service, wired with the given transport. On the MPI designs
// the world has 2n ranks — rank i is peer i, rank n+i is its service — the
// same two-endpoints-per-node layout the Fig. 3 launcher produces. On UCR
// the push control plane rides sockets (as RDMA-Spark's Netty control
// plane does) while fetches go through a ucr.Server resolving from the
// service.
func newSvcCluster(t testing.TB, transport string, n int) *svcCluster {
	t.Helper()
	f := fabric.New(fabric.NewIBHDRModel())
	cl := &svcCluster{fab: f}

	nodes := make([]*fabric.Node, n)
	for i := range nodes {
		nodes[i] = f.AddNode(fmt.Sprintf("node%d", i))
	}

	var comm *mpi.Comm
	if transport == "mpi-basic" || transport == "mpi-opt" {
		ranks := make([]*fabric.Node, 2*n)
		for i := range nodes {
			ranks[i] = nodes[i]
			ranks[n+i] = nodes[i]
		}
		comm = mpi.NewWorld(f).InitWorld(ranks)
	}
	reg := &svcRegistry{servers: make(map[string]*ucr.Server)}

	design := core.DesignBasic
	if transport == "mpi-opt" {
		design = core.DesignOptimized
	}
	newEnv := func(name string, nd *fabric.Node, port string, rank int) *rpc.Env {
		var env *rpc.Env
		var err error
		switch transport {
		case "nio", "ucr":
			env, err = rpc.NewEnv(name, nd, port, rpc.DefaultEnvConfig())
		case "mpi-basic", "mpi-opt":
			id := &core.Identity{Kind: core.KindParent, World: comm.Handle(rank)}
			env, _, err = core.NewMPIEnv(name, nd, port, id, design, rpc.EnvConfig{})
		default:
			t.Fatalf("unknown transport %q", transport)
		}
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(env.Shutdown)
		return env
	}

	for i, nd := range nodes {
		p := &svcPeer{id: fmt.Sprintf("exec-%d", i), nd: nd}
		p.bm = storage.NewBlockManager(p.id)
		p.sm = shuffle.NewManager(p.bm)
		p.sm.Retry = shuffle.RetryPolicy{
			MaxRetries:    2,
			RetryWait:     100 * time.Microsecond,
			FetchDeadline: 50 * time.Millisecond,
		}
		p.env = newEnv(p.id, nd, "rpc", i)

		svcID := fmt.Sprintf("shuffle-svc-%d", i)
		sEnv := newEnv(svcID, nd, "svc-rpc", n+i)
		p.svc = shuffleservice.New(svcID, sEnv)

		if transport == "ucr" {
			srv := ucr.NewServer(rdma.OpenDevice(nd), p.svc.Resolve, ucr.DefaultConfig())
			reg.mu.Lock()
			reg.servers[svcID] = srv
			reg.mu.Unlock()
			t.Cleanup(srv.Close)
			p.bts = shuffle.NewUCRBTS(rdma.OpenDevice(nd), reg)
		} else {
			p.bts = shuffle.NewNettyBTS(p.env)
		}
		t.Cleanup(p.bts.Close)
		cl.peers = append(cl.peers, p)
	}
	return cl
}

// pushMapOutput mirrors the executor's service-enabled write path: push
// every non-empty partition to the peer's local service and return a
// MapStatus locating the output at the service.
func pushMapOutput(t testing.TB, p *svcPeer, shuffleID, mapID int, parts [][]byte) *shuffle.MapStatus {
	t.Helper()
	sizes := make([]int64, len(parts))
	sums := make([]uint32, len(parts))
	for r, part := range parts {
		sizes[r], sums[r] = int64(len(part)), shuffle.Checksum(part)
		if len(part) == 0 {
			continue
		}
		ack, _, err := p.env.PushBlock(p.svc.Addr(), shuffleID, mapID, r, part, sums[r], 0)
		if err != nil {
			t.Fatalf("push %d/%d/%d: %v", shuffleID, mapID, r, err)
		}
		if string(ack) != shuffleservice.AckPushed {
			t.Fatalf("push %d/%d/%d: ack %q, want %q", shuffleID, mapID, r, ack, shuffleservice.AckPushed)
		}
	}
	return &shuffle.MapStatus{Loc: p.svc.Location(), Sizes: sizes, Sums: sums}
}

func fetchGuarded(t testing.TB, p *svcPeer, shuffleID, reduceID int, statuses []*shuffle.MapStatus, at vtime.Stamp) ([]shuffle.FetchResult, vtime.Stamp, error) {
	t.Helper()
	type res struct {
		results []shuffle.FetchResult
		vt      vtime.Stamp
		err     error
	}
	ch := make(chan res, 1)
	go func() {
		results, vt, err := p.sm.FetchShuffleParts(shuffleID, reduceID, statuses, p.id, p.bts, at)
		ch <- res{results, vt, err}
	}()
	select {
	case r := <-ch:
		return r.results, r.vt, r.err
	case <-time.After(30 * time.Second):
		t.Fatal("shuffle fetch hung")
		return nil, 0, nil
	}
}

// svcBlock builds deterministic content for (map, reduce).
func svcBlock(m, r, size int) []byte {
	b := make([]byte, size)
	for i := range b {
		b[i] = byte(1 + 7*m + 3*r + i)
	}
	return b
}

// TestServicePushMergeFetchBoundaries round-trips blocks sized at the
// batched-fetch chunk boundaries — 0, 1, chunk, chunk+1 bytes — through
// push, merge, and merged-run fetch on every transport, and requires the
// three service counters to reconcile exactly: every accepted pushed byte
// merged once and served once, with the empty partition costing nothing.
func TestServicePushMergeFetchBoundaries(t *testing.T) {
	forEachTransport(t, func(t *testing.T, transport string) {
		const chunk = 512
		sizes := []int{0, 1, chunk, chunk + 1}
		cl := newSvcCluster(t, transport, 2)
		reducer := cl.peers[0]
		reducer.sm.ChunkBytes = chunk

		const shuffleID = 5
		before := metrics.Snapshot()
		statuses := make([]*shuffle.MapStatus, len(cl.peers))
		var pushed int64
		for m, p := range cl.peers {
			parts := make([][]byte, len(sizes))
			for r, size := range sizes {
				parts[r] = svcBlock(m, r, size)
				pushed += int64(size)
			}
			statuses[m] = pushMapOutput(t, p, shuffleID, m, parts)
		}
		if d := before.DeltaValue(shuffleservice.CounterPushedBytes); d != pushed {
			t.Fatalf("pushed_bytes delta = %d, want %d", d, pushed)
		}

		for r, size := range sizes {
			results, _, err := fetchGuarded(t, reducer, shuffleID, r, statuses, 0)
			if err != nil {
				t.Fatalf("reduce %d: %v", r, err)
			}
			for m := range statuses {
				if !bytes.Equal(results[m].Data, svcBlock(m, r, size)) {
					t.Fatalf("reduce %d map %d: got %d bytes, want %d", r, m, len(results[m].Data), size)
				}
			}
		}

		if d := before.DeltaValue(shuffleservice.CounterMergedBytes); d != pushed {
			t.Fatalf("merged_bytes delta = %d, want %d", d, pushed)
		}
		if d := before.DeltaValue(shuffleservice.CounterServedBytes); d != pushed {
			t.Fatalf("served_bytes delta = %d, want %d", d, pushed)
		}
		// Three non-empty partitions, each fetched as one merged run per
		// service; the empty partition must not touch the wire at all.
		if d := before.DeltaValue("shuffle.fetch.merged_runs"); d != int64(3*len(cl.peers)) {
			t.Fatalf("merged_runs delta = %d, want %d", d, 3*len(cl.peers))
		}
	})
}

// TestServiceFallbackFetch disables merging (the service still holds the
// pushed blocks) and requires the manager to fall back to per-block
// fetches served from the service's block store — on every transport —
// with zero merged runs built or served.
func TestServiceFallbackFetch(t *testing.T) {
	forEachTransport(t, func(t *testing.T, transport string) {
		cl := newSvcCluster(t, transport, 2)
		reducer := cl.peers[0]
		const shuffleID, nReduce, size = 6, 2, 2048

		before := metrics.Snapshot()
		statuses := make([]*shuffle.MapStatus, len(cl.peers))
		for m, p := range cl.peers {
			p.svc.SetMergeEnabled(false)
			parts := make([][]byte, nReduce)
			for r := range parts {
				parts[r] = svcBlock(m, r, size)
			}
			statuses[m] = pushMapOutput(t, p, shuffleID, m, parts)
		}

		for r := 0; r < nReduce; r++ {
			results, _, err := fetchGuarded(t, reducer, shuffleID, r, statuses, 0)
			if err != nil {
				t.Fatalf("reduce %d: %v", r, err)
			}
			for m := range statuses {
				if !bytes.Equal(results[m].Data, svcBlock(m, r, size)) {
					t.Fatalf("reduce %d map %d corrupted", r, m)
				}
			}
		}

		if d := before.DeltaValue("shuffle.fetch.merged_runs"); d != 0 {
			t.Fatalf("merged_runs delta = %d, want 0", d)
		}
		if d := before.DeltaValue(shuffleservice.CounterMergedBytes); d != 0 {
			t.Fatalf("merged_bytes delta = %d, want 0", d)
		}
		want := int64(len(cl.peers) * nReduce * size)
		if d := before.DeltaValue(shuffleservice.CounterServedBytes); d != want {
			t.Fatalf("served_bytes delta = %d, want %d", d, want)
		}
	})
}

// TestServiceDuplicatePush re-pushes an already-held block over the wire
// on every transport: the second push must ack AckDuplicate, count
// nothing, and leave exactly one copy in the merged run.
func TestServiceDuplicatePush(t *testing.T) {
	forEachTransport(t, func(t *testing.T, transport string) {
		cl := newSvcCluster(t, transport, 1)
		p := cl.peers[0]
		const shuffleID = 8
		block := svcBlock(0, 0, 1024)

		before := metrics.Snapshot()
		st := pushMapOutput(t, p, shuffleID, 0, [][]byte{block})
		ack, _, err := p.env.PushBlock(p.svc.Addr(), shuffleID, 0, 0, block, shuffle.Checksum(block), 0)
		if err != nil {
			t.Fatal(err)
		}
		if string(ack) != shuffleservice.AckDuplicate {
			t.Fatalf("re-push ack %q, want %q", ack, shuffleservice.AckDuplicate)
		}
		if d := before.DeltaValue(shuffleservice.CounterPushedBytes); d != int64(len(block)) {
			t.Fatalf("pushed_bytes delta after duplicate = %d, want %d", d, len(block))
		}

		results, _, err := fetchGuarded(t, p, shuffleID, 0, []*shuffle.MapStatus{st}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(results[0].Data, block) {
			t.Fatalf("duplicate push corrupted block: got %d bytes", len(results[0].Data))
		}
	})
}

// TestServiceAdoptsPiecedPush: on MPI4Spark-Optimized a pushed block larger
// than the eager threshold crosses as eager-sized pieces, consecutive
// windows of the pusher's block, and core.optInbound adopts them
// (bytebuf.Reassembly): the service stores the pushed block's own memory, as
// it does on every other transport and for a block that fits in one piece.
func TestServiceAdoptsPiecedPush(t *testing.T) {
	cl := newSvcCluster(t, "mpi-opt", 1)
	p := cl.peers[0]
	const shuffleID = 9
	// The first push completes the channel's MPI handshake (until then
	// frames stay whole on the socket); the second is pieced.
	block := svcBlock(0, 1, 3*mpi.DefaultEagerThreshold+17)
	pushMapOutput(t, p, shuffleID, 0, [][]byte{{1}, block})
	stored, ok := p.svc.BlockManager().Get(storage.ShuffleBlockID(shuffleID, 0, 1))
	if !ok || !bytes.Equal(stored, block) {
		t.Fatalf("stored block: ok %v, %d bytes, want the %d pushed", ok, len(stored), len(block))
	}
	if &stored[0] != &block[0] || cap(stored) != len(stored) {
		t.Fatalf("stored block is a copy (aliases %v) or has capacity %d past its %d bytes",
			&stored[0] == &block[0], cap(stored), len(stored))
	}
}

// fetchRangeGuarded is fetchGuarded for a [mapLo, mapHi) restricted fetch.
func fetchRangeGuarded(t testing.TB, p *svcPeer, shuffleID, reduceID int, statuses []*shuffle.MapStatus, mapLo, mapHi int) ([]shuffle.FetchResult, error) {
	t.Helper()
	type res struct {
		results []shuffle.FetchResult
		err     error
	}
	ch := make(chan res, 1)
	go func() {
		results, _, err := p.sm.FetchShuffleRange(shuffleID, reduceID, statuses, p.id, p.bts, 0, mapLo, mapHi)
		ch <- res{results, err}
	}()
	select {
	case r := <-ch:
		return r.results, r.err
	case <-time.After(30 * time.Second):
		t.Fatal("ranged shuffle fetch hung")
		return nil, nil
	}
}

// TestServiceRangedFetchBoundaries exercises the map-range fetch primitive
// behind skew splitting at its boundary ranges — empty, single-map,
// interior, full-width, and over/under-clamped — on every transport.
// In-range blocks must be byte-exact, out-of-range entries empty, and the
// service must serve only in-range payload bytes.
func TestServiceRangedFetchBoundaries(t *testing.T) {
	forEachTransport(t, func(t *testing.T, transport string) {
		const nMaps, shuffleID, reduceID, size = 4, 11, 0, 3000
		cl := newSvcCluster(t, transport, nMaps)
		reducer := cl.peers[0]

		statuses := make([]*shuffle.MapStatus, nMaps)
		for m, p := range cl.peers {
			statuses[m] = pushMapOutput(t, p, shuffleID, m, [][]byte{svcBlock(m, reduceID, size)})
		}

		ranges := []struct{ lo, hi int }{
			{0, 0},             // empty range: no maps, no bytes
			{0, 1},             // single map at the left edge
			{nMaps - 1, nMaps}, // single map at the right edge
			{1, 3},             // interior slice
			{0, nMaps},         // full width
			{0, nMaps + 1},     // overshoot: clamped to nMaps
			{-1, 2},            // undershoot: clamped to 0
		}
		for _, rg := range ranges {
			before := metrics.Snapshot()
			results, err := fetchRangeGuarded(t, reducer, shuffleID, reduceID, statuses, rg.lo, rg.hi)
			if err != nil {
				t.Fatalf("range [%d,%d): %v", rg.lo, rg.hi, err)
			}
			if len(results) != nMaps {
				t.Fatalf("range [%d,%d): %d results, want %d (globally indexed)", rg.lo, rg.hi, len(results), nMaps)
			}
			lo, hi := rg.lo, rg.hi
			if lo < 0 {
				lo = 0
			}
			if hi > nMaps {
				hi = nMaps
			}
			var wantServed int64
			for m := range results {
				if m >= lo && m < hi {
					if !bytes.Equal(results[m].Data, svcBlock(m, reduceID, size)) {
						t.Fatalf("range [%d,%d): map %d corrupted", rg.lo, rg.hi, m)
					}
					wantServed += size // served even when reducer-local
				} else if len(results[m].Data) != 0 {
					t.Fatalf("range [%d,%d): out-of-range map %d returned %d bytes", rg.lo, rg.hi, m, len(results[m].Data))
				}
			}
			if d := before.DeltaValue(shuffleservice.CounterServedBytes); d != wantServed {
				t.Fatalf("range [%d,%d): served_bytes delta = %d, want %d", rg.lo, rg.hi, d, wantServed)
			}
		}
	})
}

// TestServiceRangedFetchFallback disables merged runs mid-shuffle: a
// ranged fetch must then be served by the per-block path — which is
// inherently ranged — with identical bytes and zero merged runs built, on
// every transport. This is the split-sub-task + merge-disabled
// interaction: skew splitting must not depend on the merge path being
// available.
func TestServiceRangedFetchFallback(t *testing.T) {
	forEachTransport(t, func(t *testing.T, transport string) {
		const nMaps, shuffleID, reduceID, size = 3, 12, 0, 2048
		cl := newSvcCluster(t, transport, nMaps)
		reducer := cl.peers[0]

		statuses := make([]*shuffle.MapStatus, nMaps)
		for m, p := range cl.peers {
			p.svc.SetMergeEnabled(false)
			statuses[m] = pushMapOutput(t, p, shuffleID, m, [][]byte{svcBlock(m, reduceID, size)})
		}

		before := metrics.Snapshot()
		results, err := fetchRangeGuarded(t, reducer, shuffleID, reduceID, statuses, 1, 3)
		if err != nil {
			t.Fatal(err)
		}
		for m := 1; m < 3; m++ {
			if !bytes.Equal(results[m].Data, svcBlock(m, reduceID, size)) {
				t.Fatalf("fallback range: map %d corrupted", m)
			}
		}
		if len(results[0].Data) != 0 {
			t.Fatalf("fallback range: out-of-range map 0 returned %d bytes", len(results[0].Data))
		}
		if d := before.DeltaValue("shuffle.fetch.merged_runs"); d != 0 {
			t.Fatalf("merged_runs delta = %d, want 0 with merge disabled", d)
		}
		if d := before.DeltaValue(shuffleservice.CounterMergedBytes); d != 0 {
			t.Fatalf("merged_bytes delta = %d, want 0 with merge disabled", d)
		}
		if d := before.DeltaValue(shuffleservice.CounterServedBytes); d != 2*size {
			t.Fatalf("served_bytes delta = %d, want %d", d, 2*size)
		}
	})
}
