// Cross-transport conformance suite for the shuffle read path: the same
// behavioral matrix — empty blocks, missing map outputs, large blocks,
// concurrent reducers, mid-fetch node failure — executed against all four
// BlockTransferService configurations (NIO sockets, MPI4Spark-Basic,
// MPI4Spark-Optimized, UCR/verbs). The suite lives in an external test
// package so it can wire up internal/core's MPI transports without an
// import cycle (core imports spark, which imports shuffle).
package shuffle_test

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"mpi4spark/internal/core"
	"mpi4spark/internal/fabric"
	"mpi4spark/internal/mpi"
	"mpi4spark/internal/rdma"
	"mpi4spark/internal/spark/rpc"
	"mpi4spark/internal/spark/shuffle"
	"mpi4spark/internal/spark/storage"
	"mpi4spark/internal/ucr"
	"mpi4spark/internal/vtime"
)

// conformanceTransports names the four BlockTransferService configurations
// under test.
var conformanceTransports = []string{"nio", "mpi-basic", "mpi-opt", "ucr"}

func forEachTransport(t *testing.T, fn func(t *testing.T, transport string)) {
	for _, tr := range conformanceTransports {
		tr := tr
		t.Run(tr, func(t *testing.T) { fn(t, tr) })
	}
}

// confPeer is one executor-shaped endpoint: block manager, shuffle
// manager, and a transfer service speaking the transport under test.
type confPeer struct {
	id  string
	nd  *fabric.Node
	env *rpc.Env
	bm  *storage.BlockManager
	sm  *shuffle.Manager
	bts shuffle.BlockTransferService
	loc shuffle.Location
}

type confCluster struct {
	fab   *fabric.Fabric
	peers []*confPeer
}

type confRegistry struct {
	mu      sync.Mutex
	servers map[string]*ucr.Server
}

func (r *confRegistry) UCRServer(id string) (*ucr.Server, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	s, ok := r.servers[id]
	return s, ok
}

// newConfCluster builds n peers on distinct nodes wired with the given
// transport. Remote fetches retry quickly so failure tests stay fast.
func newConfCluster(t testing.TB, transport string, n int) *confCluster {
	t.Helper()
	f := fabric.New(fabric.NewIBHDRModel())
	cl := &confCluster{fab: f}

	nodes := make([]*fabric.Node, n)
	for i := range nodes {
		nodes[i] = f.AddNode(fmt.Sprintf("peer%d", i))
	}

	var comm *mpi.Comm
	if transport == "mpi-basic" || transport == "mpi-opt" {
		comm = mpi.NewWorld(f).InitWorld(nodes)
	}
	reg := &confRegistry{servers: make(map[string]*ucr.Server)}

	for i, nd := range nodes {
		p := &confPeer{id: fmt.Sprintf("exec-%d", i), nd: nd}
		p.bm = storage.NewBlockManager(p.id)
		p.sm = shuffle.NewManager(p.bm)
		p.sm.Retry = shuffle.RetryPolicy{
			MaxRetries:    2,
			RetryWait:     100 * time.Microsecond,
			FetchDeadline: 50 * time.Millisecond,
		}
		resolve := func(bm *storage.BlockManager) func(string) ([]byte, bool) {
			return func(id string) ([]byte, bool) { return bm.Get(storage.BlockID(id)) }
		}(p.bm)

		var err error
		switch transport {
		case "nio":
			p.env, err = rpc.NewEnv(p.id, nd, "rpc", rpc.DefaultEnvConfig())
		case "mpi-basic", "mpi-opt":
			design := core.DesignBasic
			if transport == "mpi-opt" {
				design = core.DesignOptimized
			}
			id := &core.Identity{Kind: core.KindParent, World: comm.Handle(i)}
			p.env, _, err = core.NewMPIEnv(p.id, nd, "rpc", id, design, rpc.EnvConfig{})
		case "ucr":
			srv := ucr.NewServer(rdma.OpenDevice(nd), resolve, ucr.DefaultConfig())
			reg.mu.Lock()
			reg.servers[p.id] = srv
			reg.mu.Unlock()
			t.Cleanup(srv.Close)
			p.bts = shuffle.NewUCRBTS(rdma.OpenDevice(nd), reg)
			p.loc = shuffle.Location{ExecID: p.id, Addr: fabric.Addr{Node: nd.Name(), Port: "ucr"}}
		default:
			t.Fatalf("unknown transport %q", transport)
		}
		if err != nil {
			t.Fatal(err)
		}
		if p.env != nil {
			env := p.env
			t.Cleanup(env.Shutdown)
			env.RegisterChunkResolver(resolve)
			p.bts = shuffle.NewNettyBTS(env)
			p.loc = shuffle.Location{ExecID: p.id, Addr: env.Addr()}
		}
		t.Cleanup(p.bts.Close)
		cl.peers = append(cl.peers, p)
	}
	return cl
}

// fetchGuarded runs FetchShuffleParts with a wall-clock hang guard: a
// transport that swallows a failure instead of surfacing it would
// otherwise block the suite for the full test timeout.
func fetchGuarded(t testing.TB, p *confPeer, shuffleID, reduceID int, statuses []*shuffle.MapStatus, at vtime.Stamp) ([]shuffle.FetchResult, vtime.Stamp, error) {
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

// block builds deterministic content for (map, reduce).
func confBlock(m, r, size int) []byte {
	return bytes.Repeat([]byte{byte(1 + 10*m + r)}, size)
}

// TestConformanceFetchMatrix writes three map outputs (one per peer) with
// a deliberately empty partition and verifies a reducer on peer 0
// reassembles every reduce partition correctly — mixing local and remote
// blocks, with empty blocks skipped rather than fetched.
func TestConformanceFetchMatrix(t *testing.T) {
	forEachTransport(t, func(t *testing.T, transport string) {
		cl := newConfCluster(t, transport, 3)
		const shuffleID, nReduce = 7, 3
		statuses := make([]*shuffle.MapStatus, 3)
		for m, p := range cl.peers {
			parts := make([][]byte, nReduce)
			for r := range parts {
				if r == 1 {
					continue // reduce partition 1 gets no data from anyone
				}
				parts[r] = confBlock(m, r, 1000*(m+1))
			}
			statuses[m] = p.sm.WriteMapOutput(shuffleID, m, parts, p.loc)
		}
		for r := 0; r < nReduce; r++ {
			results, vt, err := fetchGuarded(t, cl.peers[0], shuffleID, r, statuses, 0)
			if err != nil {
				t.Fatalf("reduce %d: %v", r, err)
			}
			for m := range statuses {
				want := confBlock(m, r, 1000*(m+1))
				if r == 1 {
					want = nil
				}
				if !bytes.Equal(results[m].Data, want) {
					t.Fatalf("reduce %d map %d: got %d bytes, want %d", r, m, len(results[m].Data), len(want))
				}
			}
			if r != 1 && vt <= 0 {
				t.Fatalf("reduce %d: fetch was free", r)
			}
		}
	})
}

// TestConformanceLargeBlocks moves a multi-megabyte block through each
// transport (UCR chunks it; MPI designs take the rendezvous path).
func TestConformanceLargeBlocks(t *testing.T) {
	forEachTransport(t, func(t *testing.T, transport string) {
		cl := newConfCluster(t, transport, 2)
		big := make([]byte, 2<<20)
		for i := range big {
			big[i] = byte(i * 31)
		}
		st := cl.peers[1].sm.WriteMapOutput(1, 0, [][]byte{big}, cl.peers[1].loc)
		results, vt, err := fetchGuarded(t, cl.peers[0], 1, 0, []*shuffle.MapStatus{st}, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(results[0].Data, big) {
			t.Fatalf("large block corrupted: got %d bytes", len(results[0].Data))
		}
		if vt < vtime.Stamp(cl.fab.TransferTime(fabric.TCP, 1)) {
			t.Fatal("large fetch cheaper than a 1-byte transfer")
		}
	})
}

// TestConformanceMissingMapOutput covers both metadata-level and
// data-level loss: a nil status fails immediately with a zero location,
// and a status pointing at a block the server no longer holds exhausts
// its retries and reports the serving executor.
func TestConformanceMissingMapOutput(t *testing.T) {
	forEachTransport(t, func(t *testing.T, transport string) {
		cl := newConfCluster(t, transport, 2)

		_, _, err := fetchGuarded(t, cl.peers[0], 2, 0, []*shuffle.MapStatus{nil}, 0)
		ff, ok := shuffle.AsFetchFailed(err)
		if !ok {
			t.Fatalf("nil status: got %v, want FetchFailedError", err)
		}
		if ff.Loc.ExecID != "" {
			t.Fatalf("nil status: location should be empty, got %q", ff.Loc.ExecID)
		}

		// Status claims a block that was never written on the server.
		ghost := &shuffle.MapStatus{Loc: cl.peers[1].loc, Sizes: []int64{4096}, Sums: []uint32{1}}
		_, _, err = fetchGuarded(t, cl.peers[0], 2, 0, []*shuffle.MapStatus{ghost}, 0)
		ff, ok = shuffle.AsFetchFailed(err)
		if !ok {
			t.Fatalf("ghost block: got %v, want FetchFailedError", err)
		}
		if ff.Loc.ExecID != cl.peers[1].id {
			t.Fatalf("ghost block: location = %q, want %q", ff.Loc.ExecID, cl.peers[1].id)
		}
		if ff.ShuffleID != 2 || ff.MapID != 0 || ff.ReduceID != 0 {
			t.Fatalf("ghost block: ids = %d/%d/%d", ff.ShuffleID, ff.MapID, ff.ReduceID)
		}
	})
}

// TestConformanceConcurrentReducers runs several reduce tasks fetching
// disjoint partitions from the same servers at once.
func TestConformanceConcurrentReducers(t *testing.T) {
	forEachTransport(t, func(t *testing.T, transport string) {
		cl := newConfCluster(t, transport, 3)
		const shuffleID, nReduce = 9, 4
		statuses := make([]*shuffle.MapStatus, len(cl.peers))
		for m, p := range cl.peers {
			parts := make([][]byte, nReduce)
			for r := range parts {
				parts[r] = confBlock(m, r, 2000)
			}
			statuses[m] = p.sm.WriteMapOutput(shuffleID, m, parts, p.loc)
		}
		var wg sync.WaitGroup
		errs := make([]error, nReduce)
		for r := 0; r < nReduce; r++ {
			wg.Add(1)
			go func(r int) {
				defer wg.Done()
				reducer := cl.peers[r%len(cl.peers)]
				results, _, err := reducer.sm.FetchShuffleParts(shuffleID, r, statuses, reducer.id, reducer.bts, 0)
				if err != nil {
					errs[r] = err
					return
				}
				for m := range statuses {
					if !bytes.Equal(results[m].Data, confBlock(m, r, 2000)) {
						errs[r] = fmt.Errorf("reduce %d map %d corrupted", r, m)
						return
					}
				}
			}(r)
		}
		done := make(chan struct{})
		go func() { wg.Wait(); close(done) }()
		select {
		case <-done:
		case <-time.After(30 * time.Second):
			t.Fatal("concurrent reducers hung")
		}
		for r, err := range errs {
			if err != nil {
				t.Fatalf("reduce %d: %v", r, err)
			}
		}
	})
}

// TestConformanceMidFetchFailNode kills the serving node while the block
// body is on the wire (triggered from the fabric's transfer hook on the
// first bulk transfer leaving the server) and requires the fetch to
// surface a FetchFailedError naming that server — on every transport —
// instead of hanging or succeeding silently. Blocks are sized to span
// several UCR chunks so the failure lands mid-block there too.
func TestConformanceMidFetchFailNode(t *testing.T) {
	forEachTransport(t, func(t *testing.T, transport string) {
		cl := newConfCluster(t, transport, 2)
		victim := cl.peers[1]
		block := confBlock(0, 0, 512<<10)
		st := victim.sm.WriteMapOutput(3, 0, [][]byte{block}, victim.loc)

		// Trigger predicate per transport. On sockets and UCR, the first
		// bulk transfer out of the victim is the block body, so failing
		// there lands mid-block. On the MPI designs the bulk rendezvous
		// transfer happens inside the receiver's committed MPI_Recv (the
		// data would land anyway), so the trigger is the victim's first
		// MPI-protocol send — the response frame / rendezvous RTS — which
		// kills the node while the response is in protocol flight.
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

		_, _, err := fetchGuarded(t, cl.peers[0], 3, 0, []*shuffle.MapStatus{st}, 0)
		if err == nil {
			t.Fatal("fetch from mid-transfer-failed node succeeded")
		}
		ff, ok := shuffle.AsFetchFailed(err)
		if !ok {
			t.Fatalf("got %v, want FetchFailedError", err)
		}
		if ff.Loc.ExecID != victim.id {
			t.Fatalf("failure blamed %q, want %q", ff.Loc.ExecID, victim.id)
		}

		// The node stays dead: a fresh fetch must fail fast, not hang.
		_, _, err = fetchGuarded(t, cl.peers[0], 3, 0, []*shuffle.MapStatus{st}, 0)
		if _, ok := shuffle.AsFetchFailed(err); !ok {
			t.Fatalf("post-failure fetch: got %v, want FetchFailedError", err)
		}
	})
}
