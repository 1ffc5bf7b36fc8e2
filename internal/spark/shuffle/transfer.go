package shuffle

import (
	"fmt"
	"sync"

	"mpi4spark/internal/rdma"
	"mpi4spark/internal/spark/rpc"
	"mpi4spark/internal/ucr"
	"mpi4spark/internal/vtime"
)

// BlockTransferService fetches remote blocks. Spark's vanilla
// implementation rides on Netty; RDMA-Spark substitutes a UCR-based one.
// MPI4Spark deliberately does NOT substitute this layer — it swaps the
// transport underneath Netty, which is the paper's core design point.
type BlockTransferService interface {
	// Fetch retrieves a batch of blocks from the executor or shuffle
	// service at loc in a single request, streaming the reply in chunks of
	// at most chunkBytes (transports with their own chunking, like UCR,
	// ignore the hint). It is the only fetch there is: a single block is a
	// batch of one, and a map-range slice of a merged run is a block with
	// an id of its own (RangedMergedBlockID). blockIDs are the ids' wire
	// form, which the caller builds once per task. Results are index-aligned
	// with blockIDs; failures are per block so one lost block does not void
	// its landed siblings. The returned error covers only request-level
	// failures.
	Fetch(loc Location, blockIDs []string, chunkBytes int, at vtime.Stamp) ([]rpc.BatchBlockResult, vtime.Stamp, error)
	// Close releases connections.
	Close()
}

// NettyBTS fetches blocks with ChunkFetchRequest/ChunkFetchSuccess messages
// over the executor's RPC environment — Spark's NettyBlockTransferService.
// Whether those frames ride TCP or MPI is decided by the environment's
// transport.
type NettyBTS struct {
	env *rpc.Env
}

// NewNettyBTS wraps an RPC environment.
func NewNettyBTS(env *rpc.Env) *NettyBTS { return &NettyBTS{env: env} }

// Fetch implements BlockTransferService: one round-trip, chunked and
// pipelined reply; blocks adopted by reference, chunk by chunk.
func (b *NettyBTS) Fetch(loc Location, blockIDs []string, chunkBytes int, at vtime.Stamp) ([]rpc.BatchBlockResult, vtime.Stamp, error) {
	return b.env.FetchBlockBatch(loc.Addr, blockIDs, chunkBytes, at)
}

// Close implements BlockTransferService (connections are owned by the env).
func (b *NettyBTS) Close() {}

// UCRServerRegistry resolves an executor id to its UCR block server —
// in-process service discovery for the RDMA-Spark baseline.
type UCRServerRegistry interface {
	UCRServer(execID string) (*ucr.Server, bool)
}

// UCRBTS is RDMA-Spark's BlockTransferService: per-peer UCR connections
// over verbs.
type UCRBTS struct {
	dev      *rdma.Device
	registry UCRServerRegistry

	mu      sync.Mutex
	clients map[string]*ucr.Client
}

// NewUCRBTS creates the RDMA-Spark transfer service for the executor
// owning dev.
func NewUCRBTS(dev *rdma.Device, registry UCRServerRegistry) *UCRBTS {
	return &UCRBTS{dev: dev, registry: registry, clients: make(map[string]*ucr.Client)}
}

// client returns (establishing on demand) the connection to loc's server
// and the virtual time it is usable.
func (b *UCRBTS) client(loc Location, at vtime.Stamp) (*ucr.Client, vtime.Stamp, error) {
	b.mu.Lock()
	client, ok := b.clients[loc.ExecID]
	b.mu.Unlock()
	vt := at
	if !ok {
		srv, found := b.registry.UCRServer(loc.ExecID)
		if !found {
			return nil, at, fmt.Errorf("shuffle: no UCR server for executor %s", loc.ExecID)
		}
		var err error
		client, vt, err = srv.Connect(b.dev, at)
		if err != nil {
			return nil, at, err
		}
		b.mu.Lock()
		if existing, raced := b.clients[loc.ExecID]; raced {
			b.mu.Unlock()
			client.Close()
			client = existing
		} else {
			b.clients[loc.ExecID] = client
			b.mu.Unlock()
		}
	}
	return client, vt, nil
}

// Fetch implements BlockTransferService natively: all block requests are
// posted on the connection up front and the reply streams drained in order,
// pipelining the server's chunked service across the batch. The chunkBytes
// hint is ignored — UCR chunks at its configured ChunkSize. UCR sits below
// Spark and has a result type of its own, converted here.
func (b *UCRBTS) Fetch(loc Location, blockIDs []string, chunkBytes int, at vtime.Stamp) ([]rpc.BatchBlockResult, vtime.Stamp, error) {
	client, vt, err := b.client(loc, at)
	if err != nil {
		return nil, at, err
	}
	rs, maxVT, err := client.FetchBlocks(blockIDs, vt)
	if err != nil {
		return nil, maxVT, err
	}
	out := make([]rpc.BatchBlockResult, len(rs))
	for i, r := range rs {
		out[i] = rpc.BatchBlockResult(r)
	}
	return out, maxVT, nil
}

// Close implements BlockTransferService.
func (b *UCRBTS) Close() {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, c := range b.clients {
		c.Close()
	}
	b.clients = make(map[string]*ucr.Client)
}
