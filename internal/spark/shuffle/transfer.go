package shuffle

import (
	"fmt"
	"sync"

	"mpi4spark/internal/rdma"
	"mpi4spark/internal/spark/rpc"
	"mpi4spark/internal/spark/storage"
	"mpi4spark/internal/ucr"
	"mpi4spark/internal/vtime"
)

// BlockTransferService fetches remote blocks. Spark's vanilla
// implementation rides on Netty; RDMA-Spark substitutes a UCR-based one.
// MPI4Spark deliberately does NOT substitute this layer — it swaps the
// transport underneath Netty, which is the paper's core design point.
type BlockTransferService interface {
	// Fetch retrieves blockID from the remote executor at loc.
	Fetch(loc Location, blockID storage.BlockID, at vtime.Stamp) ([]byte, vtime.Stamp, error)
	// FetchBatch retrieves a batch of blocks from one executor in a
	// single request, streaming the reply in chunks of at most chunkBytes
	// (transports with their own chunking, like UCR, may ignore the
	// hint). Results are index-aligned with blockIDs; failures are per
	// block so one lost block does not void its landed siblings. The
	// returned error covers only request-level failures. Implementations
	// without a native batch path can delegate to FetchBatchSerial.
	FetchBatch(loc Location, blockIDs []storage.BlockID, chunkBytes int, at vtime.Stamp) ([]BatchResult, vtime.Stamp, error)
	// Close releases connections.
	Close()
}

// BatchResult is one block's outcome within a batched fetch.
type BatchResult struct {
	// Data is the block's bytes, an immutable garbage-collected slice valid
	// for as long as it is referenced. A block that crossed the wire as a
	// single chunk may be the serving executor's stored block itself.
	Data []byte
	// VT is the virtual time the block's last chunk arrived.
	VT vtime.Stamp
	// Err is the block's failure, if any.
	Err error
}

// RangeFetcher is the optional BlockTransferService extension for ranged
// merged-run fetches: merged-run block ids in the batch are served as
// their [mapLo, mapHi) map-id slice. Transports that do not implement it
// simply never serve ranged merged runs — the manager's per-block path
// (which is naturally ranged, block ids being per-map) covers the range.
type RangeFetcher interface {
	FetchBatchRange(loc Location, blockIDs []storage.BlockID, chunkBytes, mapLo, mapHi int, at vtime.Stamp) ([]BatchResult, vtime.Stamp, error)
}

// FetchBatchSerial is the default FetchBatch shim: one Fetch round-trip
// per block, preserving pre-batching behavior for transports whose native
// batch path has not landed.
func FetchBatchSerial(bts BlockTransferService, loc Location, blockIDs []storage.BlockID, at vtime.Stamp) ([]BatchResult, vtime.Stamp, error) {
	results := make([]BatchResult, len(blockIDs))
	maxVT := at
	for i, id := range blockIDs {
		data, vt, err := bts.Fetch(loc, id, at)
		results[i] = BatchResult{Data: data, VT: vt, Err: err}
		maxVT = vtime.Max(maxVT, vt)
	}
	return results, maxVT, nil
}

// NettyBTS fetches blocks with ChunkFetchRequest/Success messages over the
// executor's RPC environment — Spark's NettyBlockTransferService. Whether
// those frames ride TCP or MPI is decided by the environment's transport.
type NettyBTS struct {
	env *rpc.Env
}

// NewNettyBTS wraps an RPC environment.
func NewNettyBTS(env *rpc.Env) *NettyBTS { return &NettyBTS{env: env} }

// Fetch implements BlockTransferService.
func (b *NettyBTS) Fetch(loc Location, blockID storage.BlockID, at vtime.Stamp) ([]byte, vtime.Stamp, error) {
	return b.env.FetchChunk(loc.Addr, string(blockID), at)
}

// FetchBatch implements BlockTransferService via the environment's
// FetchBlocksRequest/BlockBatchChunk pair — one round-trip, chunked and
// pipelined reply; blocks adopted by reference, chunk by chunk.
func (b *NettyBTS) FetchBatch(loc Location, blockIDs []storage.BlockID, chunkBytes int, at vtime.Stamp) ([]BatchResult, vtime.Stamp, error) {
	return b.FetchBatchRange(loc, blockIDs, chunkBytes, 0, 0, at)
}

// FetchBatchRange implements RangeFetcher: the [mapLo, mapHi) restriction
// rides the FetchBlocksRequest wire fields and is applied by the server's
// registered range rewriter before resolution.
func (b *NettyBTS) FetchBatchRange(loc Location, blockIDs []storage.BlockID, chunkBytes, mapLo, mapHi int, at vtime.Stamp) ([]BatchResult, vtime.Stamp, error) {
	ids := make([]string, len(blockIDs))
	for i, id := range blockIDs {
		ids[i] = string(id)
	}
	rs, vt, err := b.env.FetchBlockBatchRange(loc.Addr, ids, chunkBytes, mapLo, mapHi, at)
	if err != nil {
		return nil, vt, err
	}
	out := make([]BatchResult, len(rs))
	for i, r := range rs {
		out[i] = BatchResult{Data: r.Data, VT: r.VT, Err: r.Err}
	}
	return out, vt, nil
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

// Fetch implements BlockTransferService.
func (b *UCRBTS) Fetch(loc Location, blockID storage.BlockID, at vtime.Stamp) ([]byte, vtime.Stamp, error) {
	client, vt, err := b.client(loc, at)
	if err != nil {
		return nil, at, err
	}
	return client.FetchBlock(string(blockID), vt)
}

// FetchBatch implements BlockTransferService natively: all block requests
// are posted on the connection up front and the reply streams drained in
// order, pipelining the server's chunked service across the batch. The
// chunkBytes hint is ignored — UCR chunks at its configured ChunkSize.
func (b *UCRBTS) FetchBatch(loc Location, blockIDs []storage.BlockID, chunkBytes int, at vtime.Stamp) ([]BatchResult, vtime.Stamp, error) {
	return b.FetchBatchRange(loc, blockIDs, chunkBytes, 0, 0, at)
}

// FetchBatchRange implements RangeFetcher. UCR carries block ids as
// opaque strings end to end, so the range restriction is applied here by
// rewriting merged-run ids into their ranged form before the request is
// posted; the serving side resolves ranged ids directly.
func (b *UCRBTS) FetchBatchRange(loc Location, blockIDs []storage.BlockID, chunkBytes, mapLo, mapHi int, at vtime.Stamp) ([]BatchResult, vtime.Stamp, error) {
	client, vt, err := b.client(loc, at)
	if err != nil {
		return nil, at, err
	}
	ids := make([]string, len(blockIDs))
	for i, id := range blockIDs {
		ids[i] = string(id)
		if mapHi > mapLo {
			ids[i] = RewriteMergedRange(ids[i], mapLo, mapHi)
		}
	}
	rs, maxVT, err := client.FetchBlocks(ids, vt)
	if err != nil {
		return nil, maxVT, err
	}
	out := make([]BatchResult, len(rs))
	for i, r := range rs {
		out[i] = BatchResult{Data: r.Data, VT: r.VT, Err: r.Err}
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
