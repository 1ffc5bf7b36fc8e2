package rpc

import (
	"fmt"

	"mpi4spark/internal/bytebuf"
	"mpi4spark/internal/fabric"
	"mpi4spark/internal/metrics"
	"mpi4spark/internal/netty"
	"mpi4spark/internal/vtime"
)

// The block server half of an Env: the resolver-backed serving of
// ChunkFetchRequest (serve queue, chunk pump), the client-side reassembly
// behind FetchBlockBatch, and pushed blocks. All of it is charged on the
// environment's stream-manager occupancy (Env.chunkEngine).

// fetchChunks counts every chunk folded into a fetch, one per ChunkFetchSuccess:
// a handle, so the per-message path neither locks the registry nor hashes
// the name.
var fetchChunks = metrics.GetCounter("shuffle.fetch.chunks")

// chanPeers returns the local and remote node names of ch's connection,
// for fault-plane link matching ("" when unknown).
func chanPeers(ch *netty.Channel) (local, remote string) {
	if conn := ch.Conn(); conn != nil {
		if n := conn.LocalNode(); n != nil {
			local = n.Name()
		}
		if n := conn.RemoteNode(); n != nil {
			remote = n.Name()
		}
	}
	return
}

// RegisterChunkResolver installs the block resolver behind ChunkFetch
// requests (the BlockTransferService server side).
func (e *Env) RegisterChunkResolver(fn func(blockID string) ([]byte, bool)) {
	e.mu.Lock()
	e.chunkResolver = fn
	e.mu.Unlock()
}

// batchServe is the server-side streaming state of one ChunkFetchRequest:
// the resolved block bodies plus a cursor marking the next chunk to emit,
// and the message every chunk is written from.
type batchServe struct {
	ch         *netty.Channel
	id         int64
	chunkBytes int
	bodies     [][]byte
	found      []bool
	cur        int // next block index
	chunk      int // next chunk of the current block (bytebuf.Carve)
	vt         vtime.Stamp
	msg        ChunkFetchSuccess
}

// serveBatch answers a ChunkFetchRequest by streaming every requested
// block back as bounded-size ChunkFetchSuccess messages. Blocks are resolved
// at dispatch time, then the batch joins the environment's serve queue:
// a single pump goroutine emits one chunk per queue turn, round-robin
// across all active batches, so concurrent reducers' streams interleave on
// the stream manager (as Netty's chunked streams interleave on the event
// loop) instead of one batch monopolizing the NIC until done — burst-
// serving whole batches FIFO starves whichever reducer is served last and
// its straggling fetch bounds the stage. Each chunk is charged one
// chunkServeCost on the stream-manager clock; on the MPI designs each
// chunk becomes one eager/rendezvous MPI message. A block the resolver
// cannot find is reported as a single Missing chunk, failing only that
// block.
func (e *Env) serveBatch(ch *netty.Channel, m *ChunkFetchRequest, vt vtime.Stamp) {
	e.mu.Lock()
	resolver := e.chunkResolver
	e.mu.Unlock()
	b := &batchServe{
		ch: ch, id: m.FetchID, chunkBytes: int(m.ChunkBytes),
		bodies: make([][]byte, len(m.BlockIDs)),
		found:  make([]bool, len(m.BlockIDs)),
		vt:     vt,
	}
	bf := e.node.Fabric().BodyFaults()
	var local, remote string
	if bf != nil {
		local, remote = chanPeers(ch)
	}
	for i, id := range m.BlockIDs {
		if resolver != nil {
			b.bodies[i], b.found[i] = resolver(id)
		}
		// In-flight corruption, one verdict per served block (a merged run
		// is one block: any flipped bit in it is one detectable anomaly).
		// The damaged copy never touches the resolver's stored bytes.
		if b.found[i] && bf != nil {
			if nb, ok := bf.CorruptBody(local, remote, id, b.bodies[i], vt); ok {
				b.bodies[i] = nb
			}
		}
	}
	if len(b.bodies) == 0 {
		return
	}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.serveQ.Push(b)
	if !e.pumping {
		e.pumping = true
		e.threads.Go(func() error {
			e.servePump()
			return nil
		})
	}
	e.mu.Unlock()
}

// servePump drains the serve queue one chunk at a time, re-queueing
// batches that still have chunks left. It exits when the queue is empty,
// and the next serveBatch restarts it, or at its first turn after Shutdown,
// leaving the rest of every queued batch unsent.
func (e *Env) servePump() {
	for {
		e.mu.Lock()
		b, ok := e.serveQ.Pop()
		if !ok || e.closed {
			e.pumping = false
			e.mu.Unlock()
			return
		}
		e.mu.Unlock()
		if e.serveNextChunk(b) {
			e.mu.Lock()
			e.serveQ.Push(b)
			e.mu.Unlock()
		}
	}
}

// serveNextChunk emits batch b's next chunk and reports whether the batch
// has more to send. Every chunk of a batch is written from the one message
// the batch keeps, which each write owns only until it returns.
func (e *Env) serveNextChunk(b *batchServe) bool {
	i := b.cur
	_, svt := e.chunkEngine.Occupy(b.vt, chunkServeCost)
	m, n := &b.msg, 1
	*m = ChunkFetchSuccess{FetchID: b.id, Index: uint32(i), Missing: !b.found[i]}
	if b.found[i] {
		body := b.bodies[i]
		var lo, hi int
		n, lo, hi = bytebuf.Carve(len(body), b.chunkBytes, b.chunk)
		m.Total, m.Offset, m.Body = uint64(len(body)), uint64(lo), body[lo:hi]
	}
	b.ch.Write(m, svt)
	if b.chunk++; b.chunk == n {
		b.cur, b.chunk = b.cur+1, 0
	}
	return b.cur < len(b.bodies)
}

// batchBlock is the client-side reassembly state of one block in a batch.
type batchBlock struct {
	// data is the block once done: its chunk bodies by reference where they
	// are consecutive windows of the served block, as all chunks of an
	// undisturbed transfer are (never pooled: the block outlives the fetch).
	data bytebuf.Reassembly
	vt   vtime.Stamp
	err  error
	done bool
}

// pendingBatch tracks one outstanding ChunkFetchRequest: the channel it
// rides (so a channel death fails exactly its in-flight blocks) and the
// per-block reassembly state.
type pendingBatch struct {
	ch        *netty.Channel
	ids       []string
	blocks    []batchBlock
	remaining int
	done      vtime.Reply[struct{}] // put once no block is left in flight
}

// failRemaining marks every not-yet-landed block failed and completes the
// batch. Caller holds e.mu and has unregistered the batch.
func (b *pendingBatch) failRemaining(err error) {
	for i := range b.blocks {
		blk := &b.blocks[i]
		if !blk.done {
			blk.err = err
			blk.done = true
			b.remaining--
		}
	}
	b.done.Put(struct{}{})
}

// resolveBatchChunk folds one inbound chunk into its batch, then — under an
// installed fault plane — may fold the same chunk again, modeling a
// retransmitted frame whose original also landed. The replay must be (and
// is) dropped by bytebuf.Reassembly.Fold, so duplicate delivery is
// idempotent end to end. from/to name the sending and receiving nodes for
// fault-plane link matching.
func (e *Env) resolveBatchChunk(m *ChunkFetchSuccess, vt vtime.Stamp, from, to string) {
	if e.foldBatchChunk(m, vt, from, to, true) {
		e.foldBatchChunk(m, vt, from, to, false)
	}
}

// foldBatchChunk folds one chunk into its batch's reassembly state and
// reports whether a duplicate delivery of this chunk should be folded too
// (verdicts are only drawn when allowDup — the replay itself must not draw
// another). Chunks of one batch arrive in order on the batch's channel (the
// MPI-Optimized design recvs each diverted body before firing the header
// onward); the block's Reassembly checks each against the block and folds
// it (bytebuf.Reassembly.Fold), and a chunk it rejects fails only its block.
func (e *Env) foldBatchChunk(m *ChunkFetchSuccess, vt vtime.Stamp, from, to string, allowDup bool) (dup bool) {
	fetchChunks.Inc()
	e.mu.Lock()
	defer e.mu.Unlock()
	b := e.batches[m.FetchID]
	if b == nil || int(m.Index) >= len(b.blocks) {
		return false // stale chunk of an aborted batch
	}
	if allowDup {
		if bf := e.node.Fabric().BodyFaults(); bf != nil {
			key := fmt.Sprintf("%s@%d", b.ids[m.Index], m.Offset)
			dup = bf.DupDeliver(from, to, key, vt)
		}
	}
	blk := &b.blocks[m.Index]
	if blk.done {
		return dup
	}
	// A replay (the Offset of a chunk already folded) is dropped by the fold;
	// it arrives with its original, so the stamp below does not move either.
	var err error
	done := false
	if m.Missing {
		err = fmt.Errorf("block not found: %s", b.ids[m.Index])
	} else if done, err = blk.data.Fold(m.Offset, m.Total, m.Body); err != nil {
		err = fmt.Errorf("rpc: %s: %w", b.ids[m.Index], err)
	}
	blk.vt = vtime.Max(blk.vt, vt)
	if err != nil || done {
		blk.err, blk.done = err, true
		b.remaining--
	}
	if b.remaining == 0 {
		delete(e.batches, m.FetchID)
		b.done.Put(struct{}{})
	}
	return dup
}

// BatchBlockResult is one block's outcome within a batched fetch, whatever
// transport fetched it (shuffle.BlockTransferService returns it too): its
// bytes, the virtual time its last chunk arrived, or a per-block error.
// Data is an immutable garbage-collected slice, valid for as long as it is
// referenced: its chunk bodies by reference, aliasing the bytes the serving
// environment's resolver returned (bytebuf.Reassembly); only a block with a
// chunk that was copied on the way is reassembled, once, at its exact size.
type BatchBlockResult struct {
	Data []byte
	VT   vtime.Stamp
	Err  error
}

// Release does nothing; it exists for bench/ and a later benchmark PR may
// drop it.
func (BatchBlockResult) Release() {}

// FetchBlockBatch fetches a batch of blocks from the peer's resolver in
// one round-trip using the ChunkFetchRequest/ChunkFetchSuccess pair, in
// reply chunks of at most chunkBytes (zero: one per block); a single block
// is a batch of one. It blocks until every block has landed or failed and
// returns per-block results (index-aligned with blockIDs) plus the batch
// completion time. The top-level error covers only request-side
// failures (shutdown, connect); per-block failures — missing blocks, a
// malformed chunk, a peer dying mid-batch — are reported in the results so
// landed siblings survive.
func (e *Env) FetchBlockBatch(peer fabric.Addr, blockIDs []string, chunkBytes int, at vtime.Stamp) ([]BatchBlockResult, vtime.Stamp, error) {
	if len(blockIDs) == 0 {
		return nil, at, nil
	}
	ch, vt, err := e.connTo(peer, at)
	if err != nil {
		return nil, at, err
	}
	id := e.reqSeq.Add(1)
	b := &pendingBatch{
		ch:        ch,
		ids:       blockIDs,
		blocks:    make([]batchBlock, len(blockIDs)),
		remaining: len(blockIDs),
	}
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil, at, ErrShutdown
	}
	e.batches[id] = b
	e.mu.Unlock()
	ch.Write(&ChunkFetchRequest{FetchID: id, ChunkBytes: uint32(chunkBytes), BlockIDs: blockIDs}, vt)
	e.checkChannelAlive(ch)
	b.done.Wait()
	// Once done is put the batch is unregistered: no goroutine mutates it.
	out := make([]BatchBlockResult, len(blockIDs))
	maxVT := at
	for i := range b.blocks {
		blk := &b.blocks[i]
		r := BatchBlockResult{VT: vtime.Max(blk.vt, at), Err: blk.err}
		if blk.err == nil {
			r.Data = blk.data.Bytes()
		}
		if r.VT > maxVT {
			maxVT = r.VT
		}
		out[i] = r
	}
	return out, maxVT, nil
}

// RegisterPushHandler installs the receiver for inbound PushBlockRequest
// messages (the external shuffle service's ingest side). The handler's
// returned bytes become the RpcResponse ack payload; an error becomes an
// RpcFailure.
func (e *Env) RegisterPushHandler(fn func(m *PushBlockRequest, vt vtime.Stamp) ([]byte, error)) {
	e.mu.Lock()
	e.pushHandler = fn
	e.mu.Unlock()
}

// PushBlock pushes one committed shuffle block to the external shuffle
// service at peer and blocks for the ack — map tasks only report success
// once the service owns the block. sum is the block's write-time CRC32C,
// which the service verifies at ingest. It returns the service's ack
// payload and the virtual completion time.
func (e *Env) PushBlock(peer fabric.Addr, shuffleID, mapID, reduceID int, body []byte, sum uint32, at vtime.Stamp) ([]byte, vtime.Stamp, error) {
	id := e.reqSeq.Add(1)
	return e.roundTrip(peer, id, &PushBlockRequest{
		PushID: id, ShuffleID: shuffleID, MapID: mapID, ReduceID: reduceID, Sum: sum,
		BodyRef: BodyRef{Body: body},
	}, at)
}

// pushFaultKey names a pushed block to the fault plane.
func pushFaultKey(m *PushBlockRequest) string {
	return fmt.Sprintf("push_%d_%d_%d", m.ShuffleID, m.MapID, m.ReduceID)
}

// deliverPush serves one inbound push and, under a fault plane that says
// so, serves it again: duplicate delivery of a push (a retransmitted request
// whose original also landed) exercises the service's idempotent ingest: the
// replay acks AckDuplicate and merges nothing. The verdict is drawn before
// the first serve writes the ack, so a pusher that holds the ack finds the
// duplicate already counted by the plane.
func (e *Env) deliverPush(ch *netty.Channel, m *PushBlockRequest, vt vtime.Stamp) {
	dup := false
	if bf := e.node.Fabric().BodyFaults(); bf != nil {
		local, remote := chanPeers(ch)
		dup = bf.DupDeliver(remote, local, pushFaultKey(m), vt)
	}
	e.servePush(ch, m, vt)
	if dup {
		e.servePush(ch, m, vt)
	}
}

// servePush hands one pushed block to the registered push handler and acks
// with an RpcResponse (or RpcFailure) correlated by PushID. Like chunk
// serving it is charged on the stream-manager clock.
func (e *Env) servePush(ch *netty.Channel, m *PushBlockRequest, vt vtime.Stamp) {
	e.mu.Lock()
	handler := e.pushHandler
	e.mu.Unlock()
	_, svt := e.chunkEngine.Occupy(vt, chunkServeCost)
	if handler == nil {
		ch.Write(&RpcFailure{ReqID: m.PushID, Error: "no push handler"}, svt)
		return
	}
	// In-flight corruption of the pushed body, drawn per block. The damaged
	// copy stays local to this delivery (a duplicate delivery of the same
	// request re-corrupts from the original, drawing the same verdict), and
	// the carried CRC32C is what lets the service reject it at ingest.
	if bf := e.node.Fabric().BodyFaults(); bf != nil {
		local, remote := chanPeers(ch)
		if nb, ok := bf.CorruptBody(remote, local, pushFaultKey(m), m.Body, vt); ok {
			dm := *m
			dm.Body = nb
			m = &dm
		}
	}
	ack, err := handler(m, svt)
	if err != nil {
		ch.Write(&RpcFailure{ReqID: m.PushID, Error: err.Error()}, svt)
		return
	}
	ch.Write(&RpcResponse{ReqID: m.PushID, Payload: ack}, svt)
}
